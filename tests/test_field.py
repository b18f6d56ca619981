import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from field_reference import bracket, sample_velocity_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsim import field as field_module
from trajsim import parse_config
from trajsim.errors import LatticeError, ParseError, SchemaError, UnitsError
from trajsim.field import (
    AwayFromGoalSpec,
    FieldPerturbation,
    GyreSpec,
    UniformSpec,
    VelocityField,
    load_field,
    perturb_field,
    sample_velocity,
    synth_field,
)


def sample_reference(f, p, t):
    """Interpolation straight from the numpy lattice, no cell cache."""
    i0, i1, wx = bracket(f.x_grid, p[0])
    j0, j1, wy = bracket(f.y_grid, p[1])
    k0, k1, wt = bracket(f.t_grid, t)
    out = []
    for comp in (f.u, f.v):
        c00 = comp[k0, j0, i0] + wx * (comp[k0, j0, i1] - comp[k0, j0, i0])
        c01 = comp[k0, j1, i0] + wx * (comp[k0, j1, i1] - comp[k0, j1, i0])
        c0 = c00 + wy * (c01 - c00)
        if k1 != k0:
            c10 = comp[k1, j0, i0] + wx * (comp[k1, j0, i1] - comp[k1, j0, i0])
            c11 = comp[k1, j1, i0] + wx * (comp[k1, j1, i1] - comp[k1, j1, i0])
            c1 = c10 + wy * (c11 - c10)
            c0 = c0 + wt * (c1 - c0)
        out.append(float(c0))
    return (out[0], out[1])


def write_field(path, rows, header="t,x,y,u,v"):
    lines = [header] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def lattice_rows(ts, xs, ys, fn):
    rows = []
    for t in ts:
        for y in ys:
            for x in xs:
                u, v = fn(t, x, y)
                rows.append((t, x, y, u, v))
    return rows


class TestLoadField:
    def test_zero_lattice(self, tmp_path):
        rows = lattice_rows([0.0], [0.0, 10.0], [0.0, 10.0], lambda t, x, y: (0.0, 0.0))
        f = load_field(write_field(tmp_path / "f.csv", rows))
        assert f.v_o_max == 0.0
        assert f.u.shape == (1, 2, 2)

    def test_uniform_speed_cached(self, tmp_path):
        rows = lattice_rows([0.0, 5.0], [0.0, 1.0], [0.0, 1.0], lambda t, x, y: (0.3, 0.4))
        f = load_field(write_field(tmp_path / "f.csv", rows))
        assert f.v_o_max == pytest.approx(0.5)

    def test_missing_cell_named(self, tmp_path):
        rows = lattice_rows([0.0], [0.0, 1.0], [0.0, 1.0], lambda t, x, y: (1.0, 0.0))
        rows = [r for r in rows if not (r[1] == 1.0 and r[2] == 0.0)]
        with pytest.raises(LatticeError) as err:
            load_field(write_field(tmp_path / "f.csv", rows))
        assert "x=1.0" in str(err.value) and "y=0.0" in str(err.value)

    def test_duplicate_cell_rejected(self, tmp_path):
        rows = lattice_rows([0.0], [0.0, 1.0], [0.0, 1.0], lambda t, x, y: (1.0, 0.0))
        rows.append(rows[0])
        with pytest.raises(LatticeError):
            load_field(write_field(tmp_path / "f.csv", rows))

    def test_header_mismatch_is_units_error(self, tmp_path):
        rows = [(0, 0, 0, 0, 0)]
        with pytest.raises(UnitsError):
            load_field(write_field(tmp_path / "f.csv", rows, header="time,x,y,u,v"))

    def test_malformed_row_is_parse_error(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("t,x,y,u,v\n0,0,0,abc,0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_field(p)

    def test_row_order_is_free(self, tmp_path):
        rows = lattice_rows([0.0], [0.0, 1.0], [0.0, 1.0], lambda t, x, y: (x, y))
        f = load_field(write_field(tmp_path / "f.csv", list(reversed(rows))))
        assert sample_velocity(f, (1.0, 0.0), 0.0) == pytest.approx((1.0, 0.0))


class TestSampling:
    def grid_field(self):
        xs, ys, ts = (0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 10.0)
        u = np.arange(12, dtype=float).reshape(2, 2, 3)
        v = -np.arange(12, dtype=float).reshape(2, 2, 3)
        return VelocityField(xs, ys, ts, u, v)

    def test_exact_at_nodes(self):
        f = self.grid_field()
        for k, t in enumerate(f.t_grid):
            for j, y in enumerate(f.y_grid):
                for i, x in enumerate(f.x_grid):
                    got = sample_velocity(f, (x, y), t)
                    assert got == (f.u[k, j, i], f.v[k, j, i])

    def test_cell_center_average(self):
        xs, ys, ts = (0.0, 1.0), (0.0, 1.0), (0.0,)
        u = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        f = VelocityField(xs, ys, ts, u, np.zeros_like(u))
        got = sample_velocity(f, (0.5, 0.5), 0.0)
        assert got[0] == pytest.approx(2.5)

    def test_temporal_midpoint_average(self):
        xs, ys, ts = (0.0, 1.0), (0.0, 1.0), (0.0, 2.0)
        u = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)])
        f = VelocityField(xs, ys, ts, u, np.zeros_like(u))
        assert sample_velocity(f, (0.3, 0.7), 1.0)[0] == pytest.approx(2.0)

    def test_out_of_range_clamps(self):
        f = self.grid_field()
        inside = sample_velocity(f, (0.0, 0.0), 0.0)
        assert sample_velocity(f, (-50.0, -50.0), -5.0) == inside

    @pytest.mark.parametrize("nt", [1, 3])
    def test_cached_cells_match_reference_bitwise(self, nt):
        rng = np.random.default_rng(31)
        xs = tuple(np.linspace(0, 10, 6))
        ys = tuple(np.linspace(0, 8, 5))
        ts = tuple(np.linspace(0, 6, nt))
        f = VelocityField(xs, ys, ts, rng.normal(0, 1, (nt, 5, 6)), rng.normal(0, 1, (nt, 5, 6)))
        queries = [
            ((rng.uniform(-2, 12), rng.uniform(-2, 10)), rng.uniform(-1, 7)) for _ in range(400)
        ]
        queries += [((x, y), t) for x in xs for y in ys for t in ts]
        # repr tells -0.0 from 0.0; the second pass reads every cell from the cache
        for _ in range(2):
            for p, t in queries:
                assert repr(sample_velocity(f, p, t)) == repr(sample_reference(f, p, t))
        perturbed = perturb_field(f, FieldPerturbation(0.1, seed=4))
        for p, t in queries:
            got = sample_velocity(perturbed, p, t)
            assert repr(got) == repr(sample_reference(perturbed, p, t))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nt=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_form_bitwise(self, data, nt, seed):
        rng = np.random.default_rng(seed)
        nx, ny = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 5))
        xs = tuple(np.cumsum(rng.uniform(0.1, 3.0, nx)) - 4.0)
        ys = tuple(np.cumsum(rng.uniform(0.1, 3.0, ny)) - 4.0)
        ts = tuple(np.cumsum(rng.uniform(0.5, 5.0, nt)))
        # exact zeros of both signs, so a reordered sum would show as -0.0
        u = rng.choice([rng.normal(0, 1), 0.0, -0.0, 1.5], (nt, ny, nx))
        v = rng.normal(0, 1, (nt, ny, nx))
        f = VelocityField(xs, ys, ts, u, v)

        def coord(grid):
            lo, hi = grid[0], grid[-1]
            return data.draw(
                st.one_of(
                    st.floats(lo, hi),  # inside the lattice
                    st.sampled_from(grid),  # on a node
                    st.floats(lo - 50.0, lo),  # at or past the low edge
                    st.floats(hi, hi + 50.0),  # at or past the high edge
                )
            )

        for _ in range(8):
            p, t = (coord(xs), coord(ys)), coord(ts)
            got, want = sample_velocity(f, p, t), sample_velocity_loop(f, p, t)
            assert got == want and repr(got) == repr(want)

    def test_bounded_by_corner_extrema(self):
        rng = np.random.default_rng(8)
        xs = tuple(np.linspace(0, 10, 5))
        ys = tuple(np.linspace(0, 8, 4))
        ts = tuple(np.linspace(0, 6, 3))
        u = rng.normal(0, 1, (3, 4, 5))
        v = rng.normal(0, 1, (3, 4, 5))
        f = VelocityField(xs, ys, ts, u, v)
        for _ in range(300):
            p = (rng.uniform(-2, 12), rng.uniform(-2, 10))
            t = rng.uniform(-1, 7)
            got = sample_velocity(f, p, t)
            assert u.min() - 1e-12 <= got[0] <= u.max() + 1e-12
            assert v.min() - 1e-12 <= got[1] <= v.max() + 1e-12
            speed = math.hypot(*got)
            assert speed <= f.v_o_max * (1 + 1e-12)

    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            VelocityField((1.0, 0.0), (0.0, 1.0), (0.0,), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))


def random_field(seed, nx=5, ny=4, nt=1):
    rng = np.random.default_rng(seed)
    xs = tuple(np.cumsum(rng.uniform(0.5, 3.0, nx)) - 4.0)
    ys = tuple(np.cumsum(rng.uniform(0.5, 3.0, ny)) - 4.0)
    ts = tuple(np.cumsum(rng.uniform(0.5, 5.0, nt)))
    u = rng.choice([rng.normal(0, 1), 0.0, -0.0, -1.5], (nt, ny, nx))
    v = rng.normal(0, 1, (nt, ny, nx))
    return VelocityField(xs, ys, ts, u, v)


def same_as_loop(f, p, t):
    got, want = sample_velocity(f, p, t), sample_velocity_loop(f, p, t)
    return type(got[0]) is float and type(got[1]) is float and repr(got) == repr(want)


class TestLastCellMemo:
    """A sample in the field's last interior cell skips the search, and keeps its bits."""

    def count_searches(self, monkeypatch):
        calls = []
        search = field_module._bracket

        def counted(*args):
            calls.append(args[1:])
            return search(*args)

        monkeypatch.setattr(field_module, "_bracket", counted)
        return calls

    def test_a_sample_in_the_same_cell_skips_the_search(self, monkeypatch):
        f = random_field(1, nt=3)
        calls = self.count_searches(monkeypatch)
        x0, x1 = f.x_grid[1:3]
        y0, y1 = f.y_grid[1:3]
        t0, t1 = f.t_grid[:2]
        for w in (0.25, 0.5, 0.0, 0.75):
            p, t = (x0 + w * (x1 - x0), y0 + w * (y1 - y0)), t0 + (0.9 - 0.8 * w) * (t1 - t0)
            assert same_as_loop(f, p, t)
        # the first sample searches; the rest, node (x0, y0) included, hit
        assert len(calls) == 1

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), nt=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_walks_keep_the_loop_forms_bits(self, data, nt, seed):
        f = random_field(seed, data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5)), nt)
        xs, ys, ts = f.x_grid, f.y_grid, f.t_grid

        def step(grid, c):
            # small steps mostly stay in a cell; a jump lands on a node or its neighbour
            cell = (grid[-1] - grid[0]) / len(grid) if len(grid) > 1 else 1.0
            return data.draw(
                st.one_of(
                    st.floats(-0.2, 0.2).map(lambda s: c + s * cell),
                    st.just(c),
                    st.sampled_from(grid),
                    st.sampled_from(grid).map(lambda g: math.nextafter(g, -math.inf)),
                    st.sampled_from(grid).map(lambda g: math.nextafter(g, math.inf)),
                )
            )

        p = (data.draw(st.floats(xs[0] - 1, xs[-1] + 1)), data.draw(st.floats(ys[0] - 1, ys[-1] + 1)))
        t = data.draw(st.floats(ts[0] - 1, ts[-1] + 1))
        for _ in range(25):
            assert same_as_loop(f, p, t), (p, t)
            p, t = (step(xs, p[0]), step(ys, p[1])), step(ts, t)

    @pytest.mark.parametrize("nt", [1, 3])
    def test_the_low_edge_after_a_hit_in_the_first_cell(self, nt):
        f = random_field(2, nt=nt)
        x0, x1 = f.x_grid[:2]
        y0, y1 = f.y_grid[:2]
        t = f.t_grid[0] + 0.5 if nt > 1 else 0.0
        for p in [(0.5 * (x0 + x1), 0.5 * (y0 + y1)), (0.25 * x0 + 0.75 * x1, 0.5 * (y0 + y1))]:
            assert same_as_loop(f, p, t)
        # the memo's first cell starts just above g[0]: g[0] itself is clamped
        assert f._last[0] == math.nextafter(x0, math.inf)
        for p in [(x0, 0.5 * (y0 + y1)), (0.5 * (x0 + x1), y0), (x0, y0), (math.nextafter(x0, math.inf), y0)]:
            assert same_as_loop(f, (0.5 * (x0 + x1), 0.5 * (y0 + y1)), t)
            assert same_as_loop(f, p, t), p

    def test_minus_zero_corner_on_the_low_edge(self):
        # x on g[0] clamps, so -0.0 + 0.0 * 0.0 gives 0.0; read through the
        # first cell's bracket it would stay -0.0, which repr tells apart
        xs, ys = (0.0, 1.0, 2.0), (0.0, 1.0, 2.0)
        u = np.array([[[5.0, 5.0, 5.0], [-0.0, -2.0, 5.0], [-1.0, -1.0, 5.0]]])
        f = VelocityField(xs, ys, (0.0,), u, -u)
        assert same_as_loop(f, (0.5, 1.5), 0.0)
        assert same_as_loop(f, (0.0, 1.0), 0.0)
        assert repr(sample_velocity(f, (0.0, 1.0), 0.0)) == "(0.0, 0.0)"

    @pytest.mark.parametrize("nt", [1, 3])
    def test_nan_after_a_hit_takes_the_full_path(self, nt):
        # the loop form's bisect cannot place NaN; a field without a memo can.
        # A NaN position has no current, nor has a NaN time where time varies
        f = random_field(3, nt=nt)
        fresh = VelocityField(f.x_grid, f.y_grid, f.t_grid, f.u, f.v)
        inside = (0.5 * (f.x_grid[1] + f.x_grid[2]), 0.5 * (f.y_grid[1] + f.y_grid[2]))
        t = 0.5 * (f.t_grid[0] + f.t_grid[1]) if nt > 1 else f.t_grid[0]
        for p, tt in [((math.nan, inside[1]), t), ((inside[0], math.nan), t), (inside, math.nan)]:
            assert same_as_loop(f, inside, t)
            assert f._last[0] <= inside[0] < f._last[1]
            got = sample_velocity(f, p, tt)
            assert repr(got) == repr(sample_velocity(fresh, p, tt)), (p, tt)
            unknown = math.isnan(p[0]) or math.isnan(p[1]) or nt > 1
            assert math.isnan(got[0]) == math.isnan(got[1]) == unknown, (p, tt)

    def test_nan_position_on_the_sample_voyage_is_not_the_far_corner(self):
        # the clamp used to place NaN on each axis's last node
        config = Path(__file__).resolve().parents[1] / "configs" / "voyage.json"
        f = parse_config(config).ocean_field
        corner = sample_velocity(f, (f.x_grid[-1], 10.0), 0.0)
        assert all(map(math.isfinite, corner))
        for p in [(math.nan, 10.0), (10.0, math.nan), (math.nan, math.nan)]:
            got = sample_velocity(f, p, 0.0)
            assert math.isnan(got[0]) and math.isnan(got[1]), p

    @pytest.mark.parametrize("nt", [1, 3])
    def test_numpy_scalars_after_a_hit(self, nt):
        f = random_field(4, nt=nt)
        x, y = 0.3 * f.x_grid[1] + 0.7 * f.x_grid[2], 0.6 * f.y_grid[0] + 0.4 * f.y_grid[1]
        t = 0.5 * (f.t_grid[0] + f.t_grid[1]) if nt > 1 else 7.0
        assert same_as_loop(f, (x, y), t)
        for p, tt in [
            ((np.float64(x), np.float64(y)), np.float64(t)),
            ((np.float64(x + 0.01), y), t),
            ((x, y), np.float64(t)),
            (np.array([x, y]), t),
        ]:
            assert same_as_loop(f, p, tt), (p, tt)

    def test_one_time_node_matches_at_any_time(self):
        f = random_field(5, nt=1)
        p = (0.5 * (f.x_grid[0] + f.x_grid[1]), 0.5 * (f.y_grid[0] + f.y_grid[1]))
        for t in (0.0, -1e9, 1e9, f.t_grid[0], math.inf, -math.inf, 3.5):
            assert same_as_loop(f, p, t), t
        assert f._last[4:6] == (-math.inf, math.inf)

    def test_time_walk_across_nodes(self):
        f = random_field(6, nt=4)
        p = (0.5 * (f.x_grid[1] + f.x_grid[2]), 0.5 * (f.y_grid[1] + f.y_grid[2]))
        ts = f.t_grid
        # from before the grid, through every node and its neighbours, to past its end
        times = np.linspace(ts[0] - 2.0, ts[-1] + 2.0, 97).tolist()
        times += [c for g in ts for c in (math.nextafter(g, -math.inf), g, math.nextafter(g, math.inf))]
        for t in sorted(times):
            assert same_as_loop(f, p, t), t
        for t in sorted(times, reverse=True):
            assert same_as_loop(f, p, t), t

    def test_threads_sharing_a_field_get_the_loop_forms_bits(self):
        # more threads than the two cores, each walking its own path over one field
        f = random_field(7, nx=8, ny=8, nt=3)
        rng = np.random.default_rng(7)
        xs, ys, ts = f.x_grid, f.y_grid, f.t_grid

        def walk(n):
            steps = rng.normal(0, 0.15, (n, 3)) * ((xs[-1] - xs[0]) / 8, (ys[-1] - ys[0]) / 8, 1.0)
            start = (rng.uniform(xs[0], xs[-1]), rng.uniform(ys[0], ys[-1]), rng.uniform(ts[0], ts[-1]))
            return [((a, b), c) for a, b, c in (start + np.cumsum(steps, axis=0)).tolist()]

        walks = [walk(3000) for _ in range(3)]
        wants = [[repr(sample_velocity_loop(f, p, t)) for p, t in w] for w in walks]
        gots = [[] for _ in walks]
        start = threading.Barrier(len(walks))

        def run(k):
            start.wait(timeout=60)
            gots[k].extend(repr(sample_velocity(f, p, t)) for p, t in walks[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-sample
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(walks))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert gots == wants


class TestPerturbation:
    def base(self):
        xs = tuple(np.linspace(0, 100, 100))
        ys = tuple(np.linspace(0, 100, 100))
        u = np.full((1, 100, 100), 0.6)
        v = np.full((1, 100, 100), 0.8)
        return VelocityField(xs, ys, (0.0,), u, v)

    def test_zero_fraction_identity(self):
        f = self.base()
        assert perturb_field(f, FieldPerturbation(0.0, seed=3)) is f

    def test_empirical_std(self):
        f = self.base()  # v_o_max = 1.0
        out = perturb_field(f, FieldPerturbation(0.05, seed=7))
        assert np.std(out.u - f.u) == pytest.approx(0.05, rel=0.05)
        assert np.std(out.v - f.v) == pytest.approx(0.05, rel=0.05)

    def test_deterministic_in_seed(self):
        f = self.base()
        a = perturb_field(f, FieldPerturbation(0.1, seed=5))
        b = perturb_field(f, FieldPerturbation(0.1, seed=5))
        c = perturb_field(f, FieldPerturbation(0.1, seed=6))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert not np.array_equal(a.u, c.u)

    def test_lattice_preserved_and_original_untouched(self):
        f = self.base()
        before = f.u.copy()
        out = perturb_field(f, FieldPerturbation(0.1, seed=5))
        assert out.x_grid == f.x_grid and out.y_grid == f.y_grid and out.t_grid == f.t_grid
        assert np.array_equal(f.u, before)

    def test_fraction_range_checked(self):
        with pytest.raises(SchemaError) as err:
            FieldPerturbation(1.5)
        assert err.value.path == "perturbation.sigma_fraction"


class TestSynth:
    @pytest.mark.parametrize("strength", [1e300, 1e308])
    def test_overflowing_field_is_rejected(self, strength):
        # 1e308 overflows the components; 1e300 overflows only the top speed,
        # which perturb_field would then scale its noise by
        with pytest.raises(ValueError, match="must be finite"):
            synth_field(GyreSpec((0.0, 0.0), strength, 1.0), (-1.0, 0.5, 2.0), (-1.0, 0.5, 2.0))

    def test_nonfinite_grid_is_rejected(self):
        with pytest.raises(ValueError, match="x_grid must be finite"):
            VelocityField((0.0, math.inf), (0.0, 1.0), (0.0,), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))

    def test_uniform(self):
        f = synth_field(UniformSpec(0.3, 0.4), (0.0, 1.0), (0.0, 1.0))
        assert np.all(f.u == 0.3) and np.all(f.v == 0.4)
        assert f.v_o_max == pytest.approx(0.5)

    def test_away_from_goal_direction(self):
        goal = (5.0, 5.0)
        f = synth_field(AwayFromGoalSpec(goal, 2.0), tuple(np.linspace(0, 10, 11)), tuple(np.linspace(0, 10, 11)))
        got = sample_velocity(f, (8.0, 5.0), 0.0)
        assert got == pytest.approx((2.0, 0.0), abs=1e-12)
        got = sample_velocity(f, (5.0, 1.0), 0.0)
        assert got == pytest.approx((0.0, -2.0), abs=1e-12)

    def test_away_from_goal_is_zero_at_goal_node(self):
        f = synth_field(AwayFromGoalSpec((5.0, 5.0), 2.0), (0.0, 5.0, 10.0), (0.0, 5.0, 10.0))
        assert sample_velocity(f, (5.0, 5.0), 0.0) == (0.0, 0.0)

    def test_gyre_center_is_fixed_point(self):
        f = synth_field(GyreSpec((5.0, 5.0), 1.0, 3.0), (0.0, 5.0, 10.0), (0.0, 5.0, 10.0))
        assert sample_velocity(f, (5.0, 5.0), 0.0) == (0.0, 0.0)

    def test_gyre_is_tangential(self):
        xs = tuple(np.linspace(0, 10, 21))
        f = synth_field(GyreSpec((5.0, 5.0), 1.0, 3.0), xs, xs)
        got = sample_velocity(f, (8.0, 5.0), 0.0)  # east of center: flow north
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert got[1] > 0.5
