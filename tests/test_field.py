import math

import numpy as np
import pytest
from field_reference import bracket, sample_velocity_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsim.errors import LatticeError, ParseError, UnitsError
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
        with pytest.raises(ValueError):
            FieldPerturbation(1.5)


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
