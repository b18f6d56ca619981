"""Configuration documents: strict JSON parsing and the run manifest.

The schema is documented in the README.  Parsing is strict: unknown keys
are rejected with their full path, and required unit-bearing fields raise
:class:`UnitsError` when missing so a config cannot silently drop units.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .engine import NoiseModel
from .errors import SchemaError, UnitsError
from .field import (
    AwayFromGoalSpec,
    FieldPerturbation,
    GyreSpec,
    UniformSpec,
    VelocityField,
    load_field,
    synth_field,
)
from .scenarios import AdversaryParams, PathSpec, ScenarioConfig
from .sets import Box2D

_TOP_KEYS = {
    "kind",
    "seed",
    "slot_duration_s",
    "start_m",
    "goal_m",
    "peer",
    "delta_slots",
    "v_max_mps",
    "d2d",
    "ocean",
    "gradient_noise",
    "feasible_box_m",
    "adversary",
}
_D2D_KEYS = {"mu", "utility", "alpha_min", "margin", "alpha_p", "bandwidth_hz", "noise_power"}
_OCEAN_KEYS = {"lambda_strategy", "beta", "drag_coefficient", "field", "perturbation"}
_NOISE_KEYS = {"kind", "eps0", "decay_q", "seed"}
_PATH_KEYS = {"from_m", "to_m", "speed_mps", "noise_std_m"}
_FIELD_KEYS = {"path", "synthetic", "x_grid_m", "y_grid_m", "t_grid_s"}
_PERT_KEYS = {"sigma_fraction", "seed"}
_ADV_KEYS = {"T", "W", "policy"}
_GRID_KEYS = {"min", "max", "n"}


def _object(value, allowed: set[str], path: str) -> dict:
    """``value`` as a JSON object whose keys all lie in ``allowed``; ``path`` names it."""
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected a JSON object, got {value!r}")
    for key in value:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")
    return value


def _point(doc, path: str):
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise SchemaError(path, f"expected [x, y] finite numbers, got {doc!r}")
    return (_number(doc[0], path), _number(doc[1], path))


def _number(value, path: str) -> float:
    """``value`` as a float; a bool, string, non-number, NaN or infinity is a schema error."""
    try:
        x = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return x


def _integer(value, path: str) -> int:
    """``value`` as an int; a bool, non-number, NaN, infinity or fraction is a schema error."""
    if type(value) is int:
        return value
    x = _number(value, path)
    if not x.is_integer():
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return int(x)


def _positive(value, path: str) -> float:
    """``value`` as a float, which must be positive; see :func:`_number`."""
    x = _number(value, path)
    if x <= 0.0:
        raise SchemaError(path, "must be positive")
    return x


def _unit_number(doc: dict, key: str, path: str) -> float:
    """The required unit-bearing number ``doc[key]``."""
    return _number(_require(doc, key, path, units=True), path + key)


def _require(doc: dict, key: str, path: str, units: bool = False):
    if key not in doc:
        if units:
            raise UnitsError(f"{path}{key}: missing required unit-bearing field")
        raise SchemaError(f"{path}{key}", "missing required field")
    return doc[key]


def _path_spec(doc, path: str, default_speed: float = 0.0) -> tuple[PathSpec, float]:
    """A static ``[x, y]`` point or a walk descriptor; returns (spec, noise_std)."""
    if isinstance(doc, (list, tuple)):
        p = _point(doc, path)
        return PathSpec(p, p, 0.0), 0.0
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected [x, y] or walk object, got {doc!r}")
    _object(doc, _PATH_KEYS, path)
    start = _point(_require(doc, "from_m", path + ".", units=True), path + ".from_m")
    end = _point(_require(doc, "to_m", path + ".", units=True), path + ".to_m")
    speed = _number(doc.get("speed_mps", default_speed), path + ".speed_mps")
    if speed < 0.0:
        raise SchemaError(path + ".speed_mps", "must be >= 0")
    noise_std = _number(doc.get("noise_std_m", 0.0), path + ".noise_std_m")
    if noise_std < 0.0:
        raise SchemaError(path + ".noise_std_m", "must be >= 0")
    return PathSpec(start, end, speed), noise_std


def _grid(doc, path: str) -> tuple[float, ...]:
    if isinstance(doc, (list, tuple)):
        grid = tuple(_number(c, path) for c in doc)
    elif isinstance(doc, dict):
        _object(doc, _GRID_KEYS, path)
        lo = _number(_require(doc, "min", path + "."), path + ".min")
        hi = _number(_require(doc, "max", path + "."), path + ".max")
        n = _integer(_require(doc, "n", path + "."), path + ".n")
        if n < 2 or hi <= lo:
            raise SchemaError(path, "need n >= 2 and max > min")
        grid = tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))
    else:
        raise SchemaError(path, f"expected list or {{min,max,n}}, got {doc!r}")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise SchemaError(path, "grid must be nonempty and strictly ascending")
    return grid


def _field_from_doc(doc, path: str, base_dir: Path) -> VelocityField:
    _object(doc, _FIELD_KEYS, path)
    if "path" in doc and "synthetic" in doc:
        raise SchemaError(path, "give either a file path or a synthetic spec, not both")
    if "path" in doc:
        file = base_dir / str(doc["path"])
        try:
            return load_field(file)
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(path + ".path", f"cannot read field file {file}: {exc}") from exc
    if "synthetic" not in doc:
        raise SchemaError(path, "field needs 'path' or 'synthetic'")
    spec_doc = doc["synthetic"]
    kind = spec_doc.get("kind") if isinstance(spec_doc, dict) else None
    sp = path + ".synthetic."
    if kind == "uniform":
        _object(spec_doc, {"kind", "u_mps", "v_mps"}, path + ".synthetic")
        spec = UniformSpec(
            _unit_number(spec_doc, "u_mps", sp), _unit_number(spec_doc, "v_mps", sp)
        )
    elif kind == "single_gyre":
        _object(spec_doc, {"kind", "center_m", "strength_mps", "radius_m"}, path + ".synthetic")
        spec = GyreSpec(
            _point(_require(spec_doc, "center_m", sp, units=True), sp + "center_m"),
            _unit_number(spec_doc, "strength_mps", sp),
            _positive(_require(spec_doc, "radius_m", sp, units=True), sp + "radius_m"),
        )
    elif kind == "away_from_goal":
        _object(spec_doc, {"kind", "goal_m", "speed_mps"}, path + ".synthetic")
        spec = AwayFromGoalSpec(
            _point(_require(spec_doc, "goal_m", sp, units=True), sp + "goal_m"),
            _unit_number(spec_doc, "speed_mps", sp),
        )
    else:
        raise SchemaError(path + ".synthetic.kind", f"unknown synthetic kind {kind!r}")
    xs = _grid(_require(doc, "x_grid_m", path + ".", units=True), path + ".x_grid_m")
    ys = _grid(_require(doc, "y_grid_m", path + ".", units=True), path + ".y_grid_m")
    ts = _grid(doc["t_grid_s"], path + ".t_grid_s") if "t_grid_s" in doc else (0.0,)
    return synth_field(spec, xs, ys, ts)


def parse_config_doc(doc: dict, base_dir: Path = Path(".")) -> ScenarioConfig:
    """Validate a parsed JSON document and build the scenario config."""
    _object(doc, _TOP_KEYS, "")
    kind = _require(doc, "kind", "")
    if kind not in ("d2d", "ocean", "adversary"):
        raise SchemaError("kind", f"must be d2d, ocean, or adversary, got {kind!r}")
    seed = _integer(doc.get("seed", 0), "seed")

    if kind == "adversary":
        adv_doc = _object(doc.get("adversary", {}), _ADV_KEYS, "adversary")
        adv = AdversaryParams(
            horizon=_integer(adv_doc.get("T", 100), "adversary.T"),
            width=_positive(adv_doc.get("W", 1.0), "adversary.W"),
            policy=str(adv_doc.get("policy", "zero")),
        )
        if adv.horizon < 1:
            raise SchemaError("adversary.T", "must be >= 1")
        return ScenarioConfig(kind="adversary", seed=seed, adversary=adv)

    start = _point(_require(doc, "start_m", "", units=True), "start_m")
    goal, _ = _path_spec(_require(doc, "goal_m", "", units=True), "goal_m")
    v_max = _positive(_require(doc, "v_max_mps", "", units=True), "v_max_mps")
    delta = doc.get("delta_slots", 0)
    if type(delta) is not int or delta < 0:
        raise SchemaError("delta_slots", f"must be a nonnegative integer, got {delta!r}")
    slot_s = _positive(doc.get("slot_duration_s", 1.0), "slot_duration_s")

    noise_doc = _object(doc.get("gradient_noise", {}), _NOISE_KEYS, "gradient_noise")
    noise_kind = noise_doc.get("kind", "none")
    if noise_kind not in ("none", "gaussian_decaying"):
        raise SchemaError("gradient_noise.kind", f"unknown kind {noise_kind!r}")
    decay_q = _number(noise_doc.get("decay_q", 0.0), "gradient_noise.decay_q")
    if decay_q < 0.0:
        raise SchemaError("gradient_noise.decay_q", "must be >= 0")
    noise = NoiseModel(
        kind=noise_kind,
        eps0=_number(noise_doc.get("eps0", 0.0), "gradient_noise.eps0"),
        decay_q=decay_q,
        seed=_integer(noise_doc.get("seed", 0), "gradient_noise.seed"),
    )

    box = None
    if "feasible_box_m" in doc:
        box_doc = _object(doc["feasible_box_m"], {"lo", "hi"}, "feasible_box_m")
        lo = _point(_require(box_doc, "lo", "feasible_box_m."), "feasible_box_m.lo")
        hi = _point(_require(box_doc, "hi", "feasible_box_m."), "feasible_box_m.hi")
        try:
            box = Box2D(lo, hi)
        except ValueError as exc:  # lo exceeds hi
            raise SchemaError("feasible_box_m", str(exc)) from exc
        if not box.contains(start):
            raise SchemaError("feasible_box_m", f"does not contain start_m {list(start)}")

    common = dict(
        start=start,
        goal=goal,
        delta=delta,
        v_max_mps=v_max,
        slot_duration_s=slot_s,
        gradient_noise=noise,
        seed=seed,
        feasible_box=box,
    )

    if kind == "d2d":
        peer, peer_std = _path_spec(_require(doc, "peer", "", units=True), "peer")
        d2d_doc = _object(doc.get("d2d", {}), _D2D_KEYS, "d2d")
        mu = _number(d2d_doc.get("mu", 1e-3), "d2d.mu")
        if not 0.0 < mu <= 1.0:
            raise SchemaError("d2d.mu", f"must be in (0, 1], got {mu}")
        utility = d2d_doc.get("utility", "squared")
        if utility not in ("squared", "huber"):
            raise SchemaError("d2d.utility", f"must be squared or huber, got {utility!r}")
        alpha_min = _number(d2d_doc.get("alpha_min", 0.05), "d2d.alpha_min")
        if not 0.0 < alpha_min <= 1.0:
            raise SchemaError("d2d.alpha_min", "must be in (0, 1]")
        margin = _number(d2d_doc.get("margin", 1.01), "d2d.margin")
        if margin < 1.0:
            raise SchemaError("d2d.margin", f"must be >= 1, got {margin}")
        return ScenarioConfig(
            kind="d2d",
            peer=peer,
            peer_noise_std_m=peer_std,
            mu=mu,
            utility_kind=utility,
            alpha_min=alpha_min,
            margin=margin,
            alpha_p=_number(d2d_doc.get("alpha_p", 2.5), "d2d.alpha_p"),
            bandwidth_hz=_positive(d2d_doc.get("bandwidth_hz", 1e7), "d2d.bandwidth_hz"),
            noise_power=_positive(d2d_doc.get("noise_power", 0.2), "d2d.noise_power"),
            **common,
        )

    ocean_doc = _object(doc.get("ocean", {}), _OCEAN_KEYS, "ocean")
    strategy = ocean_doc.get("lambda_strategy", "direction_dependent")
    if strategy not in ("increasing", "direction_dependent"):
        raise SchemaError("ocean.lambda_strategy", f"unknown strategy {strategy!r}")
    fld = _field_from_doc(
        _require(ocean_doc, "field", "ocean.", units=True), "ocean.field", base_dir
    )
    pert = None
    if "perturbation" in ocean_doc:
        pert_doc = _object(ocean_doc["perturbation"], _PERT_KEYS, "ocean.perturbation")
        pp = "ocean.perturbation."
        frac = _number(_require(pert_doc, "sigma_fraction", pp), pp + "sigma_fraction")
        if not 0.0 <= frac <= 1.0:
            raise SchemaError("ocean.perturbation.sigma_fraction", "must be in [0, 1]")
        pert_seed = _integer(pert_doc.get("seed", 0), pp + "seed")
        pert = FieldPerturbation(sigma_fraction=frac, seed=pert_seed)
    beta = _number(ocean_doc.get("beta", 0.5), "ocean.beta")
    if beta < 0:
        raise SchemaError("ocean.beta", "must be >= 0")
    return ScenarioConfig(
        kind="ocean",
        lambda_strategy=strategy,
        beta=beta,
        drag_coefficient=_number(ocean_doc.get("drag_coefficient", 1.0), "ocean.drag_coefficient"),
        ocean_field=fld,
        perturbation=pert,
        **common,
    )


def parse_config(path) -> ScenarioConfig:
    """Read, validate, and resolve a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(path), f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc
    return parse_config_doc(doc, base_dir=p.parent)


def config_hash(path) -> str:
    """Stable digest of the canonicalized config text."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance card written next to every CLI run's outputs."""

    config_hash: str
    seed: int
    tool_version: str
    started_at: str
    outputs: tuple[str, ...]

    @classmethod
    def create(cls, cfg_hash: str, seed: int, outputs: list[str]) -> "RunManifest":
        from . import __version__

        return cls(
            config_hash=cfg_hash,
            seed=seed,
            tool_version=__version__,
            started_at=datetime.now(timezone.utc).isoformat(),
            outputs=tuple(outputs),
        )

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")
