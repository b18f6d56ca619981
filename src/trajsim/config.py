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


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{path}{key}", "unknown key")


def _point(doc, path: str):
    if (
        not isinstance(doc, (list, tuple))
        or len(doc) != 2
        or not all(isinstance(c, (int, float)) and math.isfinite(c) for c in doc)
    ):
        raise SchemaError(path, f"expected [x, y] finite numbers, got {doc!r}")
    return (float(doc[0]), float(doc[1]))


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
    _reject_unknown(doc, _PATH_KEYS, path + ".")
    start = _point(_require(doc, "from_m", path + ".", units=True), path + ".from_m")
    end = _point(_require(doc, "to_m", path + ".", units=True), path + ".to_m")
    speed = float(doc.get("speed_mps", default_speed))
    if speed < 0.0:
        raise SchemaError(path + ".speed_mps", "must be >= 0")
    noise_std = float(doc.get("noise_std_m", 0.0))
    if noise_std < 0.0:
        raise SchemaError(path + ".noise_std_m", "must be >= 0")
    return PathSpec(start, end, speed), noise_std


def _grid(doc, path: str) -> tuple[float, ...]:
    if isinstance(doc, (list, tuple)):
        return tuple(float(c) for c in doc)
    if isinstance(doc, dict):
        _reject_unknown(doc, _GRID_KEYS, path + ".")
        lo = float(_require(doc, "min", path + "."))
        hi = float(_require(doc, "max", path + "."))
        n = int(_require(doc, "n", path + "."))
        if n < 2 or hi <= lo:
            raise SchemaError(path, "need n >= 2 and max > min")
        return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))
    raise SchemaError(path, f"expected list or {{min,max,n}}, got {doc!r}")


def _field_from_doc(doc: dict, path: str, base_dir: Path) -> VelocityField:
    _reject_unknown(doc, _FIELD_KEYS, path + ".")
    if "path" in doc and "synthetic" in doc:
        raise SchemaError(path, "give either a file path or a synthetic spec, not both")
    if "path" in doc:
        return load_field(base_dir / str(doc["path"]))
    if "synthetic" not in doc:
        raise SchemaError(path, "field needs 'path' or 'synthetic'")
    spec_doc = doc["synthetic"]
    kind = spec_doc.get("kind") if isinstance(spec_doc, dict) else None
    if kind == "uniform":
        _reject_unknown(spec_doc, {"kind", "u_mps", "v_mps"}, path + ".synthetic.")
        spec = UniformSpec(
            float(_require(spec_doc, "u_mps", path + ".synthetic.", units=True)),
            float(_require(spec_doc, "v_mps", path + ".synthetic.", units=True)),
        )
    elif kind == "single_gyre":
        _reject_unknown(
            spec_doc, {"kind", "center_m", "strength_mps", "radius_m"}, path + ".synthetic."
        )
        spec = GyreSpec(
            _point(_require(spec_doc, "center_m", path + ".synthetic.", units=True), path),
            float(_require(spec_doc, "strength_mps", path + ".synthetic.", units=True)),
            float(_require(spec_doc, "radius_m", path + ".synthetic.", units=True)),
        )
    elif kind == "away_from_goal":
        _reject_unknown(spec_doc, {"kind", "goal_m", "speed_mps"}, path + ".synthetic.")
        spec = AwayFromGoalSpec(
            _point(_require(spec_doc, "goal_m", path + ".synthetic.", units=True), path),
            float(_require(spec_doc, "speed_mps", path + ".synthetic.", units=True)),
        )
    else:
        raise SchemaError(path + ".synthetic.kind", f"unknown synthetic kind {kind!r}")
    xs = _grid(_require(doc, "x_grid_m", path + ".", units=True), path + ".x_grid_m")
    ys = _grid(_require(doc, "y_grid_m", path + ".", units=True), path + ".y_grid_m")
    ts = _grid(doc["t_grid_s"], path + ".t_grid_s") if "t_grid_s" in doc else (0.0,)
    return synth_field(spec, xs, ys, ts)


def parse_config_doc(doc: dict, base_dir: Path = Path(".")) -> ScenarioConfig:
    """Validate a parsed JSON document and build the scenario config."""
    if not isinstance(doc, dict):
        raise SchemaError("", "top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "")
    kind = _require(doc, "kind", "")
    if kind not in ("d2d", "ocean", "adversary"):
        raise SchemaError("kind", f"must be d2d, ocean, or adversary, got {kind!r}")
    seed = int(doc.get("seed", 0))

    if kind == "adversary":
        adv_doc = doc.get("adversary", {})
        _reject_unknown(adv_doc, _ADV_KEYS, "adversary.")
        adv = AdversaryParams(
            horizon=int(adv_doc.get("T", 100)),
            width=float(adv_doc.get("W", 1.0)),
            policy=str(adv_doc.get("policy", "zero")),
        )
        if adv.horizon < 1:
            raise SchemaError("adversary.T", "must be >= 1")
        if adv.width <= 0:
            raise SchemaError("adversary.W", "must be positive")
        return ScenarioConfig(kind="adversary", seed=seed, adversary=adv)

    start = _point(_require(doc, "start_m", "", units=True), "start_m")
    goal, _ = _path_spec(_require(doc, "goal_m", "", units=True), "goal_m")
    v_max = float(_require(doc, "v_max_mps", "", units=True))
    if v_max <= 0:
        raise SchemaError("v_max_mps", "must be positive")
    delta = doc.get("delta_slots", 0)
    if not isinstance(delta, int) or delta < 0:
        raise SchemaError("delta_slots", f"must be a nonnegative integer, got {delta!r}")
    slot_s = float(doc.get("slot_duration_s", 1.0))
    if slot_s <= 0:
        raise SchemaError("slot_duration_s", "must be positive")

    noise_doc = doc.get("gradient_noise", {})
    _reject_unknown(noise_doc, _NOISE_KEYS, "gradient_noise.")
    noise_kind = noise_doc.get("kind", "none")
    if noise_kind not in ("none", "gaussian_decaying"):
        raise SchemaError("gradient_noise.kind", f"unknown kind {noise_kind!r}")
    noise = NoiseModel(
        kind=noise_kind,
        eps0=float(noise_doc.get("eps0", 0.0)),
        decay_q=float(noise_doc.get("decay_q", 0.0)),
        seed=int(noise_doc.get("seed", 0)),
    )

    box = None
    if "feasible_box_m" in doc:
        box_doc = doc["feasible_box_m"]
        _reject_unknown(box_doc, {"lo", "hi"}, "feasible_box_m.")
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
        d2d_doc = doc.get("d2d", {})
        _reject_unknown(d2d_doc, _D2D_KEYS, "d2d.")
        mu = float(d2d_doc.get("mu", 1e-3))
        if not 0.0 < mu <= 1.0:
            raise SchemaError("d2d.mu", f"must be in (0, 1], got {mu}")
        utility = d2d_doc.get("utility", "squared")
        if utility not in ("squared", "huber"):
            raise SchemaError("d2d.utility", f"must be squared or huber, got {utility!r}")
        alpha_min = float(d2d_doc.get("alpha_min", 0.05))
        if not 0.0 < alpha_min <= 1.0:
            raise SchemaError("d2d.alpha_min", "must be in (0, 1]")
        return ScenarioConfig(
            kind="d2d",
            peer=peer,
            peer_noise_std_m=peer_std,
            mu=mu,
            utility_kind=utility,
            alpha_min=alpha_min,
            margin=float(d2d_doc.get("margin", 1.01)),
            alpha_p=float(d2d_doc.get("alpha_p", 2.5)),
            bandwidth_hz=float(d2d_doc.get("bandwidth_hz", 1e7)),
            noise_power=float(d2d_doc.get("noise_power", 0.2)),
            **common,
        )

    ocean_doc = doc.get("ocean", {})
    _reject_unknown(ocean_doc, _OCEAN_KEYS, "ocean.")
    strategy = ocean_doc.get("lambda_strategy", "direction_dependent")
    if strategy not in ("increasing", "direction_dependent"):
        raise SchemaError("ocean.lambda_strategy", f"unknown strategy {strategy!r}")
    fld = _field_from_doc(
        _require(ocean_doc, "field", "ocean.", units=True), "ocean.field", base_dir
    )
    pert = None
    if "perturbation" in ocean_doc:
        pert_doc = ocean_doc["perturbation"]
        _reject_unknown(pert_doc, _PERT_KEYS, "ocean.perturbation.")
        frac = float(_require(pert_doc, "sigma_fraction", "ocean.perturbation."))
        if not 0.0 <= frac <= 1.0:
            raise SchemaError("ocean.perturbation.sigma_fraction", "must be in [0, 1]")
        pert = FieldPerturbation(sigma_fraction=frac, seed=int(pert_doc.get("seed", 0)))
    beta = float(ocean_doc.get("beta", 0.5))
    if beta < 0:
        raise SchemaError("ocean.beta", "must be >= 0")
    return ScenarioConfig(
        kind="ocean",
        lambda_strategy=strategy,
        beta=beta,
        drag_coefficient=float(ocean_doc.get("drag_coefficient", 1.0)),
        ocean_field=fld,
        perturbation=pert,
        **common,
    )


def parse_config(path) -> ScenarioConfig:
    """Read, validate, and resolve a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
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
