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
from typing import Iterable

import numpy as np

from .engine import NoiseModel
from .errors import SchemaError, UnitsError, as_real, check, one_of
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
from .traces import write_json

_FIELD_KEYS = {"path", "synthetic", "x_grid_m", "y_grid_m", "t_grid_s"}
_GRID_KEYS = {"min", "max", "n"}

# The node bound nx * ny * nt of a synthetic field lattice, checked before any
# axis is built; the largest benchmark lattice is 100 * 100 * 10.
MAX_FIELD_NODES = 10**7


def _object(value, allowed, path: str) -> dict:
    """``value`` as a JSON object whose keys all lie in ``allowed``; ``path`` names it."""
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected a JSON object, got {value!r}")
    for key in value:
        if key not in allowed:
            raise SchemaError(_key_path(path, key), "unknown key")
    return value


def _point(doc, path: str):
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise SchemaError(path, f"expected [x, y] finite numbers, got {doc!r}")
    return (_number(doc[0], path), _number(doc[1], path))


def _number(value, path: str) -> float:
    """``value`` as a float; a bool, string, non-number, NaN or infinity is a schema error."""
    x = as_real(value)
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


def _as_is(value, path: str):
    return value  # the dataclass that receives it checks its type too


def _key_path(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


# Each scalar key of a document section and the dataclass field it sets; the
# top-level, peer, d2d and ocean keys set ScenarioConfig fields.  The
# dataclasses own the value rules and the defaults, so only the keys present in
# a document are passed on, once their JSON values have the right shape.
_SECTIONS = {
    "": {
        "seed": "seed", "delta_slots": "delta",
        "v_max_mps": "v_max_mps", "slot_duration_s": "slot_duration_s",
    },
    # what a walk may hold beside its own from_m, to_m and speed_mps
    "goal_m": {},
    "peer": {"noise_std_m": "peer_noise_std_m"},
    "d2d": {
        "mu": "mu", "utility": "utility_kind", "alpha_min": "alpha_min", "margin": "margin",
        "alpha_p": "alpha_p", "bandwidth_hz": "bandwidth_hz", "noise_power": "noise_power",
    },
    "ocean": {
        "lambda_strategy": "lambda_strategy", "beta": "beta", "drag_coefficient": "drag_coefficient"
    },
    "adversary": {"T": "horizon", "W": "width", "policy": "policy"},
    "gradient_noise": {"kind": "kind", "eps0": "eps0", "decay_q": "decay_q", "seed": "seed"},
    "ocean.perturbation": {"sigma_fraction": "sigma_fraction", "seed": "seed"},
}
# The top-level keys each kind reads, and what a document of that kind runs.
_EPISODE_KEYS = {"kind", "start_m", "goal_m", "feasible_box_m", "gradient_noise", *_SECTIONS[""]}
_TOP_KEYS = {
    "d2d": ("a commute", {*_EPISODE_KEYS, "peer", "d2d"}),
    "ocean": ("a voyage", {*_EPISODE_KEYS, "ocean"}),
    "adversary": ("an adversary game", {"kind", "seed", "adversary"}),
}
# The shape check of each key whose value is not a plain _number.
_SHAPES = {"seed": _integer, "T": _integer}
_SHAPES |= dict.fromkeys(("delta_slots", "utility", "lambda_strategy", "policy", "kind"), _as_is)

# The document path of each field path that a dataclass SchemaError names; a
# path missing here is the same in both.  NoiseModel names its document keys.
_DOC_PATHS = {
    **{f: _key_path(s, k) for s in ("", "peer", "d2d", "ocean") for k, f in _SECTIONS[s].items()},
    **{f"adversary.{f}": f"adversary.{k}" for k, f in _SECTIONS["adversary"].items()},
    "goal": "goal_m",
    "goal.speed_mps": "goal_m.speed_mps",
    # the horizon runs from start_m to the goal's first point, then delta_slots more
    "horizon": "goal_m",
    "perturbation.sigma_fraction": "ocean.perturbation.sigma_fraction",
    "perturbation.seed": "ocean.perturbation.seed",
    "feasible_box": "feasible_box_m",
    "gyre.radius": "ocean.field.synthetic.radius_m",
}


def _fields(doc: dict, section: str) -> dict:
    """The keyword arguments for the keys of ``section`` that ``doc`` holds, each shape-checked."""
    return {
        field: _SHAPES.get(key, _number)(doc[key], _key_path(section, key))
        for key, field in _SECTIONS[section].items()
        if key in doc
    }


def _section(doc: dict, section: str, extra=()) -> dict:
    """The optional JSON object ``doc[section]``, holding only its table's and ``extra`` keys."""
    return _object(doc.get(section, {}), {*_SECTIONS[section], *extra}, section)


def _build(cls, **kwargs):
    """``cls(**kwargs)``, with a SchemaError's field path renamed to its document path."""
    try:
        return cls(**kwargs)
    except SchemaError as exc:
        raise SchemaError(_DOC_PATHS.get(exc.path, exc.path), exc.message) from exc


def _unit_number(doc: dict, key: str, path: str) -> float:
    """The required unit-bearing number ``doc[key]``."""
    return _number(_require(doc, key, path, units=True), path + key)


def _require(doc: dict, key: str, path: str, units: bool = False):
    if key not in doc:
        if units:
            raise UnitsError(f"{path}{key}: missing required unit-bearing field")
        raise SchemaError(f"{path}{key}", "missing required field")
    return doc[key]


def _path_spec(doc, path: str) -> tuple[PathSpec, dict]:
    """A static ``[x, y]`` point or a walk descriptor, and the config fields beside the walk."""
    if isinstance(doc, (list, tuple)):
        p = _point(doc, path)
        return PathSpec(p, p), {}
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected [x, y] or walk object, got {doc!r}")
    _object(doc, {"from_m", "to_m", "speed_mps", *_SECTIONS[path]}, path)
    start = _point(_require(doc, "from_m", path + ".", units=True), path + ".from_m")
    end = _point(_require(doc, "to_m", path + ".", units=True), path + ".to_m")
    speed = {k: _number(doc[k], f"{path}.{k}") for k in ("speed_mps",) if k in doc}
    return PathSpec(start, end, **speed), _fields(doc, path)


def _grid(doc, path: str) -> tuple[int, Iterable[float]]:
    """A grid's node count and its nodes, not yet built, from a list or ``{min, max, n}``."""
    if isinstance(doc, (list, tuple)):
        return len(doc), (_number(c, path) for c in doc)
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected list or {{min,max,n}}, got {doc!r}")
    _object(doc, _GRID_KEYS, path)
    lo = _number(_require(doc, "min", path + "."), path + ".min")
    hi = _number(_require(doc, "max", path + "."), path + ".max")
    n = _integer(_require(doc, "n", path + "."), path + ".n")
    if n < 2 or hi <= lo:
        raise SchemaError(path, "need n >= 2 and max > min")
    return n, (lo + (hi - lo) * i / (n - 1) for i in range(n))


def _lattice(doc: dict, path: str) -> list[tuple[float, ...]]:
    """The field's x, y and t grids; their node count is bounded before any is built."""
    keys = ("x_grid_m", "y_grid_m", "t_grid_s")
    axes = [_grid(_require(doc, key, path + ".", units=True), f"{path}.{key}") for key in keys[:2]]
    axes.append(_grid(doc["t_grid_s"], path + ".t_grid_s") if "t_grid_s" in doc else (1, (0.0,)))
    count = 1
    for key, (n, _) in zip(keys, axes):
        count *= n
        if count > MAX_FIELD_NODES:
            raise SchemaError(f"{path}.{key}", f"the lattice has over {MAX_FIELD_NODES:,} nodes")
    grids = [tuple(nodes) for _, nodes in axes]
    for key, grid in zip(keys, grids):
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise SchemaError(f"{path}.{key}", "grid must be nonempty and strictly ascending")
    return grids


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
        except ValueError as exc:  # a lattice that is not a valid field
            raise SchemaError(path, str(exc)) from exc
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
        spec = _build(
            GyreSpec,
            center=_point(_require(spec_doc, "center_m", sp, units=True), sp + "center_m"),
            strength=_unit_number(spec_doc, "strength_mps", sp),
            radius=_unit_number(spec_doc, "radius_m", sp),
        )
    elif kind == "away_from_goal":
        _object(spec_doc, {"kind", "goal_m", "speed_mps"}, path + ".synthetic")
        spec = AwayFromGoalSpec(
            _point(_require(spec_doc, "goal_m", sp, units=True), sp + "goal_m"),
            _unit_number(spec_doc, "speed_mps", sp),
        )
    else:
        raise SchemaError(path + ".synthetic.kind", f"unknown synthetic kind {kind!r}")
    try:
        return synth_field(spec, *_lattice(doc, path))
    except ValueError as exc:  # the pattern overflows to an infinite current
        raise SchemaError(path, str(exc)) from exc


def parse_config_doc(doc: dict, base_dir: Path = Path(".")) -> ScenarioConfig:
    """Check a parsed JSON document's shape and build the scenario config.

    Only the keys the document holds reach the dataclasses, which own every
    value rule and default; their errors come back under the document's key.
    """
    _object(doc, doc, "")  # any keys: the kind picks them below
    kind = _require(doc, "kind", "")
    check(one_of(*_TOP_KEYS), kind, "kind")
    runs, keys = _TOP_KEYS[kind]
    for key in doc:
        if key not in keys:
            raise SchemaError(key, f"{runs} does not read this key")
    common = _fields(doc, "")

    if kind == "adversary":
        adv = _build(AdversaryParams, **_fields(_section(doc, "adversary"), "adversary"))
        return _build(ScenarioConfig, kind="adversary", adversary=adv, **common)

    common["start"] = _point(_require(doc, "start_m", "", units=True), "start_m")
    common["goal"], _ = _path_spec(_require(doc, "goal_m", "", units=True), "goal_m")
    _require(doc, "v_max_mps", "", units=True)

    noise = _fields(_section(doc, "gradient_noise"), "gradient_noise")
    common["gradient_noise"] = NoiseModel(**noise)

    if "feasible_box_m" in doc:
        box_doc = _object(doc["feasible_box_m"], {"lo", "hi"}, "feasible_box_m")
        lo = _point(_require(box_doc, "lo", "feasible_box_m."), "feasible_box_m.lo")
        hi = _point(_require(box_doc, "hi", "feasible_box_m."), "feasible_box_m.hi")
        try:
            common["feasible_box"] = Box2D(lo, hi)
        except ValueError as exc:  # lo exceeds hi
            raise SchemaError("feasible_box_m", str(exc)) from exc

    if kind == "d2d":
        common["peer"], peer = _path_spec(_require(doc, "peer", "", units=True), "peer")
        d2d = _fields(_section(doc, "d2d"), "d2d")
        return _build(ScenarioConfig, kind="d2d", **peer, **d2d, **common)

    ocean_doc = _section(doc, "ocean", extra=("field", "perturbation"))
    field = _require(ocean_doc, "field", "ocean.", units=True)
    ocean = _fields(ocean_doc, "ocean")
    ocean["ocean_field"] = _field_from_doc(field, "ocean.field", base_dir)
    if "perturbation" in ocean_doc:
        pp = "ocean.perturbation"
        pert_doc = _object(ocean_doc["perturbation"], _SECTIONS[pp], pp)
        _require(pert_doc, "sigma_fraction", pp + ".")
        ocean["perturbation"] = _build(FieldPerturbation, **_fields(pert_doc, pp))
    return _build(ScenarioConfig, kind="ocean", **ocean, **common)


def parse_config(path) -> ScenarioConfig:
    """Read, validate, and resolve a JSON config file."""
    return parse_config_doc(_read_doc(path), base_dir=Path(path).parent)


def load_config(path) -> tuple[ScenarioConfig, str]:
    """:func:`parse_config` and :func:`config_hash` of a config file, from one read of it."""
    doc = _read_doc(path)
    return parse_config_doc(doc, base_dir=Path(path).parent), _digest(doc)


def _read_doc(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(path), f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def config_hash(path) -> str:
    """Stable digest of the canonicalized config text; a file it cannot read is a SchemaError."""
    return _digest(_read_doc(path))


def _digest(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# The BLAS numpy was built with, read once (a numpy before 1.25 records none).
_BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})


@dataclass(frozen=True)
class RunManifest:
    """Provenance card written next to every CLI run's outputs."""

    config_hash: str
    seed: int
    tool_version: str
    numpy_version: str
    blas_name: str | None
    blas_version: str | None
    started_at: str
    outputs: tuple[str, ...]

    @classmethod
    def create(cls, cfg_hash: str, seed: int, outputs: list[str]) -> "RunManifest":
        from . import __version__

        return cls(
            config_hash=cfg_hash,
            seed=seed,
            tool_version=__version__,
            numpy_version=np.__version__,
            blas_name=_BLAS.get("name"),
            blas_version=_BLAS.get("version"),
            started_at=datetime.now(timezone.utc).isoformat(),
            outputs=tuple(outputs),
        )

    def write(self, path) -> None:
        write_json(asdict(self), path)
