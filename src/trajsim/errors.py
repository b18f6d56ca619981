"""Exception types shared across the simulator, and the value rules behind :class:`SchemaError`."""

from __future__ import annotations

import math
import numbers


class TrajsimError(Exception):
    """Base class for all simulator errors."""


class EmptyStepInterval(TrajsimError):
    """The feasible learning-rate interval for the commute policy is empty."""

    def __init__(self, lower: float, upper: float, chosen: float):
        super().__init__(
            f"step-size interval empty: chose {chosen:.6g} but the open upper "
            f"bound is {upper:.6g} (lower bound {lower:.6g})"
        )
        self.lower = float(lower)
        self.upper = float(upper)
        self.chosen = float(chosen)


class RootExistence(TrajsimError):
    """No positive learning rate keeps the relative-speed cap feasible."""

    def __init__(self, alpha_t: float, current_ratio: float):
        super().__init__(
            f"relative-speed cap infeasible: throttle alpha={alpha_t:.6g} must "
            f"exceed current/speed ratio {current_ratio:.6g}"
        )
        self.alpha_t = float(alpha_t)
        self.current_ratio = float(current_ratio)


class InfeasibleStepSize(TrajsimError):
    """An episode could not take a feasible step at some slot.

    ``gbar`` is the slot's gradient bound, the running maximum of the
    observed gradient norms.  ``interval`` is the ``(lower, upper)`` step-size
    interval of the :class:`EmptyStepInterval` that caused the error, and
    None for any other cause.
    """

    def __init__(
        self, slot: int, detail: str, gbar: float, interval: tuple[float, float] | None = None
    ):
        super().__init__(f"slot {slot}: {detail}")
        self.slot = int(slot)
        self.detail = detail
        self.gbar = float(gbar)
        self.interval = interval


class GridTooCoarse(TrajsimError):
    """The brute-force grid has a reachable node with no feasible successor."""


class HorizonMismatch(TrajsimError):
    """Two trajectories that must share a horizon have different lengths."""


class ParseError(TrajsimError):
    """A data file row could not be parsed."""


class LatticeError(TrajsimError):
    """A gridded field file does not form a complete regular lattice."""


class UnitsError(TrajsimError):
    """A required unit-bearing field is missing or mislabelled."""


class SchemaError(TrajsimError):
    """A configuration document violates the documented schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def as_real(x) -> float:
    """``x`` as a float; NaN for a bool, a non-number or an int beyond the float range."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:
        return math.nan


def is_count(x) -> bool:
    """Whether ``x`` is an integer (a bool is not)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# The value rules of the config dataclasses: a predicate on the value and the
# message when it fails.  A number rule reads a non-number as NaN, which fails.
POSITIVE = (lambda x: 0.0 < as_real(x) < math.inf, "must be a finite number > 0")
NONNEGATIVE = (lambda x: 0.0 <= as_real(x) < math.inf, "must be a finite number >= 0")
FINITE = (lambda x: math.isfinite(as_real(x)), "must be a finite number")
UNIT = (lambda x: 0.0 < as_real(x) <= 1.0, "must be in (0, 1]")
FRACTION = (lambda x: 0.0 <= as_real(x) <= 1.0, "must be in [0, 1]")
INTEGER = (is_count, "must be an integer")
COUNT = (lambda x: is_count(x) and x >= 0, "must be a nonnegative integer")


def one_of(*choices: str):
    """The rule that a value is one of ``choices``."""
    return (lambda x: x in choices, f"must be one of {', '.join(choices)}")


def check(rule, value, name: str) -> None:
    """Raise ``SchemaError(name, ...)`` unless ``value`` keeps ``rule``."""
    ok, message = rule
    if not ok(value):
        raise SchemaError(name, f"{message}, got {value!r}")
