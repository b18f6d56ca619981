"""Exception types shared across the simulator."""

from __future__ import annotations


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
    """An episode could not take a feasible step at some slot."""

    def __init__(self, slot: int, detail: str):
        super().__init__(f"slot {slot}: {detail}")
        self.slot = int(slot)
        self.detail = detail


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
