"""The regret report's per-slot loops that the tests check its array passes against.

They are the report's pieces as they ran one slot or one pair at a time:
both families' ``variation_terms``, ``straight_line_trajectory``,
``energy_cost`` and ``cumulative_error``, and the ``x ** k`` list
comprehension both drivers' ``freeze`` took its powers with.  Each squares
and cubes with ``**``, compares with the builtin ``min``, ``max`` and
``<``, and adds left to right from 0.0.
"""

import math

import numpy as np

from trajsim.field import sample_velocity
from trajsim.geom import left_sum


def power_list(x: np.ndarray, k) -> np.ndarray:
    """``freeze``'s ``np.array([v ** k for v in x.tolist()])``."""
    return np.array([v**k for v in x.tolist()])


def commute_variation_terms(us, region) -> tuple[list[float], bool]:
    steps = (us.leads[1:] - us.leads[:-1]).tolist()
    if us.kind == "squared":
        return [b[0] ** 2 + b[1] ** 2 for b in steps], True
    mu, cap = us.mu, 2.0 * us.v
    norms = [math.hypot(*b) for b in steps]
    terms = [(mu * n + (1.0 - mu) * min(n, cap)) ** 2 for n in norms]
    mids = (0.5 * (us.leads[1:] + us.leads[:-1])).tolist()
    return terms, all(region.contains(m) for m in mids)


def voyage_variation_terms(us, region) -> tuple[list[float], bool]:
    lam = us.lam
    pull = lam[:, None] * us.goal
    drift = (1.0 - lam)[:, None] * us.current
    a = -2.0 * (lam[1:] - lam[:-1])
    b = 2.0 * (pull[1:] - pull[:-1]) + drift[1:] - drift[:-1]
    corners = region.vertices()
    return [
        max((a_t * c[0] + b_t[0]) ** 2 + (a_t * c[1] + b_t[1]) ** 2 for c in corners)
        for a_t, b_t in zip(a.tolist(), b.tolist())
    ], True


def cumulative_error(eps_sq) -> float:
    for i, e in enumerate(eps_sq):
        if e < 0.0:
            raise ValueError(f"eps_sq[{i}] = {e} is negative")
    return left_sum(eps_sq, 0.0)


def energy_cost(traj, fld, c_d: float, slot_duration: float = 1.0) -> float:
    if slot_duration <= 0.0:
        raise ValueError("slot duration must be positive")
    tau = slot_duration
    total = 0.0
    for t, (a, b) in enumerate(zip(traj, traj[1:]), start=1):
        if fld is None:
            vo = (0.0, 0.0)
        else:
            vo = sample_velocity(fld, a, (t - 1) * tau)
        rel = ((b[0] - a[0]) / tau - vo[0], (b[1] - a[1]) / tau - vo[1])
        speed = math.hypot(rel[0], rel[1])
        total += c_d * speed**3 * tau
    return total


def straight_line_trajectory(s, d, T: int) -> list:
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if T == 1:
        return [s]
    return [lerp(s, d, t / (T - 1)) for t in range(T)]


def lerp(a, b, w: float):
    return (a[0] + w * (b[0] - a[0]), a[1] + w * (b[1] - a[1]))
