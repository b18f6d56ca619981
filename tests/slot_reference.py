"""The per-slot noise draw and walk that the library's block forms are tested against.

The library defines the noise stream, its scale ``eps_t`` and the goal and
peer walks once each, as array passes over many slots
(``engine.normal_pairs``, ``NoiseModel.draws``, ``PathSpec.track``).  These
are the same formulas one slot at a time, in scalar Python arithmetic with
their own constants, so a fault in a block form is not copied here.
"""

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """The splitmix64 finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def normal_pair(seed, t):
    """Two independent standard normals keyed by ``(seed, t)``.

    Box-Muller on the splitmix64 outputs at counters ``2t`` and ``2t + 1`` of
    the stream that starts at the mixed seed, the counter stepping by the
    golden gamma.  The first uniform lies in ``(0, 1]``.
    """
    c = _mix64(seed & _MASK64) + 2 * t * _GOLDEN
    u1 = ((_mix64(c & _MASK64) >> 11) + 1) * 2.0**-53
    angle = 2.0 * math.pi * ((_mix64((c + _GOLDEN) & _MASK64) >> 11) * 2.0**-53)
    r = math.sqrt(-2.0 * math.log(u1))
    return (r * math.cos(angle), r * math.sin(angle))


def noise_eps(model, t):
    """``NoiseModel.eps``: ``eps0 * t**-decay_q``, or zero for ``kind="none"``."""
    if model.kind == "none":
        return 0.0
    return model.eps0 * t ** (-model.decay_q)


def noise_draw(model, t):
    """``NoiseModel.draw``: the slot's normal pair scaled by ``eps_t / sqrt(2)``."""
    if model.kind == "none":
        return (0.0, 0.0)
    sigma = noise_eps(model, t) / 2.0**0.5
    z0, z1 = normal_pair(model.seed, t)
    return (sigma * z0, sigma * z1)


def walk_at(spec, t, slot_duration):
    """``PathSpec.at``: ``start`` moved ``speed * tau * (t - 1)`` toward ``end``, clamped there."""
    if spec.speed_mps == 0.0:
        return spec.start
    (s0, s1), (e0, e1) = spec.start, spec.end
    total = math.hypot(s0 - e0, s1 - e1)
    if total == 0.0:
        return spec.start
    w = min(spec.speed_mps * slot_duration * (t - 1), total) / total
    return (s0 + w * (e0 - s0), s1 + w * (e1 - s1))
