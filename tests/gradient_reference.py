"""Reference forms the tests check the library's closed forms against."""

from trajsim.geom import norm, sub


def d2d_gradient_piecewise(x, ell, v_max, mu):
    """Branch-by-branch form of ``objectives.d2d_gradient``.

    Inside the cap the gradient is the pull ``ell - x``; outside it is
    ``(v_max (1 - mu) / |pull| + mu) * pull``.
    """
    pull = sub(ell, x)
    n = norm(pull)
    if n <= v_max:
        return pull
    s = v_max * (1.0 - mu) / n
    return (s * pull[0] + mu * pull[0], s * pull[1] + mu * pull[1])
