"""The library's BLAS calls: each is listed here with its reason, and no other is made.

numpy hands ``vdot``, ``dot``, ``inner``, ``matmul``, ``tensordot``, ``@``
and ``np.linalg`` to the BLAS it links, which picks its kernel by CPU, so
their last bits can differ from machine to machine (ROADMAP item 17).
Elementwise products summed by ``einsum`` or ``np.add.reduce`` do not.
"""

import ast
from pathlib import Path

import trajsim

BLAS_NAMES = {"vdot", "dot", "inner", "matmul", "tensordot", "linalg"}

# Each library line allowed a BLAS call, by module and stripped source text, with its reason.
ALLOWED = {
    ("metrics.py", "return float(np.vdot(a, a) + 2.0 * np.vdot(b, a)) > margins"): (
        "the lone-row restart test of _Lockstep.rose, whose rounding lies inside _MARGIN"
    ),
    ("metrics.py", "if np.vdot(x_new - y, x_new - x) < 0.0:"): (
        "_solve_boxed's restart test; item 17 replaces it together with a declared"
        " re-take of the commute-boxed golden"
    ),
    (
        "metrics.py",
        "bound = u_hat - float(np.vdot(lam, w)) + float(radii @ np.hypot(lam[:, 0], lam[:, 1]))",
    ): "_solve_boxed's bound, which reaches offline_gap; item 17 replaces it with the restart test",
}


def _blas_nodes(tree):
    """Each node of ``tree`` that reaches a BLAS routine of numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if "linalg" in node.module or {a.name for a in node.names} & BLAS_NAMES:
                yield node
        elif isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names):
            yield node


def test_blas_calls_are_the_allowed_ones():
    package = Path(trajsim.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in _blas_nodes(ast.parse("\n".join(lines))):
            found.setdefault((path.name, lines[node.lineno - 1].strip()), node.lineno)
    new = [f"{key[0]}:{lineno}" for key, lineno in found.items() if key not in ALLOWED]
    assert not new, f"BLAS calls outside the allow-list: {new}"
    # an entry whose line is gone leaves the list, so it cannot cover a later call
    assert set(found) == set(ALLOWED)


def test_the_scan_sees_each_form():
    source = """
import numpy.linalg
from numpy import dot
from numpy.linalg import norm
a = np.vdot(x, y) + np.dot(x, y) + np.inner(x, y) + np.matmul(x, y) + np.tensordot(x, y)
b = np.linalg.norm(x) + (x @ y)
c @= d
"""
    lines = [node.lineno for node in _blas_nodes(ast.parse(source))]
    assert sorted(lines) == [2, 3, 4] + [5] * 5 + [6] * 2 + [7]
