"""The package forms no BLAS-backed product.

OpenBLAS splits a dot or matrix product over its thread pool once an
operand holds more than about 10,000 elements.  Waking the pool stalls such
a call by about 8 ms (against 3 us on one thread), and the split sums round
differently with the thread count, so output digits would depend on
OPENBLAS_NUM_THREADS.  Sums of products are formed with np.einsum or .sum(),
which never enter BLAS.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specdesign"

#: numpy functions that hand their product to BLAS
_NUMPY_PRODUCTS = ("dot", "vdot", "inner", "matmul")


def blas_products(source: str) -> list[tuple[int, str]]:
    """(line, form) of every BLAS-backed product in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = node.func.value, node.func.attr
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy") \
                    and name in _NUMPY_PRODUCTS:
                found.append((node.lineno, f"np.{name}"))
            elif name == "dot":
                found.append((node.lineno, ".dot("))
    return sorted(found)


@pytest.mark.parametrize("code, form", [
    ("c = a @ b", "@"), ("a @= b", "@"), ("np.dot(a, b)", "np.dot"),
    ("np.vdot(a, b)", "np.vdot"), ("numpy.inner(a, b)", "np.inner"),
    ("np.matmul(a, b)", "np.matmul"), ("a.dot(b)", ".dot("),
])
def test_the_guard_sees_every_form(code, form):
    assert blas_products(code) == [(1, form)]


def test_the_guard_passes_reductions():
    assert blas_products('np.einsum("i,i", a, a) + (a * b).sum() + a.sum(axis=1)') == []


def test_no_blas_products_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {form}"
             for path in modules for line, form in blas_products(path.read_text())]
    assert found == []
