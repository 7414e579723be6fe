import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdesign.errors import ValidationError
from specdesign.grid import (
    SampledFn,
    cumulative_integral,
    default_points,
    integrate,
    make_grid,
)
from specdesign.potentials import Potential

from references import sample


def test_make_grid_spacing():
    g = make_grid(-math.pi / 2, math.pi / 2, 2001)
    assert g.h == pytest.approx(math.pi / 2000, rel=1e-15)
    assert g.n_points == 2001
    assert g.x[g.mid_index] == pytest.approx(0.0, abs=1e-15)


def test_make_grid_smallest():
    g = make_grid(0.0, 1.0, 3)
    assert np.allclose(g.x, [0.0, 0.5, 1.0])


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 1.0, 4),          # even count
        (0.0, 1.0, 1),          # too few
        (1.0, 0.0, 3),          # reversed bounds
        (0.0, math.inf, 3),     # non-finite
    ],
)
def test_make_grid_rejects(args):
    with pytest.raises(ValidationError):
        make_grid(*args)


def test_default_points_odd():
    n = default_points(math.pi)
    assert n == 2001
    assert default_points(2 * math.pi) % 2 == 1


def test_sampled_fn_validates():
    g = make_grid(0.0, 1.0, 5)
    with pytest.raises(ValidationError):
        SampledFn(g, np.zeros(4))
    with pytest.raises(ValidationError):
        SampledFn(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("bc, side", [("decaying-line", "left"), ("decaying-line", "right"),
                                      ("decaying-half-line", "right")])
def test_truncated_edges_must_be_flat(bc, side):
    # a unit step on a truncated edge is refused, and taken where that end is a wall
    g = make_grid(0.0, 10.0, 101)
    v = np.zeros(101)
    v[0 if side == "left" else -1] = 1.0
    with pytest.raises(ValidationError, match=rf"^{bc} potential not flat at {side} edge "
                       r"\(\|dV\|=1\.000e\+00 > 1\.000e-03\); enlarge the truncation$"):
        Potential(SampledFn(g, v), bc)
    Potential(SampledFn(g, v), "hard-walls")
    if side == "left":
        Potential(SampledFn(g, v), "decaying-half-line")


def test_integrate_constant():
    g = make_grid(0.0, math.pi, 2001)
    assert integrate(sample(lambda x: np.ones_like(x), g)) == pytest.approx(math.pi, abs=1e-12)


def test_integrate_sin_squared():
    g = make_grid(0.0, math.pi, 2001)
    assert integrate(sample(lambda x: np.sin(x) ** 2, g)) == pytest.approx(math.pi / 2, abs=1e-10)


def test_integrate_cos_squared_box_norm():
    g = make_grid(-math.pi / 2, math.pi / 2, 2001)
    assert integrate(sample(lambda x: np.cos(x) ** 2, g)) == pytest.approx(math.pi / 2, abs=1e-10)


def test_integrate_exact_for_cubics():
    g = make_grid(-1.0, 2.0, 7)
    f = sample(lambda x: 3 * x**3 - x**2 + 5 * x - 2, g)
    exact = 3 / 4 * (2**4 - 1) - 1 / 3 * (2**3 + 1) + 5 / 2 * (2**2 - 1) - 2 * 3
    assert integrate(f) == pytest.approx(exact, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    k=st.integers(1, 6),
)
def test_integrate_linearity(a, b, k):
    g = make_grid(0.0, 2.0, 401)
    f1 = sample(lambda x: np.sin(k * x), g)
    f2 = sample(lambda x: np.exp(-x), g)
    combo = SampledFn(g, a * f1.values + b * f2.values)
    lhs = integrate(combo)
    rhs = a * integrate(f1) + b * integrate(f2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cumulative_starts_at_zero_and_matches_total():
    g = make_grid(0.0, math.pi, 2001)
    f = sample(lambda x: np.sin(x) ** 2 + 0.25 * x, g)
    acc = cumulative_integral(f)
    assert acc.values[0] == 0.0
    assert acc.values[-1] == pytest.approx(integrate(f), abs=1e-10)


def test_cumulative_identity():
    g = make_grid(0.0, 1.0, 1001)
    acc = cumulative_integral(sample(lambda x: np.ones_like(x), g))
    assert np.allclose(acc.values, g.x, atol=1e-12)


def test_cumulative_sin_squared_midpoint():
    g = make_grid(0.0, math.pi, 2001)
    acc = cumulative_integral(sample(lambda x: np.sin(x) ** 2, g))
    assert acc.values[g.mid_index] == pytest.approx(math.pi / 4, abs=1e-8)


def test_cumulative_monotone_for_nonnegative():
    g = make_grid(0.0, math.pi, 1001)
    acc = cumulative_integral(sample(lambda x: np.sin(2 * x) ** 2, g))
    assert np.all(np.diff(acc.values) >= -1e-12)


def test_refinement_convergence():
    def total(n):
        g = make_grid(0.0, math.pi, n)
        return integrate(sample(lambda x: np.exp(np.sin(x)), g))

    assert abs(total(2001) - total(4001)) < 1e-8
