"""The shared scalar search: Brent's maximizer on smooth, kinked, boundary and flat objectives."""

import math

import pytest

from expurg._search import golden_max

XTOL = 1e-9


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def width(lo, hi):
    return XTOL * (1.0 + abs(lo) + abs(hi))


def test_smooth_concave_converges_in_few_evaluations():
    # golden-section search needs about 45 evaluations to reach xtol on [0, 10]
    c = 6.1
    f, calls = counted(lambda x: (x - c) - math.expm1(x - c))    # strictly concave, max 0 at c
    x, fx = golden_max(f, 0.0, 10.0, xtol=XTOL)
    assert abs(x - c) <= width(0.0, 10.0)
    assert fx == f(x)
    assert len(calls) <= 20


@pytest.mark.parametrize("c", [0.0, 2.3, 7.77, 10.0])
def test_kinked_and_endpoint_maxima_reach_xtol(c):
    x, fx = golden_max(lambda x: -abs(x - c), 0.0, 10.0, xtol=XTOL)
    assert abs(x - c) <= width(0.0, 10.0)
    assert fx == -abs(x - c)


def test_returns_best_evaluated_point():
    f, calls = counted(lambda x: -(x - 1.25) ** 2)
    x, fx = golden_max(f, -3.0, 5.0)
    assert x in calls
    assert fx == max(-(u - 1.25) ** 2 for u in calls)


def test_constant_function_returns_lower_end():
    x, fx = golden_max(lambda x: 1.0, 0.0, 100.0, xtol=XTOL)
    assert fx == 1.0
    assert x <= width(0.0, 100.0)


def test_flat_top_resolves_toward_lower_end():
    x, _ = golden_max(lambda x: min(x, 3.0), 0.0, 10.0, xtol=XTOL)
    assert x == pytest.approx(3.0, abs=width(0.0, 10.0))
