"""Scalar search primitives: golden-section maximization and monotone bisection."""

from __future__ import annotations

import math
from typing import Callable, TypeVar

_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0

T = TypeVar("T")


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               xtol: float = 1e-9, max_iter: int = 200) -> tuple[float, float]:
    """Maximize a unimodal function on [lo, hi]; returns (x*, f(x*))."""
    a, b = float(lo), float(hi)
    x1 = b - _INVGOLD * (b - a)
    x2 = a + _INVGOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(max_iter):
        if (b - a) <= xtol * (1.0 + abs(a) + abs(b)):
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVGOLD * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVGOLD * (b - a)
            f2 = f(x2)
        if f1 >= best_f:
            best_x, best_f = x1, f1
        if f2 >= best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def grid_then_golden(f: Callable[[float], float], lo: float, hi: float,
                     points: int = 17, xtol: float = 1e-9) -> tuple[float, float, list[float]]:
    """Coarse grid followed by golden refinement around the best bracket.

    Returns (x*, f*, ties) where ties lists grid points whose value matched the
    grid maximum to within 1e-9; robust when unimodality is only empirical.
    """
    xs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    vals = [f(x) for x in xs]
    k = max(range(points), key=lambda i: vals[i])
    vmax = vals[k]
    ties = [xs[i] for i in range(points) if i != k and vals[i] >= vmax - 1e-9 * (1.0 + abs(vmax))]
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, points - 1)]
    x_star, f_star = golden_max(f, a, b, xtol=xtol)
    if vmax > f_star:
        x_star, f_star = xs[k], vmax
    return x_star, f_star, ties


def bisect(f: Callable[[float], T], lo: float, hi: float,
           residual: Callable[[T], float] = lambda v: v,
           ftol: float = 0.0, max_iter: int = 100) -> tuple[float, float, T | None]:
    """Monotone bisection on [lo, hi] for a residual that falls as x rises.

    Evaluates f at the midpoint max_iter times: a positive residual moves lo
    up to the midpoint, any other moves hi down; stops early once
    |residual| < ftol.  Returns (lo, hi, f at the last midpoint).
    """
    value = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        value = f(mid)
        r = residual(value)
        if abs(r) < ftol:
            break
        if r > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, value
