"""Scalar search primitives: Brent maximization and monotone bisection."""

from __future__ import annotations

import math
from typing import Callable, TypeVar

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

T = TypeVar("T")


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               xtol: float = 1e-9, max_iter: int = 200) -> tuple[float, float]:
    """Maximize a unimodal function on [lo, hi] by Brent's method; returns (x*, f(x*)).

    Golden-section steps plus successive parabolic interpolation through the
    three best points (Brent 1973).  Stops once the bracket [a, b] has
    b - a <= xtol * (1 + |a| + |b|), or after max_iter evaluations past the
    first.  The result is the best point evaluated; a tie goes to the lower
    point, so a flat stretch resolves toward lo.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(max_iter):
        width = xtol * (1.0 + abs(a) + abs(b))
        if b - a <= width:
            break
        tol1 = width / 4.0               # least step; steps keep this far from x and the ends
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx); its vertex is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                golden = False
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu > fx or (fu == fx and u < x):
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def grid_then_golden(f: Callable[[float], float], lo: float, hi: float,
                     points: int = 17, xtol: float = 1e-9) -> tuple[float, float, list[float]]:
    """Coarse grid followed by Brent refinement around the best bracket.

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
