"""Gallager-form (dual) expurgated exponents.

Three families are covered: the plain product-ensemble exponent, the
constant-composition exponent with an optimized per-symbol tilt a(.), and the
cost-shell exponent with explicit tilt weights (r_l, rbar_l).  The tilt a(.)
is optimized by the fixed point that enforces the Jensen-equality condition:
entropic marginal scaling, solved by the kernel in ``_numerics`` that the
primal module shares.  Above that kernel the routes differ (sup over s and rho
here, a min over pair couplings there), so their gap certifies both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._numerics import lse as logsumexp, scale_marginals
from ._search import golden_max, grid_then_golden
from .errors import Error, ZeroErrorRegimeError
from .model import (
    AuxiliaryCostSet,
    ChannelModel,
    DecodingMetric,
    InputDistribution,
    PairKernel,
    check_dimensions,
)

RHO_MAX = 1000.0
S_HI = 10.0
S_HI_WIDE = 100.0
BOUNDARY_FRACTION = 0.99
A_TOL = 1e-10          # on the span of one sweep's change in the tilt a = rho * log psi
A_MAX_ITER = 10_000


@dataclass
class DualParams:
    rho: float
    s: float
    a_vec: np.ndarray | None = None
    r_vec: np.ndarray | None = None
    rbar_vec: np.ndarray | None = None


@dataclass
class ExponentResult:
    """Optimized exponent value with its argmax and solver diagnostics.

    ``value`` is clamped at zero (the plottable exponent); ``raw`` keeps the
    sign so a vacuous bound stays visible.  ``boundary_flag`` marks an argmax
    rho at the search ceiling, i.e. the rate-zero regime.
    """

    value: float
    raw: float
    argmax: DualParams
    converged: bool = True
    boundary_flag: bool = False
    ties: list[float] = field(default_factory=list)


def _sup_s(g, s_hi: float = S_HI) -> tuple[float, float]:
    """sup over s >= 0 of a concave objective, widening the bracket once."""
    s, v = golden_max(g, 0.0, s_hi)
    if s >= 0.99 * s_hi and s_hi < S_HI_WIDE:
        s2, v2 = golden_max(g, 0.0, S_HI_WIDE)
        if v2 >= v:
            s, v = s2, v2
        if s >= 0.99 * S_HI_WIDE:
            warnings.warn("s search hit the widened ceiling; exponent may be understated")
    return s, v


# ---------------------------------------------------------------------------
# product-ensemble exponent
# ---------------------------------------------------------------------------

def ex_iid(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
           rho: float, s: float) -> float:
    """-rho log sum_{x,xbar} Q(x)Q(xbar) exp(-d_s(x,xbar)/rho)."""
    if rho <= 0:
        raise Error("rho must be positive")
    kern = PairKernel(channel, metric)
    return _ex_iid_kern(kern, q_in.q_vec, rho, s)


def _ex_iid_kern(kern: PairKernel, qv: np.ndarray, rho: float, s: float) -> float:
    b = kern.overlap(s)
    with np.errstate(over="ignore"):
        z = float(np.einsum("x,b,xb->", qv, qv, b ** (1.0 / rho)))
    if z == 0.0:
        return math.inf
    return -rho * math.log(z)


def eex_iid(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
            rate: float, rho_max: float = RHO_MAX) -> ExponentResult:
    """sup over rho in [1, rho_max] and s >= 0 of ex_iid - rho * rate."""
    if rate <= 0:
        raise Error("rate must be positive")
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec

    def e0(rho: float) -> float:
        return _sup_s(lambda s: _ex_iid_kern(kern, qv, rho, s))[1]

    res = eex_generic(e0, rate, (1.0, rho_max))
    s_star, _ = _sup_s(lambda s: _ex_iid_kern(kern, qv, res.argmax.rho, s))
    res.argmax.s = s_star
    return res


def eex_generic(e0, rate: float, rho_range: tuple[float, float] = (1.0, RHO_MAX)) -> ExponentResult:
    """sup over rho of e0(rho) - rho*rate for a concave e0, with a grid fallback.

    Concavity is spot-checked on sampled midpoints; when the check fails the
    supremum is taken over a dense grid in log rho (with local refinement) and
    a warning is emitted.
    """
    lo, hi = rho_range

    def g(rho: float) -> float:
        return e0(rho) - rho * rate

    concave = True
    probes = np.geomspace(lo, hi, 5)
    for ra, rb in zip(probes[:-1], probes[1:]):
        rm = 0.5 * (ra + rb)
        va, vm, vb = e0(ra), e0(rm), e0(rb)
        if vm < 0.5 * (va + vb) - 1e-8 * (1.0 + abs(vm)):
            concave = False
            break

    if concave:
        rho_star, best = golden_max(g, lo, hi)
    else:
        warnings.warn("concavity spot check failed; falling back to a dense rho grid")
        t_star, best, _ = grid_then_golden(lambda t: g(math.exp(t)),
                                           math.log(lo), math.log(hi), points=200)
        rho_star = math.exp(t_star)

    return ExponentResult(
        value=max(best, 0.0),
        raw=best,
        argmax=DualParams(rho=rho_star, s=math.nan),
        converged=True,
        boundary_flag=rho_star >= BOUNDARY_FRACTION * hi,
    )


# ---------------------------------------------------------------------------
# constant-composition exponent: Jensen-equalizing tilt
# ---------------------------------------------------------------------------

def ex_cc_dual(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
               rho: float, s_hi: float = S_HI) -> ExponentResult:
    """sup over s >= 0 and tilts a(.) of the averaged-log dual objective.

    The optimal a achieves Jensen equality: psi = exp(a/rho) is the marginal
    scaling fixed point for the kernel B_s^(1/rho); a is then normalized to
    zero Q-mean.
    """
    if rho < 1:
        raise Error("rho must be at least 1")
    check_dimensions(channel, metric, q_in)
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    lq = np.log(qv[sup])
    state: dict = {"la": None, "best": None}

    def g(s: float) -> float:
        b = kern.overlap(s)[np.ix_(sup, sup)]
        with np.errstate(divide="ignore"):
            log_kernel = np.log(b) / rho
        la, ls, iters, conv = scale_marginals(log_kernel, lq, state["la"], A_TOL / rho, A_MAX_ITER)
        state["la"] = la
        value = -rho * float(np.exp(lq) @ (ls - la))
        if state["best"] is None or value > state["best"][0]:
            state["best"] = (value, s, la, conv, iters)
        return value

    s_star, v_star = _sup_s(g, s_hi)
    value, s_at, la, conv, _ = state["best"]
    a = np.zeros(channel.input_size)
    a[sup] = rho * la
    a -= float(qv @ a)
    return ExponentResult(
        value=value,
        raw=value,
        argmax=DualParams(rho=rho, s=s_at, a_vec=a),
        converged=conv,
    )


def ex_cc_objective(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                    rho: float, s: float, a_vec: np.ndarray) -> float:
    """The averaged-log dual objective at a fixed tilt a(.)."""
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    b = kern.overlap(s)[np.ix_(sup, sup)]
    a = np.asarray(a_vec, dtype=float)[sup]
    with np.errstate(divide="ignore"):
        inner = logsumexp(np.log(qv[sup])[None, :] + (np.log(b) + (a[None, :] - a[:, None])) / rho,
                          axis=1)
    return -rho * float(qv[sup] @ inner)


def eex_cc_dual(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                rate: float, rho_max: float = RHO_MAX) -> ExponentResult:
    """sup over rho >= 1 of ex_cc_dual(rho) - rho * rate."""
    if rate <= 0:
        raise Error("rate must be positive")

    def e0(rho: float) -> float:
        return ex_cc_dual(channel, metric, q_in, rho).value

    res = eex_generic(e0, rate, (1.0, rho_max))
    inner = ex_cc_dual(channel, metric, q_in, res.argmax.rho)
    res.argmax = DualParams(rho=res.argmax.rho, s=inner.argmax.s, a_vec=inner.argmax.a_vec)
    res.converged = inner.converged
    return res


# ---------------------------------------------------------------------------
# cost-shell exponents
# ---------------------------------------------------------------------------

def _cost_bracket_log(kern: PairKernel, q_in: InputDistribution, aux: AuxiliaryCostSet,
                      s: float, r_vec: np.ndarray | None, rbar_vec: np.ndarray) -> np.ndarray:
    """log of B_s(x,xbar) * exp(sum_l rbar_l(a_l(xbar)-phi_l) - sum_l r_l(a_l(x)-phi_l))."""
    with np.errstate(divide="ignore"):
        lb = np.log(kern.overlap(s))
    centered = aux.costs - aux.means[:, None]       # (L, |X|)
    tilt_bar = rbar_vec @ centered if aux.size else np.zeros(kern.w.shape[0])
    lb = lb + tilt_bar[None, :]
    if r_vec is not None and aux.size:
        lb = lb - (r_vec @ centered)[:, None]
    return lb


def ex_cost(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
            aux: AuxiliaryCostSet, rho: float, s: float,
            r_vec, rbar_vec) -> float:
    """Cost-shell dual exponent at fixed tilt weights; log kept outside the pair average."""
    r_vec = np.asarray(r_vec, dtype=float)
    rbar_vec = np.asarray(rbar_vec, dtype=float)
    if r_vec.shape != (aux.size,) or rbar_vec.shape != (aux.size,):
        raise Error(f"tilt weight vectors must have length {aux.size}")
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    lq = np.log(qv[sup])
    lb = _cost_bracket_log(kern, q_in, aux, s, r_vec, rbar_vec)[np.ix_(sup, sup)]
    total = logsumexp(lq[:, None] + lq[None, :] + lb / rho)
    return -rho * float(total)


def ex_cost_star(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                 aux: AuxiliaryCostSet, rho: float, s: float, rbar_vec) -> float:
    """Improved cost-shell exponent: the average over x sits outside the log."""
    rbar_vec = np.asarray(rbar_vec, dtype=float)
    if rbar_vec.shape != (aux.size,):
        raise Error(f"tilt weight vector must have length {aux.size}")
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    lq = np.log(qv[sup])
    lb = _cost_bracket_log(kern, q_in, aux, s, None, rbar_vec)[np.ix_(sup, sup)]
    inner = logsumexp(lq[None, :] + lb / rho, axis=1)
    return -rho * float(qv[sup] @ inner)


def ex_cost_opt(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                aux: AuxiliaryCostSet, rho: float) -> ExponentResult:
    """sup over s and both tilt-weight vectors; the objective is jointly concave."""
    from scipy.optimize import minimize

    if aux.size == 0:
        kern = PairKernel(channel, metric)
        s, v = _sup_s(lambda s: _ex_iid_kern(kern, q_in.q_vec, rho, s))
        return ExponentResult(value=v, raw=v, argmax=DualParams(rho=rho, s=s))

    L = aux.size

    def neg(theta):
        s = theta[0]
        val = ex_cost(channel, metric, q_in, aux, rho, s, theta[1:1 + L], theta[1 + L:])
        return -val

    best = None
    for s0 in (0.25, 1.0, 3.0):
        x0 = np.concatenate([[s0], np.zeros(2 * L)])
        res = minimize(neg, x0, method="L-BFGS-B",
                       bounds=[(0.0, S_HI_WIDE)] + [(None, None)] * (2 * L))
        if best is None or res.fun < best.fun:
            best = res
    theta = best.x
    return ExponentResult(
        value=-best.fun, raw=-best.fun,
        argmax=DualParams(rho=rho, s=theta[0], r_vec=theta[1:1 + L], rbar_vec=theta[1 + L:]),
        converged=bool(best.success),
    )


def jensen_companion(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                     a1: np.ndarray, rho: float, s: float) -> np.ndarray:
    """The x-side tilt that makes Jensen's inequality tight against a given a1.

    With this companion in the x-slot (tilt weights (0,1) / (1,0)), the
    two-cost bracket exponent collapses to the averaged-log objective at a1.
    """
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    a1 = np.asarray(a1, dtype=float)
    phi1 = float(qv @ a1)
    with np.errstate(divide="ignore"):
        lb = np.log(kern.overlap(s))[np.ix_(sup, sup)]
    lw = logsumexp(np.log(qv[sup])[None, :] + (lb + (a1[sup] - phi1)[None, :]) / rho, axis=1)
    a2 = np.zeros(channel.input_size)
    a2[sup] = rho * (lw - float(qv[sup] @ lw))
    return a2


# ---------------------------------------------------------------------------
# rate-zero limit
# ---------------------------------------------------------------------------

def rate_zero_limit(channel: ChannelModel, metric: DecodingMetric,
                    q_in: InputDistribution) -> ExponentResult:
    """sup over s >= 0 of the pair-averaged distance E_{QxQ}[d_s].

    Requires every Q-positive input pair to share a reachable output; without
    that the error probability can be exactly zero and no finite limit exists.
    """
    check_dimensions(channel, metric, q_in)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    w = channel.w
    for x in sup:
        for xb in sup:
            if not ((w[x] > 0) & (w[xb] > 0)).any():
                raise ZeroErrorRegimeError(
                    f"zero-error regime: inputs {x} and {xb} share no output; "
                    "the rate-zero limit formula does not apply")
    kern = PairKernel(channel, metric)
    qq = np.outer(qv, qv)

    def g(s: float) -> float:
        d = kern.distances(s)
        return float(np.sum(qq * d, where=qq > 0))

    s_star, value = _sup_s(g)
    return ExponentResult(
        value=max(value, 0.0), raw=value,
        argmax=DualParams(rho=math.inf, s=s_star),
        boundary_flag=True,
    )
