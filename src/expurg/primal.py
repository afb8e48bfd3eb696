"""Primal (Csiszar-Korner form) expurgated exponents via entropic transport.

The workhorse minimizes ``E_P[d] + rho * I_P(X;Xbar)`` over pair distributions
with both marginals pinned to Q.  Its potentials come from the marginal-scaling
kernel in ``_numerics`` that the dual module shares; each sweep solves one
block of the concave dual exactly, so the recorded merit (the negated dual)
decreases monotonically.  The coupling is built here and certified by its own
primal-dual gap, which thereby checks the shared kernel.  Inputs with Q(x) = 0
are deleted before solving and restored as zero rows/columns afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import lse as logsumexp, scale_marginals
from ._search import bisect, grid_then_golden
from .dual import DualParams, ExponentResult, eex_cc_dual, S_HI
from .errors import Error, InfeasibleError
from .model import (
    ChannelModel,
    DecodingMetric,
    InputDistribution,
    PairKernel,
    check_dimensions,
    distance_matrix,
)

MARGINAL_ATOL = 1e-8
GAP_ATOL = 1e-8
RHO_BRACKET = (1e-6, 1e6)
MI_FTOL = 1e-6


@dataclass
class PairDistribution:
    """Joint law on input pairs with cached marginals."""

    p: np.ndarray
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.row_marginal = self.p.sum(axis=1)
        self.col_marginal = self.p.sum(axis=0)


@dataclass
class PrimalSolution:
    pair: PairDistribution
    mutual_info: float
    expected_distortion: float
    potentials: tuple[np.ndarray, np.ndarray]
    iterations: int
    converged: bool
    objective: float
    dual_value: float
    merit_trace: np.ndarray

    def tilt_vector(self, rho: float, q_in: InputDistribution) -> np.ndarray:
        """Column potential rescaled to the dual tilt a(.), normalized to zero Q-mean."""
        a = rho * self.potentials[1]
        return a - float(q_in.q_vec @ a)


def _mutual_info(p: np.ndarray) -> float:
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    mask = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(r[:, None]) - np.log(c[None, :]))
    return max(float(terms[mask].sum()), 0.0)


def entropic_pair_min(d_matrix: np.ndarray, q_in: InputDistribution, rho: float,
                      tol: float = 1e-10, max_iter: int = 10_000,
                      beta0: np.ndarray | None = None) -> PrimalSolution:
    """Minimize E_P[d] + rho * I_P over couplings with both marginals equal to Q.

    The optimum has the form Q(x)Q(xbar)exp(-d/rho + u(x) + v(xbar)); u and v
    are alternated in closed form.  The returned objective is certified by the
    dual lower bound: at convergence the primal-dual gap is below 1e-8.
    """
    if rho <= 0:
        raise Error("rho must be positive")
    d_matrix = np.asarray(d_matrix, dtype=float)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    lq = np.log(qv[sup])
    d = d_matrix[np.ix_(sup, sup)]
    lk = -d / rho                                  # log base kernel
    if np.isneginf(lk).all(axis=1).any() or np.isneginf(lk).all(axis=0).any():
        raise InfeasibleError("transport kernel has an empty row or column on the support of Q")

    trace: list[float] = []
    beta, ls, iters, converged = scale_marginals(lk, lq, beta0, tol, max_iter, trace)
    alpha = -ls

    logp = lq[:, None] + lq[None, :] + lk + alpha[:, None] + beta[None, :]
    p_sub = np.exp(logp)
    p_sub /= p_sub.sum()
    k = len(qv)
    p = np.zeros((k, k))
    p[np.ix_(sup, sup)] = p_sub
    u = np.zeros(k)
    v = np.zeros(k)
    u[sup] = alpha
    v[sup] = beta

    pair = PairDistribution(p)
    mi = _mutual_info(p)
    dist = float(np.sum(p * np.where(p > 0, d_matrix, 0.0)))
    objective = dist + rho * mi
    dual_value = rho * float(np.exp(lq) @ (alpha + beta))
    gap_ok = abs(objective - dual_value) <= GAP_ATOL * (1.0 + abs(objective))
    return PrimalSolution(
        pair=pair,
        mutual_info=mi,
        expected_distortion=dist,
        potentials=(u, v),
        iterations=iters,
        converged=converged and gap_ok,
        objective=objective,
        dual_value=dual_value,
        merit_trace=rho * np.asarray(trace),
    )


# ---------------------------------------------------------------------------
# distortion-rate machinery
# ---------------------------------------------------------------------------

def _solve_mi_equals(d_matrix: np.ndarray, q_in: InputDistribution, target: float,
                     rho_lo: float, rho_hi: float) -> PrimalSolution:
    """Bisect the entropy weight until the coupling's mutual information hits target.

    Mutual information is nonincreasing in the weight, so bisection on log rho
    converges; the iterate potentials warm-start each solve.
    """
    beta0 = None

    def solve(log_rho: float) -> PrimalSolution:
        nonlocal beta0
        sol = entropic_pair_min(d_matrix, q_in, math.exp(log_rho), beta0=beta0)
        beta0 = sol.potentials[1][q_in.support]
        return sol

    return bisect(solve, math.log(rho_lo), math.log(rho_hi),
                  residual=lambda sol: sol.mutual_info - target, ftol=MI_FTOL)[2]


def d_s_rate(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
             s: float, rate: float) -> float:
    """Least mean pair distance over both-marginals-Q couplings with I <= rate."""
    if rate < 0:
        raise Error("rate must be non-negative")
    d = distance_matrix(channel, metric, s)
    lo, hi = RHO_BRACKET
    loose = entropic_pair_min(d, q_in, lo)
    if loose.mutual_info <= rate:
        return loose.expected_distortion          # constraint slack
    tight = entropic_pair_min(d, q_in, hi)
    if tight.mutual_info > rate:
        qv = q_in.q_vec                           # essentially rate zero: product coupling
        qq = np.outer(qv, qv)
        return float(np.sum(qq * d, where=qq > 0))
    sol = _solve_mi_equals(d, q_in, rate, lo, hi)
    return sol.expected_distortion


def r_s(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
        s: float) -> float:
    """Largest rate at which the mutual-information constraint binds: I at the unit-weight coupling."""
    d = distance_matrix(channel, metric, s)
    return entropic_pair_min(d, q_in, 1.0).mutual_info


# ---------------------------------------------------------------------------
# constant-composition primal exponent
# ---------------------------------------------------------------------------

@dataclass
class PrimalExponentResult(ExponentResult):
    branch: str = ""
    coupling: PairDistribution | None = None


def _piecewise_value(d: np.ndarray, q_in: InputDistribution, rate: float,
                     cache: dict) -> tuple[float, str, PrimalSolution, float]:
    """min over couplings with I <= rate of E_P[d] + I_P, minus the rate.

    Below the kink the constraint binds and the value is the constrained
    distortion; above it the unit-weight minimizer is feasible and the value
    falls linearly with slope -1.
    """
    key = d.tobytes()
    if key not in cache:
        cache[key] = entropic_pair_min(d, q_in, 1.0)
    base = cache[key]
    r_kink = base.mutual_info
    if rate >= r_kink:
        return base.objective - rate, "linear", base, 1.0
    sol = _solve_mi_equals(d, q_in, rate, 1.0, RHO_BRACKET[1])
    value = sol.expected_distortion + sol.mutual_info - rate
    return value, "constrained", sol, math.nan


def eex_cc_primal(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                  rate: float, s_hi: float = S_HI,
                  _cache: dict | None = None) -> PrimalExponentResult:
    """sup over s of the piecewise distortion-rate exponent.

    The per-s value is concave in s (a minimum of concave functions), so a
    coarse grid with Brent refinement finds the supremum; grid ties are
    recorded.  Returns the active branch and the optimizing coupling.
    """
    if rate <= 0:
        raise Error("rate must be positive")
    check_dimensions(channel, metric, q_in)
    kern = PairKernel(channel, metric)
    cache = _cache if _cache is not None else {}
    details: dict = {}

    def value_at(s: float) -> float:
        d = kern.distances(s)
        v, branch, sol, _ = _piecewise_value(d, q_in, rate, cache)
        details[s] = (branch, sol)
        return v

    s_star, v_star, ties = grid_then_golden(value_at, 0.0, s_hi)
    branch, sol = details[s_star]
    return PrimalExponentResult(
        value=max(v_star, 0.0),
        raw=v_star,
        argmax=DualParams(rho=math.nan, s=s_star),
        converged=sol.converged,
        boundary_flag=False,
        ties=ties,
        branch=branch,
        coupling=sol.pair,
    )


@dataclass
class DualityGapReport:
    gap: float
    primal_value: float
    dual_value: float
    primal: PrimalExponentResult
    dual: ExponentResult


def duality_gap(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                rate: float) -> DualityGapReport:
    """|primal - dual| for the constant-composition exponent at one rate.

    The two sides are computed by genuinely different outer routes (bisection
    on the entropy weight vs a bracketed search over rho), so a small gap is a real
    consistency certificate.
    """
    primal = eex_cc_primal(channel, metric, q_in, rate)
    dres = eex_cc_dual(channel, metric, q_in, rate)
    return DualityGapReport(
        gap=abs(primal.value - dres.value),
        primal_value=primal.value,
        dual_value=dres.value,
        primal=primal,
        dual=dres,
    )


# ---------------------------------------------------------------------------
# product-ensemble primal variants
# ---------------------------------------------------------------------------

def _iid_family(d: np.ndarray, qv: np.ndarray, rho: float, pin_rows: bool):
    """Exponential-family coupling for the divergence-constrained problem.

    pin_rows=False: P proportional to QQ exp(-d/rho), fully closed form.
    pin_rows=True: rows pinned to Q, each conditional tilted independently.
    Returns (divergence from QxQ, mean distance).
    """
    sup = np.flatnonzero(qv > 0)
    lq = np.log(qv[sup])
    dd = d[np.ix_(sup, sup)]
    if pin_rows:
        lw = lq[None, :] - dd / rho
        lz = logsumexp(lw, axis=1)
        lp = lw - lz[:, None]                      # log p(xbar | x)
        p = np.exp(lp)
        div = float(np.exp(lq) @ np.sum(p * (lp - lq[None, :]), where=p > 0, axis=1))
        mean_d = float(np.exp(lq) @ np.sum(p * np.where(p > 0, dd, 0.0), axis=1))
        return div, mean_d
    lw = lq[:, None] + lq[None, :] - dd / rho
    lz = logsumexp(lw)
    p = np.exp(lw - lz)
    ref = lq[:, None] + lq[None, :]
    div = float(np.sum(p * (lw - lz - ref), where=p > 0))
    mean_d = float(np.sum(p * np.where(p > 0, dd, 0.0)))
    return div, mean_d


def _iid_constrained(d: np.ndarray, qv: np.ndarray, rate: float, pin_rows: bool,
                     rho_lo: float) -> tuple[float, float, bool]:
    """(divergence, mean distance, binding) of the least-weight member with divergence <= rate.

    Bisects on log rho over [rho_lo, RHO_BRACKET[1]]; the divergence falls as rho rises.
    """
    div, mean = _iid_family(d, qv, rho_lo, pin_rows)
    if div <= rate:
        return div, mean, False
    div, mean = bisect(lambda t: _iid_family(d, qv, math.exp(t), pin_rows),
                       math.log(rho_lo), math.log(RHO_BRACKET[1]),
                       residual=lambda dm: dm[0] - rate, ftol=MI_FTOL)[2]
    return div, mean, True


def primal_iid(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
               rate: float, constrain_px: bool, s_hi: float = S_HI) -> float:
    """Product-ensemble primal exponent (raw, unclamped).

    Minimizes divergence-from-QxQ plus mean distance minus the rate over the
    divergence ball of radius rate, optionally pinning the transmitted-word
    marginal to Q, then takes the supremum over s.  The inner problem is
    solved on its exponential family by bisection on the constraint
    multiplier, which is at least 1.
    """
    if rate <= 0:
        raise Error("rate must be positive")
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec

    def value_at(s: float) -> float:
        d = kern.distances(s)
        div, mean, _ = _iid_constrained(d, qv, rate, constrain_px, 1.0)
        return div + mean - rate

    _, v_star, _ = grid_then_golden(value_at, 0.0, s_hi)
    return v_star
