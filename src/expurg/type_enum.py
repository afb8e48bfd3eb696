"""Exact finite-blocklength computations via the method of types.

The pairwise error event ``q^n(xbar, Y) >= q^n(x, Y)`` (ties are errors)
depends on the codeword pair only through its joint type, so bound sums
decompose into a probability over joint types times an exact per-type tail.
Tails are computed in log domain either by integer-lattice convolution of the
per-letter log metric ratios (exact tie handling, scales to n in the
thousands) or, for small alphabets and blocklengths, by direct enumeration of
output words with exact-rational metric comparisons.

Zero-metric letters need care: an output with q(x_i, y_i) = 0 kills the
transmitted word's whole metric product, so the competitor wins (or ties)
regardless of the remaining letters; an output with q(xbar_i, y_i) = 0 <
q(x_i, y_i) kills only the competitor.  The tail machinery tracks both masses
next to the finite log-ratio part.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np
from scipy.special import gammaln

from ._numerics import lse as logsumexp
from ._search import bisect, golden_max, grid_then_golden
from .dual import S_HI
from .ensembles import EnsembleSpec, largest_remainder
from .errors import BudgetError, Error
from .model import (
    ChannelModel,
    DecodingMetric,
    InputDistribution,
    PairKernel,
    check_dimensions,
    distance_matrix,
)

TYPE_CAP = 10 ** 7
ENUM_BUDGET = 10 ** 7
LATTICE_RTOL = 1e-9
NEG_INF = -math.inf


@dataclass(frozen=True)
class JointType:
    """Nonnegative integer pair counts summing to the blocklength."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=int)
        object.__setattr__(self, "counts", c)
        if c.sum() != self.n:
            raise Error(f"joint type counts sum to {c.sum()}, expected {self.n}")

    @property
    def row_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def count_joint_types(n: int, alphabet_size: int) -> int:
    cells = alphabet_size * alphabet_size
    return math.comb(n + cells - 1, cells - 1)


def enumerate_joint_types(n: int, alphabet_size: int, cap: int = TYPE_CAP) -> Iterator[JointType]:
    """Stream every pair-count matrix summing to n (stars and bars)."""
    total = count_joint_types(n, alphabet_size)
    if total > cap:
        raise BudgetError(f"{total} joint types exceed the cap {cap}")
    cells = alphabet_size * alphabet_size
    for comp in _compositions(n, cells):
        yield JointType(np.array(comp, dtype=int).reshape(alphabet_size, alphabet_size), n)


def _compositions(total: int, cells: int) -> Iterator[tuple[int, ...]]:
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, cells - 1):
            yield (first,) + rest


def enumerate_joint_types_with_marginals(row_counts: np.ndarray, col_counts: np.ndarray,
                                         cap: int = TYPE_CAP) -> Iterator[JointType]:
    """Stream pair-count matrices with both marginals fixed (contingency tables)."""
    row_counts = np.asarray(row_counts, dtype=int)
    col_counts = np.asarray(col_counts, dtype=int)
    n = int(row_counts.sum())
    if int(col_counts.sum()) != n:
        raise Error("row and column counts disagree on the blocklength")
    k = len(row_counts)
    yielded = 0

    def fill(rows_done: list[list[int]], col_left: np.ndarray) -> Iterator[np.ndarray]:
        r = len(rows_done)
        if r == k:
            yield np.array(rows_done, dtype=int)
            return
        for row in _bounded_compositions(int(row_counts[r]), col_left):
            yield from fill(rows_done + [list(row)], col_left - np.array(row, dtype=int))

    for counts in fill([], col_counts.copy()):
        yielded += 1
        if yielded > cap:
            raise BudgetError(f"constrained joint types exceed the cap {cap}")
        yield JointType(counts, n)


def _bounded_compositions(total: int, bounds: np.ndarray) -> Iterator[tuple[int, ...]]:
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, int(bounds[0])) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# exact pairwise tails
# ---------------------------------------------------------------------------

def _log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) > len(b):                   # loop over the shorter factor
        a, b = b, a
    out = np.full(len(a) + len(b) - 1, NEG_INF)
    for i in range(len(a)):
        if a[i] == NEG_INF:
            continue
        seg = out[i:i + len(b)]
        np.logaddexp(seg, a[i] + b, out=seg)
    return out


def _pmf_power(logp: np.ndarray, offset: int, k: int) -> tuple[np.ndarray, int]:
    """k-fold convolution of an integer-lattice log-pmf by binary powering."""
    res = (np.zeros(1), 0)
    base = (logp, offset)
    while k:
        if k & 1:
            res = (_log_convolve(res[0], base[0]), res[1] + base[1])
        k >>= 1
        if k:
            base = (_log_convolve(base[0], base[0]), 2 * base[1])
    return res


@dataclass
class _CellPMF:
    log_finite: np.ndarray     # log-mass over consecutive lattice indices
    offset: int                # lattice index of log_finite[0]
    log_keep: float            # log of total finite mass
    p_force: float             # P[own metric product is killed -> event true]
    p_neg: float               # P[competitor product killed, own intact]

    def signature(self):
        return (self.offset, tuple(self.log_finite.tolist()),
                round(self.p_force, 15), round(self.p_neg, 15))


class PairwiseTailCalculator:
    """Exact per-type tails of the pairwise maximum-metric comparison."""

    def __init__(self, channel: ChannelModel, metric: DecodingMetric):
        check_dimensions(channel, metric)
        self.channel = channel
        self.metric = metric
        self.k = channel.input_size
        w, q = channel.w, metric.q
        raw = {}
        values = []
        for a in range(self.k):
            for b in range(self.k):
                finite: dict[float, float] = {}
                p_force = p_neg = 0.0
                for y in range(channel.output_size):
                    if w[a, y] <= 0:
                        continue
                    if q[a, y] == 0.0:
                        p_force += w[a, y]
                    elif q[b, y] == 0.0:
                        p_neg += w[a, y]
                    else:
                        v = math.log(q[b, y]) - math.log(q[a, y])
                        finite[v] = finite.get(v, 0.0) + w[a, y]
                raw[(a, b)] = (finite, p_force, p_neg)
                values.extend(v for v in finite if v != 0.0)
        self.span, ints = _lattice_fit(values)
        self.lattice = self.span is not None
        self.cells: dict[tuple[int, int], _CellPMF] = {}
        if self.lattice:
            lookup = dict(zip(values, ints))
            for key, (finite, p_force, p_neg) in raw.items():
                by_m: dict[int, float] = {}
                for v, p in finite.items():
                    m = 0 if v == 0.0 else lookup[v]
                    by_m[m] = by_m.get(m, 0.0) + p
                if by_m:
                    lo, hi = min(by_m), max(by_m)
                    arr = np.full(hi - lo + 1, NEG_INF)
                    for m, p in by_m.items():
                        arr[m - lo] = math.log(p)
                    keep = math.log(math.fsum(by_m.values()))
                else:
                    arr, lo, keep = np.zeros(0), 0, NEG_INF
                self.cells[key] = _CellPMF(arr, lo, keep, p_force, p_neg)

    def log_tail(self, counts: np.ndarray) -> float:
        """log P[competitor metric >= own metric] for a pair of the given joint type."""
        if not self.lattice:
            raise Error("per-letter log ratios are not on a common lattice")
        counts = np.asarray(counts, dtype=int)
        log_no_force = 0.0
        parts: list[tuple[np.ndarray, int, int]] = []
        for (a, b), cell in self.cells.items():
            c = int(counts[a, b])
            if c == 0:
                continue
            if cell.p_force >= 1.0:
                log_no_force = NEG_INF
            elif cell.p_force > 0.0:
                log_no_force += c * math.log1p(-cell.p_force)
            parts.append((cell.log_finite, cell.offset, c))
        log_force_term = _log1m_exp(log_no_force)
        log_finite_term = NEG_INF
        if all(len(p[0]) > 0 for p in parts):
            acc = (np.zeros(1), 0)
            for logp, off, c in parts:
                pw = _pmf_power(logp, off, c)
                acc = (_log_convolve(acc[0], pw[0]), acc[1] + pw[1])
            arr, off = acc
            start = max(0, -off)
            if start < len(arr):
                log_finite_term = float(logsumexp(arr[start:]))
        return float(np.logaddexp(log_force_term, log_finite_term))

    def cell_classes(self, q_in: InputDistribution):
        """Group Q-positive cells by identical per-letter pmf; returns (probs, reps)."""
        qv = q_in.q_vec
        groups: dict[tuple, tuple[float, _CellPMF]] = {}
        for (a, b), cell in self.cells.items():
            w = float(qv[a] * qv[b])
            if w <= 0:
                continue
            sig = cell.signature()
            if sig in groups:
                groups[sig] = (groups[sig][0] + w, groups[sig][1])
            else:
                groups[sig] = (w, cell)
        probs = np.array([g[0] for g in groups.values()])
        reps = [g[1] for g in groups.values()]
        return probs, reps


def _log1m_exp(log_s: float) -> float:
    """log(1 - exp(log_s)) for log_s <= 0."""
    if log_s == NEG_INF:
        return 0.0
    if log_s >= 0.0:
        return NEG_INF
    return math.log(-math.expm1(log_s))


def _lattice_fit(values: list[float]) -> tuple[float | None, list[int]]:
    """Fit all values as integer multiples of one span; None when incommensurable."""
    vals = [v for v in values if v != 0.0]
    if not vals:
        return 1.0, [0 for _ in values]
    scale = max(abs(v) for v in vals)
    tol = LATTICE_RTOL * scale
    g = 0.0
    for v in vals:
        g = _float_gcd(g, abs(v), tol)
    if g < 10.0 * tol:      # collapsed: multiples would be denser than the test resolution
        return None, []
    ints = []
    for v in values:
        m = round(v / g)
        if abs(v - m * g) > tol:
            return None, []
        ints.append(int(m))
    return g, ints


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, math.fmod(a, b)
    return a


def pair_counts(x_word, xbar_word, alphabet_size: int) -> np.ndarray:
    counts = np.zeros((alphabet_size, alphabet_size), dtype=int)
    for a, b in zip(x_word, xbar_word):
        counts[int(a), int(b)] += 1
    return counts


def representative_pair(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical pair of words with the given joint type: cells in lexicographic order."""
    xs, xbs = [], []
    k = counts.shape[0]
    for a in range(k):
        for b in range(k):
            xs.extend([a] * int(counts[a, b]))
            xbs.extend([b] * int(counts[a, b]))
    return np.array(xs, dtype=int), np.array(xbs, dtype=int)


def dq_exact(channel: ChannelModel, metric: DecodingMetric, x_word, xbar_word,
             enum_budget: int = ENUM_BUDGET, method: str = "auto") -> float:
    """-log P[q^n(xbar, Y) >= q^n(x, Y) | X = x], exact (ties count as errors).

    ``method`` picks the path: lattice convolution when the per-letter log
    ratios are commensurable (ties decided on the integer lattice), otherwise
    direct enumeration of output words with exact-rational comparisons.
    """
    x_word = np.asarray(x_word, dtype=int)
    xbar_word = np.asarray(xbar_word, dtype=int)
    if x_word.shape != xbar_word.shape:
        raise Error("codeword pair must share one blocklength")
    calc = PairwiseTailCalculator(channel, metric)
    counts = pair_counts(x_word, xbar_word, channel.input_size)
    if method not in ("auto", "lattice", "enumerate"):
        raise Error(f"unknown method {method!r}")
    if method in ("auto", "lattice") and calc.lattice:
        return -calc.log_tail(counts)
    if method == "lattice":
        raise Error("per-letter log ratios are not on a common lattice")
    n = len(x_word)
    if channel.output_size ** n > enum_budget:
        raise BudgetError(
            "no exact path: log ratios are not on a common lattice and |Y|^n exceeds the "
            "enumeration budget; use the additive Chernoff-distance proxy or Monte Carlo")
    tail = _tail_by_enumeration(channel, metric, x_word, xbar_word)
    return math.inf if tail == 0.0 else -math.log(tail)


def _tail_by_enumeration(channel: ChannelModel, metric: DecodingMetric,
                         x_word: np.ndarray, xbar_word: np.ndarray) -> float:
    """Direct sum over output words; metric products compared as exact rationals."""
    qfrac = [[Fraction(v) for v in row] for row in metric.q.tolist()]
    w = channel.w
    n = len(x_word)
    terms = []
    for y_word in itertools.product(range(channel.output_size), repeat=n):
        p = 1.0
        own = Fraction(1)
        comp = Fraction(1)
        for i, y in enumerate(y_word):
            p *= w[x_word[i], y]
            if p == 0.0:
                break
            own *= qfrac[x_word[i]][y]
            comp *= qfrac[xbar_word[i]][y]
        else:
            if comp >= own:
                terms.append(p)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# exact bound assemblies
# ---------------------------------------------------------------------------

def _log_expurgation_factor(M: float) -> float:
    if M <= 1:
        return NEG_INF
    return math.log(4.0) + math.log(M - 1.0)


def _warn_small_rho(rho: float):
    if rho < 1.0:
        warnings.warn("rho < 1: exponent-study output only, not an achievability bound")


def _log_type_tail(calc: PairwiseTailCalculator, counts: np.ndarray,
                   enum_budget: int) -> float:
    if calc.lattice:
        return calc.log_tail(counts)
    x, xb = representative_pair(counts)
    n = len(x)
    if calc.channel.output_size ** n > enum_budget:
        raise BudgetError(
            "no exact tail path: not a lattice instance and |Y|^n exceeds the enumeration budget")
    tail = _tail_by_enumeration(calc.channel, calc.metric, x, xb)
    return NEG_INF if tail == 0.0 else math.log(tail)


def log_rcux_cc_exact(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                      n: int, M: float, rho: float,
                      cap: int = TYPE_CAP, enum_budget: int = ENUM_BUDGET) -> float:
    """log of the exact constant-composition expurgated union bound.

    The composition is the largest-remainder rounding of Q at denominator n.
    The sum runs over joint types with both marginals equal to the composition;
    the per-type pair probability is an exact arrangement count.
    """
    _warn_small_rho(rho)
    if M <= 1:
        return NEG_INF
    comp = largest_remainder(q_in.q_vec, n)
    calc = PairwiseTailCalculator(channel, metric)
    log_t_class = gammaln(n + 1) - gammaln(comp + 1).sum()
    contribs = []
    for jt in enumerate_joint_types_with_marginals(comp, comp, cap=cap):
        log_count = gammaln(comp + 1).sum() - gammaln(jt.counts + 1).sum()
        log_prob = log_count - log_t_class
        lt = _log_type_tail(calc, jt.counts, enum_budget)
        contribs.append(log_prob + lt / rho)
    total = logsumexp(np.array(contribs))
    return rho * (_log_expurgation_factor(M) + float(total))


def rcux_cc_exact(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                  n: int, M: float, rho: float, **kw) -> float:
    return math.exp(log_rcux_cc_exact(channel, metric, q_in, n, M, rho, **kw))


def log_rcux_iid_exact(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                       n: int, M: float, rho: float,
                       cap: int = TYPE_CAP, enum_budget: int = ENUM_BUDGET) -> float:
    """log of the exact product-ensemble expurgated union bound.

    Cells with identical per-letter pmfs are merged; a two-class instance with
    one inert class (single zero log ratio) runs in an incremental O(n^2)
    sweep, anything else enumerates class-count compositions under the cap.
    """
    _warn_small_rho(rho)
    if M <= 1:
        return NEG_INF
    calc = PairwiseTailCalculator(channel, metric)
    lead = _log_expurgation_factor(M)
    if calc.lattice:
        probs, reps = calc.cell_classes(q_in)
        inert = [i for i, c in enumerate(reps)
                 if c.p_force == 0.0 and c.p_neg == 0.0
                 and len(c.log_finite) == 1 and c.offset == 0]
        if len(reps) == 2 and len(inert) == 1:
            active = reps[1 - inert[0]]
            lp_act = math.log(probs[1 - inert[0]])
            lp_in = math.log(probs[inert[0]])
            return rho * (lead + _two_class_sweep(active, lp_in, lp_act, n, rho))
        total_classes = math.comb(n + len(reps) - 1, len(reps) - 1)
        if total_classes <= cap:
            return rho * (lead + _class_composition_sum(probs, reps, n, rho))
    # general fall-back: full joint-type enumeration
    qv = q_in.q_vec
    with np.errstate(divide="ignore"):
        lqq = np.log(qv)[:, None] + np.log(qv)[None, :]
    contribs = []
    for jt in enumerate_joint_types(n, channel.input_size, cap=cap):
        mask = jt.counts > 0
        if np.any(mask & ~np.isfinite(lqq)):
            continue
        log_prob = (gammaln(n + 1) - gammaln(jt.counts + 1).sum()
                    + float((jt.counts * np.where(mask, lqq, 0.0)).sum()))
        lt = _log_type_tail(calc, jt.counts, enum_budget)
        contribs.append(log_prob + lt / rho)
    return rho * (lead + float(logsumexp(np.array(contribs))))


def _two_class_sweep(active: _CellPMF, lp_inert: float, lp_active: float,
                     n: int, rho: float) -> float:
    """Incremental tail sweep over the number of active letters m = 0..n."""
    log_binom = gammaln(n + 1) - gammaln(np.arange(n + 1) + 1) - gammaln(n - np.arange(n + 1) + 1)
    base, base_off = active.log_finite, active.offset
    cur, off = np.zeros(1), 0
    contribs = np.empty(n + 1)
    contribs[0] = log_binom[0] + n * lp_inert            # tail = 1 at m = 0
    for m in range(1, n + 1):
        cur = _log_convolve(cur, base)
        off += base_off
        start = max(0, -off)
        lt = float(logsumexp(cur[start:])) if start < len(cur) else NEG_INF
        contribs[m] = log_binom[m] + (n - m) * lp_inert + m * lp_active + lt / rho
    return float(logsumexp(contribs))


def _class_composition_sum(probs: np.ndarray, reps: list[_CellPMF], n: int, rho: float) -> float:
    lp = np.log(probs)
    g = len(reps)
    power_cache: dict[tuple[int, int], tuple[np.ndarray, int]] = {}

    def powered(i: int, c: int):
        key = (i, c)
        if key not in power_cache:
            power_cache[key] = _pmf_power(reps[i].log_finite, reps[i].offset, c)
        return power_cache[key]

    contribs = []
    for comp in _compositions(n, g):
        log_prob = gammaln(n + 1)
        log_no_force = 0.0
        acc = (np.zeros(1), 0)
        dead = False
        for i, c in enumerate(comp):
            log_prob += c * lp[i] - gammaln(c + 1)
            if c == 0:
                continue
            cell = reps[i]
            if cell.p_force >= 1.0:
                log_no_force = NEG_INF
            elif cell.p_force > 0.0:
                log_no_force += c * math.log1p(-cell.p_force)
            if len(cell.log_finite) == 0:
                dead = True
                continue
            pw = powered(i, c)
            acc = (_log_convolve(acc[0], pw[0]), acc[1] + pw[1])
        lt_force = _log1m_exp(log_no_force)
        if dead:
            lt_fin = NEG_INF
        else:
            arr, off = acc
            start = max(0, -off)
            lt_fin = float(logsumexp(arr[start:])) if start < len(arr) else NEG_INF
        lt = float(np.logaddexp(lt_force, lt_fin))
        contribs.append(log_prob + lt / rho)
    return float(logsumexp(np.array(contribs)))


def brute_force_pairwise(channel: ChannelModel, metric: DecodingMetric,
                         ensemble: EnsembleSpec, n: int, rho: float,
                         budget: int = ENUM_BUDGET) -> float:
    """E over codeword pairs of (pairwise tail)^(1/rho) by full enumeration.

    The ground-truth oracle: no type collapsing, no lattice shortcut; tails
    come from direct output enumeration with exact-rational comparisons.
    """
    words = list(ensemble.enumerate_words(n, channel))
    if len(words) ** 2 * channel.output_size ** n > budget:
        raise BudgetError("brute-force enumeration exceeds the budget")
    tail_cache: dict[tuple, float] = {}
    total = []
    for x, px in words:
        for xb, pxb in words:
            key = (x.tobytes(), xb.tobytes())
            if key not in tail_cache:
                tail_cache[key] = _tail_by_enumeration(channel, metric, x, xb)
            total.append(px * pxb * tail_cache[key] ** (1.0 / rho))
    return math.fsum(total)


# ---------------------------------------------------------------------------
# type-enumeration exponents
# ---------------------------------------------------------------------------

@dataclass
class EnumeratorExponent:
    """Population-exponent pair: e1 covers over-populated types, e2 the rest."""

    e1: float
    e2: float
    active: str

    @property
    def reported(self) -> float:
        return min(self.e1, self.e2)


def enumerator_exponents(channel: ChannelModel, metric: DecodingMetric,
                         q_in: InputDistribution, rate: float,
                         ensemble: str = "cc") -> EnumeratorExponent:
    """Exponent pair from the type-population analysis.

    e2 is the dominating branch and equals the matching primal exponent; e1 is
    evaluated directly on the boundary where the population constraint binds
    (its optimal weight diverges), restricted to the exponential family the
    solvers cover, and is diagnostic only since e1 >= e2 throughout.
    """
    from . import primal

    if rate <= 0:
        raise Error("rate must be positive")
    if ensemble not in ("cc", "iid"):
        raise Error(f"unknown ensemble {ensemble!r}")
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec

    if ensemble == "cc":
        e2_raw = primal.eex_cc_primal(channel, metric, q_in, rate).raw

        def e1_at(s: float) -> float:
            d = kern.distances(s)
            loose = primal.entropic_pair_min(d, q_in, 1e-4, max_iter=2000)
            if loose.mutual_info <= rate:
                return NEG_INF                    # boundary unreachable: exclude from sup
            sol = primal._solve_mi_equals(d, q_in, rate, 1e-4, primal.RHO_BRACKET[1])
            return sol.expected_distortion
    else:
        e2_raw = primal.primal_iid(channel, metric, q_in, rate, constrain_px=True)

        def e1_at(s: float) -> float:
            d = kern.distances(s)
            _, mean, binding = primal._iid_constrained(d, qv, rate, True, primal.RHO_BRACKET[0])
            return mean if binding else NEG_INF       # boundary unreachable: exclude from sup

    _, e1, _ = grid_then_golden(e1_at, 0.0, S_HI)
    if e1 == NEG_INF:
        e1 = math.inf
    e2 = max(e2_raw, 0.0)
    if e2_raw <= 0.0:
        active = "zero"
    else:
        active = "e1" if e1 < e2 else "e2"
    return EnumeratorExponent(e1=e1, e2=e2, active=active)


# ---------------------------------------------------------------------------
# distance-enumerator evaluator (single auxiliary cost)
# ---------------------------------------------------------------------------

def theta_cost(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
               a_vec, rbar: float, t: float, s: float) -> np.ndarray:
    """Per-input log moment generating value of rbar*a(Xbar) - t*d_s(x, Xbar), Xbar ~ Q."""
    if t < 0:
        raise Error("t must be non-negative")
    d = distance_matrix(channel, metric, s)
    a = np.asarray(a_vec, dtype=float)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    with np.errstate(invalid="ignore"):
        expo = np.log(qv[sup])[None, :] + rbar * a[sup][None, :] - t * d[:, sup]
    return logsumexp(expo, axis=1)


def rdx(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
        a_vec, s: float, distortion_level: float, x_word) -> float:
    """Chernoff-dual rate function for the lower distortion tail around a word.

    sup over t >= 0 and the tilt weight of the centered objective; the
    objective is jointly concave, maximized by a bounded quasi-Newton ascent
    from several starts.  Returns +inf when the level sits below the least
    achievable mean distortion.
    """
    from scipy.optimize import minimize

    x_word = np.asarray(x_word, dtype=int)
    n = len(x_word)
    sym, cnt = np.unique(x_word, return_counts=True)
    weights = cnt / n
    a = np.asarray(a_vec, dtype=float)
    phi = float(q_in.q_vec @ a)

    def value(t: float, rbar: float) -> float:
        th = theta_cost(channel, metric, q_in, a, rbar, t, s)
        return rbar * phi - t * distortion_level - float(weights @ th[sym])

    t_cap = 1e4
    best, best_t = 0.0, 0.0                      # (t, rbar) = 0 is always feasible
    for t0, r0 in ((0.5, 0.0), (2.0, 0.0), (20.0, 0.0)):
        res = minimize(lambda z: -value(z[0], z[1]), x0=np.array([t0, r0]),
                       method="L-BFGS-B", bounds=[(0.0, t_cap), (-1e3, 1e3)])
        if -float(res.fun) > best:
            best, best_t = -float(res.fun), float(res.x[0])
    if best_t >= 0.99 * t_cap:                   # sup diverges: level below the least achievable mean
        return math.inf
    return best


def distance_enum_exponent(channel: ChannelModel, metric: DecodingMetric,
                           q_in: InputDistribution, a_vec, s: float, rate: float,
                           x_word) -> float:
    """inf over feasible levels D of D + R(D, x) - rate, for the given word.

    R(., x) is nonincreasing, so feasibility (R <= rate) holds above a
    threshold found by bisection; the objective is then minimized by Brent's
    method on the feasible interval.
    """
    x_word = np.asarray(x_word, dtype=int)
    n = len(x_word)
    d = distance_matrix(channel, metric, s)
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    d_min = float(np.mean(d[x_word][:, sup].min(axis=1)))
    d_mean = float(np.mean(d[x_word][:, sup] @ qv[sup]))

    def rate_fn(level: float) -> float:
        return rdx(channel, metric, q_in, a_vec, s, level, x_word)

    if rate_fn(d_min) <= rate:
        d_lo = d_min
    else:
        d_lo = bisect(lambda lvl: rate_fn(lvl) - rate, d_min, d_mean, max_iter=60)[1]
    level, neg = golden_max(lambda lvl: -(lvl + rate_fn(lvl) - rate), d_lo, d_mean, xtol=1e-7)
    return -neg
