"""Exact finite-blocklength computations via the method of types.

The pairwise error event ``q^n(xbar, Y) >= q^n(x, Y)`` (ties are errors)
depends on the codeword pair only through its joint type, so bound sums
decompose into a probability over joint types times an exact per-type tail.
``PairwiseTailCalculator.log_tail`` is the one tail oracle: integer-lattice
convolution of the per-letter log metric ratios when they are commensurable
(exact tie handling, scales to n in the thousands), otherwise direct
enumeration of output words with exact-rational metric comparisons under a
budget.  The exact sums, ``dq_exact`` and Monte Carlo all call it.

On the lattice the tail depends on a joint type only through its cell-class
counts: cells with identical per-letter pmfs form one class, so their counts
add up and inert classes (a single zero log ratio, e.g. the diagonal x = xbar)
drop out.  Each class power is convolved once per calculator and cached with
its log-survival array; a tail convolves the powers of all active classes but
the widest, and meets that last one in the middle with a single dot against
its survival instead of a final convolution.

Zero-metric letters need care: an output with q(x_i, y_i) = 0 kills the
transmitted word's whole metric product, so the competitor wins (or ties)
regardless of the remaining letters; an output with q(xbar_i, y_i) = 0 <
q(x_i, y_i) kills only the competitor.  Every lattice tail is assembled once,
in ``_assemble_tail``, from that forced-error mass and the finite part.

Each exact sum builds a rho-free type spectrum, the arrays of log type
probabilities and log tails, and ``_log_bound`` turns it into the bound at
any rho, so a search over rho sums the types once.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from ._numerics import log_factorials, lse as logsumexp
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
LATTICE_BUDGET = 10 ** 5      # lattice points one tail convolution may span
POWER_CACHE_BUDGET = 10 ** 6  # float64 points one calculator's class-power cache may hold
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


def _check_lattice_extent(n: int, width: int):
    """Refuse before convolving when n letters of pmfs ``width`` points wide may exceed the budget."""
    if n * width > LATTICE_BUDGET:
        raise BudgetError(
            f"tail lattice of up to {n} x {width} points exceeds the budget {LATTICE_BUDGET}; "
            "the per-letter log ratios are nearly incommensurable")


def _pmf_power(cell: _CellPMF, k: int) -> tuple[np.ndarray, int]:
    """k-fold convolution of a cell's finite lattice log-pmf by binary powering."""
    res = (np.zeros(1), 0)
    base = (cell.log_finite, cell.offset)
    while k:
        if k & 1:
            res = (_log_convolve(res[0], base[0]), res[1] + base[1])
        k >>= 1
        if k:
            base = (_log_convolve(base[0], base[0]), 2 * base[1])
    return res


@dataclass(eq=False)
class _CellPMF:
    log_finite: np.ndarray     # log-mass over consecutive lattice indices
    offset: int                # lattice index of log_finite[0]
    p_force: float             # P[own metric product is killed -> event true]
    p_neg: float               # P[competitor product killed, own intact]
    cls: int = -1              # index of the cell class (identical signature) it belongs to

    def signature(self):
        return (self.offset, tuple(self.log_finite.tolist()),
                round(self.p_force, 15), round(self.p_neg, 15))

    @property
    def inert(self) -> bool:
        """Every letter ties at log ratio 0: the cell never changes the comparison."""
        return (self.p_force == 0.0 and self.p_neg == 0.0
                and len(self.log_finite) == 1 and self.offset == 0)

    def log_no_force(self, c: int) -> float:
        """log P[none of c letters in this cell kills the own metric product], c >= 1."""
        if self.p_force >= 1.0:
            return NEG_INF
        return c * math.log1p(-self.p_force) if self.p_force > 0.0 else 0.0


def _upper_mass(arr: np.ndarray, off: int) -> float:
    """log of the mass a lattice log-pmf starting at index ``off`` puts on indices >= 0."""
    start = max(0, -off)
    return float(logsumexp(arr[start:])) if start < len(arr) else NEG_INF


def _assemble_tail(log_no_force: float, log_finite_mass: float) -> float:
    """log P[event]: the forced-error mass plus the finite lattice mass at indices >= 0.

    ``log_finite_mass`` is NEG_INF when some letter has no finite part.
    """
    return float(np.logaddexp(_log1m_exp(log_no_force), log_finite_mass))


def _tail_of_parts(parts: list[tuple[_CellPMF, int]]) -> float:
    """log tail of a pair whose letters fall ``c`` times into each listed cell (c >= 1).

    The per-cell chain, kept as the reference the class-merged ``log_tail``
    is tested against: every factor's power is convolved in, the last one too.
    """
    log_no_force = sum(cell.log_no_force(c) for cell, c in parts)
    if any(len(cell.log_finite) == 0 for cell, _ in parts):
        return _assemble_tail(log_no_force, NEG_INF)
    acc = (np.zeros(1), 0)
    for cell, c in parts:
        pw = _pmf_power(cell, c)
        acc = (_log_convolve(acc[0], pw[0]), acc[1] + pw[1])
    return _assemble_tail(log_no_force, _upper_mass(*acc))


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
        self.classes: list[_CellPMF] = []         # one representative per class, first-seen
        self._powers: dict[tuple[int, int], tuple[np.ndarray, int, np.ndarray]] = {}
        self._cached_points = 0
        if not self.lattice:                      # no classes: every cell stands alone
            self._class_matrix = np.eye(self.k * self.k, dtype=int)
            return
        lookup = dict(zip(values, ints))
        index: dict[tuple, int] = {}
        for key, (finite, p_force, p_neg) in raw.items():
            by_m: dict[int, float] = {}
            for v, p in finite.items():
                m = 0 if v == 0.0 else lookup[v]
                by_m[m] = by_m.get(m, 0.0) + p
            lo = min(by_m, default=0)
            arr = np.full(max(by_m, default=-1) - lo + 1, NEG_INF)    # empty: no finite part
            for m, p in by_m.items():
                arr[m - lo] = math.log(p)
            cell = _CellPMF(arr, lo, p_force, p_neg)
            cell.cls = index.setdefault(cell.signature(), len(index))
            if cell.cls == len(self.classes):
                self.classes.append(cell)
            self.cells[key] = cell
        # (k*k, classes) 0/1 matrix: flattened cell counts times it give the class counts
        self._class_matrix = np.eye(len(self.classes), dtype=int)[
            [cell.cls for cell in self.cells.values()]]

    def class_counts(self, counts: np.ndarray) -> np.ndarray:
        """Letters per cell class of a joint type, or of a stack of them (..., k, k).

        Lattice tails depend on the joint type only through these counts; off
        the lattice every cell is its own class.
        """
        counts = np.asarray(counts, dtype=int)
        return counts.reshape(*counts.shape[:-2], self.k * self.k) @ self._class_matrix

    def log_tail(self, counts: np.ndarray, enum_budget: int = ENUM_BUDGET) -> float:
        """log P[competitor metric >= own metric] for a pair of the given joint type.

        Lattice convolution when the per-letter log ratios are commensurable;
        otherwise output enumeration of ``representative_pair(counts)``, which
        refuses when |Y|^n exceeds ``enum_budget``.
        """
        counts = np.asarray(counts, dtype=int)
        if not self.lattice:
            tail = _tail_by_enumeration(self.channel, self.metric, *representative_pair(counts),
                                        budget=enum_budget)
            return NEG_INF if tail == 0.0 else math.log(tail)
        merged = self.class_counts(counts)
        present = [(self.classes[i], int(merged[i])) for i in np.flatnonzero(merged)]
        active = [(cell, c) for cell, c in present if not cell.inert]
        log_no_force = sum(cell.log_no_force(c) for cell, c in active)
        widths = [len(cell.log_finite) for cell, _ in present]
        if not all(widths):
            return _assemble_tail(log_no_force, NEG_INF)
        _check_lattice_extent(int(counts.sum()), max(widths, default=0))
        if not active:
            return _assemble_tail(log_no_force, 0.0)
        # the widest power is not convolved: the others' convolution meets its survival
        *rest, (last, c_last) = sorted(active, key=lambda p: p[1] * (len(p[0].log_finite) - 1))
        acc, off = np.zeros(1), 0
        for cell, c in rest:
            arr, o, _ = self.power(cell, c)
            acc, off = _log_convolve(acc, arr), off + o
        _, o, surv = self.power(last, c_last)
        # acc[j] sits at index off + j of the partial sum; the last factor must reach -(off + j)
        idx = np.clip(-(off + o) - np.arange(len(acc)), 0, len(surv) - 1)
        return _assemble_tail(log_no_force, float(logsumexp(acc + surv[idx])))

    def power(self, cell: _CellPMF, c: int) -> tuple[np.ndarray, int, np.ndarray]:
        """(power, offset, log-survival) of the cell's class raised to c letters.

        The power is ``_pmf_power`` of the class; the survival array holds
        log P[power >= i] at each index i, then -inf.  Entries are cached
        while the cache fits POWER_CACHE_BUDGET points.
        """
        key = (cell.cls, c)
        hit = self._powers.get(key)
        if hit is None:
            arr, off = _pmf_power(self.classes[cell.cls], c)
            hit = (arr, off, np.append(np.logaddexp.accumulate(arr[::-1])[::-1], NEG_INF))
            points = len(arr) + len(hit[2])
            if self._cached_points + points <= POWER_CACHE_BUDGET:
                self._powers[key] = hit
                self._cached_points += points
        return hit

    def cell_classes(self, q_in: InputDistribution):
        """The classes of Q-positive cells, first-seen; returns (probs, keys).

        Each key is the (x, xbar) of the first Q-positive cell of its class.
        """
        qv = q_in.q_vec
        groups: dict[int, tuple[float, tuple[int, int]]] = {}
        for (a, b), cell in self.cells.items():
            w = float(qv[a] * qv[b])
            if w <= 0:
                continue
            if cell.cls in groups:
                groups[cell.cls] = (groups[cell.cls][0] + w, groups[cell.cls][1])
            else:
                groups[cell.cls] = (w, (a, b))
        probs = np.array([g[0] for g in groups.values()])
        keys = [g[1] for g in groups.values()]
        return probs, keys


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

    ``method`` picks the path: ``"auto"`` takes the tail calculator's own
    choice, ``"lattice"`` insists on lattice convolution (ties decided on the
    integer lattice), ``"enumerate"`` sums over output words of this very pair
    with exact-rational comparisons.
    """
    x_word = np.asarray(x_word, dtype=int)
    xbar_word = np.asarray(xbar_word, dtype=int)
    if x_word.shape != xbar_word.shape:
        raise Error("codeword pair must share one blocklength")
    if method not in ("auto", "lattice", "enumerate"):
        raise Error(f"unknown method {method!r}")
    if method == "enumerate":
        tail = _tail_by_enumeration(channel, metric, x_word, xbar_word, budget=enum_budget)
        return math.inf if tail == 0.0 else -math.log(tail)
    calc = PairwiseTailCalculator(channel, metric)
    if method == "lattice" and not calc.lattice:
        raise Error("per-letter log ratios are not on a common lattice")
    return -calc.log_tail(pair_counts(x_word, xbar_word, channel.input_size), enum_budget)


def _tail_by_enumeration(channel: ChannelModel, metric: DecodingMetric,
                         x_word: np.ndarray, xbar_word: np.ndarray,
                         budget: int = ENUM_BUDGET) -> float:
    """Direct sum over output words; metric products compared as exact rationals."""
    n = len(x_word)
    if channel.output_size ** n > budget:
        raise BudgetError(
            f"no exact tail path: |Y|^n = {channel.output_size}^{n} output words exceed the "
            f"enumeration budget {budget}")
    qfrac = [[Fraction(v) for v in row] for row in metric.q.tolist()]
    w = channel.w
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

# (log type probabilities l_t, log pairwise tails lam_t) over the types a sum runs over
Spectrum = tuple[np.ndarray, np.ndarray]


def _log_bound(spectrum: Spectrum | None, M: float, rho: float) -> float:
    """rho * (log 4(M-1) + log sum_t exp(l_t + lam_t / rho)); ``spectrum`` is unused when M <= 1."""
    if rho < 1.0:
        warnings.warn("rho < 1: exponent-study output only, not an achievability bound")
    if M <= 1:
        return NEG_INF
    log_prob, log_tail = spectrum
    return rho * (math.log(4.0) + math.log(M - 1.0) + float(logsumexp(log_prob + log_tail / rho)))


def _check_enumeration_extent(calc: PairwiseTailCalculator, n: int, count_types,
                              budget: int):
    """Refuse off the lattice, before the first tail, when the ``count_types()`` joint
    types to visit times the |Y|^n output words each one enumerates exceed ``budget``."""
    words = calc.channel.output_size ** n
    if not calc.lattice and words * (count_types() if words <= budget else 1) > budget:
        raise BudgetError(
            f"no exact tail path: the joint types to visit times |Y|^n = "
            f"{calc.channel.output_size}^{n} output words exceed the enumeration budget {budget}")


def _cc_spectrum(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                 n: int, cap: int = TYPE_CAP, enum_budget: int = ENUM_BUDGET) -> Spectrum:
    """Spectrum over the joint types with both marginals equal to the composition."""
    comp = largest_remainder(q_in.q_vec, n)
    calc = PairwiseTailCalculator(channel, metric)
    _check_enumeration_extent(
        calc, n, lambda: sum(1 for _ in enumerate_joint_types_with_marginals(comp, comp, cap)),
        enum_budget)
    lf = log_factorials(n)
    log_comp = lf[comp].sum()
    log_t_class = lf[n] - log_comp
    log_prob, log_tail = [], []
    for jt in enumerate_joint_types_with_marginals(comp, comp, cap=cap):
        log_prob.append(log_comp - lf[jt.counts].sum() - log_t_class)
        log_tail.append(calc.log_tail(jt.counts, enum_budget))
    return np.array(log_prob), np.array(log_tail)


def log_rcux_cc_exact(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                      n: int, M: float, rho: float,
                      cap: int = TYPE_CAP, enum_budget: int = ENUM_BUDGET) -> float:
    """log of the exact constant-composition expurgated union bound.

    The composition is the largest-remainder rounding of Q at denominator n.
    The sum runs over joint types with both marginals equal to the composition;
    the per-type pair probability is an exact arrangement count.
    """
    spectrum = _cc_spectrum(channel, metric, q_in, n, cap, enum_budget) if M > 1 else None
    return _log_bound(spectrum, M, rho)


def _iid_spectrum(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                  n: int, cap: int = TYPE_CAP, enum_budget: int = ENUM_BUDGET) -> Spectrum:
    """Spectrum of the product-ensemble sum, over the cheapest exact indexing of the types."""
    calc = PairwiseTailCalculator(channel, metric)
    qv = q_in.q_vec
    if calc.lattice:
        probs, keys = calc.cell_classes(q_in)
        inert = [i for i, key in enumerate(keys) if calc.cells[key].inert]
        if len(keys) == 2 and len(inert) == 1:
            active = 1 - inert[0]
            return _two_class_sweep(calc.cells[keys[active]], math.log(probs[inert[0]]),
                                    math.log(probs[active]), n)
        if math.comb(n + len(keys) - 1, len(keys) - 1) <= cap:
            return _class_composition_spectrum(calc, probs, keys, n)
    _check_enumeration_extent(calc, n, lambda: count_joint_types(n, int(np.count_nonzero(qv))),
                              enum_budget)
    with np.errstate(divide="ignore"):
        lqq = np.log(qv)[:, None] + np.log(qv)[None, :]
    lf = log_factorials(n)
    log_prob, log_tail = [], []
    for jt in enumerate_joint_types(n, channel.input_size, cap=cap):
        mask = jt.counts > 0
        if np.any(mask & ~np.isfinite(lqq)):
            continue
        log_prob.append(lf[n] - lf[jt.counts].sum()
                        + float((jt.counts * np.where(mask, lqq, 0.0)).sum()))
        log_tail.append(calc.log_tail(jt.counts, enum_budget))
    return np.array(log_prob), np.array(log_tail)


def log_rcux_iid_exact(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                       n: int, M: float, rho: float,
                       cap: int = TYPE_CAP, enum_budget: int = ENUM_BUDGET) -> float:
    """log of the exact product-ensemble expurgated union bound.

    Cells with identical per-letter pmfs are merged; a two-class instance with
    one inert class (single zero log ratio) runs in an incremental O(n^2)
    sweep, anything else enumerates class-count compositions under the cap.
    Non-lattice instances, and class compositions over the cap, fall back to
    the full joint-type enumeration.
    """
    spectrum = _iid_spectrum(channel, metric, q_in, n, cap, enum_budget) if M > 1 else None
    return _log_bound(spectrum, M, rho)


def _two_class_sweep(active: _CellPMF, lp_inert: float, lp_active: float, n: int) -> Spectrum:
    """Spectrum over the number m = 0..n of active letters, one convolution per step."""
    lf = log_factorials(n)
    m = np.arange(n + 1)
    log_prob = lf[n] - lf - lf[::-1] + (n - m) * lp_inert + m * lp_active
    base, base_off = active.log_finite, active.offset
    _check_lattice_extent(n, len(base))
    cur, off = np.zeros(1), 0
    log_tail = np.zeros(n + 1)                          # tail = 1 at m = 0
    for k in range(1, n + 1):
        if len(base):                                   # else every active letter is decided
            cur = _log_convolve(cur, base)
            off += base_off
        log_tail[k] = _assemble_tail(active.log_no_force(k),
                                     _upper_mass(cur, off) if len(base) else NEG_INF)
    return log_prob, log_tail


def _class_composition_spectrum(calc: PairwiseTailCalculator, probs: np.ndarray,
                                keys: list[tuple[int, int]], n: int) -> Spectrum:
    """Spectrum over the compositions of n letters into the merged cell classes.

    Each composition puts its class counts on the classes' first cells, and
    ``calc.log_tail`` gives its tail from the cached class powers.
    """
    lp = np.log(probs)
    lf = log_factorials(n)
    _check_lattice_extent(n, max(len(calc.cells[key].log_finite) for key in keys))
    rows, cols = zip(*keys)
    counts = np.zeros((calc.k, calc.k), dtype=int)
    log_prob, log_tail = [], []
    for comp in _compositions(n, len(keys)):
        lpr = lf[n]
        for i, c in enumerate(comp):
            lpr += c * lp[i] - lf[c]
        log_prob.append(lpr)
        counts[rows, cols] = comp
        log_tail.append(calc.log_tail(counts))
    return np.array(log_prob), np.array(log_tail)


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
                tail_cache[key] = _tail_by_enumeration(channel, metric, x, xb, budget)
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
