"""Channel / metric / distribution data model and single-letter derived quantities.

Zero conventions used throughout (documented once here):

* terms with ``W(y|x) = 0`` are dropped before any metric ratio is formed;
* ``q(x,y) = 0`` together with ``q(xbar,y) = 0`` counts as ratio 1 (the decoder
  breaks the 0-vs-0 tie toward the competitor, so the bounding term must be
  kept at full weight);
* ``q(x,y) = 0`` with ``q(xbar,y) > 0`` on a channel-reachable output makes the
  pair singular for tilted quantities and raises
  :class:`~expurg.errors.MetricSingularError`;
* ``s = 0`` short-circuits every power of a ratio to 1 exactly, so that
  degenerate identities (zero distance matrix, product tilted pair) hold
  bit-for-bit and not merely to rounding.

All values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MetricSingularError, TiltingUndefinedError, Error

PROB_ATOL = 1e-12     # tolerance for probability vectors built from user input
DERIVED_ATOL = 1e-10  # tolerance for distributions produced by iterative solvers


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ChannelModel:
    """Row-stochastic transition matrix ``w[x, y]`` with an optional input cost."""

    w: np.ndarray
    cost: np.ndarray | None = None
    budget: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", _freeze(np.atleast_2d(self.w)))
        if self.w.ndim != 2:
            raise DimensionError("channel matrix must be two-dimensional")
        if self.cost is not None:
            object.__setattr__(self, "cost", _freeze(np.atleast_1d(self.cost)))
            if self.cost.shape != (self.input_size,):
                raise DimensionError(
                    f"cost vector has length {self.cost.shape[0]}, expected input axis {self.input_size}")
        if (self.cost is None) != (self.budget is None):
            raise DimensionError("budget must be present iff a cost function is present")

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    @property
    def output_size(self) -> int:
        return self.w.shape[1]

    @classmethod
    def bsc(cls, p: float) -> "ChannelModel":
        return cls(np.array([[1.0 - p, p], [p, 1.0 - p]]))

    @classmethod
    def bec(cls, eps: float) -> "ChannelModel":
        """Binary erasure channel; outputs ordered (0, erasure, 1)."""
        return cls(np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]]))


@dataclass(frozen=True)
class DecodingMetric:
    """Non-negative decoding metric ``q[x, y]``; maximum-metric decoding, ties are errors."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _freeze(np.atleast_2d(self.q)))
        if self.q.ndim != 2:
            raise DimensionError("metric matrix must be two-dimensional")

    @classmethod
    def ml(cls, channel: ChannelModel) -> "DecodingMetric":
        return cls(channel.w)


@dataclass(frozen=True)
class InputDistribution:
    q_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_vec", _freeze(np.atleast_1d(self.q_vec)))

    @classmethod
    def uniform(cls, k: int) -> "InputDistribution":
        return cls(np.full(k, 1.0 / k))

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.q_vec > 0)


@dataclass(frozen=True)
class AuxiliaryCostSet:
    """Auxiliary cost functions with their Q-means and the shell half-width."""

    costs: np.ndarray          # (L, |X|)
    means: np.ndarray          # (L,)
    shell_width: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "costs", _freeze(np.atleast_2d(self.costs)))
        object.__setattr__(self, "means", _freeze(np.atleast_1d(self.means)))
        if self.costs.shape[0] != self.means.shape[0]:
            raise DimensionError("one mean per auxiliary cost required")
        if self.shell_width <= 0:
            raise Error("shell width must be positive")

    @property
    def size(self) -> int:
        return self.costs.shape[0]

    @classmethod
    def from_q(cls, costs, q_in: InputDistribution, shell_width: float = 1.0) -> "AuxiliaryCostSet":
        costs = np.atleast_2d(np.asarray(costs, dtype=float))
        means = costs @ q_in.q_vec
        return cls(costs, means, shell_width)

    @classmethod
    def empty(cls, input_size: int) -> "AuxiliaryCostSet":
        return cls(np.zeros((0, input_size)), np.zeros(0))


@dataclass(frozen=True)
class TiltedPairDistribution:
    """Joint distribution on input pairs proportional to Q(x)Q(xbar)exp(-d_s/rho)."""

    p_star: np.ndarray
    rho: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "p_star", _freeze(self.p_star))


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    support_aligned: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# pair kernel: vectorized evaluation of the per-pair metric overlap
# ---------------------------------------------------------------------------

class PairKernel:
    """Precomputed log metric ratios for fast evaluation over many values of s.

    ``overlap(s)[x, xbar] = sum_y W(y|x) (q(xbar,y)/q(x,y))^s`` with the zero
    conventions from the module docstring.
    """

    def __init__(self, channel: ChannelModel, metric: DecodingMetric):
        check_dimensions(channel, metric)
        w, q = channel.w, metric.q
        nx, ny = w.shape
        self.w = w
        wpos = w > 0
        qx = q[:, None, :]          # q(x, y)
        qb = q[None, :, :]          # q(xbar, y)
        self._singular = (wpos[:, None, :] & (qx == 0) & (qb > 0)).any(axis=2)
        self._singular_pairs = np.argwhere(self._singular)
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = np.log(qb) - np.log(qx)
        lr = np.where((qx == 0) & (qb == 0), 0.0, lr)   # 0/0 tie counts as ratio 1
        lr = np.where((qx > 0) & (qb == 0), -np.inf, lr)
        self._logratio = np.where(wpos[:, None, :], np.broadcast_to(lr, (nx, nx, ny)), 0.0)
        self._wmask = np.where(wpos, w, 0.0)

    def require_nonsingular(self):
        if len(self._singular_pairs):
            x, xb = self._singular_pairs[0]
            raise MetricSingularError(f"metric singular at ({x},{xb})")

    def pair_terms(self, s: float, x: int, xbar: int) -> np.ndarray:
        """Per-output terms W(y|x) (q(xbar,y)/q(x,y))^s of one pair's overlap.

        At s = 0 this is W(.|x) with no singularity check; otherwise only the
        pair asked about may raise MetricSingularError.
        """
        if s == 0.0:
            return self._wmask[x].copy()
        if self._singular[x, xbar]:
            raise MetricSingularError(f"metric singular at ({x},{xbar})")
        with np.errstate(over="ignore"):
            return self._wmask[x] * np.exp(s * self._logratio[x, xbar])

    def overlap(self, s: float) -> np.ndarray:
        self.require_nonsingular()
        if s == 0.0:
            return np.ones((self.w.shape[0],) * 2)
        with np.errstate(over="ignore"):
            terms = np.exp(s * self._logratio)
        return np.einsum("xby,xy->xb", terms, self._wmask)

    def distances(self, s: float) -> np.ndarray:
        """-log overlap(s), with the diagonal set to exactly zero."""
        with np.errstate(divide="ignore"):
            d = -np.log(self.overlap(s))
        np.fill_diagonal(d, 0.0)
        return d


def check_dimensions(channel: ChannelModel, metric: DecodingMetric,
                     q_in: InputDistribution | None = None) -> None:
    if metric.q.shape != channel.w.shape:
        if metric.q.shape[0] != channel.w.shape[0]:
            raise DimensionError(
                f"input axis mismatch: metric has {metric.q.shape[0]} rows, channel has {channel.w.shape[0]}")
        raise DimensionError(
            f"output axis mismatch: metric has {metric.q.shape[1]} columns, channel has {channel.w.shape[1]}")
    if q_in is not None and q_in.q_vec.shape != (channel.input_size,):
        raise DimensionError(
            f"input axis mismatch: Q has length {q_in.q_vec.shape[0]}, channel has {channel.input_size} inputs")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def validate(channel: ChannelModel, metric: DecodingMetric,
             q_in: InputDistribution) -> ValidationReport:
    """Check model invariants; returns the violated ones instead of raising.

    Dimension mismatches are fatal (they make every later check meaningless);
    everything else is reported.  The ``support_aligned`` flag states whether
    q and W share an identical zero pattern, which the prefactor computations
    require.
    """
    check_dimensions(channel, metric, q_in)
    rep = ValidationReport()
    w, q, qv = channel.w, metric.q, q_in.q_vec
    for x in range(channel.input_size):
        if (w[x] < 0).any():
            rep.violations.append(f"row {x} has negative entries")
        if abs(w[x].sum() - 1.0) > PROB_ATOL:
            rep.violations.append(f"row {x} not stochastic")
        if not (q[x] > 0).any():
            rep.violations.append(f"metric row {x} has no positive entry")
    if (q < 0).any():
        rep.violations.append("metric has negative entries")
    if (qv < 0).any():
        rep.violations.append("input distribution has negative entries")
    if abs(qv.sum() - 1.0) > PROB_ATOL:
        rep.violations.append("input distribution does not sum to 1")
    if channel.cost is not None and channel.budget is not None:
        if float(channel.cost @ qv) > channel.budget + PROB_ATOL:
            rep.violations.append("mean cost under Q exceeds the budget")
    rep.support_aligned = bool(np.array_equal(q == 0, w == 0))
    return rep


def chernoff_distance(channel: ChannelModel, metric: DecodingMetric, s: float,
                      x: int, xbar: int) -> float:
    """-log sum_y W(y|x) (q(xbar,y)/q(x,y))^s; +inf when no output is reachable."""
    if s < 0:
        raise Error("s must be non-negative")
    kern = PairKernel(channel, metric)
    if s == 0.0:
        return 0.0
    total = float(kern.pair_terms(s, x, xbar).sum())
    if total == 0.0:
        return math.inf
    return -math.log(total)


def distance_matrix(channel: ChannelModel, metric: DecodingMetric, s: float) -> np.ndarray:
    """Elementwise chernoff_distance; the diagonal is identically zero."""
    if s < 0:
        raise Error("s must be non-negative")
    return PairKernel(channel, metric).distances(s)


def tilted_conditional(channel: ChannelModel, metric: DecodingMetric, s: float,
                       x: int, xbar: int) -> np.ndarray:
    """Output law W(.|x) reweighted by the metric ratio to the power s, renormalized."""
    v = PairKernel(channel, metric).pair_terms(s, x, xbar)
    z = v.sum()
    if not (z > 0) or not math.isfinite(z):
        raise TiltingUndefinedError(f"tilting undefined at ({x},{xbar})")
    return v / z


def info_density(channel: ChannelModel, metric: DecodingMetric, s: float,
                 x: int, xbar: int, y: int) -> float:
    """log V_s(y|x,xbar) / W(y|x); -inf on outputs the tilted law never produces."""
    if channel.w[x, y] <= 0:
        raise Error(f"information density undefined outside channel support at ({x},{y})")
    v = tilted_conditional(channel, metric, s, x, xbar)
    with np.errstate(divide="ignore"):
        return float(np.log(v[y]) - np.log(channel.w[x, y]))


def tilted_pair(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                rho: float, s: float) -> TiltedPairDistribution:
    """Pair law proportional to Q(x)Q(xbar)exp(-d_s(x,xbar)/rho)."""
    check_dimensions(channel, metric, q_in)
    qv = q_in.q_vec
    qq = np.outer(qv, qv)
    if s == 0.0:
        return TiltedPairDistribution(qq, rho, s)
    d = distance_matrix(channel, metric, s)
    with np.errstate(over="ignore"):
        wts = qq * np.exp(-d / rho)
    z = wts.sum()
    if not (z > 0) or not math.isfinite(z):
        raise TiltingUndefinedError("tilted pair undefined: degenerate weights")
    return TiltedPairDistribution(wts / z, rho, s)


def nonsingularity_set(channel: ChannelModel, metric: DecodingMetric,
                       q_in: InputDistribution) -> tuple[set[tuple[int, int]], bool]:
    """Pairs whose metric ratio varies across the shared channel support.

    Returns (A, A != empty).  A pair enters A when Q(x)Q(xbar) > 0 and the
    ratio q(xbar,.)/q(x,.) is non-constant over {y : W(y|x)W(y|xbar) > 0};
    constancy is decided by cross-products so metric zeros need no division.
    """
    check_dimensions(channel, metric, q_in)
    w, q, qv = channel.w, metric.q, q_in.q_vec
    pairs: set[tuple[int, int]] = set()
    for x in range(channel.input_size):
        for xb in range(channel.input_size):
            if qv[x] * qv[xb] <= 0:
                continue
            ys = np.flatnonzero((w[x] > 0) & (w[xb] > 0))
            if len(ys) < 2:
                continue
            cross = [(q[xb, y], q[x, y]) for y in ys]
            scale = max(max(abs(a), abs(b)) for a, b in cross) ** 2
            a0, b0 = cross[0]
            for a1, b1 in cross[1:]:
                if abs(a0 * b1 - a1 * b0) > 1e-12 * max(scale, 1e-300):
                    pairs.add((x, xb))
                    break
    return pairs, bool(pairs)


def pi_gamma(channel: ChannelModel, metric: DecodingMetric, gamma: float | None = None,
             q_in: InputDistribution | None = None) -> float:
    """Worst-case single-letter probability of the pairwise decoding-error event.

    The minimum runs over ordered pairs of admissible inputs: inputs with cost
    at most gamma when a cost function is present, otherwise the support of Q
    (all inputs when Q is omitted).  A zero return signals that some pair has
    an empty error set, in which case the large-deviation growth condition the
    value feeds may fail.
    """
    check_dimensions(channel, metric)
    if channel.cost is not None and gamma is not None:
        admissible = np.flatnonzero(channel.cost <= gamma)
    elif q_in is not None:
        admissible = q_in.support
    else:
        admissible = np.arange(channel.input_size)
    best = 1.0
    w, q = channel.w, metric.q
    for x in admissible:
        for xb in admissible:
            p = float(w[x][q[xb] >= q[x]].sum())
            best = min(best, p)
    return best
