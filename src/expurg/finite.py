"""Finite-blocklength expurgated bounds, simulation, and the refined prefactor.

Bound values are assembled in log domain throughout; the linear-scale
functions are thin wrappers so that deep-exponential regimes (n in the
thousands) stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import golden_max
from .dual import _ex_iid_kern, _sup_s, ex_iid
from .ensembles import EnsembleSpec
from .errors import Error, GateRefusalError
from .model import (
    ChannelModel,
    DecodingMetric,
    InputDistribution,
    PairKernel,
    check_dimensions,
    info_density,
    nonsingularity_set,
    tilted_conditional,
    tilted_pair,
)
from .type_enum import (
    _cc_spectrum,
    _iid_spectrum,
    _lattice_fit,
    _log_bound,
    PairwiseTailCalculator,
)

NEG_INF = -math.inf
SIM_CHUNK_ELEMENTS = 2 ** 20   # elements of the simulator's largest per-chunk array


# ---------------------------------------------------------------------------
# closed-form and exact bounds
# ---------------------------------------------------------------------------

def log_rcux_iid_product(channel: ChannelModel, metric: DecodingMetric,
                         q_in: InputDistribution, n: int, M: float,
                         rho: float, s: float) -> float:
    """log of the single-letter product form: (4(M-1))^rho exp(-n Ex(rho, s)).

    Exact for the product ensemble because the inner expectation factorizes
    over letters after the power-s weakening of the pairwise tail.
    """
    if rho < 1:
        raise Error("rho must be at least 1")
    if M <= 1:
        return NEG_INF
    return rho * (math.log(4.0) + math.log(M - 1.0)) - n * ex_iid(channel, metric, q_in, rho, s)


def optimize_rcux_exact(channel: ChannelModel, metric: DecodingMetric,
                        q_in: InputDistribution, n: int, M: float, rho_hi: float = 100.0, *,
                        rho: float | None = None, ensemble: str = "iid") -> tuple[float, float]:
    """The exact pairwise bound of the ensemble at ``rho``, or minimized over rho >= 1
    when ``rho`` is None; returns (log value, rho).

    ``ensemble`` is "iid" (the product ensemble) or "cc" (constant composition);
    the cost-shell ensemble has no exact sum and raises ``Error``.  The types are
    summed once; each rho the search tries re-weights that spectrum.
    """
    spectra = {"iid": _iid_spectrum, "cc": _cc_spectrum}
    if ensemble not in spectra:
        raise Error(f"no exact sum for the {ensemble} ensemble")
    if rho is None and M <= 1:
        return NEG_INF, 1.0
    spectrum = spectra[ensemble](channel, metric, q_in, n) if M > 1 else None
    if rho is not None:
        return _log_bound(spectrum, M, rho), rho
    rho, neg = golden_max(lambda r: -_log_bound(spectrum, M, r), 1.0, rho_hi, xtol=1e-6)
    return -neg, rho


def _log_product_min_s(kern: PairKernel, qv: np.ndarray, n: int, M: float,
                       rho: float) -> tuple[float, float]:
    """(log of the product form minimized over s >= 0 at this rho, s*)."""
    s, ex = _sup_s(lambda s: _ex_iid_kern(kern, qv, rho, s))
    if M <= 1:
        return NEG_INF, s
    return rho * (math.log(4.0) + math.log(M - 1.0)) - n * ex, s


def optimize_rcux_product(channel: ChannelModel, metric: DecodingMetric,
                          q_in: InputDistribution, n: int, M: float, rho_hi: float = 100.0, *,
                          rho: float | None = None) -> tuple[float, float, float]:
    """Minimize the product-form bound over s >= 0 at ``rho``, and over rho >= 1 too
    when ``rho`` is None; returns (log value, rho, s*)."""
    kern = PairKernel(channel, metric)
    qv = q_in.q_vec
    if rho is not None and rho < 1:
        raise Error("rho must be at least 1")
    if rho is not None or M <= 1:
        rho = 1.0 if rho is None else rho
        log_value, s = _log_product_min_s(kern, qv, n, M, rho)
        return log_value, rho, s
    at_rho: dict[float, tuple[float, float]] = {}

    def neg_log(rho: float) -> float:
        at_rho[rho] = _log_product_min_s(kern, qv, n, M, rho)
        return -at_rho[rho][0]

    rho, _ = golden_max(neg_log, 1.0, rho_hi, xtol=1e-6)
    log_value, s = at_rho[rho]
    return log_value, rho, s


# ---------------------------------------------------------------------------
# Monte Carlo estimate
# ---------------------------------------------------------------------------

@dataclass
class MCEstimate:
    value: float
    ci_lo: float
    ci_hi: float
    inner_mean: float
    inner_std: float
    samples: int
    seed: int


def _pair_types(xs: np.ndarray, xbs: np.ndarray, k: int) -> np.ndarray:
    """Joint-type counts of each row pair of two sampled word batches, in one bincount."""
    keys = np.arange(len(xs))[:, None] * (k * k) + xs * k + xbs
    return np.bincount(keys.ravel(), minlength=len(xs) * k * k).reshape(len(xs), k, k)


def mc_rcux(channel: ChannelModel, metric: DecodingMetric, ensemble: EnsembleSpec,
            n: int, M: float, rho: float, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo over codeword pairs with exact inner tails.

    Only the pair draw is sampled; each pairwise tail is computed exactly by
    ``PairwiseTailCalculator.log_tail``, so the estimator is unbiased for the
    inner expectation and the normal 95% interval on the mean transfers to the
    assembled bound monotonically.  The draws come from one substream derived
    from the seed, so results are bit-identical for a given seed.
    """
    if samples <= 0:
        raise Error("empty sample")
    calc = PairwiseTailCalculator(channel, metric)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    xs = ensemble.sample_words(n, samples, rng, channel)
    xbs = ensemble.sample_words(n, samples, rng, channel)
    types = _pair_types(xs, xbs, channel.input_size)
    # tails depend on the pair only through its cell-class counts: one tail per distinct vector
    _, first, which = np.unique(calc.class_counts(types), axis=0,
                                return_index=True, return_inverse=True)
    tails = np.array([calc.log_tail(types[i]) for i in first])
    inner = np.exp(tails / rho)[which.reshape(-1)]
    mean = math.fsum(inner) / samples
    var = math.fsum((inner - mean) ** 2) / max(samples - 1, 1)
    half = 1.96 * math.sqrt(var / samples)
    lead = 4.0 * (M - 1.0)

    def assemble(m: float) -> float:
        return (lead * max(m, 0.0)) ** rho if M > 1 else 0.0

    return MCEstimate(
        value=assemble(mean),
        ci_lo=assemble(mean - half),
        ci_hi=assemble(mean + half),
        inner_mean=mean,
        inner_std=math.sqrt(var),
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# expurgation simulator
# ---------------------------------------------------------------------------

@dataclass
class CodebookSample:
    words: np.ndarray
    seed: int
    ensemble: str


@dataclass
class SimulationReport:
    max_error: float
    per_message: np.ndarray
    kept: np.ndarray
    codebook: CodebookSample


def _estimate_errors(channel: ChannelModel, metric: DecodingMetric, words: np.ndarray,
                     trials: int, rng: np.random.Generator) -> np.ndarray:
    """Per-message decoding-error estimates under maximum-metric decoding.

    Ties (within a relative float tolerance on the log-metric sums, so that
    permuted letters cannot break an exact tie) are counted as errors.
    """
    mm, n = words.shape
    with np.errstate(divide="ignore"):
        logq = np.log(metric.q)
    wcum = np.cumsum(channel.w, axis=1)
    # trials per chunk: the (mm, chunk, n) scores and (chunk, n, |Y|) comparisons stay bounded
    chunk = max(1, SIM_CHUNK_ELEMENTS // (n * max(mm, channel.output_size)))
    errors = np.empty(mm)
    for m in range(mm):
        count = 0
        for done in range(0, trials, chunk):
            u = rng.random((min(chunk, trials - done), n))     # the draws of one unchunked call
            y = (u[:, :, None] > wcum[words[m]][None, :, :]).sum(axis=2)
            scores = logq[words[:, None, :], y[None, :, :]].sum(axis=2)   # (mm, chunk)
            own = scores[m]
            rival = np.max(np.delete(scores, m, axis=0), axis=0)
            tol = 1e-9 * (1.0 + np.abs(own))
            count += int(np.count_nonzero(rival >= own - tol))
        errors[m] = count / trials
    return errors


def expurgate_simulate(channel: ChannelModel, metric: DecodingMetric, ensemble: EnsembleSpec,
                       n: int, M: int, seed: int, trials: int) -> SimulationReport:
    """Draw 2M-1 codewords, keep the M with the smallest estimated error, re-estimate.

    The per-message trial budget is identical in both phases; the selection
    realizes the expurgation construction, and the reported figure is the
    empirical maximal error of the surviving codebook.
    """
    if M < 1:
        raise Error("M must be at least 1")
    rng = np.random.default_rng(seed)
    mprime = 2 * M - 1
    words = ensemble.sample_words(n, mprime, rng, channel)
    book = CodebookSample(words=words, seed=seed, ensemble=ensemble.kind)
    if M == 1:
        return SimulationReport(0.0, np.zeros(1), np.array([0]), book)
    first = _estimate_errors(channel, metric, words, trials, rng)
    kept = np.sort(np.argsort(first, kind="stable")[:M])
    second = _estimate_errors(channel, metric, words[kept], trials, rng)
    return SimulationReport(
        max_error=float(second.max()),
        per_message=second,
        kept=kept,
        codebook=book,
    )


# ---------------------------------------------------------------------------
# refined prefactor
# ---------------------------------------------------------------------------

@dataclass
class PrefactorReport:
    c0: float
    psi_s: float
    lattice_span: float | None
    nonsingular: bool


def prefactor_constants(channel: ChannelModel, metric: DecodingMetric,
                        q_in: InputDistribution, rho: float, s: float) -> PrefactorReport:
    """Conditional variance, lattice span and the span correction constant.

    Gates: s > 0; metric and channel share one zero pattern on the support of
    Q; some pair has a non-constant metric ratio on its shared support.  The
    variance averages over the tilted pair law; the lattice is detected on the
    information-density values that the tilted output law can actually produce.
    """
    check_dimensions(channel, metric, q_in)
    if s <= 0:
        raise GateRefusalError("refused: the tilt parameter s must be strictly positive")
    qv = q_in.q_vec
    sup = np.flatnonzero(qv > 0)
    w, q = channel.w, metric.q
    for x in sup:
        if not np.array_equal(q[x] == 0, w[x] == 0):
            raise GateRefusalError(
                "refused: metric support must match the channel support "
                f"(zero-pattern mismatch on input {x})")
    pairs, nonsingular = nonsingularity_set(channel, metric, q_in)
    if not nonsingular:
        raise GateRefusalError(
            "refused: non-singularity condition fails (every metric ratio is constant "
            "on the shared channel support, as for the uniform-input binary erasure channel)")
    pstar = tilted_pair(channel, metric, q_in, rho, s).p_star
    c0 = 0.0
    density_values: list[float] = []
    for x in sup:
        for xb in sup:
            if pstar[x, xb] <= 0:
                continue
            v = tilted_conditional(channel, metric, s, x, xb)
            ys = np.flatnonzero(v > 0)
            js = np.array([info_density(channel, metric, s, x, xb, y) for y in ys])
            mean = float(v[ys] @ js)
            c0 += pstar[x, xb] * float(v[ys] @ (js - mean) ** 2)
            if (x, xb) in pairs:
                density_values.extend(js.tolist())
    if not (c0 > 0):
        raise GateRefusalError("refused: conditional variance is not positive")
    span = lattice_span(density_values)
    psi = 1.0 if span is None else span / (-math.expm1(-span))
    return PrefactorReport(c0=c0, psi_s=psi, lattice_span=span, nonsingular=True)


def lattice_span(values: list[float]) -> float | None:
    """Largest common span of the pairwise differences; None when incommensurable."""
    vals = sorted(set(values))
    if len(vals) < 2:
        return None
    diffs = [b - a for i, a in enumerate(vals) for b in vals[i + 1:]]
    return _lattice_fit(diffs)[0]


def log_refined_bound(channel: ChannelModel, metric: DecodingMetric, q_in: InputDistribution,
                      rho: float, s: float, rate: float, n: int,
                      report: PrefactorReport | None = None) -> float:
    """log of the square-root-prefactor bound, with the vanishing correction set to 1.

    Asymptotic: valid up to a (1 + o(1)) factor the analysis does not
    quantify, so this is a guide for large n, never a certified finite-n
    guarantee.
    """
    if report is None:
        report = prefactor_constants(channel, metric, q_in, rho, s)
    lead = rho * math.log(4.0) + math.log(report.psi_s) \
        - 0.5 * math.log(2.0 * math.pi * n * report.c0)
    return lead - n * (ex_iid(channel, metric, q_in, rho, s) - rho * rate)

