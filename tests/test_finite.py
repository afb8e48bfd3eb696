"""Finite-blocklength bounds, Monte Carlo, simulation and prefactor constants."""

import math
import time

import numpy as np
import pytest

from expurg import dual, finite, presets, type_enum
from expurg.ensembles import EnsembleSpec
from expurg.errors import Error, GateRefusalError
from expurg.model import ChannelModel, DecodingMetric, InputDistribution

BSC = presets.bsc_ml(0.1)
QIN2 = InputDistribution.uniform(2)

C0_BSC = 0.45260586030471817
PSI_BSC = 2.471877649503247
LOG9 = math.log(9.0)


def test_rcux_iid_product_single_codeword():
    ch, q, qin = BSC
    assert math.exp(finite.log_rcux_iid_product(ch, q, qin, 10, 1.0, 1.0, 0.5)) == 0.0


def test_rcux_iid_product_single_letter_direct_sum():
    ch, q, qin = BSC
    # direct evaluation of the Markov-weakened single-letter assembly
    assert math.exp(finite.log_rcux_iid_product(ch, q, qin, 1, 2.0, 1.0, 0.5)) == pytest.approx(
        3.2, abs=1e-12)


def test_rcux_iid_product_regression_baseline():
    ch, q, qin = BSC
    log_val, rho, s = finite.optimize_rcux_product(ch, q, qin, 100, 149.0)
    assert math.exp(log_val) == pytest.approx(1.2059252979900214e-07, rel=1e-6)
    assert rho == pytest.approx(1.0, abs=1e-3)
    assert s == pytest.approx(0.5, abs=1e-3)


def test_rcux_exact_single_letter_oracle():
    ch, q, qin = BSC
    vacuous = math.exp(type_enum.log_rcux_iid_exact(ch, q, qin, 1, 2.0, 1.0))
    assert vacuous == pytest.approx(2.2, rel=1e-12)      # 4 * 0.55: vacuous at n = 1


def test_rcux_exact_below_product_markov_ordering():
    ch, q, qin = BSC
    for n, M in ((10, 4.0), (50, 8.0)):
        for rho in (1.0, 2.0):
            exact = type_enum.log_rcux_iid_exact(ch, q, qin, n, M, rho)
            from expurg.dual import _sup_s
            from expurg.dual import ex_iid
            _, v = _sup_s(lambda s: ex_iid(ch, q, qin, rho, s))
            product = rho * math.log(4 * (M - 1)) - n * v
            assert exact <= product + 1e-9


def test_rcux_exact_binomial_path_is_fast():
    ch, q, qin = BSC
    t0 = time.perf_counter()
    val = type_enum.log_rcux_iid_exact(ch, q, qin, 200, math.exp(200 * 0.05), 2.0)
    assert time.perf_counter() - t0 < 1.0
    assert math.isfinite(val)


def test_mc_rcux_brackets_exact_value():
    ch, q, qin = BSC
    spec = EnsembleSpec("iid", qin)
    n, M, rho = 20, 8.0, 1.5
    est = finite.mc_rcux(ch, q, spec, n, M, rho, samples=20_000, seed=11)
    exact = math.exp(type_enum.log_rcux_iid_exact(ch, q, qin, n, M, rho))
    assert est.ci_lo <= exact <= est.ci_hi


def test_mc_rcux_cc_cross_check():
    ch, q, qin = BSC
    spec = EnsembleSpec("cc", qin)
    n, M, rho = 12, 4.0, 1.0
    est = finite.mc_rcux(ch, q, spec, n, M, rho, samples=20_000, seed=3)
    exact = math.exp(type_enum.log_rcux_cc_exact(ch, q, qin, n, M, rho))
    assert est.ci_lo <= exact <= est.ci_hi


def test_mc_rcux_non_lattice_metric_brackets_exact_value():
    # one fig1 metric entry scaled by pi/5: the log ratios share no lattice, so
    # every tail comes from output enumeration
    ch, q, qin = presets.fig1_mismatched()
    qm = q.q.copy()
    qm[0, 1] *= math.pi / 5
    q = DecodingMetric(qm)
    assert not type_enum.PairwiseTailCalculator(ch, q).lattice
    n, M, rho = 4, 4.0, 1.5
    est = finite.mc_rcux(ch, q, EnsembleSpec("iid", qin), n, M, rho, samples=2_000, seed=1)
    exact = math.exp(type_enum.log_rcux_iid_exact(ch, q, qin, n, M, rho))
    assert est.ci_lo <= exact <= est.ci_hi


def test_cc_bound_attains_the_cc_exponent_where_iid_falls_short():
    # fig1-mismatched at 0.1 bits: the cc exponent sits well above the iid one
    ch, q, qin = presets.fig1_mismatched()
    rate = 0.1 * math.log(2.0)
    e_cc = dual.eex_cc_dual(ch, q, qin, rate).value
    for n in (20, 40):
        M = math.exp(n * rate)
        log_cc, _ = finite.optimize_rcux_exact(ch, q, qin, n, M, ensemble="cc")
        log_iid, _ = finite.optimize_rcux_exact(ch, q, qin, n, M, ensemble="iid")
        assert 0.0 <= -log_cc / n - e_cc <= 5.0 * math.log(n) / n
        assert -log_cc / n >= -log_iid / n + 0.05


def test_optimize_rcux_exact_at_a_given_rho_and_on_the_cost_ensemble():
    ch, q, qin = presets.fig1_mismatched()
    for ensemble, log_exact in (("iid", type_enum.log_rcux_iid_exact),
                                ("cc", type_enum.log_rcux_cc_exact)):
        got = finite.optimize_rcux_exact(ch, q, qin, 6, 4.0, rho=1.5, ensemble=ensemble)
        assert got == (log_exact(ch, q, qin, 6, 4.0, 1.5), 1.5)
    with pytest.raises(Error, match="no exact sum for the cost ensemble"):
        finite.optimize_rcux_exact(ch, q, qin, 6, 4.0, ensemble="cost")


def test_optimize_rcux_exact_builds_the_type_sum_once(monkeypatch):
    builds = []
    init = type_enum.PairwiseTailCalculator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(type_enum.PairwiseTailCalculator, "__init__", counting_init)
    cases = [(BSC, 400, 0.02, (-83.18472248528987, 1.1786300201783793)),
             (presets.fig1_mismatched(), 8, 0.1, (-1.6219720026059563, 1.0000018327047497))]
    for (ch, q, qin), n, rate, expected in cases:
        builds.clear()
        assert finite.optimize_rcux_exact(ch, q, qin, n, math.exp(n * rate)) == expected
        assert len(builds) == 1


def test_mc_rcux_computes_one_tail_per_class_count_vector(monkeypatch):
    seen = []
    log_tail = type_enum.PairwiseTailCalculator.log_tail

    def recording_log_tail(self, counts, *args, **kwargs):
        seen.append(tuple(self.class_counts(counts)))
        return log_tail(self, counts, *args, **kwargs)

    monkeypatch.setattr(type_enum.PairwiseTailCalculator, "log_tail", recording_log_tail)
    ch, q, qin = BSC
    n = 80
    finite.mc_rcux(ch, q, EnsembleSpec("iid", qin), n, math.exp(0.05 * n), 2.0,
                   samples=2_000, seed=1)
    # BSC: the inert diagonal and one active class, so at most n + 1 class-count vectors
    assert 0 < len(seen) <= n + 1
    assert len(set(seen)) == len(seen)


def test_pair_types_match_per_pair_counts():
    rng = np.random.default_rng(0)
    for k, n in ((2, 1), (3, 7), (4, 30)):
        xs = rng.integers(0, k, size=(50, n))
        xbs = rng.integers(0, k, size=(50, n))
        batch = finite._pair_types(xs, xbs, k)
        assert batch.dtype == type_enum.pair_counts(xs[0], xbs[0], k).dtype
        for i in range(50):
            assert np.array_equal(batch[i], type_enum.pair_counts(xs[i], xbs[i], k))


def test_mc_rcux_seed_reproducible():
    ch, q, qin = BSC
    spec = EnsembleSpec("iid", qin)
    a = finite.mc_rcux(ch, q, spec, 10, 4.0, 1.0, samples=500, seed=42)
    b = finite.mc_rcux(ch, q, spec, 10, 4.0, 1.0, samples=500, seed=42)
    assert a.value == b.value and a.ci_lo == b.ci_lo and a.ci_hi == b.ci_hi
    c = finite.mc_rcux(ch, q, spec, 10, 4.0, 1.0, samples=500, seed=43)
    assert c.value != a.value


def test_mc_rcux_empty_sample_rejected():
    ch, q, qin = BSC
    with pytest.raises(Error, match="empty sample"):
        finite.mc_rcux(ch, q, EnsembleSpec("iid", qin), 4, 2.0, 1.0, samples=0, seed=0)


def test_expurgate_simulate_single_message():
    ch, q, qin = BSC
    rep = finite.expurgate_simulate(ch, q, EnsembleSpec("iid", qin), 8, 1, seed=0, trials=100)
    assert rep.max_error == 0.0


def test_expurgate_simulate_noiseless_distinct_codewords():
    ch = ChannelModel(np.eye(2))
    q = DecodingMetric.ml(ch)
    spec = EnsembleSpec("cc", QIN2)
    rep = finite.expurgate_simulate(ch, q, spec, 6, 2, seed=5, trials=200)
    kept_words = rep.codebook.words[rep.kept]
    if len({w.tobytes() for w in kept_words}) == len(kept_words):
        assert rep.max_error == 0.0


def test_expurgate_simulate_below_exact_bound():
    ch, q, qin = BSC
    spec = EnsembleSpec("iid", qin)
    n, M, trials = 10, 4, 10_000
    log_bound, _ = finite.optimize_rcux_exact(ch, q, qin, n, float(M))
    bound = math.exp(log_bound)
    for seed in (0, 1):
        rep = finite.expurgate_simulate(ch, q, spec, n, M, seed=seed, trials=trials)
        sigma = math.sqrt(max(rep.max_error * (1 - rep.max_error), 1.0 / trials) / trials)
        assert rep.max_error <= bound + 3 * sigma


def test_expurgate_simulate_cc_below_type_sum_bound():
    ch, q, qin = BSC
    spec = EnsembleSpec("cc", qin)
    n, M, trials = 8, 3, 5_000
    from expurg._search import golden_max
    _, neg = golden_max(
        lambda r: -type_enum.log_rcux_cc_exact(ch, q, qin, n, float(M), r), 1.0, 40.0)
    bound = math.exp(-neg)
    rep = finite.expurgate_simulate(ch, q, spec, n, M, seed=2, trials=trials)
    sigma = math.sqrt(max(rep.max_error * (1 - rep.max_error), 1.0 / trials) / trials)
    assert rep.max_error <= bound + 3 * sigma


def test_mc_rcux_cc_runs_at_moderate_blocklength():
    ch, q, qin = BSC
    spec = EnsembleSpec("cc", qin)
    est = finite.mc_rcux(ch, q, spec, 40, 16.0, 1.0, samples=2_000, seed=5)
    assert est.value > 0
    assert est.ci_lo <= est.value <= est.ci_hi


def _estimate_errors_unchunked(channel, metric, words, trials, rng):
    """The simulator's loop before trials were chunked: whole (mm, trials, n) arrays."""
    mm, n = words.shape
    with np.errstate(divide="ignore"):
        logq = np.log(metric.q)
    wcum = np.cumsum(channel.w, axis=1)
    errors = np.empty(mm)
    for m in range(mm):
        u = rng.random((trials, n))
        y = (u[:, :, None] > wcum[words[m]][None, :, :]).sum(axis=2)
        scores = logq[words[:, None, :], y[None, :, :]].sum(axis=2)
        own = scores[m]
        rival = np.max(np.delete(scores, m, axis=0), axis=0)
        tol = 1e-9 * (1.0 + np.abs(own))
        errors[m] = float(np.mean(rival >= own - tol))
    return errors


@pytest.mark.parametrize("elements", [500, 4096, finite.SIM_CHUNK_ELEMENTS])
def test_simulator_chunks_draw_the_unchunked_values(monkeypatch, elements):
    monkeypatch.setattr(finite, "SIM_CHUNK_ELEMENTS", elements)
    ch, q, qin = presets.fig1_mismatched()
    words = EnsembleSpec("iid", qin).sample_words(9, 7, np.random.default_rng(4), ch)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    got = finite._estimate_errors(ch, q, words, 1001, rng_a)
    want = _estimate_errors_unchunked(ch, q, words, 1001, rng_b)
    assert np.array_equal(got, want)
    assert rng_a.random() == rng_b.random()      # the same draws were consumed


def test_simulator_memory_is_bounded_by_the_chunk():
    import tracemalloc
    ch, q, qin = BSC
    mm, n, trials = 2, 64, 300_000
    assert mm * trials * n * 8 > 256 * 2 ** 20       # the unchunked score array
    words = EnsembleSpec("iid", qin).sample_words(n, mm, np.random.default_rng(0), ch)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        errors = finite._estimate_errors(ch, q, words, trials, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5.0
    assert peak < 64 * 2 ** 20
    assert errors.shape == (mm,) and np.all((0.0 <= errors) & (errors <= 1.0))


def test_prefactor_constants_bsc_oracle():
    ch, q, qin = BSC
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    assert rep.c0 == pytest.approx(C0_BSC, abs=1e-12)
    assert rep.lattice_span == pytest.approx(LOG9, abs=1e-9)
    assert rep.psi_s == pytest.approx(PSI_BSC, abs=1e-12)
    assert rep.nonsingular


def test_prefactor_refuses_bec():
    ch, q, qin = presets.bec_ml(0.5)
    with pytest.raises(GateRefusalError, match="non-singularity"):
        finite.prefactor_constants(ch, q, qin, 1.0, 0.5)


def test_prefactor_refuses_zero_s_and_support_mismatch():
    ch, q, qin = BSC
    with pytest.raises(GateRefusalError, match="strictly positive"):
        finite.prefactor_constants(ch, q, qin, 1.0, 0.0)
    bad = DecodingMetric(np.array([[0.9, 0.0], [0.1, 0.9]]))
    with pytest.raises(GateRefusalError, match="zero-pattern"):
        finite.prefactor_constants(ch, bad, qin, 1.0, 0.5)


def test_prefactor_incommensurable_instance_has_no_lattice():
    w = np.array([
        [0.61, 0.29, 0.10],
        [0.17, 0.55, 0.28],
        [0.23, 0.06, 0.71],
    ])
    ch = ChannelModel(w)
    rep = finite.prefactor_constants(ch, DecodingMetric.ml(ch), InputDistribution.uniform(3),
                                     1.0, 0.5)
    assert rep.lattice_span is None
    assert rep.psi_s == 1.0
    assert rep.c0 > 0


def test_lattice_span_offset_progression():
    span = finite.lattice_span([0.3, 0.3 + 2 * LOG9, 0.3 + 5 * LOG9])
    assert span == pytest.approx(LOG9, rel=1e-9)
    assert finite.lattice_span([0.0, 1.0, math.sqrt(2.0)]) is None


def test_refined_bound_regression_values():
    ch, q, qin = BSC
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    assert math.exp(finite.log_refined_bound(ch, q, qin, 1.0, 0.5, 0.02, 100, rep)) == pytest.approx(
        8.825200977044746e-10, rel=1e-9)
    assert finite.log_refined_bound(ch, q, qin, 1.0, 0.5, 0.02, 1000, rep) == pytest.approx(
        math.log(1.1066583657531361e-89), rel=1e-12)
    assert finite.log_refined_bound(ch, q, qin, 1.0, 0.5, 0.02, 10_000, rep) == pytest.approx(
        -2034.271982657448, abs=1e-8)


def test_refined_bound_scaling_identity():
    ch, q, qin = BSC
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    from expurg.dual import ex_iid
    n, rate = 50, 0.02
    gap = ex_iid(ch, q, qin, 1.0, 0.5) - rate
    lhs = finite.log_refined_bound(ch, q, qin, 1.0, 0.5, rate, 4 * n, rep) \
        - finite.log_refined_bound(ch, q, qin, 1.0, 0.5, rate, n, rep)
    assert lhs == pytest.approx(-math.log(2.0) - 3 * n * gap, abs=1e-10)


def test_refined_bound_improves_on_product_prefactor():
    ch, q, qin = BSC
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    rate = 0.02
    # below an instance-dependent blocklength the (M-1)-vs-M gap still favors
    # the product form; on this instance the crossover sits near n ~ 60
    for n in (100, 1000, 10_000):
        M = math.exp(n * rate)
        log_ref = finite.log_refined_bound(ch, q, qin, 1.0, 0.5, rate, n, rep)
        log_prod = finite.log_rcux_iid_product(ch, q, qin, n, M, 1.0, 0.5)
        assert log_ref < log_prod


def test_refined_bound_decreases_along_blocklengths():
    ch, q, qin = BSC
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    curve = np.array([math.exp(finite.log_refined_bound(ch, q, qin, 1.0, 0.5, 0.02, n, rep))
                      for n in [100, 400]])
    assert curve.shape == (2,)
    assert (np.diff(curve) < 0).all()


def test_convergence_diagnostic_small_scale():
    # sqrt(n) * exact bound * exp(n(Ex - rho R)) stays below the prefactor constant
    ch, q, qin = BSC
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    from expurg.dual import ex_iid
    rate = 0.02
    const = 4.0 * rep.psi_s / math.sqrt(2 * math.pi * rep.c0)
    seq = []
    for n in (100, 400):
        M = math.exp(n * rate)
        log_exact = type_enum.log_rcux_iid_exact(ch, q, qin, n, M, 1.0)
        seq.append(0.5 * math.log(n) + log_exact
                   + n * (ex_iid(ch, q, qin, 1.0, 0.5) - rate))
    assert math.exp(seq[-1]) <= 1.5 * const
