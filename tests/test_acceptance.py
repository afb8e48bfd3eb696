"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from expurg import dual, finite, presets, primal, type_enum
from expurg.ensembles import EnsembleSpec
from expurg.errors import GateRefusalError
from expurg.model import ChannelModel, DecodingMetric, InputDistribution
from expurg._search import golden_max

LN2 = math.log(2.0)
GRID_BITS = np.linspace(0.6 / 25, 0.6, 25)          # 25 points over (0, 0.6] bits
RATE_ZERO_BSC = 0.25541281188299525

INSTANCES = {
    "fig1-mismatched": presets.fig1_mismatched(),
    "fig1-ml": presets.fig1_ml(),
    "bsc-ml": presets.bsc_ml(0.1),
}


def _report(criterion: str, detail: str):
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def curves():
    """Exponent curves shared by criteria 1 and 2: per instance and rate,
    the product-ensemble value and both routes to the constant-composition
    value.  The build time is the criterion-1 workload, so it is recorded."""
    out = {}
    t0 = time.perf_counter()
    for name, (ch, q, qin) in INSTANCES.items():
        cache: dict = {}
        rows = []
        for rb in GRID_BITS:
            rate = rb * LN2
            iid = dual.eex_iid(ch, q, qin, rate)
            cc_dual = dual.eex_generic(
                lambda rho: dual.ex_cc_dual(ch, q, qin, rho).value, rate)
            cc_primal = primal.eex_cc_primal(ch, q, qin, rate, _cache=cache)
            rows.append((rate, iid.value, cc_dual.value, cc_primal.value))
        out[name] = rows
    return out, time.perf_counter() - t0


def test_criterion_1_duality(curves):
    rows_by_name, elapsed = curves
    worst = 0.0
    for name, rows in rows_by_name.items():
        for rate, _, cc_dual, cc_primal in rows:
            gap = abs(cc_dual - cc_primal)
            worst = max(worst, gap)
            assert gap < 1e-4, f"{name} at rate {rate:.4f}: gap {gap:.2e}"
    assert elapsed < 60.0
    _report("criterion 1 (duality at every grid rate)",
            f"max gap {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_2_figure_structure(curves):
    rows_by_name, _ = curves
    for name in ("fig1-mismatched", "fig1-ml"):
        ch, q, qin = INSTANCES[name]
        for rate, iid, cc_dual, cc_primal in rows_by_name[name]:
            assert cc_dual >= iid - 1e-9, f"{name}: ordering fails at {rate}"
            assert cc_primal >= iid - 1e-4
        for col in (1, 2):                     # both curves nonincreasing and convex in R
            vals = np.array([row[col] for row in rows_by_name[name]])
            diffs = np.diff(vals)
            assert (diffs <= 1e-9).all()
            assert (np.diff(diffs) >= -1e-5).all()
        # strict gap for the mismatched rule at R = 0.1 bits
        if name == "fig1-mismatched":
            rate = 0.1 * LN2
            gap = (dual.eex_generic(lambda rho: dual.ex_cc_dual(ch, q, qin, rho).value, rate).value
                   - dual.eex_iid(ch, q, qin, rate).value)
            assert gap > 1e-3, f"gap {gap:.2e} not strict"
        # both curves extrapolate to the common rate-zero limit
        limit = dual.rate_zero_limit(ch, q, qin).value
        tiny = 1e-6
        iid0 = dual.eex_iid(ch, q, qin, tiny).value
        cc0 = dual.eex_generic(lambda rho: dual.ex_cc_dual(ch, q, qin, rho).value, tiny).value
        assert abs(iid0 - limit) < 1e-3
        assert abs(cc0 - limit) < 1e-3
    _report("criterion 2 (curve ordering, strict mismatched gap, common intercept)",
            "both presets")


def test_criterion_3_rate_zero_closed_form():
    ch, q, qin = INSTANCES["bsc-ml"]
    res = dual.rate_zero_limit(ch, q, qin)
    assert res.value == pytest.approx(RATE_ZERO_BSC, abs=1e-4)
    assert abs(res.argmax.s - 0.5) <= 1e-3
    _report("criterion 3 (rate-zero closed form)",
            f"value {res.value:.6f}, s* {res.argmax.s:.4f}")


BINARY_ORACLE_INSTANCES = [
    presets.bsc_ml(0.1),
    presets.bsc_ml(0.3),
    # asymmetric channel with a mismatched metric
    (ChannelModel(np.array([[0.8, 0.2], [0.3, 0.7]])),
     DecodingMetric(np.array([[0.7, 0.3], [0.4, 0.6]])),
     InputDistribution(np.array([0.6, 0.4]))),
    # zero-pattern instance: metric products can vanish
    (ChannelModel(np.array([[1.0, 0.0], [0.2, 0.8]])),
     DecodingMetric(np.array([[1.0, 0.0], [0.2, 0.8]])),
     InputDistribution.uniform(2)),
]


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for ch, q, qin in BINARY_ORACLE_INSTANCES:
        for rho in (1.0, 2.0):
            for n in (1, 2, 3, 4):
                spec = EnsembleSpec("iid", qin)
                ref = (4.0 * 2.0 * type_enum.brute_force_pairwise(ch, q, spec, n, rho)) ** rho
                got = math.exp(type_enum.log_rcux_iid_exact(ch, q, qin, n, 3.0, rho))
                assert got == pytest.approx(ref, rel=1e-12)
                checked += 1
            for n in (2, 4):
                spec = EnsembleSpec("cc", qin)
                ref = (4.0 * 2.0 * type_enum.brute_force_pairwise(ch, q, spec, n, rho)) ** rho
                got = math.exp(type_enum.log_rcux_cc_exact(ch, q, qin, n, 3.0, rho))
                assert got == pytest.approx(ref, rel=1e-12)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 4 (oracle equivalence to 1e-12 relative)",
            f"{checked} assemblies in {elapsed:.1f}s")


def test_criterion_5_exponential_tightness():
    ch, q, qin = INSTANCES["bsc-ml"]
    rate = 0.05
    eex = primal.eex_cc_primal(ch, q, qin, rate).value
    resid = {}
    for n in (20, 40, 80, 160):
        M = math.exp(n * rate)
        _, neg = golden_max(
            lambda r: type_enum.log_rcux_cc_exact(ch, q, qin, n, M, r) * -1.0,
            1.0, 60.0, xtol=1e-7)
        resid[n] = abs(neg / n - eex)
    # The exact sequence decreases over the tested range: every doubling from
    # n=20 lands strictly lower, and the endpoint sits below every predecessor.
    # (Strict per-step monotonicity is not a property of the exact values: the
    # true sequence rises by ~1.4e-4 between n=40 and n=80; see the decisions
    # ledger for the 60-digit verification.)
    assert resid[40] < resid[20]
    assert resid[80] < resid[20]
    assert resid[160] < min(resid[20], resid[40], resid[80])
    cap = 5.0 * math.log(160) / 160
    assert resid[160] < cap
    _report("criterion 5 (exponential tightness at desk scale)",
            f"residuals {[f'{resid[n]:.5f}' for n in (20, 40, 80, 160)]}, "
            f"endpoint {resid[160]:.5f} < {cap:.5f}")


def test_criterion_6_prefactor_constants():
    ch, q, qin = INSTANCES["bsc-ml"]
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    assert rep.c0 == pytest.approx(0.45263, abs=1e-4)
    assert rep.lattice_span == pytest.approx(math.log(9.0), abs=1e-9)
    assert rep.psi_s == pytest.approx(2.47188, abs=1e-4)
    bch, bq, bqin = presets.bec_ml(0.5)
    with pytest.raises(GateRefusalError, match="non-singularity"):
        finite.prefactor_constants(bch, bq, bqin, 1.0, 0.5)
    _report("criterion 6 (prefactor constants and the erasure refusal)",
            f"c0 {rep.c0:.5f}, span {rep.lattice_span:.9f}, psi {rep.psi_s:.5f}")


def test_criterion_7_sqrt_n_prefactor():
    t0 = time.perf_counter()
    ch, q, qin = INSTANCES["bsc-ml"]
    rep = finite.prefactor_constants(ch, q, qin, 1.0, 0.5)
    const = 4.0 * rep.psi_s / math.sqrt(2.0 * math.pi * rep.c0)
    ex = dual.ex_iid(ch, q, qin, 1.0, 0.5)
    rate = 0.02
    seq = {}
    for n in (100, 400, 1600, 6400):
        M = math.exp(n * rate)
        log_val = type_enum.log_rcux_iid_exact(ch, q, qin, n, M, 1.0)
        seq[n] = math.exp(0.5 * math.log(n) + log_val + n * (ex - rate))
    assert all(math.isfinite(v) for v in seq.values())
    running_max = 0.0
    for n in (400, 1600, 6400):
        running_max = max(running_max, seq[n])
        assert running_max <= 1.5 * const
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion 7 (square-root prefactor behavior)",
            f"sequence {[f'{seq[n]:.3f}' for n in (100, 400, 1600, 6400)]} "
            f"vs 1.5x constant {1.5 * const:.3f}, {elapsed:.1f}s")


def test_criterion_8_simulation_consistency():
    ch, q, qin = INSTANCES["bsc-ml"]
    spec = EnsembleSpec("iid", qin)
    n, M, trials = 10, 4, 10_000
    log_bound, _ = finite.optimize_rcux_exact(ch, q, qin, n, float(M))
    bound = math.exp(log_bound)
    passed = 0
    for seed in range(20):
        rep = finite.expurgate_simulate(ch, q, spec, n, M, seed=seed, trials=trials)
        sigma = math.sqrt(max(rep.max_error * (1 - rep.max_error), 1.0 / trials) / trials)
        if rep.max_error <= bound + 3 * sigma:
            passed += 1
    assert passed >= 19
    _report("criterion 8 (simulation below the exact bound)", f"{passed}/20 seeds")


def test_criterion_9_randomized_invariant_sweep():
    """Deterministic 50-instance sweep of the core invariants; the hypothesis
    module (test_properties.py) explores the same properties adaptively."""
    rng = np.random.default_rng(20240811)
    checked = 0
    for _ in range(50):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        w = rng.uniform(0.05, 1.0, size=(nx, ny))
        w /= w.sum(axis=1, keepdims=True)
        ch = ChannelModel(w)
        q = DecodingMetric.ml(ch) if rng.random() < 0.5 else \
            DecodingMetric(rng.uniform(0.05, 1.0, size=(nx, ny)))
        qv = rng.uniform(0.1, 1.0, size=nx)
        qin = InputDistribution(qv / qv.sum())
        s = float(rng.uniform(0.1, 1.5))
        rho = float(rng.uniform(0.5, 4.0))
        rate = float(rng.uniform(0.02, 0.3))

        from expurg.model import distance_matrix
        d = distance_matrix(ch, q, s)
        assert (np.diag(d) == 0.0).all()

        sol = primal.entropic_pair_min(d, qin, rho)
        assert np.max(np.abs(sol.pair.row_marginal - qin.q_vec)) < 1e-8
        assert np.max(np.abs(sol.pair.col_marginal - qin.q_vec)) < 1e-8
        a = sol.tilt_vector(rho, qin)
        obj = dual.ex_cc_objective(ch, q, qin, rho, s, a)
        assert obj == pytest.approx(sol.objective, abs=1e-6 * (1 + abs(sol.objective)))

        if np.array_equal(q.q, ch.w):
            v1 = dual.ex_iid(ch, q, qin, max(rho, 1.0), 0.3)
            v2 = dual.ex_iid(ch, q, qin, max(rho, 1.0), 0.7)
            assert v1 == pytest.approx(v2, abs=1e-10)

        cc = dual.eex_generic(lambda r: dual.ex_cc_dual(ch, q, qin, r).value, rate)
        iid = dual.eex_iid(ch, q, qin, rate)
        assert cc.value >= iid.value - 1e-6
        checked += 1
    assert checked == 50
    _report("criterion 9 (invariant sweep over 50 randomized instances)",
            "d-diagonal, marginal pinning, potential consistency, s-symmetry, ordering")
