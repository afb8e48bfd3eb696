"""Method-of-types machinery against brute-force and hand oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expurg import dual, presets, primal, type_enum
from expurg._numerics import log_factorials
from expurg.ensembles import EnsembleSpec, largest_remainder
from expurg.errors import BudgetError
from expurg.model import AuxiliaryCostSet, ChannelModel, DecodingMetric, InputDistribution

BSC = presets.bsc_ml(0.1)
FIG1_MM = presets.fig1_mismatched()
QIN2 = InputDistribution.uniform(2)
# y = 2 (reachable from x = 0 only) zeroes the own metric of every 0 -> 1 pair: forced errors
FORCED = (ChannelModel(np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])),
          DecodingMetric(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])), QIN2)
# every cross pair has its competitor killed: an active class with no finite part
NOISELESS = (ChannelModel(np.eye(2)), DecodingMetric(np.eye(2)), QIN2)


def test_joint_type_counts():
    assert sum(1 for _ in type_enum.enumerate_joint_types(2, 2)) == 10
    assert sum(1 for _ in type_enum.enumerate_joint_types(1, 3)) == 9
    assert sum(1 for _ in type_enum.enumerate_joint_types(6, 2)) == 84
    assert type_enum.count_joint_types(6, 2) == 84


def test_joint_type_stream_is_lazy_and_capped():
    gen = type_enum.enumerate_joint_types(3, 2, cap=100)
    first = next(gen)
    assert first.counts.sum() == 3
    with pytest.raises(BudgetError):
        list(type_enum.enumerate_joint_types(1000, 3, cap=10))


def test_constrained_enumeration_partitions_probability():
    comp = np.array([2, 2])
    total = 0.0
    from scipy.special import gammaln
    log_t = gammaln(5) - 2 * gammaln(3)
    for jt in type_enum.enumerate_joint_types_with_marginals(comp, comp):
        log_count = 2 * gammaln(3) - gammaln(jt.counts + 1).sum()
        total += math.exp(log_count - log_t)
        assert np.array_equal(jt.row_counts, comp)
        assert np.array_equal(jt.col_counts, comp)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_log_factorials_match_scipy_gammaln():
    from scipy.special import gammaln
    k = np.arange(10 ** 4 + 1)
    lf = log_factorials(10 ** 4)
    assert lf.shape == k.shape
    assert lf[0] == 0.0 and lf[1] == 0.0
    np.testing.assert_allclose(lf, gammaln(k + 1.0), rtol=1e-15, atol=0.0)


def test_largest_remainder_rounding():
    assert np.array_equal(largest_remainder(np.array([0.5, 0.5]), 4), [2, 2])
    assert np.array_equal(largest_remainder(np.array([0.5, 0.5]), 3), [2, 1])
    q = np.array([1 / 3, 1 / 3, 1 / 3])
    for n in (3, 7, 20):
        counts = largest_remainder(q, n)
        assert counts.sum() == n
        assert np.max(np.abs(counts / n - q)) <= 1.0 / n + 1e-12


def test_dq_exact_identical_words_is_zero():
    ch, q, _ = BSC
    assert type_enum.dq_exact(ch, q, [0, 1, 0], [0, 1, 0]) == 0.0


def test_dq_exact_bsc_two_letter_oracle():
    ch, q, _ = BSC
    # enumeration over Y^2: ties plus double flip = 2*0.1*0.9 + 0.01 = 0.19
    val = type_enum.dq_exact(ch, q, [0, 0], [1, 1])
    assert val == pytest.approx(-math.log(0.19), abs=1e-12)
    assert val == pytest.approx(1.6607312068216507, abs=1e-10)


def test_dq_exact_paths_agree_binary():
    instances = [presets.bsc_ml(0.1), presets.bsc_ml(0.3)]
    rng = np.random.default_rng(7)
    for ch, q, _ in instances:
        for n in (2, 4, 6, 8):
            x = rng.integers(0, 2, size=n)
            xb = rng.integers(0, 2, size=n)
            a = type_enum.dq_exact(ch, q, x, xb, method="lattice")
            b = type_enum.dq_exact(ch, q, x, xb, method="enumerate")
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert a == pytest.approx(b, abs=1e-12)


def test_dq_exact_fig1_paths_agree():
    ch, q, _ = FIG1_MM    # min-Hamming ratios are powers of 2: a lattice instance
    x = np.array([0, 1, 2, 0])
    xb = np.array([1, 1, 0, 2])
    a = type_enum.dq_exact(ch, q, x, xb, method="lattice")
    b = type_enum.dq_exact(ch, q, x, xb, method="enumerate")
    assert a == pytest.approx(b, abs=1e-12)


def test_dq_exact_zero_metric_forces_error():
    # Z-channel under ML: q(0,1)=0, so any letter with x=0,y=1 kills the
    # transmitted product; with xbar=1 the competitor always survives.
    ch = ChannelModel(np.array([[1.0, 0.0], [0.2, 0.8]]))
    q = DecodingMetric.ml(ch)
    # x=1,xbar=0: event needs q(0,y)^n >= q(1,y)^n; y=(0,0): 1*1 >= 0.04 true
    val = type_enum.dq_exact(ch, q, [1, 1], [0, 0], method="enumerate")
    assert val == pytest.approx(-math.log(0.04), abs=1e-12)


def test_brute_force_single_letter_hand_value():
    ch, q, qin = BSC
    spec = EnsembleSpec("iid", qin)
    assert type_enum.brute_force_pairwise(ch, q, spec, 1, 1.0) == pytest.approx(0.55, abs=1e-14)


def test_brute_force_noiseless_counts_self_pairs():
    ch = ChannelModel(np.eye(2))
    q = DecodingMetric.ml(ch)
    spec = EnsembleSpec("iid", QIN2)
    # disjoint outputs: tail is 1 on the diagonal, 0 off it
    assert type_enum.brute_force_pairwise(ch, q, spec, 2, 1.0) == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("rho", [1.0, 2.0])
def test_iid_type_sum_matches_brute_force(n, rho):
    # FORCED and NOISELESS run the two-class sweep
    instances = [presets.bsc_ml(0.1), presets.bsc_ml(0.3), FORCED, NOISELESS]
    if n <= 3:      # four merged cell classes: the class-composition sum (n = 4 takes ~13 s)
        instances.append(FIG1_MM)
    for ch, q, qin in instances:
        spec = EnsembleSpec("iid", qin)
        M = 2.0
        expected = (4.0 * (M - 1) * type_enum.brute_force_pairwise(ch, q, spec, n, rho)) ** rho
        got = math.exp(type_enum.log_rcux_iid_exact(ch, q, qin, n, M, rho))
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("rho", [1.0, 2.0])
def test_cc_type_sum_matches_brute_force(n, rho):
    for ch, q, qin in (BSC, FIG1_MM):
        spec = EnsembleSpec("cc", qin)
        M = 3.0
        expected = (4.0 * (M - 1) * type_enum.brute_force_pairwise(ch, q, spec, n, rho)) ** rho
        got = math.exp(type_enum.log_rcux_cc_exact(ch, q, qin, n, M, rho))
        assert got == pytest.approx(expected, rel=1e-12)


def test_rcux_cc_exact_single_codeword_is_zero():
    ch, q, qin = BSC
    assert math.exp(type_enum.log_rcux_cc_exact(ch, q, qin, 4, 1.0, 1.0)) == 0.0


def test_rcux_small_rho_warns():
    ch, q, qin = BSC
    with pytest.warns(UserWarning, match="not an achievability bound"):
        type_enum.log_rcux_cc_exact(ch, q, qin, 2, 2.0, 0.5)


def test_off_lattice_sums_refuse_before_the_first_tail(monkeypatch):
    # fig1-ml is off the lattice: each tail enumerates all 3^n output words
    ch, q, qin = presets.fig1_ml()
    assert not type_enum.PairwiseTailCalculator(ch, q).lattice
    n = 4
    comp = largest_remainder(qin.q_vec, n)
    cc_types = sum(1 for _ in type_enum.enumerate_joint_types_with_marginals(comp, comp))
    tails = []
    log_tail = type_enum.PairwiseTailCalculator.log_tail

    def counting_log_tail(self, *args, **kwargs):
        tails.append(1)
        return log_tail(self, *args, **kwargs)

    monkeypatch.setattr(type_enum.PairwiseTailCalculator, "log_tail", counting_log_tail)
    for fn, types in ((type_enum.log_rcux_iid_exact, type_enum.count_joint_types(n, 3)),
                      (type_enum.log_rcux_cc_exact, cc_types)):
        budget = types * 3 ** n
        assert math.isfinite(fn(ch, q, qin, n, 4.0, 1.0, enum_budget=budget))
        tails.clear()
        with pytest.raises(BudgetError, match="enumeration budget"):
            fn(ch, q, qin, n, 4.0, 1.0, enum_budget=budget - 1)
        assert not tails


def test_lattice_budget_refuses_before_convolving():
    # log ratios 1, 1.0001 and 2 fit a lattice of span 1e-4: cell pmfs 10,001 points wide
    ch = ChannelModel(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
    q = DecodingMetric(np.array([[1.0, 1.0, 1.0], [math.e, math.exp(1.0001), math.exp(2.0)]]))
    qin = QIN2
    calc = type_enum.PairwiseTailCalculator(ch, q)
    assert calc.span == pytest.approx(1e-4, rel=1e-6)
    # 8 x 10,001 points fit the budget and give the value computed before it existed
    assert type_enum.log_rcux_iid_exact(ch, q, qin, 8, 4.0, 1.0) == pytest.approx(
        1.7013432699405906, rel=1e-12)
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match="lattice"):
        type_enum.log_rcux_iid_exact(ch, q, qin, 200, 4.0, 1.0)
    with pytest.raises(BudgetError, match="lattice"):
        calc.log_tail(np.array([[0, 100], [100, 0]]))
    assert time.perf_counter() - t0 < 1.0


@st.composite
def lattice_tail_cases(draw):
    """A lattice instance (metric entries 0 or powers of 2) and a joint type on it.

    Four draws in five take a fixed instance: the forced-error one, a noiseless
    channel, the BSC or fig1-mismatched (inert diagonal classes, four classes).
    """
    fixed = draw(st.sampled_from([FORCED, NOISELESS, BSC, FIG1_MM, None]))
    if fixed is not None:
        ch, q, _ = fixed
    else:
        k, ny = draw(st.integers(2, 3)), draw(st.integers(2, 4))
        w = np.array([[draw(st.integers(0, 4)) for _ in range(ny)] for _ in range(k)], float)
        w[:, 0] += w.sum(axis=1) == 0                  # no empty row
        qm = np.array([[draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 8.0]))
                        for _ in range(ny)] for _ in range(k)])
        qm[:, -1] += qm.sum(axis=1) == 0
        ch, q = ChannelModel(w / w.sum(axis=1, keepdims=True)), DecodingMetric(qm)
    k = ch.input_size
    counts = np.array([[draw(st.integers(0, 7)) for _ in range(k)] for _ in range(k)])
    return ch, q, counts


@settings(deadline=None, max_examples=150)
@given(lattice_tail_cases())
def test_class_merged_tail_matches_per_cell_chain(case):
    # the per-cell chain convolves every cell's own power, the last one too
    ch, q, counts = case
    calc = type_enum.PairwiseTailCalculator(ch, q)
    assert calc.lattice
    parts = [(cell, int(counts[a, b])) for (a, b), cell in calc.cells.items() if counts[a, b]]
    chain = type_enum._tail_of_parts(parts)
    got = calc.log_tail(counts)
    if chain == -math.inf:
        assert got == -math.inf
    else:
        assert abs(got - chain) <= 1e-12 * max(1.0, abs(chain))


def test_power_cache_stays_within_its_budget(monkeypatch):
    ch, q, qin = FIG1_MM
    rng = np.random.default_rng(3)
    types = rng.integers(0, 30, size=(40, 3, 3))
    reference = [type_enum.PairwiseTailCalculator(ch, q).log_tail(t) for t in types]
    for budget in (0, 700, type_enum.POWER_CACHE_BUDGET):
        monkeypatch.setattr(type_enum, "POWER_CACHE_BUDGET", budget)
        calc = type_enum.PairwiseTailCalculator(ch, q)
        for t, want in zip(types, reference):
            assert calc.log_tail(t) == want          # cached or not, the same arithmetic
            held = sum(len(arr) + len(surv) for arr, _, surv in calc._powers.values())
            assert held == calc._cached_points <= budget
    assert calc._powers                          # the full budget caches


def test_iid_fast_path_matches_general_enumeration():
    ch, q, qin = BSC
    for n, rho in ((6, 1.0), (9, 2.0)):
        fast = type_enum.log_rcux_iid_exact(ch, q, qin, n, 4.0, rho)
        # force the general joint-type path by disabling the class collapse
        general = _general_iid_log(ch, q, qin, n, 4.0, rho)
        assert fast == pytest.approx(general, abs=1e-10)


def _general_iid_log(ch, q, qin, n, M, rho):
    from scipy.special import gammaln, logsumexp
    calc = type_enum.PairwiseTailCalculator(ch, q)
    qv = qin.q_vec
    lqq = np.log(qv)[:, None] + np.log(qv)[None, :]
    contribs = []
    for jt in type_enum.enumerate_joint_types(n, ch.input_size):
        log_prob = (gammaln(n + 1) - gammaln(jt.counts + 1).sum()
                    + float((jt.counts * lqq).sum()))
        contribs.append(log_prob + calc.log_tail(jt.counts) / rho)
    return rho * (math.log(4 * (M - 1)) + float(logsumexp(np.array(contribs))))


def test_cc_exponential_tightness_trend():
    ch, q, qin = BSC
    rate = 0.05
    eex = primal.eex_cc_primal(ch, q, qin, rate).value
    resid = []
    for n in (20, 40, 80):
        M = math.exp(n * rate)
        log_val, _ = _min_over_rho(ch, q, qin, n, M)
        resid.append(abs(-log_val / n - eex))
    assert resid[2] < resid[0]


def _min_over_rho(ch, q, qin, n, M):
    from expurg._search import golden_max
    rho, neg = golden_max(
        lambda r: -type_enum.log_rcux_cc_exact(ch, q, qin, n, M, r), 1.0, 60.0, xtol=1e-6)
    return -neg, rho


def test_enumerator_exponents_cc_matches_primal():
    ch, q, qin = BSC
    rate = 0.05
    res = type_enum.enumerator_exponents(ch, q, qin, rate, "cc")
    ref = primal.eex_cc_primal(ch, q, qin, rate).value
    assert res.e2 == pytest.approx(ref, abs=1e-6)
    assert res.e1 >= res.e2 - 1e-6
    assert res.active == "e2"
    assert res.reported == pytest.approx(res.e2, abs=1e-12)


def test_enumerator_exponents_iid_matches_outer_average_dual():
    ch, q, qin = FIG1_MM
    rate = 0.1 * math.log(2)
    res = type_enum.enumerator_exponents(ch, q, qin, rate, "iid")
    aux = AuxiliaryCostSet.empty(3)

    def e0(rho):
        _, v = dual._sup_s(lambda s: dual.ex_cost_star(ch, q, qin, aux, rho, s, []))
        return v

    ref = dual.eex_generic(e0, rate)
    assert res.e2 == pytest.approx(ref.value, abs=1e-4)


def test_enumerator_exponents_high_rate_clamps():
    ch, q, qin = BSC
    res = type_enum.enumerator_exponents(ch, q, qin, 1.5, "cc")
    assert res.e2 == 0.0
    assert res.active == "zero"


def test_theta_cost_values():
    ch, q, qin = BSC
    zeros = np.zeros(2)
    assert np.allclose(type_enum.theta_cost(ch, q, qin, zeros, 0.0, 0.0, 0.5), 0.0, atol=1e-12)
    th = type_enum.theta_cost(ch, q, qin, zeros, 0.7, 1.0, 0.5)
    assert np.allclose(th, math.log(0.8), atol=1e-12)     # rbar drops out when a = 0
    a = np.array([1.0, -1.0])
    th0 = type_enum.theta_cost(ch, q, qin, a, 0.0, 1.0, 0.5)
    assert np.allclose(th0, math.log(0.8), atol=1e-12)


def test_rdx_degenerate_levels():
    ch, q, qin = BSC
    zeros = np.zeros(2)
    word = np.array([0, 1, 0, 1])
    # at or above the mean distance the lower tail has probability ~1
    mean_d = 0.5 * 0.5108256237659907
    assert type_enum.rdx(ch, q, qin, zeros, 0.5, mean_d + 0.01, word) == pytest.approx(0.0, abs=1e-9)
    assert type_enum.rdx(ch, q, qin, zeros, 0.5, -0.1, word) == math.inf


def test_rdx_restricted_t_is_dominated():
    ch, q, qin = BSC
    zeros = np.zeros(2)
    word = np.array([0, 1, 0, 1])
    level = 0.1
    full = type_enum.rdx(ch, q, qin, zeros, 0.5, level, word)
    # sub-optimal fixed t from the substitution t = 1/rho at rho = 2
    t = 0.5
    th = type_enum.theta_cost(ch, q, qin, zeros, 0.0, t, 0.5)
    restricted = -t * level - float(np.array([0.5, 0.5]) @ th)
    assert restricted <= full + 1e-9


def test_distance_enum_exponent_matches_primal_piecewise():
    ch, q, qin = BSC
    rate = 0.05
    s = 0.5
    word = np.array([0, 1] * 10)
    val = type_enum.distance_enum_exponent(ch, q, qin, np.zeros(2), s, rate, word)
    d = np.array([[0.0, 0.5108256237659907], [0.5108256237659907, 0.0]])
    base = primal.entropic_pair_min(d, qin, 1.0)
    if rate >= base.mutual_info:
        ref = base.objective - rate
    else:
        sol = primal._solve_mi_equals(d, qin, rate, 1.0, 1e6)
        ref = sol.expected_distortion + sol.mutual_info - rate
    assert val == pytest.approx(ref, abs=1e-3)
