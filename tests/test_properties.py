"""Property tests of the module invariants over randomized small instances."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from expurg import dual, finite, primal, type_enum
from expurg.ensembles import EnsembleSpec, largest_remainder
from expurg.model import (
    ChannelModel,
    DecodingMetric,
    InputDistribution,
    PairKernel,
    distance_matrix,
    info_density,
    nonsingularity_set,
    tilted_conditional,
    tilted_pair,
)

settings.register_profile("invariants", deadline=None, max_examples=60)
settings.load_profile("invariants")


@st.composite
def instances(draw, max_x=4, max_y=4, ml_only=False):
    nx = draw(st.integers(2, max_x))
    ny = draw(st.integers(2, max_y))
    cells = st.floats(0.05, 1.0, allow_nan=False)
    w = np.array([[draw(cells) for _ in range(ny)] for _ in range(nx)])
    w /= w.sum(axis=1, keepdims=True)
    ch = ChannelModel(w)
    if ml_only or draw(st.booleans()):
        q = DecodingMetric.ml(ch)
    else:
        qm = np.array([[draw(cells) for _ in range(ny)] for _ in range(nx)])
        q = DecodingMetric(qm)
    qv = np.array([draw(st.floats(0.1, 1.0)) for _ in range(nx)])
    qv /= qv.sum()
    return ch, q, InputDistribution(qv)


@given(instances(), st.floats(0.0, 4.0))
def test_distance_diagonal_zero_everywhere(inst, s):
    ch, q, qin = inst
    d = distance_matrix(ch, q, s)
    assert (np.diag(d) == 0.0).all()
    if s == 0.0:
        assert np.array_equal(d, np.zeros_like(d))


@given(instances(), st.floats(0.05, 3.0))
def test_tilted_conditional_normalization_and_reconstruction(inst, s):
    ch, q, qin = inst
    for x in range(ch.input_size):
        for xb in range(ch.input_size):
            v = tilted_conditional(ch, q, s, x, xb)
            assert abs(v.sum() - 1.0) <= 1e-12
            assert (v[ch.w[x] == 0] == 0.0).all()
            for y in np.flatnonzero(ch.w[x] > 0):
                j = info_density(ch, q, s, x, xb, y)
                assert v[y] * math.exp(-j) == pytest.approx(ch.w[x, y], abs=1e-12)


@given(instances(), st.floats(0.05, 2.0))
def test_info_density_variance_characterizes_nonsingular_pairs(inst, s):
    ch, q, qin = inst
    pairs, flag = nonsingularity_set(ch, q, qin)
    max_var = 0.0
    for x in range(ch.input_size):
        for xb in range(ch.input_size):
            if qin.q_vec[x] * qin.q_vec[xb] <= 0:
                continue
            v = tilted_conditional(ch, q, s, x, xb)
            ys = np.flatnonzero(v > 0)
            js = np.array([info_density(ch, q, s, x, xb, y) for y in ys])
            mean = float(v[ys] @ js)
            var = float(v[ys] @ (js - mean) ** 2)
            if (x, xb) in pairs:
                max_var = max(max_var, var)
            else:
                assert var <= 1e-18
    if flag:
        assert max_var > 1e-18


@given(instances())
def test_tilted_pair_product_cases(inst):
    ch, q, qin = inst
    qq = np.outer(qin.q_vec, qin.q_vec)
    assert np.array_equal(tilted_pair(ch, q, qin, 2.0, 0.0).p_star, qq)
    tp = tilted_pair(ch, q, qin, 1.0, 0.7).p_star
    assert abs(tp.sum() - 1.0) <= 1e-10
    assert (tp >= 0).all()


@given(instances(ml_only=True), st.floats(1.0, 10.0), st.floats(0.05, 0.95))
def test_ml_s_symmetry(inst, rho, s):
    ch, q, qin = inst
    a = dual.ex_iid(ch, q, qin, rho, s)
    b = dual.ex_iid(ch, q, qin, rho, 1.0 - s)
    assert a == pytest.approx(b, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(instances(ml_only=True))
def test_ml_optimal_s_is_half(inst):
    ch, q, qin = inst
    _, flag = nonsingularity_set(ch, q, qin)
    assume(flag)          # degenerate instances have a flat objective in s
    res = dual.ex_cc_dual(ch, q, qin, rho=1.5)
    assert abs(res.argmax.s - 0.5) < 1e-3


@given(instances(), st.floats(1.0, 30.0), st.floats(0.05, 2.0))
def test_power_mean_monotone_in_rho(inst, rho, s):
    ch, q, qin = inst
    lo = dual.ex_iid(ch, q, qin, rho, s)
    hi = dual.ex_iid(ch, q, qin, rho * 1.7, s)
    assert hi >= lo - 1e-10
    kern = PairKernel(ch, q)
    d = kern.distances(s)
    np.fill_diagonal(d, 0.0)
    qq = np.outer(qin.q_vec, qin.q_vec)
    limit = float((qq * d).sum())
    assert dual.ex_iid(ch, q, qin, 2e5, s) == pytest.approx(limit, abs=1e-4 * (1 + abs(limit)))


@settings(max_examples=25, deadline=None)
@given(instances(), st.floats(0.02, 0.4))
def test_ordering_cc_dominates_iid(inst, rate):
    ch, q, qin = inst
    cc = dual.eex_generic(lambda r: dual.ex_cc_dual(ch, q, qin, r).value, rate)
    iid = dual.eex_iid(ch, q, qin, rate)
    assert cc.value >= iid.value - 1e-6


@settings(max_examples=25, deadline=None)
@given(instances(max_x=3, max_y=3), st.floats(1.0, 5.0), st.floats(0.1, 2.0))
def test_jensen_companion_closes_the_gap(inst, rho, s):
    ch, q, qin = inst
    from expurg.model import AuxiliaryCostSet
    rng = np.random.default_rng(0)
    a1 = rng.normal(size=ch.input_size)
    a2 = dual.jensen_companion(ch, q, qin, a1, rho, s)
    aux = AuxiliaryCostSet.from_q([a1, a2], qin)
    v = dual.ex_cost(ch, q, qin, aux, rho, s, [0.0, 1.0], [1.0, 0.0])
    ref = dual.ex_cc_objective(ch, q, qin, rho, s, a1)
    assert v == pytest.approx(ref, abs=1e-8 * (1 + abs(ref)))


@given(instances(), st.floats(0.3, 5.0), st.floats(0.05, 2.0))
def test_entropic_solution_invariants(inst, rho, s):
    ch, q, qin = inst
    d = distance_matrix(ch, q, s)
    sol = primal.entropic_pair_min(d, qin, rho)
    assert sol.mutual_info >= 0.0
    assert np.max(np.abs(sol.pair.row_marginal - qin.q_vec)) < 1e-8
    assert np.max(np.abs(sol.pair.col_marginal - qin.q_vec)) < 1e-8
    diffs = np.diff(sol.merit_trace)
    assert (diffs <= 1e-10 * (1 + np.abs(sol.merit_trace[:-1]))).all()
    a = sol.tilt_vector(rho, qin)
    obj = dual.ex_cc_objective(ch, q, qin, rho, s, a)
    assert obj == pytest.approx(sol.objective, abs=1e-6 * (1 + abs(sol.objective)))


@settings(max_examples=25, deadline=None)
@given(instances(max_x=3, max_y=3), st.floats(0.1, 1.5))
def test_piecewise_slope_is_minus_one_past_the_kink(inst, s):
    ch, q, qin = inst
    rs = primal.r_s(ch, q, qin, s)
    assume(rs > 1e-6)
    rate = rs + 0.05
    h = 1e-4
    res0 = primal.eex_cc_primal(ch, q, qin, rate)
    res1 = primal.eex_cc_primal(ch, q, qin, rate + h)
    slope = (res1.raw - res0.raw) / h
    assert slope == pytest.approx(-1.0, abs=1e-4)


@settings(max_examples=20, deadline=None)
@given(instances(max_x=3, max_y=3), st.floats(0.03, 0.3))
def test_primal_feasible_set_nesting(inst, rate):
    ch, q, qin = inst
    lo = primal.primal_iid(ch, q, qin, rate, constrain_px=False)
    mid = primal.primal_iid(ch, q, qin, rate, constrain_px=True)
    hi = primal.eex_cc_primal(ch, q, qin, rate).raw
    assert lo <= mid + 1e-6
    assert mid <= hi + 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), instances(max_x=3, max_y=3))
def test_cc_type_probabilities_partition(n, inst):
    ch, q, qin = inst
    from scipy.special import gammaln
    comp = largest_remainder(qin.q_vec, n)
    log_t = gammaln(n + 1) - gammaln(comp + 1).sum()
    total = 0.0
    for jt in type_enum.enumerate_joint_types_with_marginals(comp, comp):
        total += math.exp(gammaln(comp + 1).sum() - gammaln(jt.counts + 1).sum() - log_t)
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.45), st.integers(2, 7), st.integers(0, 10_000))
def test_dq_paths_agree_on_random_bsc(p, n, seed):
    ch, q, qin = _bsc(p)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    xb = rng.integers(0, 2, size=n)
    a = type_enum.dq_exact(ch, q, x, xb, method="lattice")
    b = type_enum.dq_exact(ch, q, x, xb, method="enumerate")
    assert a == pytest.approx(b, abs=1e-12)


def _bsc(p):
    ch = ChannelModel.bsc(p)
    return ch, DecodingMetric.ml(ch), InputDistribution.uniform(2)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.05, 0.45), st.integers(4, 10), st.integers(0, 100))
def test_ordering_chain_exact_below_product(p, n, seed):
    ch, q, qin = _bsc(p)
    for rho in (1.0, 2.0):
        exact = type_enum.log_rcux_iid_exact(ch, q, qin, n, 4.0, rho)
        from expurg.dual import _sup_s, ex_iid
        _, v = _sup_s(lambda s: ex_iid(ch, q, qin, rho, s))
        product = rho * math.log(4 * 3.0) - n * v
        assert exact <= product + 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_mc_rcux_bitwise_reproducible(seed):
    ch, q, qin = _bsc(0.1)
    spec = EnsembleSpec("iid", qin)
    a = finite.mc_rcux(ch, q, spec, 8, 4.0, 1.5, samples=200, seed=seed)
    b = finite.mc_rcux(ch, q, spec, 8, 4.0, 1.5, samples=200, seed=seed)
    assert (a.value, a.ci_lo, a.ci_hi) == (b.value, b.ci_lo, b.ci_hi)


@settings(max_examples=25, deadline=None)
@given(instances(ml_only=True), st.floats(1.0, 3.0), st.floats(0.2, 1.5))
def test_prefactor_variance_positive_under_gates(inst, rho, s):
    ch, q, qin = inst
    pairs, flag = nonsingularity_set(ch, q, qin)
    assume(flag)
    rep = finite.prefactor_constants(ch, q, qin, rho, s)
    assert rep.c0 > 0
    if rep.lattice_span is not None:
        assert rep.psi_s >= 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.45), st.floats(0.2, 1.2))
def test_lattice_membership_on_bsc(p, s):
    ch, q, qin = _bsc(p)
    rep = finite.prefactor_constants(ch, q, qin, 1.0, s)
    assume(rep.lattice_span is not None)
    span = rep.lattice_span
    values = []
    for x, xb in ((0, 1), (1, 0)):
        v = tilted_conditional(ch, q, s, x, xb)
        for y in np.flatnonzero(v > 0):
            values.append(info_density(ch, q, s, x, xb, y))
    base = values[0]
    scale = max(abs(v) for v in values) + 1.0
    for v in values:
        k = round((v - base) / span)
        assert abs((v - base) - k * span) <= 1e-9 * scale
