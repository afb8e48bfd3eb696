"""Entropic-transport primal exponents against independent oracles."""

import math

import numpy as np
import pytest

from expurg import dual, presets, primal
from expurg.errors import InfeasibleError
from expurg.model import ChannelModel, DecodingMetric, InputDistribution, distance_matrix, tilted_pair

BSC = presets.bsc_ml(0.1)
FIG1_MM = presets.fig1_mismatched()

D_BSC = 0.5108256237659907
R_S_BSC = 0.03158394240196325          # mutual information of the unit-weight coupling
D_RATE_BSC_005 = 0.1753248043505277    # dense-grid oracle over symmetric couplings


def test_entropic_zero_distance_gives_product():
    qin = InputDistribution.uniform(3)
    sol = primal.entropic_pair_min(np.zeros((3, 3)), qin, 1.0)
    assert np.allclose(sol.pair.p, np.full((3, 3), 1 / 9), atol=1e-12)
    assert sol.mutual_info == pytest.approx(0.0, abs=1e-12)
    assert sol.expected_distortion == pytest.approx(0.0, abs=1e-12)
    assert sol.converged


def test_entropic_bsc_matches_tilted_pair():
    ch, q, qin = BSC
    d = distance_matrix(ch, q, 0.5)
    sol = primal.entropic_pair_min(d, qin, 1.0)
    assert np.allclose(sol.pair.p, tilted_pair(ch, q, qin, 1.0, 0.5).p_star, atol=1e-10)
    assert sol.mutual_info == pytest.approx(R_S_BSC, abs=1e-9)
    assert sol.expected_distortion == pytest.approx(0.375 * D_BSC, abs=1e-9)


def test_entropic_marginals_pinned_and_certified():
    ch, q, qin = FIG1_MM
    d = distance_matrix(ch, q, 0.7)
    sol = primal.entropic_pair_min(d, qin, 0.5)
    assert np.max(np.abs(sol.pair.row_marginal - qin.q_vec)) < 1e-8
    assert np.max(np.abs(sol.pair.col_marginal - qin.q_vec)) < 1e-8
    assert abs(sol.objective - sol.dual_value) <= 1e-8 * (1 + abs(sol.objective))


def test_entropic_large_weight_returns_product():
    ch, q, qin = BSC
    d = distance_matrix(ch, q, 0.5)
    sol = primal.entropic_pair_min(d, qin, 1e9)
    assert np.allclose(sol.pair.p, 0.25, atol=1e-9)
    assert sol.mutual_info < 1e-12


def test_entropic_merit_trace_descends():
    ch, q, qin = FIG1_MM
    d = distance_matrix(ch, q, 1.3)
    sol = primal.entropic_pair_min(d, qin, 0.3)
    diffs = np.diff(sol.merit_trace)
    assert (diffs <= 1e-12 * (1 + np.abs(sol.merit_trace[:-1]))).all()


def test_entropic_infeasible_kernel():
    qin = InputDistribution.uniform(2)
    d = np.array([[math.inf, math.inf], [0.0, 0.0]])
    with pytest.raises(InfeasibleError):
        primal.entropic_pair_min(d, qin, 1.0)


def test_potentials_reproduce_primal_value_in_dual_objective():
    ch, q, qin = FIG1_MM
    s, rho = 0.8, 1.0
    d = distance_matrix(ch, q, s)
    sol = primal.entropic_pair_min(d, qin, rho)
    a = sol.tilt_vector(rho, qin)
    assert dual.ex_cc_objective(ch, q, qin, rho, s, a) == pytest.approx(sol.objective, abs=1e-6)


def test_d_s_rate_slack_constraint_reaches_zero_distortion():
    ch, q, qin = BSC
    assert primal.d_s_rate(ch, q, qin, 0.5, math.log(2)) == pytest.approx(0.0, abs=1e-4)


def test_d_s_rate_zero_rate_forces_independence():
    ch, q, qin = BSC
    assert primal.d_s_rate(ch, q, qin, 0.5, 0.0) == pytest.approx(0.5 * D_BSC, abs=1e-9)


def test_d_s_rate_bsc_against_symmetric_coupling_oracle():
    ch, q, qin = BSC
    assert primal.d_s_rate(ch, q, qin, 0.5, 0.05) == pytest.approx(D_RATE_BSC_005, abs=2e-5)


def test_d_s_rate_monotone_convex_in_rate():
    ch, q, qin = BSC
    rates = np.linspace(0.005, 0.12, 8)
    vals = [primal.d_s_rate(ch, q, qin, 0.5, r) for r in rates]
    d1 = np.diff(vals)
    assert (d1 <= 1e-8).all()
    assert (np.diff(d1) >= -1e-5).all()


def test_r_s_bsc():
    ch, q, qin = BSC
    assert primal.r_s(ch, q, qin, 0.5) == pytest.approx(R_S_BSC, abs=1e-9)
    assert primal.r_s(ch, q, qin, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_r_s_positive_on_mismatched_instance():
    ch, q, qin = FIG1_MM
    assert primal.r_s(ch, q, qin, 0.5) > 1e-4


def test_eex_cc_primal_low_rate_hits_rate_zero():
    ch, q, qin = BSC
    res = primal.eex_cc_primal(ch, q, qin, 1e-6)
    assert res.value == pytest.approx(0.25541281188299525, abs=1e-3)
    assert res.branch == "constrained"


def test_eex_cc_primal_linear_branch_has_unit_slope():
    ch, q, qin = BSC
    r0 = 0.2            # far above the kink R_s ~ 0.0316
    res0 = primal.eex_cc_primal(ch, q, qin, r0)
    res1 = primal.eex_cc_primal(ch, q, qin, r0 + 1e-3)
    assert res0.branch == "linear"
    slope = (res1.raw - res0.raw) / 1e-3
    assert slope == pytest.approx(-1.0, abs=1e-4)


def test_eex_cc_primal_coupling_marginals():
    ch, q, qin = FIG1_MM
    res = primal.eex_cc_primal(ch, q, qin, 0.05)
    assert np.max(np.abs(res.coupling.row_marginal - qin.q_vec)) < 1e-8
    assert np.max(np.abs(res.coupling.col_marginal - qin.q_vec)) < 1e-8


def test_duality_gap_bsc():
    ch, q, qin = BSC
    rep = primal.duality_gap(ch, q, qin, 0.05)
    assert rep.gap < 1e-4


def test_duality_gap_degenerate_region():
    ch, q, qin = BSC
    rep = primal.duality_gap(ch, q, qin, 1.5)
    assert rep.primal_value == 0.0 and rep.dual_value == 0.0 and rep.gap == 0.0


def test_eex_cc_beats_eex_iid_mismatched():
    ch, q, qin = FIG1_MM
    rate = 0.1 * math.log(2)
    cc = primal.eex_cc_primal(ch, q, qin, rate)
    iid = dual.eex_iid(ch, q, qin, rate)
    assert cc.value > iid.value + 1e-3


def test_primal_iid_matches_dual_eex_iid():
    ch, q, qin = FIG1_MM
    rate = 0.1 * math.log(2)
    v = primal.primal_iid(ch, q, qin, rate, constrain_px=False)
    assert v == pytest.approx(dual.eex_iid(ch, q, qin, rate).raw, abs=1e-4)


def test_primal_iid_feasible_set_nesting():
    ch, q, qin = FIG1_MM
    for rate in (0.03, 0.1, 0.25):
        lo = primal.primal_iid(ch, q, qin, rate, constrain_px=False)
        mid = primal.primal_iid(ch, q, qin, rate, constrain_px=True)
        hi = primal.eex_cc_primal(ch, q, qin, rate).raw
        assert lo <= mid + 1e-6
        assert mid <= hi + 1e-6


def test_primal_iid_large_rate_goes_negative():
    ch, q, qin = BSC
    assert primal.primal_iid(ch, q, qin, 3.0, constrain_px=False) < 0.0


# Channel whose inputs 0 and 2 overlap only on an output of mass 1e-261, so
# d_s(0, 2) is about 600 nats for every s > 0: at rho = 1 the scaling kernel's
# log span exceeds 500 and both routes solve in the log domain.
_EPS = 1e-261
LOG_DOMAIN_CH = ChannelModel(np.array([[0.6, 0.4 - _EPS, 0.0, _EPS],
                                       [0.3, 0.3, 0.4, 0.0],
                                       [0.0, 0.0, 1.0 - _EPS, _EPS]]))


def test_log_domain_routes_agree_and_certify():
    ch = LOG_DOMAIN_CH
    q = DecodingMetric.ml(ch)
    qin = InputDistribution(np.array([0.25, 0.35, 0.4]))
    rho = 1.0
    res = dual.ex_cc_dual(ch, q, qin, rho)
    assert res.converged
    s = res.argmax.s
    d = distance_matrix(ch, q, s)
    assert np.ptp(d[np.isfinite(d)]) / rho >= 500.0
    sol = primal.entropic_pair_min(d, qin, rho)
    assert sol.converged
    assert np.max(np.abs(sol.pair.row_marginal - qin.q_vec)) < 1e-8
    assert np.max(np.abs(sol.pair.col_marginal - qin.q_vec)) < 1e-8
    assert abs(sol.objective - sol.dual_value) <= 1e-8 * (1 + abs(sol.objective))
    a = sol.tilt_vector(rho, qin)
    assert dual.ex_cc_objective(ch, q, qin, rho, s, a) == pytest.approx(sol.objective, abs=1e-8)
    assert dual.ex_cc_objective(ch, q, qin, rho, s, res.argmax.a_vec) == \
        pytest.approx(res.value, abs=1e-8)
    assert res.value == pytest.approx(sol.objective, abs=1e-8)


def test_log_domain_primal_marginals_pinned():
    qin = InputDistribution(np.array([0.2, 0.5, 0.3]))
    d = np.array([[0.0, 1.0, 620.0], [0.7, 0.0, 2.0], [640.0, 1.5, 0.0]])
    sol = primal.entropic_pair_min(d, qin, 1.0)
    assert sol.converged
    assert np.max(np.abs(sol.pair.row_marginal - qin.q_vec)) < 1e-8
    assert np.max(np.abs(sol.pair.col_marginal - qin.q_vec)) < 1e-8
    assert abs(sol.objective - sol.dual_value) <= 1e-8 * (1 + abs(sol.objective))
    diffs = np.diff(sol.merit_trace)
    assert (diffs <= 1e-12 * (1 + np.abs(sol.merit_trace[:-1]))).all()
