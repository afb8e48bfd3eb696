"""Dual-form exponent values against closed forms and hand evaluations."""

import math

import numpy as np
import pytest

from expurg import presets
from expurg.errors import Error, ZeroErrorRegimeError
from expurg.model import AuxiliaryCostSet, ChannelModel, DecodingMetric, InputDistribution
from expurg import dual

BSC = presets.bsc_ml(0.1)
FIG1_MM = presets.fig1_mismatched()

RATE_ZERO_BSC = 0.25541281188299525


def test_ex_iid_bsc_hand_value():
    assert dual.ex_iid(*BSC, rho=1.0, s=0.5) == pytest.approx(-math.log(0.8), abs=1e-12)


def test_ex_iid_vanishes_at_s_zero():
    for rho in (1.0, 2.0, 17.0):
        assert dual.ex_iid(*BSC, rho=rho, s=0.0) == 0.0


def test_ex_iid_large_rho_approaches_mean_distance():
    vals = [dual.ex_iid(*BSC, rho=r, s=0.5) for r in (10.0, 100.0, 1000.0)]
    assert vals == pytest.approx([0.2521513812390425, 0.25508663371527424, 0.2553801940310577],
                                 abs=1e-9)
    assert vals[0] < vals[1] < vals[2] < RATE_ZERO_BSC


def test_ex_iid_ml_s_symmetry():
    for rho in (1.0, 2.5):
        for s in (0.1, 0.3, 0.45):
            a = dual.ex_iid(*BSC, rho=rho, s=s)
            b = dual.ex_iid(*BSC, rho=rho, s=1.0 - s)
            assert a == pytest.approx(b, abs=1e-10)


def test_eex_iid_near_zero_rate_hits_rate_zero_limit():
    res = dual.eex_iid(*BSC, rate=1e-6)
    assert res.value == pytest.approx(RATE_ZERO_BSC, abs=1e-3)
    assert abs(res.argmax.s - 0.5) < 1e-3


def test_eex_iid_supercapacity_rate_clamps():
    res = dual.eex_iid(*BSC, rate=math.log(2))
    assert res.value == 0.0
    assert res.raw <= 0.0


def test_eex_iid_curve_shape_mismatched():
    rates = np.linspace(0.02, 0.6, 12) * math.log(2)
    vals = [dual.eex_iid(*FIG1_MM, rate=r).value for r in rates]
    diffs = np.diff(vals)
    assert (diffs <= 1e-9).all()                      # nonincreasing
    assert (np.diff(diffs) >= -1e-6).all()            # convex


def test_ex_cc_dual_bsc_symmetry_forces_zero_tilt():
    res = dual.ex_cc_dual(*BSC, rho=1.0)
    assert res.value == pytest.approx(-math.log(0.8), abs=1e-8)
    assert abs(res.argmax.s - 0.5) < 1e-3
    assert np.max(np.abs(res.argmax.a_vec)) < 1e-6
    assert res.converged


def test_ex_cc_objective_zero_tilt_dominates_ex_iid():
    ch, q, qin = FIG1_MM
    for rho in (1.0, 2.0):
        for s in (0.3, 0.7, 1.5):
            lhs = dual.ex_cc_objective(ch, q, qin, rho, s, np.zeros(3))
            assert lhs >= dual.ex_iid(ch, q, qin, rho, s) - 1e-12


def test_ex_cc_dual_strictly_improves_on_mismatched_instance():
    ch, q, qin = FIG1_MM
    res = dual.ex_cc_dual(ch, q, qin, rho=2.0)
    base = max(dual.ex_iid(ch, q, qin, 2.0, s) for s in np.linspace(0.0, 5.0, 301))
    assert res.value > base + 1e-4


def test_ex_cost_empty_set_reduces_to_ex_iid():
    ch, q, qin = BSC
    aux = AuxiliaryCostSet.empty(2)
    for rho, s in ((1.0, 0.5), (2.0, 0.3)):
        assert dual.ex_cost(ch, q, qin, aux, rho, s, [], []) == pytest.approx(
            dual.ex_iid(ch, q, qin, rho, s), abs=1e-12)


def test_ex_cost_opt_empty_set_is_the_product_sup_over_s():
    from scipy.optimize import minimize_scalar
    for (ch, q, qin), rho in ((BSC, 1.0), (BSC, 3.0), (FIG1_MM, 1.0), (FIG1_MM, 2.5)):
        res = dual.ex_cost_opt(ch, q, qin, AuxiliaryCostSet.empty(ch.input_size), rho)
        ref = minimize_scalar(lambda s: -dual.ex_iid(ch, q, qin, rho, s),
                              bounds=(0.0, dual.S_HI), method="bounded",
                              options={"xatol": 1e-10})
        assert res.value == pytest.approx(-ref.fun, abs=1e-9)
        assert res.argmax.rho == rho
        assert dual.ex_iid(ch, q, qin, rho, res.argmax.s) == pytest.approx(res.value, abs=1e-12)
    # ML on the BSC: the Bhattacharyya point s = 1/2 is the sup
    z = 2.0 * math.sqrt(0.1 * 0.9)
    res = dual.ex_cost_opt(*BSC, AuxiliaryCostSet.empty(2), 2.0)
    assert res.value == pytest.approx(-2.0 * math.log(0.5 + 0.5 * z ** 0.5), abs=1e-12)


def test_ex_cost_zero_weights_reduce_to_ex_iid():
    ch, q, qin = FIG1_MM
    aux = AuxiliaryCostSet.from_q([[1.0, -2.0, 0.5], [0.0, 1.0, 3.0]], qin)
    v = dual.ex_cost(ch, q, qin, aux, 2.0, 0.8, [0.0, 0.0], [0.0, 0.0])
    assert v == pytest.approx(dual.ex_iid(ch, q, qin, 2.0, 0.8), abs=1e-12)


def test_ex_cost_jensen_companion_recovers_cc_objective():
    ch, q, qin = FIG1_MM
    rho, s = 2.0, 0.8
    a1 = np.array([0.4, -0.1, 0.2])
    a2 = dual.jensen_companion(ch, q, qin, a1, rho, s)
    aux = AuxiliaryCostSet.from_q([a1, a2], qin)
    # xbar side carries a1, x side carries the companion
    v = dual.ex_cost(ch, q, qin, aux, rho, s, r_vec=[0.0, 1.0], rbar_vec=[1.0, 0.0])
    assert v == pytest.approx(dual.ex_cc_objective(ch, q, qin, rho, s, a1), abs=1e-10)


def test_ex_cost_star_with_optimal_tilt_matches_cc_dual():
    ch, q, qin = FIG1_MM
    rho = 2.0
    res = dual.ex_cc_dual(ch, q, qin, rho)
    aux = AuxiliaryCostSet.from_q([res.argmax.a_vec], qin)
    v = dual.ex_cost_star(ch, q, qin, aux, rho, res.argmax.s, [1.0])
    assert v == pytest.approx(res.value, abs=1e-6)


def test_ex_cost_star_average_outside_dominates():
    ch, q, qin = FIG1_MM
    aux = AuxiliaryCostSet.empty(3)
    for rho, s in ((1.0, 0.5), (3.0, 1.2)):
        v = dual.ex_cost_star(ch, q, qin, aux, rho, s, [])
        assert v >= dual.ex_iid(ch, q, qin, rho, s) - 1e-12


def test_eex_generic_linear_objective_sits_at_rho_one():
    calls = []

    def e0(rho):
        calls.append(rho)
        return 0.01 * rho

    res = dual.eex_generic(e0, rate=0.5, rho_range=(1.0, 100.0))
    assert res.argmax.rho == 1.0
    assert res.raw == pytest.approx(0.01 - 0.5, abs=1e-6)
    assert len(calls) <= 15
    assert len(set(calls)) == len(calls)              # e0 is evaluated once per rho


def test_eex_cc_dual_boundary_rate_is_exact_at_rho_one():
    ch, q, qin = FIG1_MM
    rate = 0.264 * math.log(2)
    res = dual.eex_cc_dual(ch, q, qin, rate)
    assert res.argmax.rho == 1.0
    assert res.raw == dual.ex_cc_dual(ch, q, qin, 1.0).value - rate


def test_eex_generic_zero_rate_hits_boundary():
    res = dual.eex_generic(lambda rho: math.log1p(rho), rate=0.0, rho_range=(1.0, 100.0))
    assert res.boundary_flag


def test_eex_generic_interior_optimum_bsc():
    ch, q, qin = BSC

    def e0(rho):
        return dual.ex_iid(ch, q, qin, rho, 0.5)

    res = dual.eex_generic(e0, rate=0.02)
    assert not res.boundary_flag
    assert 0.0 < res.value < RATE_ZERO_BSC
    assert res.value > dual.eex_generic(e0, rate=0.05).value


def test_eex_generic_nonconcave_e0_falls_back_to_grid():
    rate = 0.05

    def e0(rho):        # rho * rate plus a log-normal bump at rho = 40: not concave
        return rho * rate + 3.0 * math.exp(-math.log(rho / 40.0) ** 2)

    with pytest.warns(UserWarning, match="concavity spot check failed"):
        res = dual.eex_generic(e0, rate)
    assert res.argmax.rho == pytest.approx(40.0, rel=1e-6)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert not res.boundary_flag

def test_rate_zero_limit_bsc_closed_form():
    res = dual.rate_zero_limit(*BSC)
    assert res.value == pytest.approx(RATE_ZERO_BSC, abs=1e-4)
    assert abs(res.argmax.s - 0.5) < 1e-3


def test_rate_zero_limit_rejects_noiseless_channel():
    ch = ChannelModel(np.eye(2))
    with pytest.raises(ZeroErrorRegimeError):
        dual.rate_zero_limit(ch, DecodingMetric.ml(ch), InputDistribution.uniform(2))


def test_rate_zero_limit_fig1_common_value():
    ch, qmm, qin = FIG1_MM
    _, qml, _ = presets.fig1_ml()
    vm = dual.rate_zero_limit(ch, qmm, qin).value
    vl = dual.rate_zero_limit(ch, qml, qin).value
    assert vm > 0 and vl > 0
    # mismatched decoding cannot beat ML at rate zero
    assert vm <= vl + 1e-9


def test_rate_validation():
    with pytest.raises(Error):
        dual.eex_iid(*BSC, rate=0.0)
    with pytest.raises(Error):
        dual.ex_iid(*BSC, rho=0.0, s=0.5)
