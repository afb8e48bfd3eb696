"""Expurgated error exponents, finite-length RCUX bounds and refined prefactors
for discrete memoryless channels under arbitrary decoding metrics.

Module map:

* ``model`` -- channel/metric/distribution types and single-letter tilted
  quantities (pair distances, tilted output laws, information densities,
  singularity and worst-pair checks).
* ``dual`` -- Gallager-form exponents: product-ensemble, constant-composition
  with an optimized tilt, cost-shell variants, and the rate-zero limit.
* ``primal`` -- the same exponents through entropic-transport minimization,
  plus the distortion-rate machinery and the duality-gap certificate.
* ``type_enum`` -- exact finite-blocklength sums over joint types, exact
  pairwise tails, brute-force oracles and type-population exponents.
* ``finite`` -- computable bounds at finite n, Monte Carlo estimation, the
  expurgation simulator and the square-root-prefactor constants.
* ``cli`` -- the ``expurg`` command-line front end (also ``python -m expurg``);
  imported on demand, not by ``import expurg``.
"""

__version__ = "0.1.0"

from . import config, dual, ensembles, finite, model, presets, primal, type_enum
from .dual import (
    DualParams,
    ExponentResult,
    eex_cc_dual,
    eex_generic,
    eex_iid,
    ex_cc_dual,
    ex_cost,
    ex_cost_star,
    ex_iid,
    rate_zero_limit,
)
from .ensembles import EnsembleSpec
from .finite import (
    MCEstimate,
    PrefactorReport,
    SimulationReport,
    expurgate_simulate,
    mc_rcux,
    prefactor_constants,
)
from .model import (
    AuxiliaryCostSet,
    ChannelModel,
    DecodingMetric,
    InputDistribution,
    TiltedPairDistribution,
    ValidationReport,
    chernoff_distance,
    distance_matrix,
    info_density,
    nonsingularity_set,
    pi_gamma,
    tilted_conditional,
    tilted_pair,
    validate,
)
from .primal import (
    DualityGapReport,
    PairDistribution,
    PrimalSolution,
    d_s_rate,
    duality_gap,
    eex_cc_primal,
    entropic_pair_min,
    primal_iid,
    r_s,
)
from .type_enum import (
    EnumeratorExponent,
    JointType,
    brute_force_pairwise,
    dq_exact,
    enumerate_joint_types,
    enumerator_exponents,
    rdx,
    theta_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
