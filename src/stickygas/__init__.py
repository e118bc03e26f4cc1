"""Semi-analytic solver for 1D pressureless self-gravitating gas dynamics
with momentum relaxation, its drift limit, and an independent sticky-particle
verification oracle."""

from .measure import AtomicMeasure, ClusterState, InitialData
from .potentials import (
    MinimizerResult,
    PotentialCoefficients,
    eval_F,
    eval_Fbar,
    eval_G,
    eval_H,
    initial_speed_c,
    minimize_F,
    minimize_Fbar,
)
from .euler_poisson import (
    Branch,
    SolutionSample,
    ShockCurve,
    cluster_snapshot,
    eval_E,
    eval_m,
    eval_nu_theta_omega,
    eval_q,
    eval_u,
    forward_position,
    sample,
    trace_shock,
)
from .drift import DriftSample, eval_mbar, eval_qbar, eval_ubar, sample_drift
from .oracle import (
    Trajectory,
    oracle_cdf,
    simulate_drift,
    simulate_ep,
)
from .relax import RelaxationReport, convergence_study, eval_scaled
from .validate import (
    ResidualReport,
    check_initial_continuity,
    check_oleinik,
    check_potential_identities,
    check_weak_form,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "InitialData",
    "PotentialCoefficients",
    "MinimizerResult",
    "eval_F",
    "eval_Fbar",
    "eval_G",
    "eval_H",
    "initial_speed_c",
    "minimize_F",
    "minimize_Fbar",
    "Branch",
    "SolutionSample",
    "ShockCurve",
    "sample",
    "eval_m",
    "eval_q",
    "eval_u",
    "eval_E",
    "eval_nu_theta_omega",
    "forward_position",
    "cluster_snapshot",
    "trace_shock",
    "DriftSample",
    "eval_mbar",
    "eval_qbar",
    "eval_ubar",
    "sample_drift",
    "ClusterState",
    "Trajectory",
    "simulate_ep",
    "simulate_drift",
    "oracle_cdf",
    "RelaxationReport",
    "eval_scaled",
    "convergence_study",
    "ResidualReport",
    "check_weak_form",
    "check_oleinik",
    "check_initial_continuity",
    "check_potential_identities",
]
