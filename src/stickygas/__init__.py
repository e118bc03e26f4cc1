"""Semi-analytic solver for 1D pressureless self-gravitating gas dynamics
with momentum relaxation, its drift limit, and an independent sticky-particle
verification oracle."""

from .measure import AtomicMeasure, ClusterState, InitialData
from .potentials import MinimizerResult, PotentialCoefficients, minimize_F, minimize_Fbar
from .euler_poisson import (
    Branch,
    FormulaSolution,
    SolutionSample,
    cluster_snapshot,
    eval_E,
    eval_m,
    eval_nu_theta_omega,
    eval_q,
    eval_u,
    sample,
)
from .drift import eval_mbar, eval_qbar, eval_ubar
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
    check_oleinik_states,
    check_potential_identities,
    check_weak_form,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "InitialData",
    "PotentialCoefficients",
    "MinimizerResult",
    "minimize_F",
    "minimize_Fbar",
    "Branch",
    "FormulaSolution",
    "SolutionSample",
    "sample",
    "eval_m",
    "eval_q",
    "eval_u",
    "eval_E",
    "eval_nu_theta_omega",
    "cluster_snapshot",
    "eval_mbar",
    "eval_qbar",
    "eval_ubar",
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
    "check_oleinik_states",
    "check_initial_continuity",
    "check_potential_identities",
]
