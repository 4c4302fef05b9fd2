"""Distributed optimization over directed graphs.

Push-sum consensus networks with column-stochastic mixing, the
gradient-push and Push-DIGing algorithms plus their warm-start hybrid,
and the fixed-point contraction machinery (certificates, convergence
envelopes, optimality-gap bounds) that predicts their behavior.
"""

from .algorithms import (
    GradientPushState,
    PushDigingState,
    RunRefs,
    RunTrace,
    gp_run,
    gp_step,
    gp_sweep,
    hybrid_run,
    init_gp_state,
    init_pd_state,
    pd_run,
    pd_step,
)
from .costs import (
    CostEnsemble,
    LocalCost,
    cost_ensemble,
    ensemble_from_dict,
    ensemble_minimizer,
    ensemble_to_dict,
    grad0_pi_norm,
    grad_stack,
    least_squares_cost,
    make_case1_ensemble,
    make_case2_ensemble,
    quadratic_cost,
    scale_ensemble,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    resolve_config,
    run_scenario,
    trace_to_csv,
    tune_pd_stepsize,
)
from .linalg import (
    pi_norm,
    spectral_norm,
    symmetric_extremes,
)
from .network import (
    DirectedGraph,
    MixingNetwork,
    build_mixing_matrix,
    compute_perron,
    compute_rho,
    generate_digraph,
    is_strongly_connected,
    make_digraph,
    network_from_dict,
    network_to_dict,
)
from .operators import (
    ContractionCertificate,
    FixedPoint,
    OperatorContext,
    certify,
    consensus_gap_bound,
    contraction_constant,
    convergence_envelope,
    estimate_consensus_constants,
    gradient_push_operator,
    legacy_stepsize_threshold,
    lipschitz_sweep,
    mix_stack,
    operator_lipschitz,
    optimality_gap_bound,
    perturbation_product,
    push_sum_perturbation,
    solve_fixed_point,
    solve_fixed_points,
    stepsize_ceiling,
)

__version__ = "0.1.0"
