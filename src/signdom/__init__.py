"""Exact solvers and sharp lower bounds for signed and nonnegative signed
k-subdomination numbers of simple graphs."""

from .bounds import (
    BOUND_NAMES,
    BoundReport,
    BoundValue,
    bound_ksub_1,
    bound_ksub_2,
    bound_nn_1,
    bound_nn_2,
    bound_nn_3,
    bound_nn_4,
    bound_nn_5,
    bound_prior_deltaceil,
    bound_prior_halfn,
    bound_prior_hua,
    bound_regular,
    bound_report,
    parity_lift,
)
from .graph import (
    DegreeProfile,
    Graph,
    GraphError,
    GraphParseError,
    GraphValidationError,
    degree_profile,
    gen_circulant,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_hajos,
    gen_path,
    gen_sun,
    is_connected,
    parse_dimacs,
    parse_edge_list,
    to_dimacs,
    to_edge_list,
)
from .reference import (
    ReferenceValue,
    exact_complete_nn,
    exact_cycle_nn,
    exact_cycle_signed,
    exact_hajos_nn,
    exact_path_signed,
    exact_sun_nn,
    reference_table,
)
from .solver import (
    BRUTE_FORCE_CAP,
    EvalResult,
    Mode,
    SearchStats,
    SignAssignment,
    SolveResult,
    bruteforce_optima,
    evaluate,
    greedy_upper,
    result_record,
    solve,
    solve_bnb,
    solve_bruteforce,
)
from .verify import (
    ALL_FAMILIES,
    CHECK_NAMES,
    CampaignReport,
    CheckResult,
    Counterexample,
    EnsembleSpec,
    build_ensemble,
    run_campaign,
)

__version__ = "0.1.0"
