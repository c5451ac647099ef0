"""Ratio quadratic programming over {-1,0,1}: evaluators, oracles,
relaxations, rounding pipelines, instance generators and reductions."""

from .core import (
    Assignment,
    BudgetExceeded,
    DimensionMismatch,
    EntryArrays,
    FractionalAssignment,
    ParseError,
    QpIntermediateInstance,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    degrees,
    eval_normalized_qp_ratio,
    eval_qp_intermediate,
    eval_qp_ratio,
    eval_weighted,
    instance_from_bytes,
    instance_to_bytes,
    load_instance,
    save_instance,
    trivial_solution,
)
from .exact import (
    brute_force_normalized,
    brute_force_qp_ratio,
    brute_force_ratio_ug,
    brute_force_weighted_bipartite,
    grid_search_intermediate,
)
from .generators import (
    LevelGraphParams,
    PlantedParams,
    check_expr1,
    gen_apx_gadget,
    gen_bipartite_gap,
    gen_gap_sdp_certificate,
    gen_level_graph,
    gen_planted,
    gen_star,
    random_instance,
)
from .hardness import (
    BoolFn,
    KAndInstance,
    PartialLabeling,
    UgInstance,
    eval_ratio_ug,
    gen_kand,
    intermediate_to_qpratio,
    kand_to_qpratio,
    ug_to_intermediate,
)
from .rounding import solve_bipartite, solve_general
from .sdp import GramSolution, embed_assignment, sdp_feasibility, sdp_solve
from .spectral import (
    ConvergenceError,
    EigenResult,
    eig_relaxation_value,
    eigen_max,
    normalized_eig,
    psd_polylog_round,
    solve_high_opt,
    solve_psd,
    top_eigenvalue_bound,
    trevisan_round,
    weighted_eig_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
