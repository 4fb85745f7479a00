"""Preference-robust multistage expected-utility maximization on scenario trees.

The package solves maximin expected-utility problems where the utility
function is only partially known: it lives in an ambiguity set built either
from pairwise-comparison answers or from a Kantorovich ball around a nominal
utility, over the class of normalized nondecreasing concave
piecewise-linear functions.  Multistage problems on scenario trees are solved
holistically as a single LP; per-node worst cases, time-consistency checks,
and the investment-consumption experiment driver build on the same core.
"""

__version__ = "0.1.0"

from .lp import LEQ, EQ, GEQ, LinearProgram, LpSolution, LpStatus, dualize
from .tree import ScenarioTree, SeriesModel, SubtreeView, TreeNode, TreeSchemaError, generate_synthetic
from .utility import (
    ClosedFormUtility,
    PiecewiseLinearUtility,
    build_kantorovich_lp,
    kantorovich_exact,
    kantorovich_lp,
    kantorovich_lp_dual,
    kolmogorov,
    merge_grids,
    project,
    uniform_grid,
)
from .ambiguity import (
    DEFAULT_L,
    DEFAULT_LTILDE,
    DiscreteLottery,
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    StateDependentAmbiguity,
    build_state_dependent,
    elicit_pairwise,
    feasibility_check,
    preference_sign,
    regime_nominal,
)
from .worst_case import (
    WorstCaseResult,
    worst_case_finite,
    worst_case_kantorovich_dual,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)
from .multistage import (
    InfeasibleProblemError,
    MultistageProblem,
    NodeConstraint,
    Policy,
    RewardMap,
    TimeConsistencyEntry,
    TimeConsistencyReport,
    check_time_consistency,
    evaluate_policy_worst_case,
    solve_holistic,
    solve_nominal,
    subtree_problem,
)
from .counterexample import (
    CounterexampleReport,
    example_problem,
    example_tree,
    grid_subtree_solver,
    solve_counterexample,
)
from .experiment import (
    CSV_HEADER,
    MODELS,
    ExperimentConfig,
    ResultRow,
    ReturnModel,
    aggregate,
    build_investment_consumption,
    config_from_dict,
    config_to_dict,
    generate_tree,
    read_policy_table,
    rows_to_csv,
    run,
    run_one,
    solve_model,
    sweep,
)
