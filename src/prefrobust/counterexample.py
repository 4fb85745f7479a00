"""Worked two-stage example where a shared utility set breaks time consistency.

Two assets, a binary tree with three decision nodes, and an ambiguity set
holding exactly two utilities: a kinked piecewise-linear one and a smooth
concave quadratic.  Because the adversary must commit to ONE utility per
stage (the set is state-independent), the stage-wide worst case can mix
outcomes across sibling nodes, and the optimal first-period plan stops
being optimal once a particular second-period state is reached.

``solve_counterexample`` reproduces every headline number of the example
twice over:

* by direct enumeration at the fixed plan that puts all weight on the
  first asset everywhere, and
* by grid maximin over the two free second-period weights, which never
  places the quadratic utility inside an LP -- expectations are evaluated
  directly on the grid.

The returned report knows the published values and can list mismatches,
which is what the command-line wrapper turns into an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .ambiguity import FiniteUtilitySet
from .multistage import (
    MultistageProblem,
    NodeConstraint,
    Policy,
    TimeConsistencyReport,
    check_time_consistency,
    evaluate_policy_worst_case,
)
from .tree import ScenarioTree, TreeNode
from .utility import ClosedFormUtility

__all__ = [
    "RETURNS",
    "CounterexampleReport",
    "example_problem",
    "example_tree",
    "fixed_plan",
    "grid_subtree_solver",
    "solve_counterexample",
    "utility_pair",
]


#: Per-node asset returns.  Node ids are breadth-first: 0 is the root,
#: 1 and 2 are the first-period states, 3/4 follow 1 and 5/6 follow 2.
#: Every branch has conditional probability one half.
RETURNS: Dict[int, Tuple[float, float]] = {
    1: (0.0, 0.0),
    2: (0.8, 0.2),
    3: (0.6, 0.2),
    4: (0.6, 0.8),
    5: (0.4, 0.6),
    6: (1.0, 0.6),
}

_PARENT = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}


def utility_pair() -> Tuple[ClosedFormUtility, ClosedFormUtility]:
    """The two admissible utilities: min{3y, y/2 + 1/2} and 2y - y^2."""
    kinked = ClosedFormUtility.min_affine([(3.0, 0.0), (0.5, 0.5)])
    smooth = ClosedFormUtility.quadratic()
    return kinked, smooth


def example_tree() -> ScenarioTree:
    nodes = [TreeNode(0, None, 0, 1.0, {"r1": 0.0, "r2": 0.0})]
    for i in range(1, 7):
        stage = 1 if i <= 2 else 2
        r1, r2 = RETURNS[i]
        nodes.append(TreeNode(i, _PARENT[i], stage, 0.5, {"r1": r1, "r2": r2}))
    return ScenarioTree(nodes)


def example_problem() -> MultistageProblem:
    """Portfolio weights on a simplex at each decision node, reward r'x."""
    tree = example_tree()
    bounds = {s: (np.zeros(2), np.ones(2)) for s in (0, 1, 2)}
    budget = [
        NodeConstraint(s, "=", 1.0, coef_self={0: 1.0, 1: 1.0}) for s in (0, 1, 2)
    ]
    rewards = {i: (np.array(RETURNS[i]), 0.0) for i in range(1, 7)}
    ambiguity = FiniteUtilitySet(utility_pair())
    grid = np.linspace(0.0, 1.0, 11)
    return MultistageProblem(tree, bounds, rewards, ambiguity, grid, budget)


def fixed_plan() -> Dict[int, np.ndarray]:
    """The plan analysed in closed form: everything on the first asset."""
    return {s: np.array([1.0, 0.0]) for s in (0, 1, 2)}


# ---------------------------------------------------------------------------
# grid maximin helpers


# the search holds several n x n float64 arrays, n = round(1/step) + 1: at
# this floor each is 32 MB, and at a tenth of it 3.2 GB
_MIN_STEP = 5e-4


def _check_step(step: float) -> None:
    """Refuse a step that is not a finite number in [_MIN_STEP, 1]."""
    if not _MIN_STEP <= step <= 1.0:
        raise ValueError(f"step must be a number in [{_MIN_STEP:g}, 1], got {step!r}")


def _grid(step: float) -> np.ndarray:
    n = int(round(1.0 / step)) + 1
    return np.linspace(0.0, 1.0, n)


def _node_curves(problem, node_id, a):
    """Expected utility of each member at node ``node_id`` as the weight on
    the first asset sweeps ``a`` (the second weight is 1 - a)."""
    tree = problem.tree
    kids = tree.children[node_id]
    probs = np.array([tree.nodes[i].prob for i in kids])
    rows = []
    for i in kids:
        coef = problem.rewards[i].coef
        rows.append(coef[0] * a + coef[1] * (1.0 - a) + problem.rewards[i].offset)
    outcomes = np.stack(rows)
    members = problem.ambiguity.for_node(node_id).members
    return np.stack([probs @ u(outcomes) for u in members])


def _crossing_max(F, D, grid):
    """Largest interpolated value of ``F`` where ``D`` changes sign along
    rows.  ``F`` is affine along rows here, so the interpolation is exact."""
    left, right = D[:, :-1], D[:, 1:]
    mask = left * right <= 0.0
    if not mask.any():
        return -np.inf, (np.nan, np.nan)
    denom = left - right
    t = np.where(denom != 0.0, left / np.where(denom == 0.0, 1.0, denom), 0.0)
    t = np.clip(t, 0.0, 1.0)
    vals = np.where(mask, F[:, :-1] + t * (F[:, 1:] - F[:, :-1]), -np.inf)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[i, j]), (float(grid[i]), float(grid[j] + t[i, j] * (grid[j + 1] - grid[j])))


def grid_subtree_solver(problem: MultistageProblem, step: float = 1e-3) -> Policy:
    """Maximin by grid search, one decision node at a time.

    Valid for the example's shape only: two assets on a simplex at every
    non-leaf node, no rows coupling different nodes, and a finite utility
    set per node -- which makes the nested objective separable across
    nodes.  This stands in for the LP solver inside the time-consistency
    check, since one member here is quadratic.
    """
    _check_step(step)
    tree = problem.tree
    pu = tree.unconditional_probs()
    a = _grid(step)
    decisions, per_node = {}, {}
    total = 0.0
    for s in tree.nonleaf_ids():
        worst = _node_curves(problem, s, a).min(axis=0)
        k = int(np.argmax(worst))
        decisions[s] = np.array([a[k], 1.0 - a[k]])
        total += pu[s] * float(worst[k])
    return Policy(decisions=decisions, value=float(total), per_node=per_node)


# ---------------------------------------------------------------------------
# the report


@dataclass
class CounterexampleReport:
    """Everything the worked example is supposed to reproduce.

    ``fixed`` holds enumeration results at the fixed plan, ``search`` the
    grid-maximin results, ``points`` the locations of the optima (weights
    on the first asset), and ``consistency`` the node-by-node comparison
    of the committed plan against a fresh solve of each subtree.
    """

    fixed: Dict[str, float]
    search: Dict[str, float]
    points: Dict[str, Tuple[float, ...]]
    gap: float
    consistency: TimeConsistencyReport
    step: float
    expected_fixed: Dict[str, float] = field(
        default_factory=lambda: dict(_EXPECTED_FIXED)
    )
    expected_search: Dict[str, float] = field(
        default_factory=lambda: dict(_EXPECTED_SEARCH)
    )
    expected_points: Dict[str, Tuple[float, ...]] = field(
        default_factory=lambda: dict(_EXPECTED_POINTS)
    )

    def mismatches(self, fixed_tol: float = 1e-9, search_tol: float = 2e-3):
        """Deviations from the published values, one line per offender."""
        out = []
        for key, want in self.expected_fixed.items():
            got = self.fixed[key]
            if abs(got - want) > fixed_tol:
                out.append(f"{key}: got {got!r}, want {want} (tol {fixed_tol:g})")
        for key, want in self.expected_search.items():
            got = self.search[key]
            if abs(got - want) > search_tol:
                out.append(f"{key}: got {got!r}, want {want} (tol {search_tol:g})")
        for key, want in self.expected_points.items():
            got = tuple(np.asarray(self.points[key], dtype=float).tolist())
            err = float(np.max(np.abs(np.subtract(got, want))))
            if err > search_tol:
                out.append(
                    f"argmax of {key}: got {got}, want {want} (tol {search_tol:g})"
                )
        worst = max(e.discrepancy for e in self.consistency.entries)
        if not worst > search_tol:
            out.append(
                "no node prefers a different plan on re-solve "
                f"(largest discrepancy {worst!r})"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.mismatches()


_EXPECTED_FIXED = {
    "f1_star": 0.45,
    "f2_star": 0.825,
    "f_star": 1.275,
    "fhat2_first": 0.8,
    "fhat2_second": 0.82,
    "fhat_star": 1.26,
    "nested": 1.26,
    "sequence_global": 1.275,
    "gap": 0.015,
}

_EXPECTED_SEARCH = {
    "v_linear": 0.825,
    "v_quad": 0.848,
    "v_int": 0.82,
    "v2_star": 0.825,
    "vhat2_first": 0.8,
    "vhat2_second": 0.84,
    "local_second": 0.84,
    "achieved_second": 0.82,
}

_EXPECTED_POINTS = {
    "v2_star": (1.0, 1.0),
    "v_quad": (1.0, 0.4),
    "v_int": (0.8, 1.0),
    "vhat2_first": (1.0,),
    "vhat2_second": (0.8,),
}


def solve_counterexample(step: float = 1e-3) -> CounterexampleReport:
    """Reproduce the example's numbers by enumeration and by grid maximin.

    The grid sweeps the weight put on the first asset at each of the two
    first-period states with the stated resolution; the first-period
    decision itself is settled by enumeration (holding everything on the
    first asset dominates, as the fixed-plan analysis shows).  ``step`` must
    be a finite number in [5e-4, 1].
    """
    _check_step(step)
    problem = example_problem()
    tree = problem.tree
    members = problem.ambiguity.for_node(0).members
    plan = fixed_plan()

    # -- enumeration at the fixed plan ------------------------------------
    def stage_outcomes(stage):
        vals, probs = [], []
        pu = tree.unconditional_probs()
        for i in tree.stage_ids(stage):
            coef = problem.rewards[i].coef
            x = plan[tree.nodes[i].parent]
            vals.append(float(coef @ x) + problem.rewards[i].offset)
            probs.append(pu[i])
        return np.array(vals), np.array(probs)

    def stage_worst(stage):
        vals, probs = stage_outcomes(stage)
        return min(float(probs @ u(vals)) for u in members)

    f1 = stage_worst(1)
    f2 = stage_worst(2)

    def node_worst(node_id):
        kids = tree.children[node_id]
        probs = np.array([tree.nodes[i].prob for i in kids])
        vals = np.array(
            [float(problem.rewards[i].coef @ plan[node_id]) for i in kids]
        )
        return min(float(probs @ u(vals)) for u in members)

    fhat2_first = node_worst(1)
    fhat2_second = node_worst(2)
    fhat = f1 + 0.5 * (fhat2_first + fhat2_second)

    nested = evaluate_policy_worst_case(problem, plan, mode="nested")
    sequence = evaluate_policy_worst_case(problem, plan, mode="sequence_global")

    fixed = {
        "f1_star": f1,
        "f2_star": f2,
        "f_star": f1 + f2,
        "fhat2_first": fhat2_first,
        "fhat2_second": fhat2_second,
        "fhat_star": fhat,
        "nested": nested,
        "sequence_global": sequence,
        "gap": sequence - nested,
    }

    # -- grid maximin over the two second-period weights ------------------
    a = _grid(step)
    kink_first, quad_first = _node_curves(problem, 1, a)
    kink_second, quad_second = _node_curves(problem, 2, a)

    # The stage-two expectation under one shared utility splits into the
    # two conditional pieces, so the surfaces over (a, b) are outer sums.
    LIN = 0.5 * (kink_first[:, None] + kink_second[None, :])
    QUAD = 0.5 * (quad_first[:, None] + quad_second[None, :])

    def surface_max(F):
        i, j = np.unravel_index(int(np.argmax(F)), F.shape)
        return float(F[i, j]), (float(a[i]), float(a[j]))

    v_linear, _ = surface_max(LIN)
    v_quad, p_quad = surface_max(QUAD)
    v2_star, p2 = surface_max(np.minimum(LIN, QUAD))

    D = LIN - QUAD
    v_row, p_row = _crossing_max(LIN, D, a)
    v_col, p_col = _crossing_max(LIN.T, D.T, a)
    if v_col > v_row:
        v_int, p_int = v_col, (p_col[1], p_col[0])
    else:
        v_int, p_int = v_row, p_row
    if not np.isfinite(v_int):
        raise RuntimeError("the two utility surfaces never cross on the grid")

    def local_max(curves):
        worst = curves.min(axis=0)
        k = int(np.argmax(worst))
        return float(worst[k]), float(a[k])

    vhat2_first, q_first = local_max(np.stack([kink_first, quad_first]))
    vhat2_second, q_second = local_max(np.stack([kink_second, quad_second]))

    search = {
        "v_linear": v_linear,
        "v_quad": v_quad,
        "v_int": v_int,
        "v2_star": v2_star,
        "vhat2_first": vhat2_first,
        "vhat2_second": vhat2_second,
    }
    points = {
        "v2_star": p2,
        "v_quad": p_quad,
        "v_int": p_int,
        "vhat2_first": (q_first,),
        "vhat2_second": (q_second,),
    }

    # -- does the committed plan survive a re-solve at each node? ---------
    policy = Policy(decisions=plan, value=nested, per_node={})
    consistency = check_time_consistency(
        problem, policy, subtree_solver=lambda sub: grid_subtree_solver(sub, step)
    )
    second = next(e for e in consistency.entries if e.node == 2)
    search["local_second"] = second.local_value
    search["achieved_second"] = second.achieved_value

    return CounterexampleReport(
        fixed=fixed,
        search=search,
        points=points,
        gap=sequence - nested,
        consistency=consistency,
        step=step,
    )
