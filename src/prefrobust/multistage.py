"""Multistage maximin expected utility on scenario trees.

A problem attaches to every non-leaf node a decision vector (box bounds plus
linear one-step rows tying it to the parent decision), to every non-root node
an affine reward of the parent decision, and to every non-leaf node an
ambiguity set of utilities.  The objective is the sum over non-leaf nodes of
the node probability times the worst-case conditional expected utility of the
children rewards; the solver maximizes it over all decisions at once.

With per-node (rectangular) ambiguity the inner minimizations dualize node by
node, so the whole maximin collapses to a single linear program: each node
contributes the dual of its one-stage worst-case LP, and the decision columns
enter exactly the dual rows that price the children rewards.  Worst-case
utilities are then read back from the row marginals of those blocks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    StateDependentAmbiguity,
    build_state_dependent,
    feasibility_check,
)
from .lp import LinearProgram, LpStatus, dualize, warm_session
from .utility import PiecewiseLinearUtility
from .worst_case import (
    OutcomeDistribution,
    node_primal,
    worst_case_finite,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)

# Used only by perfbench/layers.py, which wraps these module globals by name.
from .blocks import append_ball_membership, append_pairwise_rows  # noqa: F401
from .utility import project  # noqa: F401
from .worst_case import supporting_line_primal  # noqa: F401

_REWARD_TOL = 1e-7
# strong-duality gap allowed on a tree-wide LP, relative to 1 + |objective|
_GAP_TOL = 1e-7
# how far a plan handed to the evaluator may stray from its bounds and rows
_PLAN_TOL = 1e-7


class InfeasibleProblemError(RuntimeError):
    """Solve cannot proceed; ``node`` carries the offender when identifiable."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


@dataclass
class RewardMap:
    """Affine reward of the parent decision: h = coef . x(parent) + offset."""

    coef: np.ndarray
    offset: float = 0.0


@dataclass
class NodeConstraint:
    """One linear row ``coef_self . x(node) + coef_parent . x(parent) rel rhs``.

    Rows attached to a leaf may only use ``coef_parent``: they restrict the
    parent's decision (terminal bookkeeping lives there).
    """

    node: int
    rel: str
    rhs: float
    coef_self: dict = field(default_factory=dict)
    coef_parent: dict = field(default_factory=dict)


@dataclass
class NodeValue:
    stage: int
    value: float
    utility: object


@dataclass
class Policy:
    """Decisions per non-leaf node plus the per-node worst-case breakdown."""

    decisions: dict
    value: float
    per_node: dict

    def export_table(self):
        lines = ["node\tstage\tdecision\tvalue"]
        for s in sorted(self.per_node):
            nv = self.per_node[s]
            dec = ",".join(format(float(v), ".10g") for v in self.decisions.get(s, ()))
            lines.append(f"{s}\t{nv.stage}\t{dec}\t{nv.value:.10g}")
        return "\n".join(lines) + "\n"


class MultistageProblem:
    """Scenario tree + decisions + rewards + per-node utility ambiguity.

    ``decision_bounds`` maps every non-leaf id to ``(lb, ub)`` arrays,
    ``rewards`` maps every non-root id to a :class:`RewardMap` (or a
    ``(coef, offset)`` pair), ``ambiguity`` is a single spec shared by all
    nodes, a callable ``(tree, node_id) -> spec``, or a prebuilt
    :class:`StateDependentAmbiguity`.  ``grid`` is the utility grid; every
    reward must stay inside its span.  Unless ``check_rewards`` is off, every
    reward of every tree, whatever its size, is certified at build time by
    minimizing and maximizing it over the decision set: two LPs per reward,
    re-solved warm in one HiGHS session per build.
    """

    def __init__(self, tree, decision_bounds, rewards, ambiguity, grid,
                 constraints=(), check_rewards=True):
        self.tree = tree
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be a strictly increasing 1-d array")

        nonleaf = tree.nonleaf_ids()
        self.decision_bounds = {}
        for s in nonleaf:
            if s not in decision_bounds:
                raise ValueError(f"missing decision bounds for node {s}")
            lb = np.atleast_1d(np.asarray(decision_bounds[s][0], dtype=float))
            ub = np.atleast_1d(np.asarray(decision_bounds[s][1], dtype=float))
            if lb.shape != ub.shape or np.any(lb > ub):
                raise ValueError(f"bad decision bounds at node {s}")
            self.decision_bounds[s] = (lb, ub)
        stray = set(decision_bounds) - set(nonleaf)
        if stray:
            raise ValueError(f"decision bounds given for non-decision nodes {sorted(stray)}")

        self.rewards = {}
        for node in tree.nodes:
            if node.parent is None:
                continue
            if node.id not in rewards:
                raise ValueError(f"missing reward map for node {node.id}")
            rm = rewards[node.id]
            if not isinstance(rm, RewardMap):
                rm = RewardMap(np.asarray(rm[0], dtype=float), float(rm[1]))
            else:
                rm = RewardMap(np.asarray(rm.coef, dtype=float), float(rm.offset))
            dim = self.dim(node.parent)
            if rm.coef.shape != (dim,):
                raise ValueError(
                    f"reward coefficient at node {node.id} must have length {dim}")
            self.rewards[node.id] = rm

        self.constraints = [self._checked_constraint(c) for c in constraints]

        if isinstance(ambiguity, StateDependentAmbiguity):
            self.ambiguity = ambiguity
        else:
            self.ambiguity = build_state_dependent(tree, ambiguity)
        for s in nonleaf:
            self.ambiguity.for_node(s)  # fail fast, names the node

        if check_rewards:
            self._certify_rewards()

    def dim(self, node_id):
        return self.decision_bounds[node_id][0].size

    def _checked_constraint(self, con):
        if not 0 <= con.node < len(self.tree.nodes):
            raise ValueError(f"constraint references unknown node {con.node}")
        node = self.tree.nodes[con.node]
        cs = {int(k): float(v) for k, v in (con.coef_self or {}).items()}
        cp = {int(k): float(v) for k, v in (con.coef_parent or {}).items()}
        if not cs and not cp:
            raise ValueError(f"constraint at node {con.node} has no coefficients")
        if cs:
            if self.tree.is_leaf(con.node):
                raise ValueError(
                    f"constraint at leaf {con.node} cannot reference its own decision")
            if max(cs) >= self.dim(con.node) or min(cs) < 0:
                raise ValueError(f"constraint at node {con.node} indexes past x({con.node})")
        if cp:
            if node.parent is None:
                raise ValueError("root constraint cannot reference a parent decision")
            if max(cp) >= self.dim(node.parent) or min(cp) < 0:
                raise ValueError(
                    f"constraint at node {con.node} indexes past x({node.parent})")
        if con.rel not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {con.rel!r}")
        return NodeConstraint(con.node, con.rel, float(con.rhs), cs, cp)

    # ------------------------------------------------------------ decisions
    def add_decisions(self, lp, last_node=None):
        """Add the decision columns ``x[s][k]`` with their box bounds and the
        constraint rows to ``lp``; return the column indices per node.

        ``last_node`` keeps just the rows attached to nodes up to that id,
        which the infeasibility diagnosis uses to locate the first offender.
        """
        xvar = {}
        for s in self.tree.nonleaf_ids():
            lb, ub = self.decision_bounds[s]
            xvar[s] = np.array(
                [lp.add_var(f"x[{s}][{k}]", lb=lb[k], ub=ub[k]) for k in range(lb.size)],
                dtype=int,
            )
        for idx, con in enumerate(self.constraints):
            if last_node is not None and con.node > last_node:
                continue
            _add_constraint_row(lp, xvar, self.tree, con, idx)
        return xvar

    def _decision_lp(self, last_node=None):
        """Box bounds plus constraint rows only (zero objective)."""
        lp = LinearProgram("min", name="decisions")
        return lp, self.add_decisions(lp, last_node)

    def _raise_decision_infeasible(self):
        for cutoff in sorted({con.node for con in self.constraints}):
            lp, _ = self._decision_lp(last_node=cutoff)
            if lp.solve().status is LpStatus.INFEASIBLE:
                raise InfeasibleProblemError(
                    f"decision constraints become infeasible at node {cutoff}",
                    node=cutoff,
                )
        raise InfeasibleProblemError("decision constraints are infeasible")

    def _certify_rewards(self):
        lp, xvar = self._decision_lp()
        # Every extreme shares the decision polytope, so one warm HiGHS model
        # serves them all; without the binding each LP goes through linprog.
        session = warm_session(lp)
        a, b = float(self.grid[0]), float(self.grid[-1])
        for i in sorted(self.rewards):
            rm = self.rewards[i]
            cols = xvar[self.tree.nodes[i].parent]
            lo = self._reward_extreme(lp, cols, rm.coef, +1.0, i, session) + rm.offset
            hi = self._reward_extreme(lp, cols, rm.coef, -1.0, i, session) + rm.offset
            if lo < a - _REWARD_TOL or hi > b + _REWARD_TOL:
                raise ValueError(
                    f"reward at node {i} spans [{lo:.6g}, {hi:.6g}], outside the "
                    f"utility domain [{a:g}, {b:g}]")

    def _reward_extreme(self, lp, cols, coef, sign, node, session):
        for k in range(coef.size):
            lp.set_obj(int(cols[k]), sign * float(coef[k]))
        sol = lp.solve(backend=session)
        for k in range(coef.size):
            lp.set_obj(int(cols[k]), 0.0)
        if sol.status is LpStatus.INFEASIBLE:
            self._raise_decision_infeasible()
        if sol.status is LpStatus.UNBOUNDED:
            raise ValueError(
                f"reward at node {node} is unbounded over the decision set; "
                "add box bounds")
        if not sol.is_optimal:
            raise RuntimeError(f"reward range solve ended {sol.status.value}")
        return sign * sol.objective


def _add_constraint_row(lp, xvar, tree, con, idx):
    coefs = {}
    for k, v in con.coef_self.items():
        j = int(xvar[con.node][k])
        coefs[j] = coefs.get(j, 0.0) + v
    if con.coef_parent:
        par = tree.nodes[con.node].parent
        for k, v in con.coef_parent.items():
            j = int(xvar[par][k])
            coefs[j] = coefs.get(j, 0.0) + v
    lp.add_row(coefs, con.rel, con.rhs, name=f"con{idx}[{con.node}]")


# ---------------------------------------------------------------- holistic
@dataclass
class _NodeBlock:
    vmap: np.ndarray        # big-LP columns of this node's dual block
    alpha_rows: np.ndarray  # big-LP rows whose marginals carry p_s * alpha
    prob: float


def _copy_dual_block(big, dual, obj_scale, extra, prefix):
    """Append a dualized one-stage block to the big LP.

    Objective coefficients are scaled by the node probability.  ``extra`` is
    ``(rows, cols, values)``: each entry appends ``values`` on the big-LP
    column ``cols`` to the end of source row ``rows`` (source row index =
    inner primal variable index), which is how the decision variables enter
    the reward-pricing rows.  Entries of one row keep their order.
    """
    lower, upper, obj = dual.lower, dual.upper, dual.objective
    vmap = np.array(
        [
            big.add_var(f"{prefix}.{dual.var_name(j)}", lb=lower[j], ub=upper[j],
                        obj=obj_scale * obj[j])
            for j in range(dual.num_vars)
        ],
        dtype=int,
    )
    mat = dual.row_matrix()
    order = np.argsort(extra[0], kind="stable")
    rows, cols, vals = (np.asarray(a)[order] for a in extra)
    # np.insert keeps the given order among entries bound for one position
    at = mat.indptr[rows + 1]
    indices = np.insert(vmap[mat.indices], at, cols)
    values = np.insert(mat.data, at, vals)
    indptr = mat.indptr + np.searchsorted(rows, np.arange(dual.num_rows + 1))
    names = [f"{prefix}.{dual.row_name(k)}" for k in range(dual.num_rows)]
    rmap = big.add_rows(indptr, indices, values, dual.relations, dual.rhs, names)
    return vmap, rmap


def _utility_from_marginals(y, raw):
    """Row marginals carry solver noise; snap tiny violations, refuse big ones."""
    raw = np.asarray(raw, dtype=float)
    vals = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
    if np.max(np.abs(vals - raw)) > 1e-6:
        raise RuntimeError("worst-case utility marginals are too noisy to trust")
    vals[0], vals[-1] = 0.0, 1.0
    return PiecewiseLinearUtility(y, vals)


def _diagnose_and_raise(problem, message):
    lp, _ = problem._decision_lp()
    if lp.solve().status is LpStatus.INFEASIBLE:
        problem._raise_decision_infeasible()
    for s in problem.tree.nonleaf_ids():
        spec = problem.ambiguity.for_node(s)
        if isinstance(spec, FiniteUtilitySet):
            continue
        if feasibility_check(spec, problem.grid) == "empty":
            raise InfeasibleProblemError(f"ambiguity set at node {s} is empty", node=s)
    raise InfeasibleProblemError(message)


def _solve_big(problem, big, xvar, label):
    """Solve a tree-wide LP, certify its duality gap and read back decisions."""
    sol = big.solve()
    if sol.status in (LpStatus.INFEASIBLE, LpStatus.UNBOUNDED):
        _diagnose_and_raise(problem, f"{label} solve ended {sol.status.value}")
    if not sol.is_optimal:
        raise RuntimeError(f"{label} solve ended {sol.status.value}: {sol.message}")
    gap = abs(sol.objective - sol.dual_objective)
    if gap > _GAP_TOL * (1.0 + abs(sol.objective)):
        raise RuntimeError(
            f"{label} solve: primal objective {sol.objective!r} and dual objective "
            f"{sol.dual_objective!r} differ by {gap:.3g}")
    decisions = {s: np.array([sol.x[j] for j in xvar[s]]) for s in xvar}
    return sol, decisions


def solve_holistic(problem):
    """Maximin policy when every node carries a Kantorovich ball or elicited
    pairwise comparisons; one tree may mix the two."""
    # perfbench/layers.py times this layer by wrapping _solve_holistic by name
    return _solve_holistic(problem)


def _solve_holistic(problem):
    tree = problem.tree
    pu = tree.unconditional_probs()
    big = LinearProgram("max", name="tree")
    xvar = problem.add_decisions(big)

    blocks = {}
    for s in tree.nonleaf_ids():
        spec = problem.ambiguity.for_node(s)
        if not isinstance(spec, (KantorovichBallSpec, PairwiseComparisonSpec)):
            raise TypeError(
                f"node {s}: expected a Kantorovich ball or pairwise comparisons, "
                f"got {type(spec).__name__}")
        kids = tree.children[s]
        probs = np.array([tree.nodes[i].prob for i in kids])
        offsets = np.array([problem.rewards[i].offset for i in kids])
        inner, ublock, eps = node_primal(offsets, probs, spec, problem.grid)
        rows, cols, vals = [], [], []
        for pos, i in enumerate(kids):
            coef = problem.rewards[i].coef
            nz = np.flatnonzero(coef)
            rows.append(np.full(nz.size, eps[pos]))
            cols.append(xvar[s][nz])
            vals.append(-probs[pos] * coef[nz])
        extra = (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
        vmap, rmap = _copy_dual_block(big, dualize(inner), float(pu[s]), extra, f"n{s}")
        blocks[s] = _NodeBlock(vmap, rmap[ublock.alpha], float(pu[s]))

    sol, decisions = _solve_big(problem, big, xvar, "holistic")
    obj = big.objective
    per_node = {}
    for s, nb in blocks.items():
        val = float(np.dot(obj[nb.vmap], sol.x[nb.vmap])) / nb.prob
        alpha = np.array([sol.duals[r] for r in nb.alpha_rows]) / nb.prob
        per_node[s] = NodeValue(
            tree.nodes[s].stage, val, _utility_from_marginals(problem.grid, alpha))
    return Policy(decisions, float(sol.objective), per_node)


# ------------------------------------------------------------------ nominal
def solve_nominal(problem, utilities):
    """Plain expected-utility policy for known concave piecewise-linear tastes.

    ``utilities`` is one utility for every node or a dict keyed by non-leaf
    id.  Each node's conditional expectation is modeled through hypograph
    rows, one per utility segment, which is exact for concave kinks.
    """
    tree = problem.tree
    pu = tree.unconditional_probs()
    util = {}
    for s in tree.nonleaf_ids():
        u = utilities[s] if isinstance(utilities, dict) else utilities
        if not isinstance(u, PiecewiseLinearUtility):
            raise TypeError(f"node {s}: nominal solve needs a piecewise-linear utility")
        if not u.is_concave():
            raise ValueError(f"node {s}: hypograph rows need a concave utility")
        d = u.domain
        if abs(d[0] - problem.grid[0]) > 1e-9 or abs(d[1] - problem.grid[-1]) > 1e-9:
            raise ValueError(
                f"node {s}: utility domain {d} does not match the reward domain")
        util[s] = u

    big = LinearProgram("max", name="nominal")
    xvar = problem.add_decisions(big)

    for node in tree.nodes:
        if node.parent is None:
            continue
        s = node.parent
        u = util[s]
        y, vals, beta = u.breakpoints, u.values, u.slopes
        rm = problem.rewards[node.id]
        cols = xvar[s]
        t = big.add_var(f"t[{node.id}]", lb=-math.inf, obj=float(pu[node.id]))
        for j in range(beta.size):
            coefs = {t: 1.0}
            for k in range(rm.coef.size):
                if rm.coef[k] != 0.0:
                    key = int(cols[k])
                    coefs[key] = coefs.get(key, 0.0) - float(beta[j] * rm.coef[k])
            big.add_row(
                coefs, "<=", float(vals[j] + beta[j] * (rm.offset - y[j])),
                name=f"hyp[{node.id},{j}]")

    sol, decisions = _solve_big(problem, big, xvar, "nominal")
    per_node = {}
    for s in tree.nonleaf_ids():
        kids = tree.children[s]
        probs = np.array([tree.nodes[i].prob for i in kids])
        h = np.array([
            float(np.dot(problem.rewards[i].coef, decisions[s])) + problem.rewards[i].offset
            for i in kids
        ])
        per_node[s] = NodeValue(
            tree.nodes[s].stage, float(np.dot(probs, util[s](h))), util[s])
    return Policy(decisions, float(sol.objective), per_node)


# --------------------------------------------------------------- evaluation
def _node_outcomes(problem, s, decisions):
    kids = problem.tree.children[s]
    x = np.asarray(decisions[s], dtype=float)
    values = [
        float(np.dot(problem.rewards[i].coef, x)) + problem.rewards[i].offset
        for i in kids
    ]
    probs = [problem.tree.nodes[i].prob for i in kids]
    return OutcomeDistribution(values, probs)


def _node_worst_case(problem, s, dist):
    spec = problem.ambiguity.for_node(s)
    if isinstance(spec, FiniteUtilitySet):
        return worst_case_finite(dist, spec)
    if isinstance(spec, KantorovichBallSpec):
        return worst_case_kantorovich_primal(dist, spec, problem.grid)
    if isinstance(spec, PairwiseComparisonSpec):
        return worst_case_pairwise(dist, spec, problem.grid)
    raise TypeError(f"node {s}: unsupported ambiguity type {type(spec).__name__}")


def _check_decisions(problem, decisions):
    """Refuse a plan that misses a node or breaks a bound or a row."""
    tree = problem.tree
    x = {}
    for s in tree.nonleaf_ids():
        if s not in decisions:
            raise ValueError(f"node {s}: the plan has no decision")
        x[s] = np.asarray(decisions[s], dtype=float)
        if x[s].shape != (problem.dim(s),):
            raise ValueError(
                f"node {s}: decision has shape {x[s].shape}, expected ({problem.dim(s)},)")
        lb, ub = problem.decision_bounds[s]
        # written so that a NaN decision fails too
        off = np.flatnonzero(~((x[s] >= lb - _PLAN_TOL) & (x[s] <= ub + _PLAN_TOL)))
        if off.size:
            k = off[0]
            raise ValueError(
                f"node {s}: x[{s}][{k}] = {float(x[s][k])!r} is outside "
                f"[{lb[k]:g}, {ub[k]:g}]")
    for idx, con in enumerate(problem.constraints):
        lhs = sum(v * x[con.node][k] for k, v in con.coef_self.items())
        if con.coef_parent:
            par = x[tree.nodes[con.node].parent]
            lhs += sum(v * par[k] for k, v in con.coef_parent.items())
        slack = {"<=": con.rhs - lhs, ">=": lhs - con.rhs, "=": -abs(lhs - con.rhs)}[con.rel]
        if not slack >= -_PLAN_TOL:
            raise ValueError(f"row con{idx}[{con.node}] does not hold: "
                             f"{float(lhs)!r} {con.rel} {con.rhs!r}")


def evaluate_policy_worst_case(problem, decisions, mode="nested"):
    """Worst-case value of fixed decisions.

    ``nested`` re-minimizes at every node separately (each node may face its
    own adversary), which is the quantity the holistic solver maximizes under
    per-node ambiguity.  ``sequence_global`` forces one utility per stage
    across all that stage's nodes and minimizes over whole assignments; it is
    only available when every node shares one finite utility set, where the
    minimum splits by stage because the objective is a sum over stages.

    The plan must give every non-leaf node a decision of the node's length
    that meets its bounds and every constraint row within 1e-7; otherwise a
    ``ValueError`` names the node or the row.
    """
    _check_decisions(problem, decisions)
    tree = problem.tree
    pu = tree.unconditional_probs()
    if mode == "nested":
        total = 0.0
        for s in tree.nonleaf_ids():
            res = _node_worst_case(problem, s, _node_outcomes(problem, s, decisions))
            if res.status != "optimal":
                raise InfeasibleProblemError(
                    f"worst case at node {s} is {res.status}", node=s)
            total += pu[s] * res.value
        return float(total)
    if mode == "sequence_global":
        specs = [problem.ambiguity.for_node(s) for s in tree.nonleaf_ids()]
        if not all(isinstance(sp, FiniteUtilitySet) for sp in specs):
            raise ValueError(
                "sequence_global evaluation is only available for finite utility sets")
        if len({id(sp) for sp in specs}) != 1:
            raise ValueError(
                "sequence_global evaluation needs the same finite set at every node")
        members = specs[0].members
        total = 0.0
        for t in range(tree.horizon):
            stage_nodes = [s for s in tree.nonleaf_ids() if tree.nodes[s].stage == t]
            if not stage_nodes:
                continue
            dists = {s: _node_outcomes(problem, s, decisions) for s in stage_nodes}
            scores = []
            for u in members:
                acc = 0.0
                for s in stage_nodes:
                    d = dists[s]
                    acc += pu[s] * float(np.dot(d.probs, u(np.asarray(d.values))))
                scores.append(acc)
            total += min(scores)
        return float(total)
    raise ValueError(f"unknown evaluation mode {mode!r}")


# --------------------------------------------------------- time consistency
def subtree_problem(problem, node_id, decisions):
    """Re-rooted copy of the problem with the history fixed.

    Rows at the new root that referenced the parent decision have that part
    folded into their right-hand sides using ``decisions``.  Returns the new
    problem together with the new-id -> original-id map.
    """
    tree = problem.tree
    if tree.is_leaf(node_id):
        raise ValueError(f"node {node_id} is a leaf")
    view = tree.subtree(node_id)
    orig = view.original_ids
    new_of = {o: n for n, o in enumerate(orig)}

    bounds = {new_of[o]: problem.decision_bounds[o] for o in orig if not tree.is_leaf(o)}
    rewards = {new_of[o]: problem.rewards[o] for o in orig if o != node_id}
    specs = {new_of[o]: problem.ambiguity.for_node(o) for o in orig if not tree.is_leaf(o)}

    parent = tree.nodes[node_id].parent
    cons = []
    for con in problem.constraints:
        if con.node not in new_of:
            continue
        if con.node == node_id and con.coef_parent:
            fixed = np.asarray(decisions[parent], dtype=float)
            shift = sum(fixed[k] * v for k, v in con.coef_parent.items())
            cons.append(NodeConstraint(
                new_of[con.node], con.rel, con.rhs - shift, dict(con.coef_self), {}))
        else:
            cons.append(NodeConstraint(
                new_of[con.node], con.rel, con.rhs,
                dict(con.coef_self), dict(con.coef_parent)))

    sub = MultistageProblem(
        view.tree, bounds, rewards, StateDependentAmbiguity(specs), problem.grid,
        cons, check_rewards=False)
    return sub, orig


@dataclass
class TimeConsistencyEntry:
    node: int
    stage: int
    local_value: float
    achieved_value: float
    discrepancy: float


@dataclass
class TimeConsistencyReport:
    entries: list
    tol: float

    @property
    def max_discrepancy(self):
        return max((e.discrepancy for e in self.entries), default=0.0)

    @property
    def consistent(self):
        return self.max_discrepancy <= self.tol


def check_time_consistency(problem, policy, tol=1e-6, subtree_solver=None):
    """Compare each subtree's re-solved optimum with what the policy achieves.

    A positive discrepancy at a node means the policy stops being optimal once
    that node is reached — the plan is time-inconsistent there.  Per-node
    ambiguity keeps every discrepancy at solver noise; a shared
    state-independent set need not.  ``subtree_solver`` overrides the solver
    used on subtrees instead of :func:`solve_holistic` (required for
    ambiguity types it does not cover); it receives a
    :class:`MultistageProblem` and must return an object with a ``value``
    attribute.
    """
    solver = subtree_solver or solve_holistic
    tree = problem.tree
    entries = []
    for s in tree.nonleaf_ids():
        sub, orig = subtree_problem(problem, s, policy.decisions)
        subdec = {
            n: policy.decisions[o]
            for n, o in enumerate(orig)
            if not tree.is_leaf(o)
        }
        achieved = evaluate_policy_worst_case(sub, subdec, "nested")
        local = float(solver(sub).value)
        entries.append(TimeConsistencyEntry(
            s, tree.nodes[s].stage, local, achieved, local - achieved))
    return TimeConsistencyReport(entries, tol)
