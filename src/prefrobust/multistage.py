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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .ambiguity import (
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    StateDependentAmbiguity,
    build_state_dependent,
    feasibility_check,
)
from .lp import HighsSession, LinearProgram, LpStatus, dualize
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
# how far the x of a tree-wide solve may stray from its rows and bounds
_RESIDUAL_TOL = 1e-7


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
    minimizing and maximizing it over the decision set.  A reward
    ``coef . x(parent) + offset`` is ``lam * (d . x(parent)) + offset`` with
    ``lam = max |coef|``, so rewards share their range LPs when they share
    the parent and the direction ``d``: two LPs per distinct (parent,
    direction), re-solved warm in one HiGHS session per build.
    """

    def __init__(self, tree, decision_bounds, rewards, ambiguity, grid,
                 constraints=(), check_rewards=True):
        self.tree = tree
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim == 1:
            _require_finite(self.grid, "grid", "y")
        if self.grid.ndim != 1 or self.grid.size < 2 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be a strictly increasing 1-d array")

        nonleaf = tree.nonleaf_ids()
        self.decision_bounds = {}
        for s in nonleaf:
            if s not in decision_bounds:
                raise ValueError(f"missing decision bounds for node {s}")
            lb = np.atleast_1d(np.asarray(decision_bounds[s][0], dtype=float))
            ub = np.atleast_1d(np.asarray(decision_bounds[s][1], dtype=float))
            # written so that a NaN bound fails too
            if lb.shape != ub.shape or not np.all(lb <= ub):
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
            _require_finite(rm.coef, f"reward at node {node.id}", "coef")
            _require_finite([rm.offset], f"reward at node {node.id}", "offset", index=False)
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
        where = f"constraint at node {con.node}"
        for name, coefs in (("coef_self", cs), ("coef_parent", cp)):
            for k, v in coefs.items():
                _require_finite([v], where, f"{name}[{k}]", index=False)
        _require_finite([float(con.rhs)], where, "rhs", index=False)
        return NodeConstraint(con.node, con.rel, float(con.rhs), cs, cp)

    # ------------------------------------------------------------ decisions
    def add_decisions(self, lp, last_node=None):
        """Add the decision columns ``x[s][k]`` with their box bounds and the
        constraint rows to ``lp``; return the column indices per node.

        ``last_node`` keeps just the rows attached to nodes up to that id,
        which the infeasibility diagnosis uses to locate the first offender.
        Row ``con{idx}[{node}]`` holds constraint ``idx``: its own
        coefficients, then its parent's.
        """
        xvar = {}
        for s in self.tree.nonleaf_ids():
            lb, ub = self.decision_bounds[s]
            xvar[s] = lp.add_vars(lb.size, f"x[{s}]", lb=lb, ub=ub)
        kept = [(idx, con) for idx, con in enumerate(self.constraints)
                if last_node is None or con.node <= last_node]
        cols, vals, indptr = [], [], [0]
        for _, con in kept:
            parent = self.tree.nodes[con.node].parent
            cols += [xvar[con.node][k] for k in con.coef_self]
            cols += [xvar[parent][k] for k in con.coef_parent]
            vals += [*con.coef_self.values(), *con.coef_parent.values()]
            indptr.append(len(cols))
        lp.add_rows(indptr, cols, vals, [con.rel for _, con in kept],
                    [con.rhs for _, con in kept],
                    [f"con{idx}[{con.node}]" for idx, con in kept])
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
        # serves them all.
        session = HighsSession(lp)
        a, b = float(self.grid[0]), float(self.grid[-1])
        extremes = {}  # (parent, direction bytes) -> (min, max) of d . x(parent)
        for i in sorted(self.rewards):
            rm = self.rewards[i]
            parent = self.tree.nodes[i].parent
            lam = float(np.max(np.abs(rm.coef), initial=0.0)) or 1.0
            d = rm.coef / lam
            key = (parent, d.tobytes())
            if key not in extremes:
                cols = xvar[parent]
                extremes[key] = (self._reward_extreme(lp, cols, d, +1.0, i, session),
                                 self._reward_extreme(lp, cols, d, -1.0, i, session))
            lo, hi = (lam * v + rm.offset for v in extremes[key])
            if lo < a - _REWARD_TOL or hi > b + _REWARD_TOL:
                raise ValueError(
                    f"reward at node {i} spans [{lo:.6g}, {hi:.6g}], outside the "
                    f"utility domain [{a:g}, {b:g}]")

    def _reward_extreme(self, lp, cols, coef, sign, node, session):
        """``sign * min(sign * coef . x[cols])`` over the decision set ``lp``:
        warm in ``session`` when it has the answer, else cold."""
        cost = np.zeros(lp.num_vars)
        cost[cols] = sign * coef
        value = session.minimum(cost)
        if value is None:
            lp.objective = cost
            sol = lp.solve()
            if sol.status is LpStatus.INFEASIBLE:
                self._raise_decision_infeasible()
            if sol.status is LpStatus.UNBOUNDED:
                raise ValueError(
                    f"reward at node {node} is unbounded over the decision set; "
                    "add box bounds")
            if not sol.is_optimal:
                raise RuntimeError(f"reward range solve ended {sol.status.value}")
            value = sol.objective
        return sign * value


def _require_finite(values, where, field, index=True):
    """Refuse a NaN or infinite entry, naming where it sits and the field."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
    if bad.size:
        k = bad[0]
        name = f"{field}[{k}]" if index else field
        raise ValueError(f"{where}: {name} is {float(values[k])!r}")


# ---------------------------------------------------------------- holistic
@dataclass
class _NodeBlock:
    cols: np.ndarray   # tree-LP columns of this node's dual block
    rows: np.ndarray   # tree-LP rows of this node's dual block
    alpha: np.ndarray  # positions in ``rows`` whose marginals carry p_s * alpha
    cost: np.ndarray   # dual costs before scaling by the node probability
    prob: float        # the scale applied to ``cost`` in this LP


def _copy_dual_block(big, dual, cost, rhs, obj_scale, extra, prefix):
    """Append a dualized one-stage block to the big LP: the matrix, bounds,
    relations and names of ``dual`` with the costs ``cost`` and right-hand
    sides ``rhs``.

    Costs are scaled by the node probability ``obj_scale``.  ``extra`` is
    ``(rows, cols, values)``: each entry puts ``values`` on the big-LP column
    ``cols`` of source row ``rows`` (source row index = inner primal
    variable index), which is how the decision variables enter the
    reward-pricing rows.
    """
    vmap = big.add_vars(
        dual.num_vars, [f"{prefix}.{dual.var_name(j)}" for j in range(dual.num_vars)],
        lb=dual.lower, ub=dual.upper, obj=obj_scale * np.asarray(cost))
    mat = dual.row_matrix().tocoo()
    rows, cols, vals = extra
    block = sp.csr_matrix(
        (np.concatenate([mat.data, vals]),
         (np.concatenate([mat.row, rows]), np.concatenate([vmap[mat.col], cols]))),
        shape=(dual.num_rows, big.num_vars))
    names = [f"{prefix}.{dual.row_name(k)}" for k in range(dual.num_rows)]
    rmap = big.add_rows(block.indptr, block.indices, block.data, dual.relations, rhs, names)
    return vmap, rmap


def _utility_from_marginals(y, raw, node):
    """Row marginals carry solver noise; snap tiny violations, refuse big
    ones, naming the node."""
    raw = np.asarray(raw, dtype=float)
    vals = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
    err = np.max(np.abs(vals - raw))
    if not err <= 1e-6:
        raise RuntimeError(f"node {node}: worst-case utility marginals are off by {err:.3g}")
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


def _primal_residual(lp, x):
    """Largest violation of a row or a bound of ``lp`` by ``x`` (NaN if ``x``
    holds a NaN)."""
    ax = lp.row_matrix() @ x
    rhs = lp.rhs
    rels = np.asarray(lp.relations)
    rows = np.where(rels == "<=", ax - rhs, np.where(rels == ">=", rhs - ax, np.abs(ax - rhs)))
    return float(np.max(np.concatenate([rows, lp.lower - x, x - lp.upper]), initial=0.0))


def _certified(big, sol, xvar, label):
    """Check an optimal solve of a tree-wide LP: its duality gap and the
    largest row or bound violation of its ``x``.  Returns it with the
    decisions read back."""
    gap = abs(sol.objective - sol.dual_objective)
    if gap > _GAP_TOL * (1.0 + abs(sol.objective)):
        raise RuntimeError(
            f"{label} solve: primal objective {sol.objective!r} and dual objective "
            f"{sol.dual_objective!r} differ by {gap:.3g}")
    residual = _primal_residual(big, sol.x)
    if not residual <= _RESIDUAL_TOL:
        raise RuntimeError(f"{label} solve: x violates a row or bound by {residual:.3g}")
    decisions = {s: np.array([sol.x[j] for j in xvar[s]]) for s in xvar}
    return sol, decisions


def _solve_big(problem, big, xvar, label):
    """Solve a tree-wide LP, certify it and read back decisions."""
    sol = big.solve()
    if sol.status in (LpStatus.INFEASIBLE, LpStatus.UNBOUNDED):
        _diagnose_and_raise(problem, f"{label} solve ended {sol.status.value}")
    if not sol.is_optimal:
        raise RuntimeError(f"{label} solve ended {sol.status.value}: {sol.message}")
    return _certified(big, sol, xvar, label)


def solve_holistic(problem):
    """Maximin policy when every node carries a Kantorovich ball or elicited
    pairwise comparisons; one tree may mix the two."""
    # perfbench/layers.py times this layer by wrapping _solve_holistic by name
    return _solve_holistic(problem)


def _solve_holistic(problem):
    big, xvar, blocks = _assemble_holistic(problem)
    sol, decisions = _solve_big(problem, big, xvar, "holistic")
    return _holistic_policy(problem, big, blocks, sol, decisions)


def _template_key(spec, n_children):
    """Nodes with equal keys have one-stage LPs with the same matrix, bounds,
    relations and names; only their costs and right-hand sides differ."""
    key = (type(spec), n_children, spec.L, spec.L_tilde, spec.concave)
    return key + (spec,) if isinstance(spec, PairwiseComparisonSpec) else key


def _assemble_holistic(problem):
    """The tree LP: decision columns and constraint rows first (constraint
    ``k`` on row ``k``), then one dual block per non-leaf node in id order.
    Returns it with the decision columns and the blocks per node.

    Each shape of one-stage LP (see :func:`_template_key`) is built by
    :func:`node_primal` and dualized once per call; every node of that shape
    then stamps its own data into copies of the template's arrays: its
    primal costs become the dual's right-hand sides and its primal
    right-hand sides the dual's costs.  A template is dropped after the last
    node of its shape, so one-off shapes (questionnaires with their own
    answers) do not pile up."""
    tree = problem.tree
    pu = tree.unconditional_probs()
    keys = {}
    for s in tree.nonleaf_ids():
        spec = problem.ambiguity.for_node(s)
        if not isinstance(spec, (KantorovichBallSpec, PairwiseComparisonSpec)):
            raise TypeError(
                f"node {s}: expected a Kantorovich ball or pairwise comparisons, "
                f"got {type(spec).__name__}")
        keys[s] = _template_key(spec, len(tree.children[s]))
    uses = Counter(keys.values())
    big = LinearProgram("max", name="tree")
    xvar = problem.add_decisions(big)

    blocks, templates = {}, {}
    for s, key in keys.items():
        spec = problem.ambiguity.for_node(s)
        kids = tree.children[s]
        probs = np.array([tree.nodes[i].prob for i in kids])
        offsets = np.array([problem.rewards[i].offset for i in kids])
        if key not in templates:
            node = node_primal(offsets, probs, spec, problem.grid)
            templates[key] = node, dualize(node.lp)
        node, dual = templates[key]
        uses[key] -= 1
        if not uses[key]:
            del templates[key]
        primal_cost, primal_rhs = node.stamped(offsets, probs, spec, problem.grid)
        coef = np.array([problem.rewards[i].coef for i in kids])
        pos, k = np.nonzero(coef)
        extra = (node.eps[pos], xvar[s][k], -probs[pos] * coef[pos, k])
        vmap, rmap = _copy_dual_block(
            big, dual, primal_rhs, primal_cost, float(pu[s]), extra, f"n{s}")
        blocks[s] = _NodeBlock(vmap, rmap, node.block.alpha, primal_rhs, float(pu[s]))
    return big, xvar, blocks


def _holistic_policy(problem, big, blocks, sol, decisions):
    """Policy read back from a certified solve of an assembled tree LP: each
    node's value from its block's costs, its worst-case utility from the
    marginals of its alpha rows."""
    obj = big.objective
    per_node = {}
    for s, nb in blocks.items():
        val = float(np.dot(obj[nb.cols], sol.x[nb.cols])) / nb.prob
        alpha = np.array([sol.duals[r] for r in nb.rows[nb.alpha]]) / nb.prob
        per_node[s] = NodeValue(
            problem.tree.nodes[s].stage, val, _utility_from_marginals(problem.grid, alpha, s))
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

    kids = [node for node in tree.nodes if node.parent is not None]
    t = big.add_vars(len(kids), [f"t[{node.id}]" for node in kids], lb=-math.inf,
                     obj=[pu[node.id] for node in kids])
    # row j of child i: t_i - beta_j * (coef . x) <= vals_j + beta_j * (offset - y_j),
    # as wide as the parent's nonzero reward coefficients plus one
    widths, cols, coefs, rhs, names = [], [], [], [], []
    for ti, node in zip(t, kids):
        u = util[node.parent]
        beta = u.slopes
        rm = problem.rewards[node.id]
        nz = np.flatnonzero(rm.coef)
        widths += [1 + nz.size] * beta.size
        cols += [ti, *xvar[node.parent][nz]] * beta.size
        coefs.extend(np.column_stack((np.ones(beta.size), 0.0 - np.outer(beta, rm.coef[nz])))
                     .ravel())
        rhs.extend(u.values[:-1] + beta * (rm.offset - u.breakpoints[:-1]))
        names += [f"hyp[{node.id},{j}]" for j in range(beta.size)]
    big.add_rows(np.cumsum([0, *widths]), cols, coefs, "<=", rhs, names)

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
        _check_row(con, idx, lhs)


def _check_row(con, idx, lhs):
    """Refuse a row ``con`` (constraint ``idx``) whose left-hand side
    ``lhs`` misses it by more than the plan tolerance."""
    slack = {"<=": con.rhs - lhs, ">=": lhs - con.rhs, "=": -abs(lhs - con.rhs)}[con.rel]
    if not slack >= -_PLAN_TOL:
        raise ValueError(f"row con{idx}[{con.node}] does not hold: "
                         f"{float(lhs)!r} {con.rel} {con.rhs!r}")


def _nested_worst_cases(problem, decisions):
    """Each non-leaf node's one-stage worst case under ``decisions``, which
    depends only on the node's decision, children and spec."""
    wc = {}
    for s in problem.tree.nonleaf_ids():
        res = _node_worst_case(problem, s, _node_outcomes(problem, s, decisions))
        if res.status != "optimal":
            raise InfeasibleProblemError(f"worst case at node {s} is {res.status}", node=s)
        wc[s] = res.value
    return wc


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
        for s, value in _nested_worst_cases(problem, decisions).items():
            total += pu[s] * value
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
def _folded_rhs(con, parent_decision):
    """Right-hand side of ``con`` once the parent decision is fixed and its
    part of the row moved over."""
    fixed = np.asarray(parent_decision, dtype=float)
    return con.rhs - sum(fixed[k] * v for k, v in con.coef_parent.items())


def subtree_problem(problem, node_id, decisions):
    """Re-rooted copy of the problem with the history fixed.

    Rows at the new root that referenced the parent decision have that part
    folded into their right-hand sides using ``decisions``.  A root row on
    the parent decision alone is then a constant: it is dropped when it
    holds within 1e-7 and refused with a ``ValueError`` naming it otherwise.
    Returns the new problem together with the new-id -> original-id map.
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
    for idx, con in enumerate(problem.constraints):
        if con.node not in new_of:
            continue
        if con.node == node_id and not con.coef_self:
            fixed = np.asarray(decisions[parent], dtype=float)
            _check_row(con, idx, sum(v * fixed[k] for k, v in con.coef_parent.items()))
        elif con.node == node_id and con.coef_parent:
            cons.append(NodeConstraint(
                new_of[con.node], con.rel, _folded_rhs(con, decisions[parent]),
                dict(con.coef_self), {}))
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
    state-independent set need not.

    The plan is checked once, and each non-leaf node's one-stage worst case
    under it is solved once: a subtree's achieved value is the sum of its
    nodes' worst cases weighted by their probabilities given the subtree's
    root, which is exactly what :func:`evaluate_policy_worst_case` returns
    on the re-rooted problem.  The re-solves share one assembly of the tree
    LP: the root is re-solved on it, and every other subtree's LP is sliced
    from it (the subtree's rows and columns, the fixed parent decision folded
    into the root rows, the block costs rescaled to the subtree), then solved
    and certified like the tree LP.  A slice that does not solve to optimality
    is rebuilt through :func:`subtree_problem` and :func:`solve_holistic`,
    which report the failure.  ``subtree_solver`` replaces that solver
    (required for ambiguity types it does not cover): it receives the
    re-rooted :class:`MultistageProblem` of every subtree and must return an
    object with a ``value`` attribute.
    """
    tree = problem.tree
    decisions = policy.decisions
    _check_decisions(problem, decisions)
    wc = _nested_worst_cases(problem, decisions)
    assembled = _assemble_holistic(problem) if subtree_solver is None else None
    entries = []
    for s in tree.nonleaf_ids():
        order = tree.descendants(s)
        # probabilities given s, root-down as unconditional_probs() on the subtree
        pu = {s: 1.0}
        for n in order[1:]:
            pu[n] = pu[tree.nodes[n].parent] * tree.nodes[n].prob
        achieved = 0.0
        for n in order:
            if n in wc:
                achieved += pu[n] * wc[n]
        if subtree_solver is None:
            local = _resolve_subtree(problem, assembled, order, pu, decisions)
        else:
            local = float(subtree_solver(subtree_problem(problem, s, decisions)[0]).value)
        achieved = float(achieved)
        entries.append(TimeConsistencyEntry(
            s, tree.nodes[s].stage, local, achieved, local - achieved))
    return TimeConsistencyReport(entries, tol)


def _resolve_subtree(problem, assembled, order, pu, decisions):
    """Optimal value of the subtree LP whose nodes are ``order`` (breadth
    first from its root) and whose probabilities given the root are ``pu``.
    It is solved on a slice of the assembled tree LP when that ends optimal,
    and rebuilt by :func:`subtree_problem` otherwise."""
    lp, xvar, blocks = _subtree_slice(problem, assembled, order, pu, decisions)
    sol = lp.solve()
    if sol.is_optimal:
        sol, dec = _certified(lp, sol, xvar, f"subtree {order[0]}")
        return _holistic_policy(problem, lp, blocks, sol, dec).value
    return solve_holistic(subtree_problem(problem, order[0], decisions)[0]).value


def _subtree_slice(problem, assembled, order, pu, decisions):
    """The LP that :func:`subtree_problem` and :func:`_assemble_holistic`
    build for the subtree ``order``, cut from the assembled tree LP (names
    keep the tree's ids), with its decision columns and node blocks; the
    tree LP itself when the subtree is the whole tree in its own order.
    Root rows on the parent decision alone are left out, as the rebuild
    drops them; the plan check has seen them hold."""
    big, xvar, blocks = assembled
    tree = problem.tree
    if order == list(range(len(tree))):
        return assembled
    s, inside = order[0], set(order)
    nodes = [n for n in order if n in blocks]
    cons = [k for k, con in enumerate(problem.constraints)
            if con.node in inside and (con.node != s or con.coef_self)]
    rows = np.concatenate([np.asarray(cons, dtype=np.int64)] + [blocks[n].rows for n in nodes])
    cols = np.concatenate([xvar[n] for n in nodes] + [blocks[n].cols for n in nodes])
    rhs = big.rhs[rows]
    for pos, k in enumerate(cons):
        con = problem.constraints[k]
        if con.node == s and con.coef_parent:
            rhs[pos] = _folded_rhs(con, decisions[tree.nodes[s].parent])

    sub_x, sub_blocks, at = {}, {}, 0
    for n in nodes:
        sub_x[n] = np.arange(at, at + xvar[n].size)
        at += xvar[n].size
    cost, row = [np.zeros(at)], len(cons)
    for n in nodes:
        nb = blocks[n]
        sub_blocks[n] = _NodeBlock(np.arange(at, at + nb.cols.size),
                                   np.arange(row, row + nb.rows.size), nb.alpha, nb.cost, pu[n])
        cost.append(pu[n] * nb.cost)
        at += nb.cols.size
        row += nb.rows.size
    return big.restricted(rows, cols, np.concatenate(cost), rhs), sub_x, sub_blocks
