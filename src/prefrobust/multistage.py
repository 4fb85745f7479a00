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

import functools
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .ambiguity import (
    DiscreteLottery,
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    StateDependentAmbiguity,
    build_state_dependent,
    feasibility_check,
)
from .blocks import append_pairwise_rows
from .lp import (BASIC, DEFAULT_TOL, HighsSession, LinearProgram, LpSolution, LpStatus,
                 at_bound, dualize)
from .utility import PiecewiseLinearUtility
from .worst_case import (
    DOMAIN_TOL,
    NodeLP,
    _check_outcomes,
    node_primal,
    supporting_line_primal,
    worst_case_finite,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)

# Used only by perfbench/layers.py, which wraps these module globals by name.
from .blocks import append_ball_membership  # noqa: F401
from .utility import project  # noqa: F401

# strong-duality gap allowed on a tree-wide LP or a certified pair, relative
# to 1 + |objective|
_GAP_TOL = 1e-7
# how far a plan handed to the evaluator may stray from its bounds and rows
_PLAN_TOL = 1e-7
# how far the x of a tree-wide solve or a certified pair may stray from its
# rows and bounds, and a certified pair's duals from their signs
_RESIDUAL_TOL = 1e-7
# the largest discrepancy a time-consistent plan may show at a subtree
_CONSISTENT_TOL = 1e-6


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
    """A node's certified worst-case ``value`` and one ``utility`` attaining
    it.  Where the node's outcomes leave grid values free, other utilities
    attain it too, and which is read back depends on the simplex path."""

    stage: int
    value: float
    utility: object


@dataclass
class Policy:
    """Decisions per non-leaf node plus the per-node worst cases (see
    :class:`NodeValue`: a node's utility need not be unique).

    A policy from :func:`solve_holistic` also keeps its tree solve's
    certificate record (see :func:`_certificate_data`), not the LP, from
    which :func:`check_time_consistency` certifies every subtree's optimum
    and every node's worst case under ``decisions``."""

    decisions: dict
    value: float
    per_node: dict
    _tree_solve: object = field(default=None, repr=False, compare=False)

    def export_table(self):
        lines = ["node\tstage\tdecision\tvalue"]
        for s in sorted(self.per_node):
            nv = self.per_node[s]
            # + 0.0 folds a negative zero, as the CSV does
            dec = ",".join(format(float(v) + 0.0, ".10g") for v in self.decisions.get(s, ()))
            lines.append(f"{s}\t{nv.stage}\t{dec}\t{nv.value + 0.0:.10g}")
        return "\n".join(lines) + "\n"


class MultistageProblem:
    """Scenario tree + decisions + rewards + per-node utility ambiguity.

    ``decision_bounds`` maps every non-leaf id to ``(lb, ub)`` arrays,
    ``rewards`` maps every non-root id to a :class:`RewardMap` (or a
    ``(coef, offset)`` pair), ``ambiguity`` is a single spec shared by all
    nodes, a callable ``(tree, node_id) -> spec``, or a prebuilt
    :class:`StateDependentAmbiguity`.  ``grid`` is the utility grid; every
    reward must stay inside its span.  Every reward of every tree, whatever
    its size, is certified at build time by bounding it below and above
    over the decision set, so a built problem has feasible decisions.  A reward
    ``coef . x(parent) + offset`` is ``lam * (d . x(parent)) + offset`` with
    ``lam = max |coef|``, so rewards share their range when they share the
    parent and the direction ``d``.  Each side of a (parent, direction)
    range is first bounded through the parent's box and rows (see
    :meth:`_row_bounds`).  In reward id order, a side whose bound leaves the
    reward outside the domain is solved by one cold LP, once per range; a
    reward still outside is refused with both ends as the LPs find them.
    At least one LP runs, so an empty decision set is refused.
    """

    def __init__(self, tree, decision_bounds, rewards, ambiguity, grid, constraints=()):
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
            if not all(map(math.isfinite, (*rm.coef.tolist(), rm.offset))):
                _require_finite(rm.coef, f"reward at node {node.id}", "coef")
                _require_finite([rm.offset], f"reward at node {node.id}", "offset",
                                index=False)
            self.rewards[node.id] = rm

        self.constraints = [self._checked_constraint(c) for c in constraints]

        if isinstance(ambiguity, StateDependentAmbiguity):
            self.ambiguity = ambiguity
        else:
            self.ambiguity = build_state_dependent(tree, ambiguity)
        for s in nonleaf:
            self.ambiguity.for_node(s)  # fail fast, names the node
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
        rhs = float(con.rhs)
        if not all(map(math.isfinite, (*cs.values(), *cp.values(), rhs))):
            where = f"constraint at node {con.node}"
            for name, coefs in (("coef_self", cs), ("coef_parent", cp)):
                for k, v in coefs.items():
                    _require_finite([v], where, f"{name}[{k}]", index=False)
            _require_finite([rhs], where, "rhs", index=False)
        return NodeConstraint(con.node, con.rel, rhs, cs, cp)

    # ------------------------------------------------------------ decisions
    def add_decisions(self, lp):
        """Add the decision columns ``x[s][k]`` with their box bounds and the
        constraint rows to ``lp``; return the column indices per node.

        Row ``con{idx}[{node}]`` holds constraint ``idx``: its own
        coefficients, then its parent's.
        """
        nonleaf = self.tree.nonleaf_ids()
        names = [f"x[{s}][{k}]" for s in nonleaf for k in range(self.dim(s))]
        lb, ub = (np.concatenate([np.empty(0)] + [self.decision_bounds[s][i] for s in nonleaf])
                  for i in (0, 1))
        cols = lp.add_vars(len(names), names, lb=lb, ub=ub)
        xvar = dict(zip(nonleaf, np.split(cols, np.cumsum([self.dim(s) for s in nonleaf]))))
        cols, vals, indptr = [], [], [0]
        for con in self.constraints:
            parent = self.tree.nodes[con.node].parent
            cols += [xvar[con.node][k] for k in con.coef_self]
            cols += [xvar[parent][k] for k in con.coef_parent]
            vals += [*con.coef_self.values(), *con.coef_parent.values()]
            indptr.append(len(cols))
        lp.add_rows(indptr, cols, vals, [con.rel for con in self.constraints],
                    [con.rhs for con in self.constraints],
                    [f"con{idx}[{con.node}]" for idx, con in enumerate(self.constraints)])
        return xvar

    def _decision_lp(self):
        """Box bounds plus constraint rows only (zero objective)."""
        lp = LinearProgram("min", name="decisions")
        return lp, self.add_decisions(lp)

    def _row_bounds(self):
        """A function ``upper(s, d)``, memoized: an upper bound on ``d . x(s)``
        over the decision set, for a tuple ``d``.  By weak duality, a row ``a
        . x(s) + c . x(parent) rel rhs`` at ``s`` and a multiplier ``lam`` of
        its sign (>= 0 on ``<=``, <= 0 on ``>=``, free on ``=``) bound it by
        the box's maximum of ``(d - lam a) . x(s)``, plus ``lam rhs``, plus
        ``|lam|`` times the bound on ``-sign(lam) c . x(parent)``; ``upper``
        is the least of these over the rows at ``s`` and ``lam = d_k / a_k``,
        and of the box's own (``lam = 0``)."""
        rows = {}
        for con in self.constraints:
            rows.setdefault(con.node, []).append(con)
        box = {s: (lb.tolist(), ub.tolist()) for s, (lb, ub) in self.decision_bounds.items()}
        # a partial, not a closure, so that no reference cycle keeps the problem alive
        return functools.partial(_row_bound, rows, box, [n.parent for n in self.tree.nodes], {})

    def _certify_rewards(self):
        a, b = float(self.grid[0]), float(self.grid[-1])
        upper, (lp, xvar) = self._row_bounds(), self._decision_lp()
        # ranges: (parent, direction bytes) -> [min, max] of d . x(parent);
        # solved: (that key, side) -> the end as the one cold LP on it found
        ranges, solved = {}, {}

        def solve(i, key, sides):
            for side in sides:
                if (key, side) not in solved:
                    solved[key, side] = ranges[key][side] = self._reward_extreme(
                        lp, xvar[key[0]], np.frombuffer(key[1]), (1.0, -1.0)[side], i)

        for i in sorted(self.rewards):
            rm, parent = self.rewards[i], self.tree.nodes[i].parent
            lam = float(np.max(np.abs(rm.coef), initial=0.0)) or 1.0
            d = rm.coef / lam
            key = (parent, d.tobytes())
            if key not in ranges:
                ranges[key] = [-upper(parent, tuple((-d).tolist())),
                               upper(parent, tuple(d.tolist()))]
            # The bounds hold over the decision set, so an end that keeps this
            # reward inside the domain decides its side; the others are solved
            # (written so that a NaN end counts as outside).
            lo, hi = (lam * v + rm.offset for v in ranges[key])
            solve(i, key, [side for side, inside in enumerate(
                (lo >= a - DOMAIN_TOL, hi <= b + DOMAIN_TOL)) if not inside])
            lo, hi = (lam * v + rm.offset for v in ranges[key])
            if lo < a - DOMAIN_TOL or hi > b + DOMAIN_TOL:
                solve(i, key, (0, 1))  # print both ends as the LPs find them
                lo, hi = (lam * v + rm.offset for v in ranges[key])
                raise ValueError(
                    f"reward at node {i} spans [{lo!r}, {hi!r}], outside the "
                    f"utility domain [{a:g}, {b:g}]")
        if ranges and not solved:  # one LP still refuses an empty decision set
            solve(min(self.rewards), next(iter(ranges)), (0,))

    def _reward_extreme(self, lp, cols, coef, sign, node):
        """``sign * min(sign * coef . x[cols])`` over the decision set ``lp``,
        solved cold.  An empty set is refused naming the rows of one conflict
        and the last node they belong to."""
        cost = np.zeros(lp.num_vars)
        cost[cols] = sign * coef
        session = HighsSession(lp)
        session.load(cost)
        x = session.run()
        if x is not None:
            return sign * float(cost @ x)
        if session.status is LpStatus.INFEASIBLE:
            rows = session.conflict()
            if not rows.size:
                raise InfeasibleProblemError("decision constraints are infeasible")
            last = max(self.constraints[k].node for k in rows)
            raise InfeasibleProblemError(
                f"decision constraints become infeasible at node {last}: rows "
                + ", ".join(lp.row_name(k) for k in rows), node=last)
        if session.status is LpStatus.UNBOUNDED:
            raise ValueError(
                f"reward at node {node} is unbounded over the decision set; "
                "add box bounds")
        raise RuntimeError(f"reward range solve ended {session.status.value}")


def _row_bound(rows, box, parents, memo, s, d):
    """The bound of :meth:`MultistageProblem._row_bounds` on ``d . x(s)``."""
    if (s, d) in memo:
        return memo[s, d]

    def boxmax(r):
        # a zero entry adds nothing even where its bound is infinite
        return sum(max(v * lo, v * hi) for v, lo, hi in zip(r, *box[s]) if v)

    best, parent = boxmax(d), parents[s]
    for con in rows.get(s, ()):
        for k, ak in con.coef_self.items():
            lam = d[k] / ak if ak else 0.0
            if (not 0.0 < abs(lam) < math.inf or con.rel == "<=" and lam < 0
                    or con.rel == ">=" and lam > 0):
                continue
            r = [v - lam * con.coef_self.get(j, 0.0) for j, v in enumerate(d)]
            r[k] = 0.0  # exactly: rounding times an infinite bound is infinite
            value = boxmax(r) + lam * con.rhs
            if con.coef_parent and value < math.inf:
                sign = -1.0 if lam > 0 else 1.0
                c = tuple(sign * con.coef_parent.get(j, 0.0) for j in range(len(box[parent][0])))
                value += abs(lam) * _row_bound(rows, box, parents, memo, parent, c)
            best = min(best, value)  # a NaN value is passed over
    memo[s, d] = best
    return best


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
    answers: np.ndarray  # the columns in ``cols`` that dualize answer rows
    start: tuple | None  # its shape's basis (see _shape_basis), shared by the shape's blocks


def _splice_dual_blocks(big, parts, n_vars, n_rows, n_entries):
    """Append the dual blocks that ``parts`` yields to ``big`` in one
    ``add_vars`` and one ``add_rows`` call, the rows written as CSR directly;
    return each block's columns and rows of ``big``.

    A part ``(prefix, pieces, cost, rhs, scale, extra)`` is one block: the
    columns ``lo:hi`` of each LP ``dual`` of ``pieces``, a list of ``(dual,
    lo, hi)``, with their bounds, names (prefixed by ``prefix``) and matrix
    entries, over the rows of the first piece's LP (every piece's has as
    many), with the costs ``scale * cost`` and right-hand sides ``rhs``.
    ``extra`` is ``(rows, cols, values)``: each entry puts ``values`` on the
    big-LP column ``cols`` of the part's row ``rows`` (row index = inner
    primal variable index), which is how the decision variables enter the
    reward-pricing rows.  ``n_vars`` and ``n_rows`` are the parts' totals
    and ``n_entries`` at least their matrix entries plus extras.
    """
    first = big.num_vars
    lower, upper, obj = np.empty(n_vars), np.empty(n_vars), np.empty(n_vars)
    rhs_all, rels = np.empty(n_rows), np.empty(n_rows, dtype="<U2")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indices, data = np.empty(n_entries, dtype=np.int64), np.empty(n_entries)
    var_names, row_names, spans = [], [], []
    columns = {}  # id(dual) -> (dual, its CSC matrix, bounds and names), made once per dual
    v = r = e = 0
    for prefix, pieces, cost, rhs, scale, (xrows, xcols, xvals) in parts:
        rows_of, start = pieces[0][0], v
        nr = rows_of.num_rows
        owner, cols, vals = [xrows], [xcols], [xvals]
        for dual, lo, hi in pieces:
            if id(dual) not in columns:
                columns[id(dual)] = (dual, dual.row_matrix().tocsc(), dual.lower, dual.upper,
                                     dual.var_names)
            _, mat, lb, ub, names = columns[id(dual)]
            lower[v:v + hi - lo], upper[v:v + hi - lo] = lb[lo:hi], ub[lo:hi]
            var_names += [prefix + name for name in names[lo:hi]]
            span = slice(mat.indptr[lo], mat.indptr[hi])
            owner.append(mat.indices[span])
            cols.append(first + v + np.repeat(np.arange(hi - lo), np.diff(mat.indptr[lo:hi + 1])))
            vals.append(mat.data[span])
            v += hi - lo
        obj[start:v], rhs_all[r:r + nr], rels[r:r + nr] = scale * cost, rhs, rows_of.relations
        row_names += [prefix + name for name in rows_of.row_names]
        # each row holds its decision entries, then its block entries by column
        owner = np.concatenate(owner)
        order = np.argsort(owner, kind="stable")
        n = order.size
        indices[e:e + n] = np.concatenate(cols)[order]
        data[e:e + n] = np.concatenate(vals)[order]
        indptr[r + 1:r + nr + 1] = e + np.cumsum(np.bincount(owner, minlength=nr))
        spans.append((start, v - start, r, nr))
        r, e = r + nr, e + n
    cols = big.add_vars(n_vars, var_names, lb=lower, ub=upper, obj=obj)
    rows = big.add_rows(indptr, indices[:e], data[:e], rels, rhs_all, row_names)
    return [(cols[v:v + nv], rows[r:r + nr]) for v, nv, r, nr in spans]


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
    """Name the node whose ambiguity set is empty, if one is; the decision
    set was found feasible when the problem was built."""
    for s in problem.tree.nonleaf_ids():
        spec = problem.ambiguity.for_node(s)
        if isinstance(spec, FiniteUtilitySet):
            continue
        if feasibility_check(spec, problem.grid) == "empty":
            raise InfeasibleProblemError(f"ambiguity set at node {s} is empty", node=s)
    raise InfeasibleProblemError(message)


def _row_violations(ax, rels, rhs):
    """How far each row activity ``ax`` misses its relation and right-hand
    side (negative when slack)."""
    return np.where(rels == "<=", ax - rhs, np.where(rels == ">=", rhs - ax, np.abs(ax - rhs)))


def _solve_big(problem, big, xvar, label, blocks=None):
    """Solve a tree-wide LP and return its certificate record (see
    :func:`_certificate_data`) with its ``value``, once :func:`_pair_value`,
    the rule of every subtree and node certificate too, accepts it against
    the whole LP; a refusal raises ``"{label} solve: "`` and why.  A
    holistic tree LP comes with its node ``blocks``, whose answer columns are
    priced in (see :func:`_priced_solve`), from a basis stitched from them
    (see :func:`_start_basis`).  It runs without HiGHS's
    presolve, which costs more time than it saves there, and, if every node
    has a Kantorovich ball, with Devex pricing, whose iterations take about
    half the time of HiGHS's default dual steepest edge there (on
    questionnaire trees it loses).  The nominal LP keeps linprog's options
    and HiGHS's own start."""
    holistic = blocks is not None
    balls = holistic and all(isinstance(problem.ambiguity.for_node(s), KantorovichBallSpec)
                             for s in problem.tree.nonleaf_ids())
    priced = _answer_columns(blocks) if holistic else np.empty(0, dtype=np.int64)
    basis = _start_basis(big, blocks) if holistic else None
    sol = _priced_solve(big, priced, basis, presolve=not holistic, devex=balls)
    if sol.status in (LpStatus.INFEASIBLE, LpStatus.UNBOUNDED):
        _diagnose_and_raise(problem, f"{label} solve ended {sol.status.value}")
    if not sol.is_optimal:
        raise RuntimeError(f"{label} solve ended {sol.status.value}: {sol.message}")
    # Keep copies: the arrays read back from HiGHS sit among the solver's
    # freed blocks, and holding those raised the peak RSS of solving the
    # 341-node tree's LPs one after another by ~6 MB.
    kept = _certificate_data(big, sol.x.copy(), sol.duals.copy(), problem=problem, xvar=xvar,
                             blocks=blocks)
    cost = big.objective
    kept.value, why = _pair_value(kept.sense, cost, kept.x, kept.lower, kept.upper, kept.rows,
                                  kept.y, kept.rels, kept.rhs, cost - kept.aty,
                                  big.row_name, big.var_name)
    if why is not None:
        raise RuntimeError(f"{label} solve: {why}")
    return kept


def _priced_solve(big, priced, basis, **options):
    """Maximize the tree-wide LP ``big`` in one :class:`HighsSession` with
    ``options``, from ``basis`` (``None``: HiGHS's slack basis), the
    columns ``priced`` (the answer columns of a holistic tree LP, see
    :func:`_answer_columns`) left out of the load and priced
    in: after each optimal run, those still out are priced with its row
    duals, the ones whose reduced cost is below ``-DEFAULT_TOL`` are added,
    and HiGHS re-runs warm, until none prices in (column generation;
    Dantzig and Wolfe, Oper. Res. 8(1), 1960).  Returns the
    :class:`LpSolution` of the whole LP, or of the first run that ends
    without an optimum.  Columns never loaded read 0; :func:`_solve_big`'s
    certificate holds their reduced costs to their bounds ``[0, inf)``.

    Each answer row of a node's one-stage LP is one such column, and few
    bind: on a 5^3 tree with 200 answers per node, 173 of 6,178 were
    loaded, in four runs that took about half the HiGHS time of the whole
    LP.  A tree without answers loads in full and runs once.  The session
    goes on return, so HiGHS's memory is freed before the answer is
    certified."""
    session = HighsSession(big, **options)
    waiting, reduced = priced, np.empty(0)
    session.load(-big.objective, skip=waiting, basis=basis)  # HiGHS minimizes; tree LPs maximize
    x = session.run()
    while x is not None and waiting.size:
        reduced = session.reduced_costs(waiting)
        enter = reduced < -DEFAULT_TOL
        if not enter.any():
            break
        session.add(waiting[enter])
        waiting, reduced = waiting[~enter], reduced[~enter]
        x = session.run()
    if x is None:
        return LpSolution(session.status, message=session.message)
    return session.answer(x, reduced)


def _start_basis(big, blocks):
    """A start basis for the tree LP ``big``, a crash basis built from its
    structure (Bixby, ORSA J. Comput. 4(3), 1992): every row basic and every
    column at a bound (:func:`~prefrobust.lp.at_bound`), the decisions at
    the ``xbar`` of :func:`_shape_basis`, until each of the ``blocks`` takes
    its shape's statuses, if it has any.  Every row has one basic entry."""
    cols, rows = at_bound(big.lower, big.upper)[0], np.full(big.num_rows, BASIC, np.int8)
    for nb in blocks.values():
        if nb.start is not None:
            cols[nb.cols[:nb.start[0].size]], rows[nb.rows] = nb.start
    return cols, rows


def solve_holistic(problem):
    """Maximin policy when every node carries a Kantorovich ball or elicited
    pairwise comparisons; one tree may mix the two."""
    # perfbench/layers.py times this layer by wrapping _solve_holistic by name
    return _solve_holistic(problem)


def _solve_holistic(problem, label="holistic"):
    """The policy of a certified solve of ``problem``'s tree LP, which
    keeps the solve's certificate record; a failed solve names ``label``."""
    big, xvar, blocks = _assemble_holistic(problem)
    return _holistic_policy(problem, big, _solve_big(problem, big, xvar, label, blocks=blocks))


def _template_key(spec, n_children):
    """Nodes with equal keys have one-stage LPs with one supporting-line
    base.  Ball nodes of one key differ only in their LPs' costs and
    right-hand sides; questionnaire nodes also in their answer rows."""
    return type(spec), n_children, spec.L, spec.L_tilde


def _assemble_holistic(problem):
    """The tree LP: decision columns and constraint rows first (constraint
    ``k`` on row ``k``), then one dual block per non-leaf node in id order.
    Returns it with the decision columns and the blocks per node.

    Each shape (see :func:`_template_key`) gets one template per call,
    dualized once: a ball shape's whole LP (:func:`node_primal`), a
    questionnaire shape's supporting-line base (:func:`supporting_line_primal`).
    The answer rows of a questionnaire shape's nodes (each node's ``pc[k]``
    from 0) are stacked on one copy of the base's columns in one
    :func:`append_pairwise_rows` call and dualized once too; as
    dualization is positional, the base's dual plus the columns of a node's
    answer rows is the dual of the base plus that node's answers.
    Every node stamps its own data into copies of its template's costs and
    right-hand sides: its primal costs become the dual's right-hand sides
    and its primal right-hand sides the dual's costs.  All blocks then enter
    the tree LP in one splice (:func:`_splice_dual_blocks`).  A node's
    answer columns, the duals of its answer rows, close its block; its
    :class:`_NodeBlock` reports them in ``answers``, for
    :func:`_priced_solve` to price in, and in ``start`` its shape's basis
    (see :func:`_shape_basis`), for :func:`_start_basis`."""
    tree, grid = problem.tree, problem.grid
    pu = tree.unconditional_probs()
    specs, keys = {}, {}
    for s in tree.nonleaf_ids():
        spec = specs[s] = problem.ambiguity.for_node(s)
        if not isinstance(spec, (KantorovichBallSpec, PairwiseComparisonSpec)):
            raise TypeError(
                f"node {s}: expected a Kantorovich ball or pairwise comparisons, "
                f"got {type(spec).__name__}")
        for i in tree.children[s]:
            # a block's value and utility are read back divided by its node's probability
            if not pu[i] > 0.0:
                raise ValueError(f"node {i} is reached with probability {float(pu[i])!r}; "
                                 "the tree LP needs every node's to be positive")
        keys[s] = _template_key(spec, len(tree.children[s]))
    big = LinearProgram("max", name="tree")
    xvar = problem.add_decisions(big)

    child_data, templates, starts, asked, own = {}, {}, {}, {}, {}
    sizes = np.zeros(3, dtype=np.int64)
    for s, key in keys.items():
        spec, kids = specs[s], tree.children[s]
        probs = np.array([tree.nodes[i].prob for i in kids])
        offsets = np.array([problem.rewards[i].offset for i in kids])
        coef = np.array([problem.rewards[i].coef for i in kids])
        child_data[s] = probs, offsets, coef
        if key not in templates:
            if isinstance(spec, KantorovichBallSpec):
                node = node_primal(offsets, probs, spec, grid)
            else:
                node = NodeLP(*supporting_line_primal(offsets, probs, grid, spec.L, spec.L_tilde))
                asked[key] = []
            templates[key] = node, dualize(node.lp)
            with np.errstate(over="ignore", invalid="ignore"):  # _shape_basis refuses it
                h = offsets + coef @ at_bound(*problem.decision_bounds[s])[1]
            starts[key] = _shape_basis(*templates[key], h, probs, spec, grid)
        node, dual = templates[key]
        rows = entries = 0
        if key in asked:  # one answer row per answer, one entry at most per lottery outcome
            start = own[asked[key][-1]][1] if asked[key] else 0
            rows, entries = len(spec), spec.arrays.outcomes.size
            own[s] = start, start + rows
            asked[key].append(s)
        sizes += (dual.num_vars + rows, dual.num_rows,
                  dual.row_matrix().nnz + entries + np.count_nonzero(coef))
    answers = {key: _dualized_answers(templates[key][0], grid, [specs[s].arrays for s in nodes])
               for key, nodes in asked.items()}

    stamps = {}

    def parts():
        for s, key in keys.items():
            spec, (probs, offsets, coef) = specs[s], child_data[s]
            node, dual = templates[key]
            primal_cost, primal_rhs = node.stamped(offsets, probs, spec, grid)
            pieces = [(dual, 0, dual.num_vars)]
            if key in answers:  # the answer rows' right-hand sides are their duals' costs
                lo, hi = own[s]
                pieces.append((answers[key], lo, hi))
                primal_rhs = np.concatenate([primal_rhs, answers[key].objective[lo:hi]])
            stamps[s] = node.block.alpha, primal_rhs
            pos, k = np.nonzero(coef)
            yield (f"n{s}.", pieces, primal_rhs, primal_cost, float(pu[s]),
                   (node.eps[pos], xvar[s][k], -probs[pos] * coef[pos, k]))

    spans = _splice_dual_blocks(big, parts(), *sizes.tolist())
    blocks = {s: _NodeBlock(cols, rows, *stamps[s], float(pu[s]),
                            cols[templates[keys[s]][1].num_vars:], starts[keys[s]])
              for s, (cols, rows) in zip(keys, spans)}
    return big, xvar, blocks


def _shape_basis(node, dual, h, probs, spec, grid):
    """The basis of ``dual``, the dual of a shape's one-stage LP ``node``
    (no answers), stamped with a node's ``spec``, outcome ``probs`` and
    rewards ``h``, which the shape's first node has at its decisions' box
    ends (the ``xbar`` of :func:`~prefrobust.lp.at_bound`), solved with
    linprog's options; ``None`` if ``h`` is not finite or the run does not
    end optimal."""
    if not np.all(np.isfinite(h)):  # a box end far out may overflow a reward
        return None
    cost, rhs = node.stamped(h, probs, spec, grid)
    session = HighsSession(dual)
    session.load(-rhs, cost)  # the dual maximizes; its right-hand sides are the primal costs
    return None if session.run() is None else session.basis()


def _dualized_answers(node, grid, arrays):
    """The dual of the answer rows of a questionnaire shape's nodes, one
    :class:`PairArrays` each in ``arrays``, stacked in one block (each
    node's ``pc[k]`` from 0) on a copy of the columns of its supporting-line
    base ``node``."""
    lp = LinearProgram(node.lp.sense, name="answers")
    lp.add_vars(node.lp.num_vars, lb=node.lp.lower, ub=node.lp.upper)
    append_pairwise_rows(lp, node.block.alpha, grid, *arrays)
    return dualize(lp)


def _answer_columns(blocks):
    """The answer columns of the tree LP whose node blocks are ``blocks``,
    which :func:`_priced_solve` prices in."""
    return np.concatenate([np.empty(0, dtype=np.int64)]
                          + [nb.answers for nb in blocks.values()])


def _holistic_policy(problem, big, kept):
    """Policy read back from the certificate record ``kept`` of a solve of
    the assembled tree LP ``big`` (see :func:`_solve_big`), which it keeps:
    each node's value from its block's costs, its worst-case utility from
    the marginals of its alpha rows."""
    obj = big.objective
    per_node = {}
    for s, nb in kept.blocks.items():
        val = float(np.dot(obj[nb.cols], kept.x[nb.cols])) / nb.prob
        alpha = kept.y[nb.rows[nb.alpha]] / nb.prob
        per_node[s] = NodeValue(
            problem.tree.nodes[s].stage, val, _utility_from_marginals(problem.grid, alpha, s))
    decisions = {s: kept.x[cols] for s, cols in kept.xvar.items()}
    return Policy(decisions, kept.value, per_node, kept)


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

    kept = _solve_big(problem, big, xvar, "nominal")
    decisions = {s: kept.x[cols] for s, cols in xvar.items()}
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
    return Policy(decisions, kept.value, per_node)


# --------------------------------------------------------------- evaluation
def _node_outcomes(problem, s, decisions):
    kids = problem.tree.children[s]
    x = np.asarray(decisions[s], dtype=float)
    rewards = [problem.rewards[i] for i in kids]
    values = [float(np.dot(r.coef, x)) + r.offset for r in rewards]
    probs = [problem.tree.nodes[i].prob for i in kids]
    if not all(p > 0 for p in probs):  # a child never reached is refused
        raise ValueError(f"node {s}: outcome probabilities must be positive")
    return DiscreteLottery(values, probs)


def _node_worst_case(problem, s, dist, template):
    spec = problem.ambiguity.for_node(s)
    if isinstance(spec, FiniteUtilitySet):
        return worst_case_finite(dist, spec)
    if isinstance(spec, KantorovichBallSpec):
        return worst_case_kantorovich_primal(dist, spec, problem.grid, template)
    if isinstance(spec, PairwiseComparisonSpec):
        return worst_case_pairwise(dist, spec, problem.grid, template)
    raise TypeError(f"node {s}: unsupported ambiguity type {type(spec).__name__}")


def _check_decisions(problem, decisions):
    """Refuse a plan that misses a node, has a decision for a node that
    takes none, or breaks a bound or a row."""
    tree = problem.tree
    stray = set(decisions) - set(tree.nonleaf_ids())
    if stray:
        raise ValueError(f"the plan has decisions for non-decision nodes {sorted(stray)}")
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


def _nested_worst_cases(problem, decisions, kept=None):
    """The one-stage worst case under ``decisions`` of every non-leaf node,
    which depends only on the node's decision, children and spec.

    With ``kept``, the certificate record of a tree solve of ``problem``
    (see :func:`_certificate_data`), each node's outcomes are checked and
    :func:`_node_certificate` tried, on the calling thread in node order.
    The nodes it refuses, and without ``kept`` every node, are solved cold,
    each in its own HiGHS instance as it would be on its own.  A node LP
    (a :func:`node_primal`) that two or more of them share up to its costs
    and right-hand sides is built once, with its HiGHS layout, before the
    solves start, and each of its nodes stamps its own costs and right-hand
    sides into it; a node of an LP of its own (a questionnaire with its own
    answers) builds it in its own solve, so such LPs do not pile up.  The
    cold solves run on one worker thread per usable core, since HiGHS lets
    go of the interpreter lock while it runs; every node runs, and then the
    first failure in node order is raised."""
    tree, templates = problem.tree, {}
    specs = {s: problem.ambiguity.for_node(s) for s in tree.nonleaf_ids()}
    # ball and questionnaire nodes of one key share their LP: _template_key,
    # plus a questionnaire's answers, which stamping does not write
    keys = {s: (_template_key(sp, len(tree.children[s])),
                sp if isinstance(sp, PairwiseComparisonSpec) else None)
            for s, sp in specs.items()
            if isinstance(sp, (KantorovichBallSpec, PairwiseComparisonSpec))}

    def template(s):
        if keys[s] not in templates:
            kids = tree.children[s]
            templates[keys[s]] = node_primal([problem.rewards[i].offset for i in kids],
                                             [tree.nodes[i].prob for i in kids], specs[s],
                                             problem.grid)
        return templates[keys[s]]

    def value(s, certify=False):
        dist = _node_outcomes(problem, s, decisions)
        try:
            if certify:  # outcomes the cold solve refuses are refused here too
                _check_outcomes(dist, problem.grid)
                return _node_certificate(problem, s, dist, template(s), kept)
            res = _node_worst_case(problem, s, dist, templates.get(keys.get(s)))
        except ValueError as exc:  # the outcome checks do not know the node
            raise ValueError(f"node {s}: {exc}") from exc
        if res.status != "optimal":
            raise InfeasibleProblemError(f"worst case at node {s} is {res.status}", node=s)
        return res.value

    wc = {s: value(s, certify=True) for s in specs} if kept is not None else {}
    cold = [s for s in specs if wc.get(s) is None]
    uses = Counter(keys[s] for s in cold if s in keys)
    for s in cold:
        if uses[keys.get(s)] > 1:
            template(s).layout  # fill the shared cache before the threads read it
    if cold:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            cores = os.cpu_count() or 1
        pool = ThreadPoolExecutor(min(cores, len(cold)))
        try:
            futures = [pool.submit(value, s) for s in cold]
            wait(futures)
        finally:  # after an interrupt, the items not started are dropped
            pool.shutdown(cancel_futures=True)
        wc.update((s, f.result()) for s, f in zip(cold, futures))
    return wc


def evaluate_policy_worst_case(problem, decisions, mode="nested"):
    """Worst-case value of fixed decisions.

    ``nested`` re-minimizes at every node separately (each node may face its
    own adversary), which is the quantity the holistic solver maximizes under
    per-node ambiguity.  Each node's one-stage LP is stamped from one
    template per shape and solved cold in its own HiGHS instance, so its
    value has the bits of that LP built and solved on its own.
    ``sequence_global`` forces one utility per stage across all that stage's
    nodes and minimizes over whole assignments; it is only available when
    every node shares one finite utility set, where the minimum splits by
    stage because the objective is a sum over stages.

    The plan must give every non-leaf node, and no other, a decision of the
    node's length that meets its bounds and every constraint row within
    1e-7; otherwise a ``ValueError`` names the node or the row.
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
                    acc += pu[s] * float(np.dot(d.probs, u(np.asarray(d.support))))
                scores.append(acc)
            total += min(scores)
        return float(total)
    raise ValueError(f"unknown evaluation mode {mode!r}")


# --------------------------------------------------------- time consistency
def _subtree_rows(problem, s, inside, decisions):
    """The constraint rows that the subtree of ``s`` (its nodes are
    ``inside``) keeps, as ``(index, row)`` pairs in constraint order.  With
    the parent decision fixed by ``decisions``, a root row on it alone is a
    constant: it is dropped when it holds within 1e-7 and refused with a
    ``ValueError`` naming it otherwise.  The parent decision's part of every
    other root row is folded into its right-hand side."""
    for idx, con in enumerate(problem.constraints):
        if con.node not in inside:
            continue
        if con.node == s and con.coef_parent:
            fixed = np.asarray(decisions[problem.tree.nodes[s].parent], dtype=float)
            part = sum(v * fixed[k] for k, v in con.coef_parent.items())
            if not con.coef_self:
                _check_row(con, idx, part)
                continue
            con = NodeConstraint(con.node, con.rel, con.rhs - part, con.coef_self)
        yield idx, con


def subtree_problem(problem, node_id, decisions):
    """Re-rooted copy of the problem with the history fixed by
    ``decisions``: its rows are those :func:`_subtree_rows` keeps.  Returns
    the new problem together with the new-id -> original-id map."""
    tree = problem.tree
    if tree.is_leaf(node_id):
        raise ValueError(f"node {node_id} is a leaf")
    view = tree.subtree(node_id)
    orig = view.original_ids
    new_of = {o: n for n, o in enumerate(orig)}

    bounds = {new_of[o]: problem.decision_bounds[o] for o in orig if not tree.is_leaf(o)}
    rewards = {new_of[o]: problem.rewards[o] for o in orig if o != node_id}
    specs = {new_of[o]: problem.ambiguity.for_node(o) for o in orig if not tree.is_leaf(o)}

    cons = [NodeConstraint(new_of[con.node], con.rel, con.rhs, dict(con.coef_self),
                           dict(con.coef_parent))
            for _, con in _subtree_rows(problem, node_id, new_of, decisions)]
    sub = MultistageProblem(
        view.tree, bounds, rewards, StateDependentAmbiguity(specs), problem.grid, cons)
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


def check_time_consistency(problem, policy, subtree_solver=None):
    """Compare each subtree's optimum with what the policy achieves on it.

    A positive discrepancy at a node means the policy stops being optimal
    once that node is reached: the plan is time-inconsistent there.
    Per-node ambiguity keeps every discrepancy at solver noise; a shared
    state-independent set need not.

    What the policy achieves: the plan is checked before anything is
    solved, and each node's one-stage worst case under it is found once by
    :func:`_nested_worst_cases`, from the policy's certificate record where
    that record is of ``problem`` itself (the same object), as one from
    :func:`solve_holistic` is.  A subtree's achieved value is the sum of its
    nodes' worst cases weighted by their probabilities given the subtree's
    root, which is exactly what :func:`evaluate_policy_worst_case` returns
    on the re-rooted problem.

    Each subtree's optimum is certified from the same record by
    :func:`_subtree_certificate`, and the tree LP is not assembled again;
    without such a record the tree LP is solved once here (its decisions are
    not the plan's, so it certifies no node worst case).  A refused subtree
    is rebuilt by :func:`subtree_problem`, and its LP solved and certified
    like the tree LP; one whose solve fails or is refused raises, naming its
    root.

    ``subtree_solver`` replaces the tree solve and the subtree certificates
    and re-solves (required for ambiguity types they do not cover): it
    receives the re-rooted :class:`MultistageProblem` of every subtree and
    must return an object with a ``value`` attribute.  With it, every node
    worst case is solved cold.

    Each cold node worst case is the same computation on any thread, so the
    report does not depend on the core count.  The subtrees run on the
    calling thread in node order, and the first failing one raises.
    """
    tree, decisions = problem.tree, policy.decisions
    _check_decisions(problem, decisions)
    kept = policy._tree_solve
    own = subtree_solver is None and kept is not None and kept.problem is problem
    wc = _nested_worst_cases(problem, decisions, kept if own else None)
    if subtree_solver is None and not own:
        kept = _solve_holistic(problem, "subtree 0")._tree_solve

    def entry(s):
        order = tree.descendants(s)
        # probabilities given s, root-down as unconditional_probs() on the subtree
        pu = {s: 1.0}
        for n in order[1:]:
            pu[n] = pu[tree.nodes[n].parent] * tree.nodes[n].prob
        achieved = 0.0
        for n in order:
            if n in wc:
                achieved += pu[n] * wc[n]
        if subtree_solver is not None:
            local = float(subtree_solver(subtree_problem(problem, s, decisions)[0]).value)
        else:
            local = _subtree_certificate(problem, kept, order, pu, decisions)
            if local is None:
                local = _solve_holistic(subtree_problem(problem, s, decisions)[0],
                                        f"subtree {s}").value
        achieved = float(achieved)
        return TimeConsistencyEntry(s, tree.nodes[s].stage, local, achieved, local - achieved)

    return TimeConsistencyReport([entry(s) for s in tree.nonleaf_ids()], _CONSISTENT_TOL)


def _pair_value(sense, cost, x, lower, upper, off, y, rels, rhs, reduced,
                row_name=str, var_name=str):
    """``(cost'x, None)`` if the candidate primal point ``x`` of an LP of
    sense ``sense`` and the candidate row duals ``y`` pass three checks,
    else ``(None, why)``: the check failed and the row or column (named by
    ``row_name`` or ``var_name``) where it fails worst.  ``off`` is each
    row's violation by ``x`` (see :func:`_row_violations`), ``reduced`` the
    reduced costs ``cost - A'y``, and ``rels``, ``rhs``, ``lower`` and
    ``upper`` the LP's.

    * ``x`` meets the rows and bounds within ``_RESIDUAL_TOL``;
    * the duals have their relations' signs, and no reduced cost points past
      an infinite bound, both within ``_RESIDUAL_TOL``.  A maximization
      needs a ``<=`` row's dual >= 0, a ``>=`` row's <= 0, a reduced cost
      <= 0 below an infinite upper bound and >= 0 above an infinite lower
      one; a minimization the reverse of each;
    * the primal and dual values differ by at most ``_GAP_TOL * (1 + |value|)``.
      The dual value is ``b'y`` plus each column's reduced cost times the
      bound it prices (``x`` where that bound is infinite): by weak duality,
      a bound on the optimum.  The gap sums ``y_i (a_i x - b_i)`` and
      ``r_j (x_j - priced_j)``; its largest term is named.
    """
    m = off.size

    def where(k):  # k indexes the rows, then the columns, repeated
        return f"row {row_name(k)}" if k < m else f"column {var_name((k - m) % x.size)}"

    sign = 1.0 if sense == "max" else -1.0
    primal = np.concatenate([off, lower - x, x - upper])
    worst = np.max(primal, initial=0.0)
    if not worst <= _RESIDUAL_TOL:
        return None, f"x violates a row or bound by {worst:.3g} at {where(np.argmax(primal))}"
    dual = np.concatenate([sign * np.where(rels == "<=", -y, np.where(rels == ">=", y, 0.0)),
                           np.where(upper == math.inf, sign * reduced, -math.inf),
                           np.where(lower == -math.inf, -sign * reduced, -math.inf)])
    worst = np.max(dual, initial=0.0)
    if not worst <= _RESIDUAL_TOL:
        k = int(np.argmax(dual))
        if k < m:
            return None, f"row {row_name(k)} ({rels[k]}) has dual {y[k]:.3g} of the wrong sign"
        r = reduced[(k - m) % x.size]
        return None, f"{where(k)} has reduced cost {r:.3g} {'>' if r > 0 else '<'} 0"
    value = float(cost @ x)
    priced = np.where(sign * reduced > 0.0, upper, lower)
    priced = np.where(np.isfinite(priced), priced, x)
    dual_value = float(rhs @ y) + float(reduced @ priced)
    gap = abs(value - dual_value)
    if not gap <= _GAP_TOL * (1.0 + abs(value)):
        terms = np.abs(np.concatenate([y * off, reduced * (x - priced)]))
        return None, (f"primal objective {value!r} and dual objective {dual_value!r} differ "
                      f"by {gap:.3g}, most at {where(np.argmax(terms))}")
    return value, None


def _certificate_data(big, x, y, **record):
    """The certificate record of the solve ``x``, ``y`` (row duals) of the
    tree LP ``big``: what every certificate reads of it (``x``, ``y``,
    ``A'y``, each row's violation by ``x``, and the LP's sense, rhs,
    relations and bounds), plus ``record``: a tree solve's ``problem``,
    decision columns ``xvar`` and node ``blocks``."""
    mat, rels, rhs = big.row_matrix(), big.relations, big.rhs
    return SimpleNamespace(
        x=x, y=y, aty=mat.T @ y, sense=big.sense, rhs=rhs, rels=rels, lower=big.lower,
        upper=big.upper, rows=_row_violations(mat @ x, rels, rhs), **record)


def _node_certificate(problem, s, dist, template, kept):
    """Node ``s``'s one-stage worst case under the outcomes ``dist``, from
    its block of the tree solve ``kept`` (see :func:`_certificate_data`),
    or ``None`` if the pair is refused.

    The block's row duals divided by its node's probability are a candidate
    utility (a primal point of the node's LP) and its columns a candidate
    dual point.  They are checked by :func:`_pair_value` against the node's
    LP, ``template`` stamped with ``dist``: a :func:`node_primal` built on
    its own, not the tree LP's rows, so the check does not rest on
    :func:`dualize`."""
    lp, nb = template.lp, kept.blocks[s]
    cost, rhs = template.stamped(dist.support, dist.probs, problem.ambiguity.for_node(s),
                                 problem.grid)
    mat, rels = lp.row_matrix(), lp.relations
    u, w = kept.y[nb.rows] / nb.prob, kept.x[nb.cols]
    return _pair_value(lp.sense, cost, u, lp.lower, lp.upper,
                       _row_violations(mat @ u, rels, rhs), w, rels, rhs, cost - mat.T @ w)[0]


def _subtree_certificate(problem, kept, order, pu, decisions):
    """The optimal value of the LP that :func:`subtree_problem` and
    :func:`_assemble_holistic` build for the subtree ``order``, from the
    tree solve ``kept`` (see :func:`_certificate_data`).

    That LP is a part of the assembled tree LP: its rows are the rows
    :func:`_subtree_rows` keeps, then its nodes' blocks; its columns are its
    decisions, then its blocks; its costs are each block's costs times the
    node's probability ``pu`` given the subtree's root.  The tree solve
    restricted to those rows and columns, duals rescaled to those costs,
    gives its value, if :func:`_pair_value` accepts the pair (root rows
    folded); else ``None``.
    """
    xvar, blocks = kept.xvar, kept.blocks
    s = order[0]
    scale = blocks[s].prob  # the tree LP's costs are the subtree LP's times this
    nodes = [n for n in order if n in blocks]
    cons = list(_subtree_rows(problem, s, set(order), decisions))
    rows = np.concatenate([np.array([k for k, _ in cons], dtype=np.int64)]
                          + [blocks[n].rows for n in nodes])
    cols = np.concatenate([xvar[n] for n in nodes] + [blocks[n].cols for n in nodes])
    cost = np.concatenate([np.zeros(sum(xvar[n].size for n in nodes))]
                          + [pu[n] * blocks[n].cost for n in nodes])
    rhs, off, rels = kept.rhs[rows], kept.rows[rows], kept.rels[rows]
    folded = [p for p, (k, con) in enumerate(cons)
              if con.node == s and problem.constraints[k].coef_parent]
    if folded:
        rhs[folded] = [cons[p][1].rhs for p in folded]
        own = kept.x[xvar[s]]  # a folded root row keeps only the root's own columns
        lhs = [sum(v * own[k] for k, v in cons[p][1].coef_self.items()) for p in folded]
        off[folded] = _row_violations(np.array(lhs), rels[folded], rhs[folded])
    return _pair_value(kept.sense, cost, kept.x[cols], kept.lower[cols], kept.upper[cols], off,
                       kept.y[rows] / scale, rels, rhs, cost - kept.aty[cols] / scale)[0]
