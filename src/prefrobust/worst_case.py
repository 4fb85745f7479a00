"""One-stage worst-case expected utility over an ambiguity set.

Given a ``DiscreteLottery`` of outcomes (the children of one tree node) and a
description of plausible utilities, compute ``min_u E[u(h)]`` together with
a minimizing utility.  For Kantorovich-ball and pairwise-comparison sets the
problem is an LP over the utility's breakpoint values and slopes; outcomes
that fall between breakpoints are handled by one supporting line per
outcome, valid because the utility block always imposes concavity.  For
finite sets the minimum is taken by direct enumeration.

Every LP here is available in two forms: the primal, built from blocks of
rows, and the mechanical dual produced by the generic dualizer.  The two
must agree to solver tolerance — the multistage assembly consumes the dual
blocks, so this agreement is what ties the tree solver back to the
definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambiguity import FiniteUtilitySet, KantorovichBallSpec, PairwiseComparisonSpec
from .blocks import (
    UtilityBlock,
    add_band,
    append_ball_membership,
    append_pairwise_rows,
    append_utility_block,
)
from .lp import HighsSession, LinearProgram, LpStatus, _program_pair_value, dualize
# ``project`` is used here only by perfbench/layers.py, which wraps this
# module global by name.
from .utility import PiecewiseLinearUtility, project  # noqa: F401

# how far an outcome, or a reward that becomes one, may lie outside the utility domain
DOMAIN_TOL = 1e-9


@dataclass
class WorstCaseResult:
    status: str  # "optimal" | "infeasible"
    value: float | None = None
    utility: object = None
    member_index: int | None = None

    @property
    def is_optimal(self):
        return self.status == "optimal"


def _grid_for(spec, grid):
    if grid is None:
        if not isinstance(spec, KantorovichBallSpec):
            raise ValueError("a grid is required for this spec")
        return np.asarray(spec.nominal.breakpoints, dtype=float)
    return np.asarray(grid, dtype=float)


def _check_outcomes(dist, y):
    lo, hi = y[0] - DOMAIN_TOL, y[-1] + DOMAIN_TOL
    for v in dist.support:
        if not lo <= v <= hi:
            raise ValueError(f"outcome {v!r} outside the utility domain [{y[0]}, {y[-1]}]")


def supporting_line_primal(values, probs, y, L, L_tilde):
    """Base LP: minimize sum_i q_i (eps_i h_i + fee_i) over the utility block
    plus one over-line (eps_i, fee_i) per outcome, pinned above the utility
    at every breakpoint.  Returns the eps and fee indices too; the tree
    solver splices decision columns into the dual rows of the eps variables."""
    lp = LinearProgram("min", name="worst-case")
    block = append_utility_block(lp, y, L, L_tilde)
    S = len(values)
    q = np.asarray(probs, dtype=float)
    eps = lp.add_vars(S, "eps", lb=0.0, obj=q * np.asarray(values, dtype=float))
    fee = lp.add_vars(S, "fee", lb=-np.inf, obj=q)
    N = y.size
    add_band(lp, np.column_stack([np.repeat(eps, N), np.repeat(fee, N), np.tile(block.alpha, S)]),
             np.column_stack([np.tile(y, S), np.ones(S * N), -np.ones(S * N)]), ">=", 0.0,
             [f"sup[{i},{j}]" for i in range(S) for j in range(N)])
    return lp, block, eps, fee


@dataclass
class NodeLP:
    """A one-stage node LP and where its node data sit.  Outcome ``i`` is
    priced on ``eps[i]`` at ``q_i h_i`` and on ``fee[i]`` at ``q_i``; a ball's
    radius is the right-hand side of row ``budget`` and its negated nominal
    slopes those of rows ``match``.  Everything else depends only on the
    grid, the child count, ``L``, ``L_tilde`` and (for questionnaires) the
    answers.  ``session`` holds the LP as the last node solved from it left
    it in HiGHS (see :func:`_worst_case_primal`)."""

    lp: LinearProgram
    block: UtilityBlock
    eps: np.ndarray
    fee: np.ndarray
    budget: int | None = None
    match: np.ndarray | None = None
    session: HighsSession | None = field(default=None, repr=False, compare=False)

    def stamped(self, values, probs, spec, y):
        """The costs and right-hand sides of ``node_primal(values, probs,
        spec, y)``, written into copies of this LP's, for a node whose LP
        has this one's matrix.  They are the right-hand sides and costs of
        its mechanical dual."""
        q = np.asarray(probs, dtype=float)
        cost, rhs = self.lp.objective, self.lp.rhs
        cost[self.eps] = q * np.asarray(values, dtype=float)
        cost[self.fee] = q
        if self.budget is not None:
            rhs[self.budget] = spec.radius
            rhs[self.match] = -spec.nominal_on(y).slopes
        return cost, rhs


def node_primal(values, probs, spec, y):
    """One-stage worst-case LP of a ball or questionnaire node: the
    supporting-line base of :func:`supporting_line_primal` plus the set's own
    rows (ball membership around the nominal on ``y``, or one row per
    answer), as a :class:`NodeLP`.  The tree solver builds it once per ball
    shape, the nested evaluation once per LP that nodes share, and each
    stamps every other node of that shape from it."""
    lp, block, eps, fee = supporting_line_primal(values, probs, y, spec.L, spec.L_tilde)
    if isinstance(spec, KantorovichBallSpec):
        rows = append_ball_membership(
            lp, block.beta, spec.nominal_on(y).slopes, y, spec.radius)["rows"]
        return NodeLP(lp, block, eps, fee, rows["budget"], np.asarray(rows["match"]))
    if isinstance(spec, PairwiseComparisonSpec):
        append_pairwise_rows(lp, block.alpha, y, spec.arrays)
        return NodeLP(lp, block, eps, fee)
    raise TypeError(f"no one-stage worst-case LP for {type(spec).__name__}")


def _utility_from(y, alpha_values):
    return PiecewiseLinearUtility(y, np.asarray(alpha_values, dtype=float))


def _worst_case_primal(dist, spec, grid, template):
    """Stamp the node's data into ``template``, or into its own
    :func:`node_primal`, and solve that LP: warm from the last basis if the
    template holds a session, else, or if that answer is not a certified
    optimum, cold in a fresh HiGHS instance the template keeps.  A refused
    cold answer raises."""
    y = _grid_for(spec, grid)
    _check_outcomes(dist, y)
    node = template or node_primal(dist.support, dist.probs, spec, y)
    cost, rhs = node.stamped(dist.support, dist.probs, spec, y)
    for warm in (True, False)[node.session is None:]:
        if warm:
            node.session.restamp(cost, rhs)
        else:
            node.session = HighsSession(node.lp)
            node.session.load(cost, rhs)
        session, x = node.session, node.session.run()
        why = f"ended {session.status.value}: {session.message}"
        if x is not None:
            value, why = _program_pair_value(node.lp, cost, rhs, x, session.answer(x).duals)
            if why is None:
                return WorstCaseResult("optimal", value, _utility_from(y, x[node.block.alpha]))
        elif session.status is LpStatus.INFEASIBLE and not warm:
            return WorstCaseResult("infeasible")
    raise RuntimeError(f"worst-case LP: {why}")


def worst_case_kantorovich_primal(dist, spec, grid=None, template=None):
    """``min_u E[u(h)]`` over the ball ``spec``, by the LP of
    :func:`node_primal` on ``grid``.  ``template``, a :class:`NodeLP` that
    :func:`node_primal` built on ``grid`` for a node with as many outcomes
    and a ball of the same ``L`` and ``L_tilde``, is stamped with this
    node's data instead of building its LP anew, and re-run warm from the
    last node solved from it.  Every answer, warm or cold, is certified
    against the node's LP by :func:`~prefrobust.lp._pair_value`."""
    return _worst_case_primal(dist, spec, grid, template)


def worst_case_kantorovich_dual(dist, spec, grid=None):
    """Solve the mechanical dual of the worst-case LP.  The worst-case
    utility is read off the dual solution's row marginals, which recover a
    primal optimizer."""
    y = _grid_for(spec, grid)
    _check_outcomes(dist, y)
    node = node_primal(dist.support, dist.probs, spec, y)
    dual, block = dualize(node.lp), node.block
    sol = dual.solve()
    if sol.status in (LpStatus.INFEASIBLE, LpStatus.UNBOUNDED):
        # an unbounded dual certifies an infeasible primal (empty ambiguity set)
        return WorstCaseResult("infeasible")
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"worst-case dual LP ended {sol.status.value}: {sol.message}")
    alpha = [sol.duals[j] for j in block.alpha]
    return WorstCaseResult("optimal", float(sol.objective), _utility_from(y, alpha))


def worst_case_pairwise(dist, spec: PairwiseComparisonSpec, grid, template=None):
    """As :func:`worst_case_kantorovich_primal`, over the utilities that
    agree with the answers of ``spec``; a ``template`` must have been built
    for the same ``spec``."""
    return _worst_case_primal(dist, spec, grid, template)


def worst_case_finite(dist, uset: FiniteUtilitySet):
    """Minimum expected utility over an explicit finite set; ties go to the
    lowest member index."""
    values = [dist.expectation(u) for u in uset.members]
    idx = int(np.argmin(values))
    return WorstCaseResult(
        "optimal", float(values[idx]), uset.members[idx], member_index=idx
    )
