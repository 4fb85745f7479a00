"""One-stage worst-case expected utility over an ambiguity set.

Given a discrete outcome distribution (the children of one tree node) and a
description of plausible utilities, compute ``min_u E[u(h)]`` together with
a minimizing utility.  For Kantorovich-ball and pairwise-comparison sets the
problem is an LP over the utility's breakpoint values and slopes; outcomes
that fall between breakpoints are handled by one supporting line per
outcome, valid because concavity is always imposed.  For finite sets the
minimum is taken by direct enumeration.

Every LP here is available in two forms: the primal built row by row, and
the mechanical dual produced by the generic dualizer.  The two must agree to
solver tolerance — the multistage assembly consumes the dual blocks, so this
agreement is what ties the tree solver back to the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import FiniteUtilitySet, KantorovichBallSpec, PairwiseComparisonSpec
from .blocks import append_ball_membership, append_pairwise_rows, append_utility_block
from .lp import LinearProgram, LpStatus, dualize
# ``project`` is used here only by perfbench/layers.py, which wraps this
# module global by name.
from .utility import PiecewiseLinearUtility, project  # noqa: F401


@dataclass(frozen=True)
class OutcomeDistribution:
    """Finite outcome/probability pairs for one node's children."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be non-empty and match")
        if any(p <= 0 for p in self.probs):
            raise ValueError("outcome probabilities must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {sum(self.probs)!r}, not 1")

    @classmethod
    def from_pairs(cls, pairs):
        vals, probs = zip(*pairs)
        return cls(tuple(float(v) for v in vals), tuple(float(p) for p in probs))

    @classmethod
    def point_mass(cls, value):
        return cls((float(value),), (1.0,))

    def expectation(self, utility):
        return float(sum(p * utility(v) for v, p in zip(self.values, self.probs)))


@dataclass
class WorstCaseResult:
    status: str  # "optimal" | "infeasible"
    value: float | None = None
    utility: object = None
    member_index: int | None = None
    duals: dict | None = None

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
    lo, hi = y[0] - 1e-9, y[-1] + 1e-9
    for v in dist.values:
        if not lo <= v <= hi:
            raise ValueError(f"outcome {v!r} outside the utility domain [{y[0]}, {y[-1]}]")


def supporting_line_primal(values, probs, y, L, L_tilde, concave):
    """Base LP: minimize sum_i q_i (eps_i h_i + fee_i) over the utility block
    plus one over-line (eps_i, fee_i) per outcome, pinned above the utility
    at every breakpoint.  Returns the eps indices too; the tree solver splices
    decision columns into the dual rows of exactly those variables."""
    lp = LinearProgram("min", name="worst-case")
    block = append_utility_block(lp, y, L, L_tilde, concave)
    S = len(values)
    eps = lp.add_vars(S, "eps", lb=0.0)
    fee = lp.add_vars(S, "fee", lb=-np.inf)
    for i, (h, q) in enumerate(zip(values, probs)):
        lp.set_obj(eps[i], q * h)
        lp.set_obj(fee[i], q)
        for j in range(y.size):
            lp.add_row(
                {eps[i]: y[j], fee[i]: 1.0, block.alpha[j]: -1.0},
                ">=",
                0.0,
                name=f"sup[{i},{j}]",
            )
    return lp, block, eps


def node_primal(values, probs, spec, y):
    """One-stage worst-case LP of a ball or questionnaire node: the
    supporting-line base of :func:`supporting_line_primal` plus the set's own
    rows (ball membership around the nominal on ``y``, or one row per
    answer).  Returns what :func:`supporting_line_primal` returns."""
    lp, block, eps = supporting_line_primal(
        values, probs, y, spec.L, spec.L_tilde, spec.concave)
    if isinstance(spec, KantorovichBallSpec):
        append_ball_membership(lp, block.beta, spec.nominal_on(y).slopes, y, spec.radius)
    elif isinstance(spec, PairwiseComparisonSpec):
        append_pairwise_rows(lp, block.alpha, y, spec.pairs)
    else:
        raise TypeError(f"no one-stage worst-case LP for {type(spec).__name__}")
    return lp, block, eps


def _utility_from(y, alpha_values):
    return PiecewiseLinearUtility(y, np.asarray(alpha_values, dtype=float))


def _worst_case_primal(dist, spec, grid):
    y = _grid_for(spec, grid)
    _check_outcomes(dist, y)
    lp, block, _ = node_primal(dist.values, dist.probs, spec, y)
    sol = lp.solve()
    if sol.status is LpStatus.INFEASIBLE:
        return WorstCaseResult("infeasible")
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"worst-case LP ended {sol.status.value}: {sol.message}")
    duals = {lp.row_name(k): float(sol.duals[k]) for k in range(lp.num_rows)}
    return WorstCaseResult(
        "optimal", float(sol.objective), _utility_from(y, sol.x[block.alpha]), duals=duals
    )


def worst_case_kantorovich_primal(dist, spec, grid=None):
    return _worst_case_primal(dist, spec, grid)


def worst_case_kantorovich_dual(dist, spec, grid=None):
    """Solve the mechanical dual of the worst-case LP.  The worst-case
    utility is read off the dual solution's row marginals, which recover a
    primal optimizer."""
    y = _grid_for(spec, grid)
    _check_outcomes(dist, y)
    lp, block, _ = node_primal(dist.values, dist.probs, spec, y)
    dual = dualize(lp)
    sol = dual.solve()
    if sol.status in (LpStatus.INFEASIBLE, LpStatus.UNBOUNDED):
        # an unbounded dual certifies an infeasible primal (empty ambiguity set)
        return WorstCaseResult("infeasible")
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"worst-case dual LP ended {sol.status.value}: {sol.message}")
    alpha = [sol.duals[j] for j in block.alpha]
    duals = {dual.var_name(j): float(sol.x[j]) for j in range(dual.num_vars)}
    return WorstCaseResult(
        "optimal", float(sol.objective), _utility_from(y, alpha), duals=duals
    )


def worst_case_pairwise(dist, spec: PairwiseComparisonSpec, grid):
    return _worst_case_primal(dist, spec, grid)


def worst_case_finite(dist, uset: FiniteUtilitySet):
    """Minimum expected utility over an explicit finite set; ties go to the
    lowest member index."""
    values = [dist.expectation(u) for u in uset.members]
    idx = int(np.argmin(values))
    return WorstCaseResult(
        "optimal", float(values[idx]), uset.members[idx], member_index=idx
    )
