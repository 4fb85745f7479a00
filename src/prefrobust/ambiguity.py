"""Ambiguity sets of utility functions and preference elicitation.

Three descriptions of "what we know about the decision maker" are supported,
all over normalized nondecreasing (optionally concave) PL utilities with a
Lipschitz cap L and a slope-variation cap L_tilde:

* ``PairwiseComparisonSpec`` — answers to lottery questionnaires: for each
  pair (W_k, Y_k) the recorded choice z_k constrains expected utilities.
* ``KantorovichBallSpec`` — all utilities within a given LP-Kantorovich
  distance of a nominal utility.
* ``FiniteUtilitySet`` — an explicit finite list of candidate utilities.

``StateDependentAmbiguity`` attaches one spec to every non-leaf node of a
scenario tree, which is what the multistage solvers consume.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .blocks import append_ball_membership, append_pairwise_rows, append_utility_block
from .lp import LinearProgram, LpStatus
from .utility import ClosedFormUtility, PiecewiseLinearUtility, project

log = logging.getLogger(__name__)

# slope caps of the exponential reference utility, used as the default
# utility-class bounds for every scenario
DEFAULT_L = 3.0 / (1.0 - math.exp(-3.0))
DEFAULT_LTILDE = 9.0 / (1.0 - math.exp(-3.0))

# pairwise rows get a strict margin during pure feasibility checks so that
# directly contradictory answers are reported as empty
FEASIBILITY_MARGIN = 1e-9

INDIFFERENCE_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteLottery:
    """Finitely supported lottery; support points must be grid breakpoints
    when the lottery enters an LP."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be non-empty and match")
        if not all(math.isfinite(v) for v in (*self.support, *self.probs)):
            raise ValueError(
                f"lottery support {self.support!r} and probs {self.probs!r} must be finite")
        if any(p < 0 for p in self.probs):
            raise ValueError("lottery probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"lottery probabilities sum to {sum(self.probs)!r}, not 1")

    @classmethod
    def point_mass(cls, x):
        return cls((float(x),), (1.0,))

    @classmethod
    def two_outcome(cls, x1, x2, p1):
        return cls((float(x1), float(x2)), (float(p1), 1.0 - float(p1)))

    def expectation(self, utility):
        return float(sum(p * utility(x) for x, p in zip(self.support, self.probs)))


def preference_sign(true_utility, w: DiscreteLottery, y: DiscreteLottery):
    """Recorded answer for one questionnaire pair: sign of the expected-
    utility gap, with near-indifference mapped to 0."""
    gap = w.expectation(true_utility) - y.expectation(true_utility)
    if abs(gap) < INDIFFERENCE_TOL:
        return 0
    return 1 if gap > 0 else -1


def _check_caps(L, L_tilde):
    if not (L > 0 and math.isfinite(L)):
        raise ValueError("L must be finite and positive")
    if not (L_tilde > 0 and math.isfinite(L_tilde)):
        raise ValueError("L_tilde must be finite and positive")


class PairwiseComparisonSpec:
    """Elicited preferences plus class bounds.  Pairs with z=0 carry no
    information (the answer row is multiplied by z) and are dropped."""

    def __init__(self, pairs, L=DEFAULT_L, L_tilde=DEFAULT_LTILDE, concave=True):
        _check_caps(L, L_tilde)
        kept = []
        for w, y, z in pairs:
            if z not in (-1, 0, 1):
                raise ValueError(f"answer must be -1, 0, or +1, got {z!r}")
            if z != 0:
                kept.append((w, y, int(z)))
        self.pairs = tuple(kept)
        self.L = float(L)
        self.L_tilde = float(L_tilde)
        self.concave = bool(concave)

    def __len__(self):
        return len(self.pairs)

    def table(self):
        """Answers as plain rows for export: one dict per kept pair."""
        return [
            {
                "pair": k,
                "w_support": list(w.support),
                "w_probs": list(w.probs),
                "y_support": list(y.support),
                "y_probs": list(y.probs),
                "z": z,
            }
            for k, (w, y, z) in enumerate(self.pairs)
        ]


class KantorovichBallSpec:
    """All class-feasible utilities within LP-Kantorovich distance ``radius``
    of ``nominal``."""

    def __init__(self, nominal: PiecewiseLinearUtility, radius, L=DEFAULT_L,
                 L_tilde=DEFAULT_LTILDE, concave=True):
        _check_caps(L, L_tilde)
        if not 0 <= radius < math.inf:
            raise ValueError(f"radius must be finite and nonnegative, got {radius!r}")
        L_obs, _ = nominal.lipschitz_moduli()
        if L_obs > L + 1e-9:
            log.warning(
                "nominal utility has slope %g above the class cap L=%g; "
                "the ambiguity set may be empty", L_obs, L,
            )
        self.nominal = nominal
        self.radius = float(radius)
        self.L = float(L)
        self.L_tilde = float(L_tilde)
        self.concave = bool(concave)


class FiniteUtilitySet:
    """An explicit list of candidate utilities (closed-form or PL)."""

    def __init__(self, members, state_dependent=False):
        if not members:
            raise ValueError("a finite utility set needs at least one member")
        for u in members:
            try:
                a, b = u.domain
                vals = (float(u(a)), float(u(b)))
            except AttributeError:
                raise ValueError(f"member {u!r} is not a utility object") from None
            if abs(vals[0]) > 1e-9 or abs(vals[1] - 1.0) > 1e-9:
                raise ValueError(f"member {u!r} is not normalized: {vals}")
        self.members = tuple(members)
        self.state_dependent = bool(state_dependent)

    def __len__(self):
        return len(self.members)


class StateDependentAmbiguity:
    """One ambiguity spec per non-leaf tree node, keyed by node id."""

    def __init__(self, assignment):
        self.assignment = dict(assignment)

    def for_node(self, node_id):
        try:
            return self.assignment[node_id]
        except KeyError:
            raise KeyError(f"no ambiguity spec assigned to node {node_id}") from None


def elicit_pairwise(true_utility, K, grid, seed, L=DEFAULT_L, L_tilde=DEFAULT_LTILDE,
                    concave=True):
    """Simulate K lottery questionnaires answered by ``true_utility``.

    Each lottery has two outcomes drawn without replacement from the grid
    and a head probability from {0.1, ..., 0.9}.  Draws are sequential, so
    for a fixed seed the first K pairs do not depend on the total count —
    questionnaire sets grow by refinement as K increases.  ``true_utility``
    is called once, on the array of all drawn outcomes; each answer is the
    :func:`preference_sign` of its pair.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    y = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # per pair: W's two outcomes, Y's two outcomes; W's and Y's head probability
    outcomes = np.empty((K, 4))
    heads = np.empty((K, 2))
    for k in range(K):
        outcomes[k, :2] = rng.choice(y, size=2, replace=False)
        heads[k, 0] = rng.integers(1, 10) / 10.0
        outcomes[k, 2:] = rng.choice(y, size=2, replace=False)
        heads[k, 1] = rng.integers(1, 10) / 10.0
    u = np.asarray(true_utility(outcomes.ravel()), dtype=float).reshape(K, 4)
    # the arithmetic of DiscreteLottery.expectation, one pair per entry
    gap = (heads[:, 0] * u[:, 0] + (1.0 - heads[:, 0]) * u[:, 1]) - (
        heads[:, 1] * u[:, 2] + (1.0 - heads[:, 1]) * u[:, 3])
    answers = np.where(gap > 0, 1, -1)
    answers[np.abs(gap) < INDIFFERENCE_TOL] = 0
    pairs = [
        (DiscreteLottery.two_outcome(w1, w2, pw), DiscreteLottery.two_outcome(y1, y2, py), z)
        for (w1, w2, y1, y2), (pw, py), z in zip(
            outcomes.tolist(), heads.tolist(), answers.tolist())
    ]
    return PairwiseComparisonSpec(pairs, L=L, L_tilde=L_tilde, concave=concave)


def regime_nominal(oil_price, domain=(0.0, 1.0)):
    """Reference utility by market regime: linear when the oil price is at
    or below $60 per barrel, exponential with k=3 above."""
    if oil_price <= 60.0:
        return ClosedFormUtility.linear(domain)
    return ClosedFormUtility.exponential(3.0, domain)


def feasibility_check(spec, grid):
    """Report whether any utility satisfies the spec on the grid:
    ``"feasible"`` or ``"empty"``.

    Solves the constraint-only LP over utility values.  Pairwise rows are
    tightened by a strict margin so contradictory answers (same pair, both
    signs) come back empty rather than being satisfied degenerately.
    """
    if isinstance(spec, FiniteUtilitySet):
        return "feasible"  # non-empty by construction
    y = np.asarray(grid, dtype=float)
    lp = LinearProgram("min", name="feasibility")
    block = append_utility_block(lp, y, spec.L, spec.L_tilde, spec.concave)
    if isinstance(spec, KantorovichBallSpec):
        nominal = spec.nominal
        if nominal.breakpoints.size != y.size or not np.allclose(
            nominal.breakpoints, y, atol=1e-9
        ):
            nominal = project(nominal, y)
        append_ball_membership(lp, block.beta, nominal.slopes, y, spec.radius)
    elif isinstance(spec, PairwiseComparisonSpec):
        append_pairwise_rows(lp, block.alpha, y, spec.pairs, margin=FEASIBILITY_MARGIN)
    else:
        raise TypeError(f"unsupported ambiguity spec {type(spec).__name__}")
    # the margin sits below the default solver tolerance, so emptiness from
    # contradictory answers is only visible at a tightened tolerance
    sol = lp.solve(tol=1e-10)
    if sol.status is LpStatus.OPTIMAL:
        return "feasible"
    if sol.status is LpStatus.INFEASIBLE:
        return "empty"
    raise RuntimeError(f"feasibility LP ended {sol.status.value}: {sol.message}")


def build_state_dependent(tree, spec_for_node):
    """Instantiate one ambiguity spec per non-leaf node.

    ``spec_for_node`` is either a single spec (used everywhere — the
    state-independent case) or a callable ``(tree, node_id) -> spec`` that
    may inspect the node's history.
    """
    assignment = {}
    for nid in tree.nonleaf_ids():
        spec = spec_for_node(tree, nid) if callable(spec_for_node) else spec_for_node
        if spec is None:
            raise ValueError(f"no ambiguity spec produced for node {nid}")
        assignment[nid] = spec
    return StateDependentAmbiguity(assignment)
