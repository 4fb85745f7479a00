"""Ambiguity sets of utility functions, lotteries and preference elicitation.

Three descriptions of "what we know about the decision maker" are supported,
all over normalized nondecreasing concave PL utilities with a Lipschitz cap
L and a slope-variation cap L_tilde:

* ``PairwiseComparisonSpec`` — answers to lottery questionnaires: for each
  pair (W_k, Y_k) the recorded choice z_k constrains expected utilities.
* ``KantorovichBallSpec`` — all utilities within a given LP-Kantorovich
  distance of a nominal utility.
* ``FiniteUtilitySet`` — an explicit finite list of candidate utilities.

``StateDependentAmbiguity`` attaches one spec to every non-leaf node of a
scenario tree, which is what the multistage solvers consume.
``DiscreteLottery``, checked in one place, is the package's one lottery:
a questionnaire's W_k or Y_k, or the children outcomes of a tree node.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    PairArrays,
    append_ball_membership,
    append_pairwise_rows,
    append_utility_block,
)
from .lp import LinearProgram, LpStatus
from .tree import PROB_TOL
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
    """Finitely supported lottery of floats, masses possibly zero.  Outcomes must
    lie in the domain, and on the grid for a questionnaire, when it enters an LP."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(float(v) for v in self.support))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be non-empty and match")
        for name, entries in (("support", self.support), ("probs", self.probs)):
            bad = [k for k, v in enumerate(entries) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"lottery {name}[{bad[0]}] is {entries[bad[0]]!r}, must be finite")
        if any(p < 0 for p in self.probs):
            raise ValueError("lottery probabilities must be nonnegative")
        total = math.fsum(self.probs)
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"lottery probabilities sum to {total!r}, not 1")

    @classmethod
    def point_mass(cls, x):
        return cls((x,), (1.0,))

    @classmethod
    def two_outcome(cls, x1, x2, p1):
        return cls((x1, x2), (p1, 1.0 - float(p1)))

    def expectation(self, utility):
        return float(sum(p * utility(x) for x, p in zip(self.support, self.probs)))


def preference_sign(true_utility, w: DiscreteLottery, y: DiscreteLottery):
    """Recorded answer for one questionnaire pair: sign of the expected-
    utility gap, with near-indifference mapped to 0; a non-finite gap is refused."""
    gap = w.expectation(true_utility) - y.expectation(true_utility)
    if not math.isfinite(gap):
        raise ValueError(f"expected-utility gap is {gap!r}, must be finite")
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
    information (the answer row is multiplied by z) and are dropped.

    The kept comparisons are held as :class:`PairArrays` in ``arrays``,
    which the LP rows read; ``pairs`` lists them as lottery triples."""

    def __init__(self, pairs, L=DEFAULT_L, L_tilde=DEFAULT_LTILDE):
        kept = []
        for w, y, z in pairs:
            if z not in (-1, 0, 1):
                raise ValueError(f"answer must be -1, 0, or +1, got {z!r}")
            if z != 0:
                kept.append((w, y, int(z)))
        self.pairs = tuple(kept)
        self._set(PairArrays.from_pairs(kept), L, L_tilde)

    @classmethod
    def _from_arrays(cls, arrays, L, L_tilde):
        """A spec over comparisons already in flat form, answered -1 or +1,
        whose lotteries pass :class:`DiscreteLottery`'s checks as built."""
        spec = cls.__new__(cls)
        spec._set(arrays, L, L_tilde)
        return spec

    def _set(self, arrays, L, L_tilde):
        _check_caps(L, L_tilde)
        self.arrays = arrays
        self.L = float(L)
        self.L_tilde = float(L_tilde)

    @cached_property
    def pairs(self):
        """The kept comparisons as (W, Y, z) triples, built from ``arrays``
        when first asked for."""
        a = self.arrays
        ends = np.searchsorted(a.owner, np.arange(2 * len(self) + 1)).tolist()
        xs, ps = a.outcomes.tolist(), a.masses.tolist()
        lotteries = [DiscreteLottery(tuple(xs[i:j]), tuple(ps[i:j]))
                     for i, j in zip(ends[:-1], ends[1:])]
        return tuple(zip(lotteries[0::2], lotteries[1::2], a.signs.tolist()))

    def __len__(self):
        return self.arrays.signs.size

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
                 L_tilde=DEFAULT_LTILDE):
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
        self._on = {}  # nominal_on per grid, keyed by the grid's bytes

    def nominal_on(self, grid):
        """The nominal utility on ``grid``: itself when its breakpoints are
        the grid (to 1e-9), otherwise its projection onto the grid.  It is
        found once per grid and shared, since utilities are read-only."""
        y = np.asarray(grid, dtype=float)
        key = y.tobytes()
        on = self._on.get(key)
        if on is None:
            on = self.nominal
            if on.breakpoints.size != y.size or not np.allclose(on.breakpoints, y, atol=1e-9):
                on = project(on, y)
            self._on[key] = on
        return on


class FiniteUtilitySet:
    """An explicit list of candidate utilities (closed-form or PL)."""

    def __init__(self, members):
        if not members:
            raise ValueError("a finite utility set needs at least one member")
        for u in members:
            try:
                a, b = u.domain
                vals = (float(u(a)), float(u(b)))
            except AttributeError:
                raise ValueError(f"member {u!r} is not a utility object") from None
            # written so that a NaN fails too
            if not (abs(vals[0]) <= 1e-9 and abs(vals[1] - 1.0) <= 1e-9):
                raise ValueError(f"member {u!r} is not normalized: {vals}")
        self.members = tuple(members)

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


_LOW32 = np.uint64(0xFFFFFFFF)


class _Words:
    """The 32-bit words a ``Generator`` seeded with ``seed`` draws from:
    PCG64's ``next_uint32`` stream, each 64-bit output low half first."""

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        self._words = np.empty(0, dtype=np.uint64)
        self._pos = 0

    def peek(self, m):
        """The next ``m`` words, not yet consumed."""
        short = self._pos + m - self._words.size
        if short > 0:
            raw = self._bitgen.random_raw((short + 1) // 2)
            fresh = np.column_stack((raw & _LOW32, raw >> np.uint64(32))).ravel()
            self._words = np.concatenate((self._words[self._pos:], fresh))
            self._pos = 0
        return self._words[self._pos:self._pos + m]

    def skip(self, m):
        self._pos += m


def _bounded(words, r):
    """One draw on [0, r[i]] per entry of ``r`` (each below 2**32), in order,
    as numpy's bounded integers draw it (Lemire's method): with ``m = word *
    (r + 1)`` the draw is ``m >> 32`` unless the low 32 bits of ``m`` are
    below ``(2**32 - 1 - r) % (r + 1)``, and then the next word is tried;
    ``r = 0`` takes no word.  Vectorized up to each rejection."""
    shape = np.shape(r)
    r = np.asarray(r, dtype=np.uint64).ravel()
    out = np.zeros(r.size, dtype=np.uint64)
    todo = np.flatnonzero(r)
    span = r[todo] + np.uint64(1)
    threshold = (_LOW32 - r[todo]) % span
    done = 0
    while done < todo.size:
        m = words.peek(todo.size - done) * span[done:]
        rejected = np.flatnonzero((m & _LOW32) < threshold[done:])
        stop = rejected[0] if rejected.size else m.size
        out[todo[done:done + stop]] = m[:stop] >> np.uint64(32)
        words.skip(stop + min(rejected.size, 1))
        done += stop
    return out.astype(np.int64).reshape(shape)


def _two_picks(draws, n):
    """``choice(n, 2, replace=False)`` from its three bounded draws (a on
    [0, n-2], b on [0, n-1], s on [0, 1]) in the last axis: Floyd's
    algorithm takes a, then b, or n-1 when b == a; the shuffle that follows
    swaps the two when s is 0."""
    a, b, s = np.moveaxis(draws, -1, 0)
    b = np.where(b == a, n - 1, b)
    return np.where((s == 0)[..., None], np.stack((b, a), -1), np.stack((a, b), -1))


def _check_grid(y):
    if y.ndim != 1:
        raise ValueError(f"the grid must be one-dimensional, got shape {y.shape}")
    if y.size < 2:
        raise ValueError(f"the grid needs at least 2 points, got {y.size}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"grid[{bad[0]}] is {float(y[bad[0]])!r}")


def elicit_pairwise(true_utility, K, grid, seed, L=DEFAULT_L, L_tilde=DEFAULT_LTILDE):
    """Simulate K lottery questionnaires answered by ``true_utility``.

    Each lottery has two outcomes drawn without replacement from the grid
    and a head probability from {0.1, ..., 0.9}.  Draws are sequential, so
    for a fixed seed the first K pairs do not depend on the total count —
    questionnaire sets grow by refinement as K increases.  ``true_utility``
    is called once, on the array of all drawn outcomes; each answer is the
    :func:`preference_sign` of its pair.  A grid of fewer than two points
    or with a non-finite point, and a non-finite utility value, are refused.

    The questionnaires are those of ``rng = np.random.default_rng(
    np.random.SeedSequence(seed))`` calling, per pair, ``rng.choice(grid, 2,
    replace=False)`` and ``rng.integers(1, 10) / 10`` for W, then the same
    for Y; they are read straight off the generator's 32-bit words, i.e.
    PCG64's ``next_uint32`` (each 64-bit output low half first).  Every
    draw on [0, r] is numpy's Lemire draw (:func:`_bounded`): one word,
    another after each rejection, none when r = 0.  A choice is Floyd's
    algorithm, as ``Generator.choice`` runs it for two picks, then its
    shuffle (:func:`_two_picks`): draws on [0, n-2], [0, n-1] and [0, 1] for
    a grid of n points.  A head probability is one draw on [0, 8].  So a
    pair takes eight words when nothing is rejected.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    y = np.asarray(grid, dtype=float)
    _check_grid(y)
    n = y.size
    # per pair and lottery (W, then Y): the choice's three draws, the head's
    draws = _bounded(_Words(seed), np.tile([n - 2, n - 1, 1, 8], 2 * K)).reshape(K, 2, 4)
    outcomes = y[_two_picks(draws[..., :3], n)].reshape(K, 4)
    heads = (draws[..., 3] + 1) / 10.0
    u = np.asarray(true_utility(outcomes.ravel()), dtype=float).reshape(K, 4)
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        i = bad[0]
        raise ValueError(f"true utility is {float(u.flat[i])!r} at outcome "
                         f"{float(outcomes.flat[i])!r} (pair {i // 4})")
    # the arithmetic of DiscreteLottery.expectation, one pair per entry
    gap = (heads[:, 0] * u[:, 0] + (1.0 - heads[:, 0]) * u[:, 1]) - (
        heads[:, 1] * u[:, 2] + (1.0 - heads[:, 1]) * u[:, 3])
    answers = np.where(gap > 0, 1, -1)
    kept = ~(np.abs(gap) < INDIFFERENCE_TOL)
    # two checked grid points, masses h and 1 - h: each lottery passes DiscreteLottery's checks
    heads = heads[kept]
    masses = np.stack((heads, 1.0 - heads), -1).reshape(-1)
    arrays = PairArrays(outcomes[kept].ravel(), masses,
                        np.repeat(np.arange(2 * heads.shape[0]), 2), answers[kept])
    return PairwiseComparisonSpec._from_arrays(arrays, L, L_tilde)


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
    block = append_utility_block(lp, y, spec.L, spec.L_tilde)
    if isinstance(spec, KantorovichBallSpec):
        append_ball_membership(lp, block.beta, spec.nominal_on(y).slopes, y, spec.radius)
    elif isinstance(spec, PairwiseComparisonSpec):
        append_pairwise_rows(lp, block.alpha, y, spec.arrays, margin=FEASIBILITY_MARGIN)
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
