import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrobust import ambiguity
from prefrobust.ambiguity import (
    DEFAULT_L,
    DEFAULT_LTILDE,
    DiscreteLottery,
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    build_state_dependent,
    elicit_pairwise,
    feasibility_check,
    preference_sign,
    regime_nominal,
)
from prefrobust.blocks import append_pairwise_rows
from prefrobust.lp import LinearProgram
from prefrobust.tree import ScenarioTree, TreeNode
from prefrobust.utility import ClosedFormUtility, PiecewiseLinearUtility, project, uniform_grid


def mixed_regime_tree():
    nodes = [
        TreeNode(0, None, 0, 1.0, {"oil": 50.0}),
        TreeNode(1, 0, 1, 0.5, {"oil": 55.0}),
        TreeNode(2, 0, 1, 0.5, {"oil": 80.0}),
        TreeNode(3, 1, 2, 0.5, {"oil": 50.0}),
        TreeNode(4, 1, 2, 0.5, {"oil": 65.0}),
        TreeNode(5, 2, 2, 0.5, {"oil": 75.0}),
        TreeNode(6, 2, 2, 0.5, {"oil": 90.0}),
    ]
    return ScenarioTree(nodes)


def test_lottery_validation():
    with pytest.raises(ValueError):
        DiscreteLottery((0.0, 1.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        DiscreteLottery((0.0, 1.0), (-0.2, 1.2))
    with pytest.raises(ValueError):
        DiscreteLottery((), ())
    w = DiscreteLottery.two_outcome(0.4, 1.0, 0.5)
    assert w.expectation(ClosedFormUtility.linear()) == pytest.approx(0.7)


@pytest.mark.parametrize("support, probs", [
    ((0.0, 1.0), (math.nan, math.nan)),
    ((math.nan, 1.0), (0.5, 0.5)),
    ((0.0, math.inf), (0.5, 0.5)),
    ((-math.inf,), (1.0,)),
    ((0.0, 1.0), (math.inf, -math.inf)),
])
def test_lottery_rejects_non_finite_entries(support, probs):
    with pytest.raises(ValueError, match="finite"):
        DiscreteLottery(support, probs)


def test_preference_sign_examples():
    quad = ClosedFormUtility.quadratic()
    top = DiscreteLottery.point_mass(1.0)
    bottom = DiscreteLottery.point_mass(0.0)
    assert preference_sign(quad, top, bottom) == 1

    w = DiscreteLottery.two_outcome(0.4, 1.0, 0.5)
    y = DiscreteLottery.point_mass(0.6)
    assert w.expectation(quad) == pytest.approx(0.82, abs=1e-12)
    assert y.expectation(quad) == pytest.approx(0.84, abs=1e-12)
    assert preference_sign(quad, w, y) == -1

    assert preference_sign(quad, w, w) == 0


@pytest.mark.parametrize("utility, message", [
    (lambda x: float("nan"), r"^expected-utility gap is nan, must be finite$"),
    (lambda x: math.inf if x > 0.5 else 0.0, r"^expected-utility gap is -inf, must be finite$"),
])
def test_preference_sign_refuses_a_non_finite_gap(utility, message):
    with pytest.raises(ValueError, match=message):
        preference_sign(utility, DiscreteLottery.point_mass(0.2), DiscreteLottery.point_mass(0.8))


def test_elicitation_deterministic_and_prefix_nested():
    grid = uniform_grid(0.0, 1.0, 11)
    quad = ClosedFormUtility.quadratic()
    spec = elicit_pairwise(quad, 12, grid, seed=42)
    again = elicit_pairwise(quad, 12, grid, seed=42)
    assert spec.table() == again.table()
    assert len(spec) <= 12 and all(z in (-1, 1) for _, _, z in spec.pairs)

    # draws are sequential: a longer questionnaire extends a shorter one
    longer = elicit_pairwise(quad, 40, grid, seed=42)
    assert longer.table()[: len(spec)] == spec.table()

    other = elicit_pairwise(quad, 12, grid, seed=43)
    assert other.table() != spec.table()

    assert len(elicit_pairwise(quad, 0, grid, seed=1)) == 0


def _elicit_reference(true_utility, K, grid, seed):
    """The scalar elicitation loop: one lottery pair and one answer at a time."""
    y = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs = []
    for _ in range(K):
        w_out = rng.choice(y, size=2, replace=False)
        w_p = rng.integers(1, 10) / 10.0
        y_out = rng.choice(y, size=2, replace=False)
        y_p = rng.integers(1, 10) / 10.0
        w = DiscreteLottery.two_outcome(w_out[0], w_out[1], w_p)
        yk = DiscreteLottery.two_outcome(y_out[0], y_out[1], y_p)
        pairs.append((w, yk, preference_sign(true_utility, w, yk)))
    return PairwiseComparisonSpec(pairs)


@st.composite
def increasing_points(draw, n, lo=0.0, hi=1.0):
    """``n`` strictly increasing points from ``lo`` to ``hi``."""
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    cum = np.concatenate(([0.0], np.cumsum(steps)))
    pts = lo + (hi - lo) * cum / cum[-1]
    pts[-1] = hi
    return pts


@st.composite
def true_utilities(draw):
    kind = draw(st.sampled_from(["linear", "exponential", "quadratic", "min_affine", "pl"]))
    if kind == "linear":
        return ClosedFormUtility.linear()
    if kind == "exponential":
        return ClosedFormUtility.exponential(draw(st.floats(0.05, 12.0)))
    if kind == "quadratic":
        return ClosedFormUtility.quadratic()
    if kind == "min_affine":
        steep = draw(st.floats(1.0, 6.0))
        flat = draw(st.floats(0.0, 1.0))
        return ClosedFormUtility.min_affine([(steep, 0.0), (flat, 1.0 - flat)])
    n = draw(st.integers(2, 12))
    values = np.concatenate(([0.0], np.sort(draw(st.lists(
        st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))), [1.0]))
    return PiecewiseLinearUtility(draw(increasing_points(n)), values)


@settings(max_examples=60, deadline=None)
@given(truth=true_utilities(), n=st.integers(2, 41), K=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_elicitation_matches_the_scalar_reference(truth, n, K, seed, data):
    grid = data.draw(increasing_points(n))
    spec = elicit_pairwise(truth, K, grid, seed=seed)
    ref = _elicit_reference(truth, K, grid, seed)
    assert spec.pairs == ref.pairs
    for w, yk, z in spec.pairs:
        assert z == preference_sign(truth, w, yk)


@settings(max_examples=60, deadline=None)
@given(truth=true_utilities(), n=st.integers(2, 60), uniform=st.booleans(),
       K=st.integers(0, 250), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_elicited_lotteries_are_grid_lotteries(truth, n, uniform, K, seed, data):
    """What a lottery check would refuse cannot come out of elicitation:
    outcomes are grid points, and masses are h and 1 - h for h in
    {0.1, ..., 0.9}."""
    grid = uniform_grid(0.0, 1.0, n) if uniform else data.draw(increasing_points(n))
    points = set(grid.tolist())
    for w, yk, _ in elicit_pairwise(truth, K, grid, seed=seed).pairs:
        for lottery in (w, yk):
            assert set(lottery.support) <= points
            assert all(0.0 < p < 1.0 for p in lottery.probs)
            assert abs(math.fsum(lottery.probs) - 1.0) <= 1e-12


def test_elicitation_evaluates_the_utility_once():
    calls = []
    quad = ClosedFormUtility.quadratic()

    def counted(x):
        calls.append(np.shape(x))
        return quad(x)

    spec = elicit_pairwise(counted, 200, uniform_grid(0.0, 1.0, 20), seed=3)
    assert calls == [(800,)]
    assert spec.pairs == elicit_pairwise(quad, 200, uniform_grid(0.0, 1.0, 20), seed=3).pairs


def _words_used(rng, seed):
    """How many 32-bit words ``rng``, seeded with ``seed``, has handed out."""
    state = rng.bit_generator.state
    for outputs in range(200):
        fresh = np.random.PCG64(np.random.SeedSequence(seed)).advance(outputs)
        if fresh.state["state"] == state["state"]:
            return 2 * outputs - state["has_uint32"]
    raise AssertionError("more than 200 outputs drawn")


# in [2**31, 2**32 - 2] Lemire's method rejects up to half of the words; the
# small ranges include [0, 0], which takes no word, and the choice from 2
@pytest.mark.parametrize("seed", range(30))
def test_word_draws_match_the_generator(seed):
    rs = np.random.default_rng([7, seed]).integers(2**31, 2**32 - 1, size=20)
    rs[[3, 11]] = 0, 8
    ns = rs[::2] + 1
    ns[[2, 7]] = 2, 20

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    want = [rng.integers(0, r + 1) for r in rs.tolist()]
    picks = [rng.choice(n, 2, replace=False) for n in ns.tolist()]
    used = _words_used(rng, seed)

    words = ambiguity._Words(seed)
    assert ambiguity._bounded(words, rs).tolist() == want
    draws = ambiguity._bounded(words, np.column_stack([ns - 2, ns - 1, np.ones_like(ns)]))
    assert ambiguity._two_picks(draws, ns).tolist() == np.array(picks).tolist()
    # both streams are at the same word: the next full word agrees
    assert ambiguity._bounded(words, [2**32 - 1]) == rng.integers(0, 2**32)
    # every seed hit a rejection
    assert used > np.count_nonzero(rs) + 3 * ns.size - np.count_nonzero(ns == 2)


def _rows(arrays):
    grid = uniform_grid(0.0, 1.0, 20)
    lp = LinearProgram("min")
    alpha = lp.add_vars(grid.size, "alpha")
    append_pairwise_rows(lp, alpha, grid, arrays)
    mat = lp.row_matrix()
    return (mat.data.tobytes(), mat.indices.tolist(), mat.indptr.tolist(), lp.rhs.tobytes(),
            lp.relations.tolist(), [lp.row_name(k) for k in range(lp.num_rows)])


def test_elicited_spec_equals_the_spec_built_from_its_pairs():
    spec = elicit_pairwise(regime_nominal(50.0), 200, uniform_grid(0.0, 1.0, 20), seed=(0, 3))
    again = PairwiseComparisonSpec(spec.pairs)
    assert 0 < len(spec) == len(again) < 200  # indifferent pairs were dropped
    assert spec.pairs == again.pairs and spec.table() == again.table()
    for part, other in zip(spec.arrays, again.arrays):
        assert part.dtype == other.dtype and part.tobytes() == other.tobytes()
    assert _rows(spec.arrays) == _rows(again.arrays) == _rows(spec.pairs)


@pytest.mark.parametrize("utility, grid, message", [
    (lambda x: np.full(np.shape(x), np.nan), np.linspace(0.0, 1.0, 5),
     r"true utility is nan at outcome 0\.75 \(pair 0\)"),
    (lambda x: np.where(x > 0.5, np.inf, x), np.linspace(0.0, 1.0, 5),
     r"true utility is inf at outcome 0\.75 \(pair 0\)"),
    (lambda x: x, [0.0, math.nan, 1.0], r"grid\[1\] is nan"),
    (lambda x: x, [0.5], "at least 2 points, got 1"),
    (lambda x: x, [], "at least 2 points, got 0"),
])
def test_elicitation_refuses_non_finite_utilities_and_bad_grids(utility, grid, message):
    with pytest.raises(ValueError, match=message):
        elicit_pairwise(utility, 5, grid, seed=0)


def test_true_utility_is_feasible_for_its_answers():
    grid = uniform_grid(0.0, 1.0, 9)
    for seed in (3, 4, 5):
        true = regime_nominal(80.0)
        spec = elicit_pairwise(true, 25, grid, seed=seed)
        assert len(spec) > 10
        assert feasibility_check(spec, grid) == "feasible"


def test_contradictory_answers_are_empty():
    grid = uniform_grid(0.0, 1.0, 5)
    w = DiscreteLottery.two_outcome(0.25, 1.0, 0.5)
    y = DiscreteLottery.point_mass(0.5)
    spec = PairwiseComparisonSpec([(w, y, 1), (w, y, -1)])
    assert feasibility_check(spec, grid) == "empty"


def test_ball_feasibility():
    grid = uniform_grid(0.0, 1.0, 5)
    ident = PiecewiseLinearUtility([0.0, 1.0], [0.0, 1.0])
    nominal = project(ident, grid)
    assert feasibility_check(KantorovichBallSpec(nominal, 0.0), grid) == "feasible"
    # normalization needs a slope of at least 1 somewhere
    assert feasibility_check(
        KantorovichBallSpec(nominal, 0.0, L=0.9, L_tilde=DEFAULT_LTILDE), grid
    ) == "empty"

    # a convex nominal sits far from every concave utility
    kinked = PiecewiseLinearUtility([0.0, 0.5, 1.0], [0.0, 0.1, 1.0])
    assert feasibility_check(KantorovichBallSpec(kinked, 0.01), grid) == "empty"
    assert feasibility_check(KantorovichBallSpec(kinked, 1.0), grid) == "feasible"


def test_finite_set_validation():
    u1 = ClosedFormUtility.min_affine([(3.0, 0.0), (0.5, 0.5)])
    quad = ClosedFormUtility.quadratic()
    fus = FiniteUtilitySet([u1, quad])
    assert len(fus) == 2
    assert feasibility_check(fus, uniform_grid(0.0, 1.0, 3)) == "feasible"
    with pytest.raises(ValueError):
        FiniteUtilitySet([])
    with pytest.raises(ValueError):
        FiniteUtilitySet([lambda x: 0.5 * x])

    class NanAtEnds:
        domain = (0.0, 1.0)

        def __call__(self, x):
            return math.nan

    with pytest.raises(ValueError, match="is not normalized: \\(nan, nan\\)"):
        FiniteUtilitySet([NanAtEnds()])


def test_regime_rule():
    assert regime_nominal(50.0).kind == "linear"
    assert regime_nominal(60.0).kind == "linear"  # boundary included
    above = regime_nominal(60.01)
    assert above.kind == "exponential" and above.k == 3.0


def test_build_state_dependent():
    tree = mixed_regime_tree()
    grid = uniform_grid(0.0, 1.0, 5)

    fus = FiniteUtilitySet([ClosedFormUtility.quadratic()])
    constant = build_state_dependent(tree, fus)
    assert all(constant.for_node(nid) is fus for nid in tree.nonleaf_ids())
    with pytest.raises(KeyError):
        constant.for_node(tree.leaf_ids()[0])

    def regime_ball(t, nid):
        nominal = project(regime_nominal(t.value(nid, "oil")), grid)
        return KantorovichBallSpec(nominal, 0.05)

    mixed = build_state_dependent(tree, regime_ball)
    slopes0 = mixed.for_node(0).nominal.slopes
    slopes2 = mixed.for_node(2).nominal.slopes
    assert np.allclose(slopes0, 1.0)  # linear regime at the root
    assert slopes2[0] > slopes2[-1]  # strictly concave regime above $60

    with pytest.raises(ValueError):
        build_state_dependent(tree, lambda t, nid: None)


def test_spec_validation_and_warnings(caplog):
    w = DiscreteLottery.point_mass(1.0)
    y = DiscreteLottery.point_mass(0.0)
    with pytest.raises(ValueError):
        PairwiseComparisonSpec([(w, y, 2)])
    with pytest.raises(ValueError):
        PairwiseComparisonSpec([], L=-1.0)
    for radius in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            KantorovichBallSpec(PiecewiseLinearUtility([0.0, 1.0], [0.0, 1.0]), radius)

    steep = PiecewiseLinearUtility([0.0, 0.1, 1.0], [0.0, 0.9, 1.0])  # slope 9 > L
    with caplog.at_level(logging.WARNING, logger="prefrobust.ambiguity"):
        KantorovichBallSpec(steep, 0.1, L=DEFAULT_L)
    assert any("may be empty" in r.message for r in caplog.records)

    # z = 0 answers are dropped at construction
    spec = PairwiseComparisonSpec([(w, y, 0), (w, y, 1)])
    assert len(spec) == 1
