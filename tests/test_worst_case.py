import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefrobust.ambiguity import (
    DiscreteLottery,
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    elicit_pairwise,
)
from prefrobust.blocks import append_ball_membership, append_pairwise_rows, append_utility_block
from prefrobust.lp import LinearProgram, LpStatus, dualize
from prefrobust.utility import (
    ClosedFormUtility,
    PiecewiseLinearUtility,
    kantorovich_lp,
    project,
    uniform_grid,
)
from prefrobust.worst_case import (
    node_primal,
    worst_case_finite,
    worst_case_kantorovich_dual,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)

from oracles import worst_case_value_scan


def random_concave_nominal(rng, n=None):
    n = int(n or rng.integers(3, 13))
    gaps = 0.05 + rng.random(n - 1)
    y = np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    y[-1] = 1.0
    slopes = np.sort(0.1 + rng.random(n - 1))[::-1]
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(y))])
    vals /= vals[-1]
    return PiecewiseLinearUtility(y, vals)


def random_instance(rng, n=None, max_outcomes=10):
    nominal = random_concave_nominal(rng, n)
    L_obs, Lt_obs = nominal.lipschitz_moduli()
    spec = KantorovichBallSpec(
        nominal,
        radius=float(rng.choice([0.0, 0.01, 0.05, 0.2])),
        L=1.2 * L_obs,
        L_tilde=1.5 * Lt_obs + 1.0,
    )
    S = int(rng.integers(1, max_outcomes + 1))
    g = 0.05 + rng.random(S)
    dist = DiscreteLottery(
        tuple(float(v) for v in rng.random(S)), tuple(float(p) for p in g / g.sum())
    )
    return dist, spec


def identity_on(grid):
    return project(PiecewiseLinearUtility([0.0, 1.0], [0.0, 1.0]), grid)


def test_zero_radius_point_mass():
    grid = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(identity_on(grid), 0.0, L=2.0, L_tilde=50.0)
    res = worst_case_kantorovich_primal(DiscreteLottery.point_mass(0.5), spec)
    assert res.is_optimal
    assert res.value == pytest.approx(0.5, abs=1e-8)
    # the ball is a singleton: the returned utility is the nominal
    assert np.allclose(res.utility.values, identity_on(grid).values, atol=1e-7)


def test_normalization_pins_extreme_outcomes():
    grid = uniform_grid(0.0, 1.0, 7)
    dist = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
    kan = KantorovichBallSpec(identity_on(grid), 0.3)
    assert worst_case_kantorovich_primal(dist, kan).value == pytest.approx(0.5, abs=1e-8)
    assert worst_case_kantorovich_dual(dist, kan).value == pytest.approx(0.5, abs=1e-8)
    free = PairwiseComparisonSpec([])  # K = 0: only shape constraints
    assert worst_case_pairwise(dist, free, grid).value == pytest.approx(0.5, abs=1e-8)

    top = DiscreteLottery.point_mass(1.0)
    assert worst_case_kantorovich_dual(top, kan).value == pytest.approx(1.0, abs=1e-8)


def test_matches_brute_force_scan():
    grid = np.array([0.0, 0.5, 1.0])
    nominal = identity_on(grid)
    spec = KantorovichBallSpec(nominal, radius=0.05, L=3.0, L_tilde=100.0)
    dist = DiscreteLottery.point_mass(0.5)

    def dist_fn(vals):
        return kantorovich_lp(PiecewiseLinearUtility(grid, vals), nominal)

    oracle = worst_case_value_scan(grid, 0.5, 0.05, 3.0, 100.0, 0.5, dist_fn)
    res = worst_case_kantorovich_primal(dist, spec)
    assert res.value == pytest.approx(oracle, abs=2e-3)
    assert worst_case_kantorovich_dual(dist, spec).value == pytest.approx(res.value, abs=1e-7)


def assert_feasible_for(spec, utility, value, dist):
    assert dist.expectation(utility) == pytest.approx(value, abs=1e-8)
    L_obs, Lt_obs = utility.lipschitz_moduli()
    assert L_obs <= spec.L + 1e-6
    assert Lt_obs <= spec.L_tilde + 1e-6
    assert utility.is_concave(tol=1e-6)
    nominal = project(spec.nominal, utility.breakpoints)
    assert kantorovich_lp(utility, nominal) <= spec.radius + 1e-6


def test_primal_dual_agreement_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dist, spec = random_instance(rng)
        p = worst_case_kantorovich_primal(dist, spec)
        d = worst_case_kantorovich_dual(dist, spec)
        assert p.is_optimal and d.is_optimal
        assert abs(p.value - d.value) <= 1e-7
        assert_feasible_for(spec, p.utility, p.value, dist)
        # dual marginals recover a primal optimizer
        assert_feasible_for(spec, d.utility, d.value, dist)
        # the worst case never beats the nominal itself
        nominal_value = dist.expectation(spec.nominal)
        assert p.value <= nominal_value + 1e-7


def test_radius_monotonicity():
    rng = np.random.default_rng(5)
    grid = uniform_grid(0.0, 1.0, 9)
    nominal = random_concave_nominal(rng, 9)
    nominal = project(nominal, grid)
    dist, _ = random_instance(rng, n=9)
    values = []
    for r in (0.0, 0.01, 0.05, 0.2, 0.5):
        spec = KantorovichBallSpec(nominal, r, L=8.0, L_tilde=80.0)
        values.append(worst_case_kantorovich_primal(dist, spec).value)
    assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


def test_pairwise_constraints_tighten_value():
    rng = np.random.default_rng(17)
    grid = uniform_grid(0.0, 1.0, 9)
    true = ClosedFormUtility.exponential(3.0)
    dist = DiscreteLottery((0.25, 0.7), (0.4, 0.6))
    prev = None
    for K in (0, 5, 20, 60):
        spec = elicit_pairwise(true, K, grid, seed=11)
        res = worst_case_pairwise(dist, spec, grid)
        assert res.is_optimal
        # the answering utility stays feasible, so its value is an upper bound
        assert res.value <= dist.expectation(true) + 1e-7
        if prev is not None:
            assert res.value >= prev - 1e-8  # questionnaires only shrink the set
        prev = res.value
    assert prev <= dist.expectation(true) + 1e-7


def test_infeasible_specs_reported():
    grid = uniform_grid(0.0, 1.0, 5)
    dist = DiscreteLottery.point_mass(0.5)
    # normalization needs slope >= 1 somewhere but the cap is 0.9
    empty = KantorovichBallSpec(identity_on(grid), 0.0, L=0.9, L_tilde=50.0)
    assert worst_case_kantorovich_primal(dist, empty).status == "infeasible"
    assert worst_case_kantorovich_dual(dist, empty).status == "infeasible"

    w = DiscreteLottery.two_outcome(0.25, 1.0, 0.5)
    y = DiscreteLottery.point_mass(0.5)
    contradictory = PairwiseComparisonSpec([(w, y, 1), (w, y, -1)])
    # zero-margin rows admit the degenerate boundary, so tighten via L
    steep = PairwiseComparisonSpec([(w, y, 1)], L=0.5)
    assert worst_case_pairwise(dist, steep, grid).status == "infeasible"
    assert contradictory.pairs  # construction keeps both answers


def test_finite_set_enumeration():
    u1 = ClosedFormUtility.min_affine([(3.0, 0.0), (0.5, 0.5)])
    u2 = ClosedFormUtility.quadratic()
    uset = FiniteUtilitySet([u1, u2])

    res = worst_case_finite(DiscreteLottery((0.0, 0.8), (0.5, 0.5)), uset)
    assert res.value == pytest.approx(0.45, abs=1e-12)
    assert res.member_index == 0

    res = worst_case_finite(
        DiscreteLottery((0.6, 0.6, 0.4, 1.0), (0.25, 0.25, 0.25, 0.25)),
        uset,
    )
    assert res.value == pytest.approx(0.825, abs=1e-12)
    assert res.member_index == 0

    res = worst_case_finite(DiscreteLottery((0.4, 1.0), (0.5, 0.5)), uset)
    assert res.value == pytest.approx(0.82, abs=1e-12)
    assert res.member_index == 1

    # exact tie goes to the lowest index
    tie = FiniteUtilitySet([u2, u2])
    assert worst_case_finite(DiscreteLottery.point_mass(0.3), tie).member_index == 0


@pytest.mark.parametrize("kind", ["ball", "questionnaire", "finite"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_zero_mass_outcome_leaves_the_worst_case_unchanged(kind, where):
    grid = uniform_grid(0.0, 1.0, 11)
    true = ClosedFormUtility.exponential(3.0)
    solve = {
        "ball": lambda d: worst_case_kantorovich_primal(
            d, KantorovichBallSpec(project(true, grid), 0.05)),
        "questionnaire": lambda d: worst_case_pairwise(
            d, elicit_pairwise(true, 30, grid, seed=5), grid),
        "finite": lambda d: worst_case_finite(
            d, FiniteUtilitySet([true, ClosedFormUtility.quadratic()])),
    }[kind]
    support, probs = [0.2, 0.7], [0.4, 0.6]
    v = solve(DiscreteLottery(support, probs)).value
    support.insert(where, 0.6)
    probs.insert(where, 0.0)
    assert solve(DiscreteLottery(support, probs)).value == pytest.approx(
        v, rel=0.0, abs=1e-12 * (1 + abs(v)))


def printed_dual_value(y, q, h, bnom, L, Lt, r):
    """Hand transcription of the published node-level dual program, kept
    deliberately literal (index ranges and all) as a cross-check on the
    mechanical dualizer."""
    N, S = len(y), len(h)
    assert N >= 3
    inf = math.inf
    lp = LinearProgram("max", name="printed-dual")
    theta = lp.add_vars(N - 1, "theta", lb=-inf)
    v = lp.add_vars(N - 2, "v")
    eta = lp.add_vars(N - 1, "eta")
    tau = lp.add_vars(N - 2, "tau")
    sig = lp.add_vars(N - 2, "sig")
    mu = [lp.add_vars(N, f"mu[{i}]") for i in range(S)]
    vsig = lp.add_var("varsigma")
    w = lp.add_vars(N - 1, "w", lb=-inf)  # w_2 .. w_N
    z = lp.add_vars(N, "z", lb=-inf)

    c = lp.objective
    c[theta[N - 2]] = 1.0
    for i in range(S):
        c[mu[i][N - 1]] = 1.0
    for j in range(N - 1):
        c[eta[j]] = -L
    for j in range(N - 2):
        c[tau[j]] = -Lt * (y[j + 2] - y[j])
        c[sig[j]] = -Lt * (y[j + 2] - y[j])
    for j in range(N - 1):
        c[w[j]] = -bnom[j]
    c[vsig] = -r
    lp.objective = c

    for i in range(S):
        lp.add_row({mu[i][j]: y[j] for j in range(N)}, "<=", q[i] * h[i])
        lp.add_row({mu[i][j]: 1.0 for j in range(N)}, "=", q[i])

    # slope rows, j = 2 and j = N ends first, then the interior family
    row = {theta[0]: y[0] - y[1], w[0]: 1.0, eta[0]: 1.0, tau[0]: 1.0, sig[0]: -1.0}
    lp.add_row(row, ">=", 0.0)
    row = {
        theta[N - 2]: y[N - 2] - y[N - 1],
        v[N - 3]: y[N - 2] - y[N - 3],
        w[N - 2]: 1.0,
        eta[N - 2]: 1.0,
        tau[N - 3]: -1.0,
        sig[N - 3]: 1.0,
    }
    lp.add_row(row, ">=", 0.0)
    for j in range(3, N):  # published j = 3 .. N-1
        row = {
            theta[j - 2]: y[j - 2] - y[j - 1],
            v[j - 3]: y[j - 2] - y[j - 3],
            w[j - 2]: 1.0,
            eta[j - 2]: 1.0,
            tau[j - 2]: 1.0,
            sig[j - 2]: -1.0,
        }
        row[tau[j - 3]] = row.get(tau[j - 3], 0.0) - 1.0
        row[sig[j - 3]] = row.get(sig[j - 3], 0.0) + 1.0
        lp.add_row(row, ">=", 0.0)

    # value rows at interior breakpoints
    for j in range(2, N - 1):  # published j = 2 .. N-2
        row = {theta[j - 2]: 1.0, theta[j - 1]: -1.0, v[j - 2]: -1.0, v[j - 1]: 1.0}
        for i in range(S):
            row[mu[i][j - 1]] = 1.0
        lp.add_row(row, "=", 0.0)
    row = {theta[N - 3]: 1.0, theta[N - 2]: -1.0, v[N - 3]: -1.0}
    for i in range(S):
        row[mu[i][N - 2]] = 1.0
    lp.add_row(row, "=", 0.0)

    # test-function envelope rows
    for j in range(N - 1):
        d = y[j + 1] - y[j]
        half = 0.5 * d * d
        lp.add_row({w[j]: 1.0, z[j]: -d, vsig: -half}, "<=", 0.0)
        lp.add_row({w[j]: -1.0, z[j]: d, vsig: -half}, "<=", 0.0)
        lp.add_row({w[j]: 1.0, z[j + 1]: -d, vsig: -half}, "<=", 0.0)
        lp.add_row({w[j]: -1.0, z[j + 1]: d, vsig: -half}, "<=", 0.0)

    sol = lp.solve()
    assert sol.is_optimal, sol.message
    return float(sol.objective)


def test_published_dual_transcription_matches():
    rng = np.random.default_rng(31)
    for n in (3, 4, 6, 9):
        for _ in range(4):
            dist, spec = random_instance(rng, n=n, max_outcomes=6)
            p = worst_case_kantorovich_primal(dist, spec)
            assert p.is_optimal
            transcribed = printed_dual_value(
                spec.nominal.breakpoints,
                np.asarray(dist.probs),
                np.asarray(dist.support),
                spec.nominal.slopes,
                spec.L,
                spec.L_tilde,
                spec.radius,
            )
            assert transcribed == pytest.approx(p.value, abs=1e-7)


def test_outcomes_must_lie_in_domain():
    grid = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(identity_on(grid), 0.1)
    with pytest.raises(ValueError):
        worst_case_kantorovich_primal(DiscreteLottery.point_mass(1.5), spec)
    with pytest.raises(ValueError):
        DiscreteLottery((0.5, 0.6), (0.7, 0.2))


@pytest.mark.parametrize("values, probs, message", [
    ((0.2, 0.5), (math.nan, 0.5), r"^lottery probs\[0\] is nan, must be finite$"),
    ((0.2, math.nan), (0.5, 0.5), r"^lottery support\[1\] is nan, must be finite$"),
    ((0.2, math.inf), (0.5, 0.5), r"^lottery support\[1\] is inf, must be finite$"),
    ((0.2, 0.5), (0.5, -math.inf), r"^lottery probs\[1\] is -inf, must be finite$"),
], ids=["probs-nan", "support-nan", "support-inf", "probs-minus-inf"])
def test_outcomes_refuse_non_finite_entries(values, probs, message):
    with pytest.raises(ValueError, match=message):
        DiscreteLottery(values, probs)


@st.composite
def one_stage_instances(draw):
    """A concave nominal on an uneven grid of 2 to 12 points, a ball of
    radius up to 0.2 around it or K answers it gives, and 1 to 4 outcomes on
    grid points with positive probabilities."""
    n = draw(st.integers(2, 12))
    nominal = random_concave_nominal(np.random.default_rng(draw(st.integers(0, 2**16))), n)
    L_obs, Lt_obs = nominal.lipschitz_moduli()
    L, L_tilde = 1.2 * L_obs, 1.5 * Lt_obs + 1.0
    if draw(st.booleans()):
        spec = KantorovichBallSpec(nominal, draw(st.floats(0.0, 0.2)), L=L, L_tilde=L_tilde)
    else:
        spec = elicit_pairwise(nominal, draw(st.integers(0, 30)), nominal.breakpoints,
                               draw(st.integers(0, 2**16)), L=L, L_tilde=L_tilde)
    S = draw(st.integers(1, 4))
    points = draw(st.lists(st.integers(0, n - 1), min_size=S, max_size=S))
    weights = np.asarray(draw(st.lists(st.integers(1, 9), min_size=S, max_size=S)), dtype=float)
    return spec, nominal.breakpoints, points, weights / weights.sum()


def _ball_instance(seed, n, radius, points, weights):
    """One draw of :func:`one_stage_instances` with a ball."""
    nominal = random_concave_nominal(np.random.default_rng(seed), n)
    L_obs, Lt_obs = nominal.lipschitz_moduli()
    spec = KantorovichBallSpec(nominal, radius, L=1.2 * L_obs, L_tilde=1.5 * Lt_obs + 1.0)
    weights = np.asarray(weights, dtype=float)
    return spec, nominal.breakpoints, points, weights / weights.sum()


@settings(max_examples=80, deadline=None)
@given(one_stage_instances())
@example(_ball_instance(2, 7, 1e-10, [1], [1]))
def test_node_lp_equals_its_dual_and_the_direct_lp_over_grid_values(case):
    """The supporting-line LP prices each outcome through the concave
    envelope of the utility, which is the utility itself because the class
    is concave: so its value is min sum_i q_i alpha_{k_i} over the same set.

    The three LPs are solved to feasibility tolerance 1e-10.  At the
    default 1e-8 an ``x`` may miss a row by more than the 1e-9 compared
    here: on the example, the primal misses one by 7.1e-9 and reads 1.05e-9
    from its dual, and without presolve the direct LP misses one by 9.5e-9
    and reads as far from the primal."""
    spec, y, points, q = case
    node = node_primal(y[points], q, spec, y)
    primal = node.lp.solve(tol=1e-10)
    dual = dualize(node.lp).solve(tol=1e-10)

    direct = LinearProgram("min")
    block = append_utility_block(direct, y, spec.L, spec.L_tilde)
    if isinstance(spec, KantorovichBallSpec):
        append_ball_membership(direct, block.beta, spec.nominal_on(y).slopes, y, spec.radius)
    else:
        append_pairwise_rows(direct, block.alpha, y, spec.arrays)
    cost = np.zeros(direct.num_vars)
    np.add.at(cost, block.alpha[points], q)
    direct.objective = cost
    direct = direct.solve(tol=1e-10)

    assert primal.status is dual.status is direct.status is LpStatus.OPTIMAL
    assert dual.objective == pytest.approx(primal.objective, rel=0.0, abs=1e-9)
    assert direct.objective == pytest.approx(primal.objective, rel=0.0, abs=1e-9)
