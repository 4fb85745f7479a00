import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefrobust.lp as lp_module
import prefrobust.multistage as multistage_module
from prefrobust import experiment
from prefrobust.ambiguity import (
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    StateDependentAmbiguity,
    elicit_pairwise,
)
from prefrobust.blocks import append_ball_membership
from prefrobust.lp import LinearProgram, dualize
from prefrobust.multistage import (
    InfeasibleProblemError,
    MultistageProblem,
    NodeConstraint,
    check_time_consistency,
    evaluate_policy_worst_case,
    solve_holistic,
    solve_nominal,
    _assemble_holistic,
    _copy_dual_block,
    subtree_problem,
)
from prefrobust.tree import ScenarioTree, TreeNode
from prefrobust.utility import (
    ClosedFormUtility,
    PiecewiseLinearUtility,
    kantorovich_lp,
    uniform_grid,
)
from prefrobust.worst_case import (
    OutcomeDistribution,
    node_primal,
    supporting_line_primal,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)
from test_blocks import assert_same_program


def balanced_tree(branching, probs=None):
    """Uniform conditional probabilities unless given per stage."""
    nodes = [TreeNode(0, None, 0, 1.0, {})]
    frontier = [0]
    nid = 1
    for t, width in enumerate(branching, start=1):
        stage_probs = probs[t - 1] if probs else [1.0 / width] * width
        nxt = []
        for parent in frontier:
            for b in range(width):
                nodes.append(TreeNode(nid, parent, t, stage_probs[b], {}))
                nxt.append(nid)
                nid += 1
        frontier = nxt
    return ScenarioTree(nodes)


def random_concave_pl(rng, y):
    slopes = np.sort(0.1 + rng.random(y.size - 1))[::-1]
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(y))])
    vals /= vals[-1]
    return PiecewiseLinearUtility(y, vals)


def random_ball_problem(rng, branching=(2, 2), radius=0.1, grid_n=7):
    """Investment-flavored instance: simplex at the root, carry-over after."""
    tree = balanced_tree(branching)
    y = uniform_grid(0.0, 1.0, grid_n)
    nominal = random_concave_pl(rng, y)
    L_obs, Lt_obs = nominal.lipschitz_moduli()
    spec = KantorovichBallSpec(nominal, radius, L=1.25 * L_obs, L_tilde=1.5 * Lt_obs + 0.5)

    bounds = {s: (np.zeros(2), np.ones(2)) for s in tree.nonleaf_ids()}
    cons = [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0, 1: 1.0})]
    for s in tree.nonleaf_ids():
        if s != 0:
            cons.append(NodeConstraint(
                s, "<=", 0.0,
                coef_self={0: 1.0, 1: 1.0}, coef_parent={0: -1.0, 1: -1.0}))
    rewards = {}
    for node in tree.nodes:
        if node.parent is not None:
            rewards[node.id] = (rng.dirichlet([1.0, 1.0]) * 0.85, 0.07)
    return MultistageProblem(tree, bounds, rewards, spec, y, cons), spec


def test_fixed_decisions_match_the_one_stage_solver():
    # pin the decision with equal bounds; the tree solve must agree with the
    # direct worst case at the induced child rewards, coupling rows included
    rng = np.random.default_rng(11)
    tree = balanced_tree([2], probs=[[0.55, 0.45]])
    y = uniform_grid(0.0, 1.0, 6)
    nominal = random_concave_pl(rng, y)
    L_obs, Lt_obs = nominal.lipschitz_moduli()
    spec = KantorovichBallSpec(nominal, 0.05, L=1.3 * L_obs, L_tilde=2.0 * Lt_obs + 1.0)
    g = np.array([[0.4, 0.3], [0.2, 0.6]])
    c = np.array([0.1, 0.2])
    xfix = np.array([0.7, 0.3])
    problem = MultistageProblem(
        tree, {0: (xfix, xfix)}, {1: (g[0], c[0]), 2: (g[1], c[1])}, spec, y)

    pol = solve_holistic(problem)
    ref = worst_case_kantorovich_primal(
        OutcomeDistribution(g @ xfix + c, [0.55, 0.45]), spec)
    assert pol.value == pytest.approx(ref.value, abs=1e-7)
    assert pol.per_node[0].value == pytest.approx(ref.value, abs=1e-7)
    assert np.allclose(pol.decisions[0], xfix)


def test_fixed_decisions_match_the_one_stage_pairwise_solver():
    rng = np.random.default_rng(7)
    y = uniform_grid(0.0, 1.0, 9)
    spec = elicit_pairwise(ClosedFormUtility.quadratic(), K=30, grid=y, seed=5)
    tree = balanced_tree([3], probs=[[0.5, 0.3, 0.2]])
    g = rng.dirichlet([1.0, 1.0], size=3) * 0.8
    xfix = np.array([0.6, 0.4])
    problem = MultistageProblem(
        tree, {0: (xfix, xfix)},
        {i + 1: (g[i], 0.1) for i in range(3)}, spec, y)

    pol = solve_holistic(problem)
    ref = worst_case_pairwise(
        OutcomeDistribution(g @ xfix + 0.1, [0.5, 0.3, 0.2]), spec, y)
    assert pol.value == pytest.approx(ref.value, abs=1e-7)

    # the recovered utility must itself honor every elicited comparison
    u = pol.per_node[0].utility
    for row in spec.table():
        ew = float(np.dot(row["w_probs"], u(np.asarray(row["w_support"]))))
        ey = float(np.dot(row["y_probs"], u(np.asarray(row["y_support"]))))
        assert row["z"] * (ew - ey) >= -1e-6


def test_identity_nominal_spends_the_whole_budget():
    tree = balanced_tree([2])
    y = uniform_grid(0.0, 1.0, 6)
    identity = PiecewiseLinearUtility(y, y)
    spec = KantorovichBallSpec(identity, 0.0, L=1.5, L_tilde=1.0)
    problem = MultistageProblem(
        tree, {0: (np.zeros(1), np.ones(1))},
        {1: (np.array([1.0]), 0.0), 2: (np.array([1.0]), 0.0)}, spec, y)
    pol = solve_holistic(problem)
    assert pol.value == pytest.approx(1.0, abs=1e-8)
    assert pol.decisions[0][0] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(pol.per_node[0].utility.values, y, atol=1e-6)


def test_zero_radius_matches_the_nominal_solver():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        problem, spec = random_ball_problem(rng, radius=0.0)
        robust = solve_holistic(problem)
        plain = solve_nominal(problem, spec.nominal)
        assert robust.value == pytest.approx(plain.value, abs=1e-7)


def test_regrouped_blocks_reproduce_the_holistic_value():
    rng = np.random.default_rng(3)
    problem, spec = random_ball_problem(rng, radius=0.08)
    pol = solve_holistic(problem)

    nested = evaluate_policy_worst_case(problem, pol.decisions, "nested")
    assert nested == pytest.approx(pol.value, abs=1e-7)

    y = problem.grid
    for s in problem.tree.nonleaf_ids():
        kids = problem.tree.children[s]
        h = np.array([
            float(np.dot(problem.rewards[i].coef, pol.decisions[s]))
            + problem.rewards[i].offset for i in kids])
        probs = [problem.tree.nodes[i].prob for i in kids]
        ref = worst_case_kantorovich_primal(OutcomeDistribution(h, probs), spec, y)
        assert pol.per_node[s].value == pytest.approx(ref.value, abs=1e-6)

        u = pol.per_node[s].utility
        assert float(np.dot(probs, u(h))) == pytest.approx(pol.per_node[s].value, abs=1e-6)
        L_obs, Lt_obs = u.lipschitz_moduli()
        assert L_obs <= spec.L + 1e-6
        assert Lt_obs <= spec.L_tilde + 1e-6
        assert u.is_concave(tol=1e-6)
        assert kantorovich_lp(u, spec.nominal) <= spec.radius + 1e-6


def test_value_never_grows_with_the_radius():
    rng = np.random.default_rng(9)
    tree = balanced_tree([2, 2])
    y = uniform_grid(0.0, 1.0, 7)
    nominal = random_concave_pl(rng, y)
    L_obs, Lt_obs = nominal.lipschitz_moduli()
    bounds = {s: (np.zeros(2), np.ones(2)) for s in tree.nonleaf_ids()}
    cons = [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0, 1: 1.0})]
    rewards = {n.id: (rng.dirichlet([1.0, 1.0]) * 0.85, 0.07)
               for n in tree.nodes if n.parent is not None}

    values = []
    for r in (0.0, 0.01, 0.1, 0.3):
        spec = KantorovichBallSpec(nominal, r, L=1.25 * L_obs, L_tilde=1.5 * Lt_obs + 0.5)
        problem = MultistageProblem(tree, bounds, rewards, spec, y, cons)
        values.append(solve_holistic(problem).value)
    assert all(values[k + 1] <= values[k] + 1e-9 for k in range(len(values) - 1))


def test_more_elicited_answers_never_hurt():
    rng = np.random.default_rng(21)
    tree = balanced_tree([3])
    y = uniform_grid(0.0, 1.0, 9)
    g = rng.dirichlet([1.0, 1.0], size=3) * 0.8
    rewards = {i + 1: (g[i], 0.1) for i in range(3)}
    truth = ClosedFormUtility.exponential(2.0)
    values = []
    for K in (5, 20, 60):
        spec = elicit_pairwise(truth, K=K, grid=y, seed=13)
        problem = MultistageProblem(
            tree, {0: (np.zeros(2), np.ones(2))}, rewards, spec, y,
            [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0, 1: 1.0})])
        values.append(solve_holistic(problem).value)
    # questionnaires grow by refinement, so feasible sets only shrink
    assert all(values[k + 1] >= values[k] - 1e-9 for k in range(len(values) - 1))


def test_sibling_order_is_cosmetic():
    y = uniform_grid(0.0, 1.0, 6)
    nominal = PiecewiseLinearUtility(y, y)

    def spec_of(radius):
        return KantorovichBallSpec(nominal, radius, L=2.0, L_tilde=3.0)

    # branch payload: (conditional prob, stage-1 reward coef, radius, leaf coefs)
    payload = {
        "a": (0.6, np.array([0.5, 0.2]), 0.05, [np.array([0.3, 0.1]), np.array([0.6, 0.2])]),
        "b": (0.4, np.array([0.1, 0.7]), 0.15, [np.array([0.2, 0.5]), np.array([0.4, 0.4])]),
    }

    def build(order):
        first, second = payload[order[0]], payload[order[1]]
        nodes = [
            TreeNode(0, None, 0, 1.0, {}),
            TreeNode(1, 0, 1, first[0], {}),
            TreeNode(2, 0, 1, second[0], {}),
            TreeNode(3, 1, 2, 0.5, {}),
            TreeNode(4, 1, 2, 0.5, {}),
            TreeNode(5, 2, 2, 0.5, {}),
            TreeNode(6, 2, 2, 0.5, {}),
        ]
        tree = ScenarioTree(nodes)
        bounds = {s: (np.zeros(2), np.ones(2)) for s in (0, 1, 2)}
        rewards = {
            1: (first[1], 0.05), 2: (second[1], 0.05),
            3: (first[3][0], 0.05), 4: (first[3][1], 0.05),
            5: (second[3][0], 0.05), 6: (second[3][1], 0.05),
        }
        amb = StateDependentAmbiguity(
            {0: spec_of(0.1), 1: spec_of(first[2]), 2: spec_of(second[2])})
        cons = [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0, 1: 1.0}),
                NodeConstraint(1, "<=", 0.0, coef_self={0: 1.0, 1: 1.0},
                               coef_parent={0: -1.0, 1: -1.0}),
                NodeConstraint(2, "<=", 0.0, coef_self={0: 1.0, 1: 1.0},
                               coef_parent={0: -1.0, 1: -1.0})]
        return MultistageProblem(tree, bounds, rewards, amb, y, cons)

    va = solve_holistic(build("ab")).value
    vb = solve_holistic(build("ba")).value
    assert va == pytest.approx(vb, abs=1e-9)


def test_per_node_ambiguity_is_time_consistent():
    for seed in (0, 4):
        rng = np.random.default_rng(seed)
        tree = balanced_tree([2, 2])
        y = uniform_grid(0.0, 1.0, 7)
        radii = {s: float(rng.choice([0.02, 0.08, 0.2])) for s in tree.nonleaf_ids()}

        def per_node(t, nid, _radii=radii, _rng=rng, _y=y):
            nominal = random_concave_pl(_rng, _y)
            L_obs, Lt_obs = nominal.lipschitz_moduli()
            return KantorovichBallSpec(
                nominal, _radii[nid], L=1.3 * L_obs, L_tilde=1.5 * Lt_obs + 0.5)

        bounds = {s: (np.zeros(2), np.ones(2)) for s in tree.nonleaf_ids()}
        cons = [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0, 1: 1.0})]
        for s in tree.nonleaf_ids():
            if s != 0:
                cons.append(NodeConstraint(
                    s, "<=", 0.0,
                    coef_self={0: 1.0, 1: 1.0}, coef_parent={0: -1.0, 1: -1.0}))
        rewards = {n.id: (rng.dirichlet([1.0, 1.0]) * 0.85, 0.07)
                   for n in tree.nodes if n.parent is not None}
        problem = MultistageProblem(tree, bounds, rewards, per_node, y, cons)

        pol = solve_holistic(problem)
        report = check_time_consistency(problem, pol, tol=1e-6)
        assert report.consistent
        for entry in report.entries:
            # a re-solve may only improve on the fixed plan, up to solver noise
            assert entry.discrepancy >= -1e-6


def test_subtree_rows_fold_the_fixed_history():
    rng = np.random.default_rng(5)
    problem, _ = random_ball_problem(rng, radius=0.05)
    pol = solve_holistic(problem)
    sub, orig = subtree_problem(problem, 1, pol.decisions)
    assert orig[0] == 1
    # the carry-over row at the new root became a pure budget row
    root_rows = [c for c in sub.constraints if c.node == 0]
    assert root_rows and all(not c.coef_parent for c in root_rows)
    budget = float(np.sum(pol.decisions[0]))
    assert root_rows[0].rhs == pytest.approx(budget, abs=1e-12)


def test_sequence_global_exceeds_nested_when_argmins_differ():
    members = (
        ClosedFormUtility.min_affine([(3.0, 0.0), (0.5, 0.5)]),
        ClosedFormUtility.quadratic(),
    )
    uset = FiniteUtilitySet(members)
    tree = balanced_tree([2, 2])
    y = uniform_grid(0.0, 1.0, 5)
    offsets = {1: 0.5, 2: 0.5, 3: 0.05, 4: 0.15, 5: 0.85, 6: 0.95}
    rewards = {i: (np.zeros(1), offsets[i]) for i in offsets}
    bounds = {s: (np.zeros(1), np.zeros(1)) for s in tree.nonleaf_ids()}
    problem = MultistageProblem(tree, bounds, rewards, uset, y)
    dec = {s: np.zeros(1) for s in tree.nonleaf_ids()}

    pu = tree.unconditional_probs()
    exp = {
        s: [
            0.5 * sum(float(u(offsets[i])) for i in tree.children[s])
            for u in members
        ]
        for s in tree.nonleaf_ids()
    }
    ref_nested = sum(pu[s] * min(exp[s]) for s in exp)
    ref_seq = min(exp[0]) + sum(
        min(pu[1] * exp[1][m] + pu[2] * exp[2][m] for m in range(2)) for _ in [0])

    nested = evaluate_policy_worst_case(problem, dec, "nested")
    seq = evaluate_policy_worst_case(problem, dec, "sequence_global")
    assert nested == pytest.approx(ref_nested, abs=1e-12)
    assert seq == pytest.approx(ref_seq, abs=1e-12)
    # node 3/4 rewards are low (quadratic is worst), node 5/6 high (kink is
    # worst), so one shared utility per stage must give up something
    assert seq > nested + 1e-4

    with pytest.raises(ValueError, match="same finite set"):
        clone = FiniteUtilitySet(members)
        mixed = MultistageProblem(
            tree, bounds, rewards,
            StateDependentAmbiguity({0: uset, 1: uset, 2: clone}), y)
        evaluate_policy_worst_case(mixed, dec, "sequence_global")
    with pytest.raises(ValueError, match="unknown evaluation mode"):
        evaluate_policy_worst_case(problem, dec, "global")


def test_sequence_global_requires_finite_sets():
    rng = np.random.default_rng(2)
    problem, _ = random_ball_problem(rng, branching=(2,), radius=0.1)
    dec = {0: np.array([0.5, 0.5])}
    with pytest.raises(ValueError, match="finite utility sets"):
        evaluate_policy_worst_case(problem, dec, "sequence_global")


def _decline_every_warm_solve(monkeypatch):
    """Make every warm session decline, as if HiGHS never ended optimal
    there; returns the list of the answers it held back."""
    answers = []
    real = lp_module.HighsSession.minimum

    def spy(self, cost):
        answers.append(real(self, cost))
        return None

    monkeypatch.setattr(lp_module.HighsSession, "minimum", spy)
    return answers


@pytest.fixture(params=["session", "session declines"])
def certify_backend(request, monkeypatch):
    """Certify reward ranges in a warm HiGHS session, or in one that declines
    every answer, so that each LP is solved cold again."""
    if request.param == "session declines":
        _decline_every_warm_solve(monkeypatch)
    return request.param


def test_infeasibility_names_the_offending_node(certify_backend):
    tree = balanced_tree([2, 2])
    y = uniform_grid(0.0, 1.0, 5)
    identity = PiecewiseLinearUtility(y, y)
    spec = KantorovichBallSpec(identity, 0.1, L=2.0, L_tilde=3.0)
    bounds = {s: (np.zeros(1), np.ones(1)) for s in tree.nonleaf_ids()}
    rewards = {n.id: (np.array([0.8]), 0.1) for n in tree.nodes if n.parent is not None}

    clash = [NodeConstraint(1, ">=", 0.8, coef_self={0: 1.0}),
             NodeConstraint(1, "<=", 0.2, coef_self={0: 1.0})]
    with pytest.raises(InfeasibleProblemError) as err:
        MultistageProblem(tree, bounds, rewards, spec, y, clash)
    assert err.value.node == 1

    # an over-constrained questionnaire at one node empties its utility set
    sane = elicit_pairwise(ClosedFormUtility.quadratic(), K=10, grid=y, seed=1)
    steep = PairwiseComparisonSpec([], L=0.9, L_tilde=3.0)
    amb = StateDependentAmbiguity({0: sane, 1: sane, 2: steep})
    problem = MultistageProblem(tree, bounds, rewards, amb, y)
    with pytest.raises(InfeasibleProblemError) as err:
        solve_holistic(problem)
    assert err.value.node == 2


def test_reward_ranges_are_certified_at_build_time(certify_backend):
    tree = balanced_tree([2])
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    bounds = {0: (np.zeros(1), np.ones(1))}
    with pytest.raises(ValueError, match="outside the"):
        MultistageProblem(
            tree, bounds, {1: (np.array([2.0]), 0.0), 2: (np.array([0.5]), 0.0)},
            spec, y)
    with pytest.raises(ValueError, match="unbounded"):
        MultistageProblem(
            tree, {0: (np.zeros(1), np.array([math.inf]))},
            {1: (np.array([0.5]), 0.0), 2: (np.array([0.5]), 0.0)}, spec, y)


def test_nominal_solver_rejects_unusable_utilities():
    tree = balanced_tree([2])
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.0, L=2.0, L_tilde=3.0)
    problem = MultistageProblem(
        tree, {0: (np.zeros(1), np.ones(1))},
        {1: (np.array([0.5]), 0.1), 2: (np.array([0.7]), 0.1)}, spec, y)
    convex = PiecewiseLinearUtility(
        np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.2, 1.0]))
    with pytest.raises(ValueError, match="concave"):
        solve_nominal(problem, convex)
    shifted = PiecewiseLinearUtility(
        np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.6, 1.0]))
    with pytest.raises(ValueError, match="domain"):
        solve_nominal(problem, shifted)


def test_policy_table_lists_every_decision_node():
    rng = np.random.default_rng(1)
    problem, _ = random_ball_problem(rng, radius=0.05)
    pol = solve_holistic(problem)
    lines = pol.export_table().strip().split("\n")
    assert lines[0] == "node\tstage\tdecision\tvalue"
    assert len(lines) == 1 + len(problem.tree.nonleaf_ids())
    for line in lines[1:]:
        node, stage, dec, value = line.split("\t")
        assert problem.tree.nodes[int(node)].stage == int(stage)
        xs = np.array([float(v) for v in dec.split(",")])
        assert np.allclose(xs, pol.decisions[int(node)])
        float(value)


def _add_decisions_reference(problem, lp, last_node=None):
    """Decision columns, then one ``add_row`` per kept constraint with its
    coefficients merged by dict, as the rows were first added."""
    xvar = {}
    for s in problem.tree.nonleaf_ids():
        lb, ub = problem.decision_bounds[s]
        xvar[s] = lp.add_vars(lb.size, f"x[{s}]", lb=lb, ub=ub)
    for idx, con in enumerate(problem.constraints):
        if last_node is not None and con.node > last_node:
            continue
        coefs = {}
        for k, v in con.coef_self.items():
            j = int(xvar[con.node][k])
            coefs[j] = coefs.get(j, 0.0) + v
        if con.coef_parent:
            par = problem.tree.nodes[con.node].parent
            for k, v in con.coef_parent.items():
                j = int(xvar[par][k])
                coefs[j] = coefs.get(j, 0.0) + v
        lp.add_row(coefs, con.rel, con.rhs, name=f"con{idx}[{con.node}]")
    return xvar


def _counting_add_row(monkeypatch):
    calls = []
    real = LinearProgram.add_row

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(LinearProgram, "add_row", counted)
    return calls


def test_decision_rows_equal_one_add_row_per_constraint(monkeypatch):
    problem, _ = random_ball_problem(np.random.default_rng(2), branching=(2, 2))
    # a parent-only row, rows at leaves 5 and 3 (listed out of node order),
    # and a row whose own coefficients come in reverse index order
    extra = [NodeConstraint(1, "<=", 1.0, coef_parent={1: 0.5, 0: 1.0}),
             NodeConstraint(5, ">=", 0.0, coef_parent={1: 2.0}),
             NodeConstraint(3, "<=", 0.9, coef_parent={0: 1.0, 1: 1.0}),
             NodeConstraint(2, "=", 0.25, coef_self={1: -1.0, 0: 3.0}, coef_parent={1: 0.5})]
    problem = MultistageProblem(problem.tree, problem.decision_bounds, problem.rewards,
                                problem.ambiguity, problem.grid,
                                [*problem.constraints, *extra], check_rewards=False)
    calls = _counting_add_row(monkeypatch)
    for last_node in (None, 0, 1, 2, 3, 5):
        lp, xvar = problem._decision_lp(last_node)
        assert calls == []
        ref = LinearProgram("min", name="decisions")
        ref_x = _add_decisions_reference(problem, ref, last_node)
        calls.clear()
        assert_same_program(lp, ref)
        assert all(np.array_equal(xvar[s], ref_x[s]) for s in ref_x)


@pytest.mark.parametrize("model", ["pro_kan", "pro_pc", "msp_pln"])
def test_build_solve_and_check_add_no_single_rows(monkeypatch, model):
    calls = _counting_add_row(monkeypatch)
    config = experiment.ExperimentConfig(
        branching=(2, 2), n_breakpoints=10, model=model, questionnaires=20, seeds=(0,),
        tree_seed=11)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    problem = experiment.build_investment_consumption(tree, config)
    policy = experiment.solve_model(problem, config)
    solver = (lambda sub: experiment.solve_model(sub, config)) if model == "msp_pln" else None
    report = check_time_consistency(problem, policy, subtree_solver=solver)
    assert len(report.entries) == 3
    assert calls == []


def test_noisy_marginals_name_their_node(monkeypatch):
    problem, _ = random_ball_problem(np.random.default_rng(5), branching=(2, 2))
    real = multistage_module._holistic_policy

    def noisy(problem, big, blocks, sol, decisions):
        nb = blocks[2]
        sol.duals = sol.duals.copy()
        sol.duals[nb.rows[nb.alpha[1]]] = -0.25 * nb.prob
        return real(problem, big, blocks, sol, decisions)

    monkeypatch.setattr(multistage_module, "_holistic_policy", noisy)
    with pytest.raises(RuntimeError,
                       match=r"^node 2: worst-case utility marginals are off by 0\.25$"):
        solve_holistic(problem)


def _copy_dual_block_reference(big, dual, obj_scale, extra_row_coefs, prefix):
    """One ``add_row`` per dual row, extra coefficients merged by dict."""
    vmap = np.array([
        big.add_var(f"{prefix}.{dual.var_name(j)}", lb=dual.lower[j], ub=dual.upper[j],
                    obj=obj_scale * dual.objective[j])
        for j in range(dual.num_vars)])
    mat = dual.row_matrix()
    rmap = []
    for k in range(dual.num_rows):
        lo, hi = mat.indptr[k], mat.indptr[k + 1]
        coefs = {int(vmap[j]): float(v) for j, v in zip(mat.indices[lo:hi], mat.data[lo:hi])}
        for col, v in extra_row_coefs.get(k, {}).items():
            coefs[col] = coefs.get(col, 0.0) + v
        rmap.append(big.add_row(coefs, dual.relations[k], dual.rhs[k],
                                name=f"{prefix}.{dual.row_name(k)}"))
    return vmap, np.array(rmap)


def test_dual_block_copy_matches_the_row_by_row_reference(monkeypatch):
    y = uniform_grid(0.0, 1.0, 6)
    inner, block, eps, _ = supporting_line_primal(
        [0.2, 0.5, 0.9], [0.3, 0.3, 0.4], y, 3.0, 9.0, True)
    append_ball_membership(inner, block.beta, np.ones(5), y, 0.05)
    dual = dualize(inner)
    # decision columns 0..2 enter the rows of eps[2] and eps[0], listed out of order
    entries = [(eps[2], 1, -0.4), (eps[2], 0, 0.25), (eps[0], 2, -0.3)]
    programs = []
    for _ in range(2):
        big = LinearProgram("max")
        big.add_vars(3, "x")
        big.add_row({0: 1.0, 1: 1.0}, "<=", 1.0, name="budget")
        programs.append(big)
    calls = []
    real_add_row = LinearProgram.add_row
    monkeypatch.setattr(LinearProgram, "add_row", lambda *a, **k: calls.append(a))
    vmap, rmap = _copy_dual_block(programs[0], dual, dual.objective, dual.rhs, 0.5,
                                  tuple(np.array(col) for col in zip(*entries)), "n0")
    assert calls == []
    monkeypatch.setattr(LinearProgram, "add_row", real_add_row)
    extra = {}
    for row, col, val in entries:
        extra.setdefault(int(row), {})[col] = val
    ref_vmap, ref_rmap = _copy_dual_block_reference(programs[1], dual, 0.5, extra, "n0")

    assert np.array_equal(vmap, ref_vmap) and np.array_equal(rmap, ref_rmap)
    bulk, ref = programs
    a, b = bulk.row_matrix(), ref.row_matrix()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, part), getattr(b, part))
    assert bulk.relations == ref.relations
    assert bulk.rhs.tobytes() == ref.rhs.tobytes()
    assert bulk.objective.tobytes() == ref.objective.tobytes()
    assert [bulk.row_name(k) for k in range(bulk.num_rows)] == \
        [ref.row_name(k) for k in range(ref.num_rows)]


def _reassigned(problem, assignment):
    return MultistageProblem(
        problem.tree, problem.decision_bounds, problem.rewards,
        StateDependentAmbiguity(assignment), problem.grid, problem.constraints)


def test_one_tree_mixes_balls_and_questionnaires():
    rng = np.random.default_rng(7)
    problem, spec = random_ball_problem(rng, branching=(2, 2, 2), radius=0.05)
    asked = elicit_pairwise(
        spec.nominal, K=30, grid=problem.grid, seed=3, L=spec.L, L_tilde=spec.L_tilde)
    # siblings differ, and every re-rooted subtree mixes the two set types
    mixed = _reassigned(
        problem, {s: spec if s % 2 else asked for s in problem.tree.nonleaf_ids()})
    pol = solve_holistic(mixed)
    nested = evaluate_policy_worst_case(mixed, pol.decisions, "nested")
    assert abs(pol.value - nested) <= 1e-6
    report = check_time_consistency(mixed, pol)
    assert report.max_discrepancy <= 1e-6
    assert len(report.entries) == len(mixed.tree.nonleaf_ids())


def test_holistic_solver_names_a_node_it_cannot_price():
    rng = np.random.default_rng(8)
    problem, spec = random_ball_problem(rng, radius=0.05)
    finite = FiniteUtilitySet((spec.nominal,))
    with pytest.raises(TypeError, match="node 2: .*FiniteUtilitySet"):
        solve_holistic(_reassigned(problem, {0: spec, 1: spec, 2: finite}))


@pytest.mark.parametrize("shift, fails", [(1e-5, True), (1e-9, False)])
def test_big_solves_check_the_duality_gap(monkeypatch, shift, fails):
    rng = np.random.default_rng(3)
    problem, spec = random_ball_problem(rng, radius=0.05)
    solve = lp_module.LinearProgram.solve

    def perturbed(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        if self.name in ("tree", "nominal"):
            sol.dual_objective += shift
        return sol

    monkeypatch.setattr(lp_module.LinearProgram, "solve", perturbed)
    for run in (lambda: solve_holistic(problem),
                lambda: solve_nominal(problem, spec.nominal)):
        if fails:
            with pytest.raises(RuntimeError, match="dual objective"):
                run()
        else:
            run()


def test_evaluation_refuses_plans_off_the_decision_set():
    rng = np.random.default_rng(4)
    problem, _ = random_ball_problem(rng, radius=0.05)
    pol = solve_holistic(problem)
    dec = pol.decisions
    assert evaluate_policy_worst_case(problem, dec) == pytest.approx(pol.value, abs=1e-6)

    def plan(**nodes):
        out = {s: x.copy() for s, x in dec.items()}
        out.update({int(s[1:]): x for s, x in nodes.items()})
        return out

    # the root budget row allows 1 + 1e-7 in total
    assert np.isfinite(evaluate_policy_worst_case(problem, plan(n0=np.array([0.5 + 9e-8, 0.5]))))
    cases = [
        (plan(n0=np.array([0.6, 0.5])), r"row con0\[0\]"),
        (plan(n0=np.array([-0.5, 0.5])), r"node 0: x\[0\]\[0\] = -0.5"),
        (plan(n0=np.array([math.nan, 0.5])), r"node 0: x\[0\]\[0\] = nan"),
        (plan(n1=np.zeros(3)), r"node 1: decision has shape \(3,\)"),
        ({s: x for s, x in dec.items() if s != 2}, "node 2: the plan has no decision"),
    ]
    for bad, message in cases:
        for mode in ("nested", "sequence_global"):
            with pytest.raises(ValueError, match=message):
                evaluate_policy_worst_case(problem, bad, mode)


@pytest.mark.parametrize("shift, fails", [(1e-5, True), (math.nan, True), (1e-10, False)])
def test_big_solves_check_the_primal_residual(monkeypatch, shift, fails):
    rng = np.random.default_rng(3)
    problem, spec = random_ball_problem(rng, radius=0.05)
    pol = solve_holistic(problem)
    solve = lp_module.LinearProgram.solve

    def perturbed(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        if self.name in ("tree", "nominal"):
            sol.x = sol.x.copy()
            sol.x[0] += shift
        return sol

    monkeypatch.setattr(lp_module.LinearProgram, "solve", perturbed)
    # the two big solves, and the re-solves of the check (root and slices)
    for run in (lambda: solve_holistic(problem),
                lambda: solve_nominal(problem, spec.nominal),
                lambda: check_time_consistency(problem, pol)):
        if fails:
            with pytest.raises(RuntimeError, match="violates a row or bound"):
                run()
        else:
            run()


def _reference_report(problem, policy):
    """Time consistency as it was first checked: every subtree rebuilt by
    subtree_problem, its plan evaluated and its LP solved from scratch."""
    tree = problem.tree
    entries = []
    for s in tree.nonleaf_ids():
        sub, orig = subtree_problem(problem, s, policy.decisions)
        subdec = {n: policy.decisions[o] for n, o in enumerate(orig) if not tree.is_leaf(o)}
        achieved = evaluate_policy_worst_case(sub, subdec, "nested")
        local = float(solve_holistic(sub).value)
        entries.append((s, tree.nodes[s].stage, local, achieved, local - achieved))
    return entries


def _mixed_problem(rng, branching, asked_nodes, radius=0.05, tree=None, K=20):
    problem, spec = random_ball_problem(rng, branching=branching, radius=radius)
    if tree is not None:
        problem = MultistageProblem(tree, problem.decision_bounds, problem.rewards, spec,
                                    problem.grid, problem.constraints)
    asked = elicit_pairwise(
        spec.nominal, K=K, grid=problem.grid, seed=3, L=spec.L, L_tilde=spec.L_tilde)
    return _reassigned(
        problem, {s: asked if s in asked_nodes else spec for s in problem.tree.nonleaf_ids()})


def _crossed_tree():
    """Decision nodes 3 and 4 out of breadth-first order (3 hangs under 2, 4
    under 1), so even the whole tree is re-rooted in another order."""
    return ScenarioTree([
        TreeNode(0, None, 0, 1.0, {}), TreeNode(1, 0, 1, 0.4, {}), TreeNode(2, 0, 1, 0.6, {}),
        TreeNode(3, 2, 2, 1.0, {}), TreeNode(4, 1, 2, 1.0, {}),
        TreeNode(5, 3, 3, 1.0, {}), TreeNode(6, 4, 3, 1.0, {}),
    ])


def _with_parent_only_row(problem):
    """``problem`` plus a row at node 1 on its parent's decision alone."""
    return MultistageProblem(
        problem.tree, problem.decision_bounds, problem.rewards, problem.ambiguity,
        problem.grid, [*problem.constraints, NodeConstraint(1, "<=", 1.0, coef_parent={0: 1.0})])


@pytest.mark.parametrize("make", [
    lambda rng: _mixed_problem(rng, (2, 3, 2), asked_nodes={1, 5, 6}),
    lambda rng: _mixed_problem(rng, (2, 1, 1), asked_nodes={2, 4}, tree=_crossed_tree()),
    lambda rng: _with_parent_only_row(_mixed_problem(rng, (2, 2), asked_nodes={2})),
])
def test_sliced_subtree_lps_equal_the_rebuilt_ones(monkeypatch, make):
    problem = make(np.random.default_rng(11))
    tree = problem.tree
    pol = solve_holistic(problem)
    sliced = []
    real_slice = multistage_module._subtree_slice

    def spy(*args):
        sliced.append((args[2], real_slice(*args), args[1]))
        return sliced[-1][1]

    monkeypatch.setattr(multistage_module, "_subtree_slice", spy)
    report = check_time_consistency(problem, pol)
    monkeypatch.undo()
    assert [(e.node, e.stage, e.local_value, e.achieved_value, e.discrepancy)
            for e in report.entries] == _reference_report(problem, pol)
    assert [order[0] for order, _, _ in sliced] == tree.nonleaf_ids()
    for order, (lp, xvar, blocks), assembled in sliced:
        sub, orig = subtree_problem(problem, order[0], pol.decisions)
        assert orig == order
        rebuilt, rx, rblocks = _assemble_holistic(sub)
        assert_same_program(lp, rebuilt, names=False)  # slices keep the tree's names
        nodes = [n for n in order if n in blocks]
        assert [orig[n] for n in rblocks] == nodes
        for n, (new, rb) in zip(nodes, rblocks.items()):
            assert np.array_equal(xvar[n], rx[new])
            nb = blocks[n]
            assert np.array_equal(nb.cols, rb.cols) and np.array_equal(nb.rows, rb.rows)
            assert np.array_equal(nb.alpha, rb.alpha) and nb.prob == rb.prob
        # the whole tree in its own order is re-solved on the assembly itself
        assert (lp is assembled[0]) == (order == list(range(len(tree))))


def test_subtrees_the_slice_cannot_serve_are_rebuilt(monkeypatch):
    rng = np.random.default_rng(11)
    problem, _ = random_ball_problem(rng, branching=(2, 2), radius=0.05)
    pol = solve_holistic(problem)
    # a row at node 1 on the parent decision alone is a constant once that
    # decision is fixed: the slice and the rebuild drop it when it holds
    k = len(problem.constraints)
    parent_only = _with_parent_only_row(problem)
    report = check_time_consistency(parent_only, pol)
    assert report.consistent and len(report.entries) == len(problem.tree.nonleaf_ids())
    sub, _ = subtree_problem(parent_only, 1, pol.decisions)
    assert len(sub.constraints) == len(subtree_problem(problem, 1, pol.decisions)[0].constraints)
    assert solve_holistic(sub).value == pytest.approx(report.entries[1].local_value, abs=1e-9)
    # and a re-rooting that breaks it names the row
    with pytest.raises(ValueError, match=rf"row con{k}\[1\] does not hold: 1\.5 <= 1\.0"):
        subtree_problem(parent_only, 1, {0: np.array([1.5, 0.0])})

    # a slice that ends without an optimum is rebuilt, whose solve reports it
    solve, full = lp_module.LinearProgram.solve, _assemble_holistic(problem)[0].num_rows
    failed = []

    def failing(self, *args, **kwargs):
        if self.name == "tree" and self.num_rows < full:
            failed.append(self.num_rows)
            return lp_module.LpSolution(lp_module.LpStatus.FAILED, message="stalled")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(lp_module.LinearProgram, "solve", failing)
    with pytest.raises(RuntimeError, match="holistic solve ended failed: stalled"):
        check_time_consistency(problem, pol)
    # the slice of node 1 failed first, then its rebuild, which has as many rows
    assert len(failed) == 2 and failed[0] == failed[1]


@st.composite
def small_mixed_problems(draw):
    """A 2- or 3-stage tree of branching 1 to 3 per stage whose nodes carry
    Kantorovich balls or elicited answers, drawn node by node."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    n_nonleaf = sum(int(np.prod(branching[:t])) for t in range(len(branching)))
    asked = draw(st.lists(st.booleans(), min_size=n_nonleaf, max_size=n_nonleaf))
    seed = draw(st.integers(0, 2**16))
    radius = draw(st.sampled_from([0.01, 0.05, 0.2]))
    rng = np.random.default_rng(seed)
    return _mixed_problem(rng, branching, {s for s, a in enumerate(asked) if a}, radius)


@settings(max_examples=12, deadline=None)
@given(small_mixed_problems())
def test_one_pass_check_equals_the_subtree_rebuilds(problem):
    pol = solve_holistic(problem)
    report = check_time_consistency(problem, pol)
    got = [(e.node, e.stage, e.local_value, e.achieved_value, e.discrepancy)
           for e in report.entries]
    assert got == _reference_report(problem, pol)
    assert report.max_discrepancy <= 1e-6
    assert abs(pol.value - evaluate_policy_worst_case(problem, pol.decisions)) <= 1e-6


@st.composite
def questionnaire_trees(draw):
    """A 1- to 3-stage tree of branching 1 to 3 whose nodes carry, drawn node
    by node, a Kantorovich ball or the shared questionnaire of
    :func:`_mixed_problem` (at least one node asks), built at two or three
    questionnaire lengths K, shortest first."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n_nonleaf = sum(int(np.prod(branching[:t])) for t in range(len(branching)))
    asked = draw(st.lists(st.booleans(), min_size=n_nonleaf, max_size=n_nonleaf)
                 .filter(any))
    ks = sorted(draw(st.lists(st.integers(0, 40), min_size=2, max_size=3, unique=True)))
    seed = draw(st.integers(0, 2**16))
    return [_mixed_problem(np.random.default_rng(seed), branching,
                           {s for s, a in enumerate(asked) if a}, K=K) for K in ks]


@settings(max_examples=10, deadline=None)
@given(questionnaire_trees())
def test_questionnaire_values_grow_with_k_and_equal_their_nested_evaluation(problems):
    values = []
    for problem in problems:
        pol = solve_holistic(problem)
        assert abs(pol.value - evaluate_policy_worst_case(problem, pol.decisions)) <= 1e-6
        values.append(pol.value)
    # longer questionnaires extend shorter ones, so the sets only shrink
    assert all(values[k + 1] >= values[k] - 1e-9 for k in range(len(values) - 1))


@st.composite
def radius_ladders(draw):
    """A 1- to 3-stage tree of branching 1 to 3 whose nodes carry, drawn node
    by node, a Kantorovich ball or the shared questionnaire of
    :func:`_mixed_problem`, built at two or three ball radii, smallest first."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n_nonleaf = sum(int(np.prod(branching[:t])) for t in range(len(branching)))
    asked = draw(st.lists(st.booleans(), min_size=n_nonleaf, max_size=n_nonleaf))
    radii = sorted(draw(st.lists(st.integers(0, 40), min_size=2, max_size=3, unique=True)))
    seed = draw(st.integers(0, 2**16))
    return [_mixed_problem(np.random.default_rng(seed), branching,
                           {s for s, a in enumerate(asked) if a}, radius=r / 100, K=10)
            for r in radii]


@settings(max_examples=25, deadline=None)
@given(radius_ladders())
def test_value_is_nonincreasing_in_the_ball_radius(problems):
    values = [solve_holistic(problem).value for problem in problems]
    # a wider ball holds every utility of a narrower one
    assert all(values[k + 1] <= values[k] + 1e-7 for k in range(len(values) - 1))


@pytest.mark.parametrize("change, message", [
    (dict(grid=np.array([0.0, 0.25, math.nan, 0.75, 1.0])), r"grid: y\[2\] is nan"),
    (dict(rewards={2: (np.array([math.nan, 0.1]), 0.07)}), r"reward at node 2: coef\[0\] is nan"),
    (dict(rewards={3: (np.array([0.1, 0.1]), math.nan)}), "reward at node 3: offset is nan"),
    (dict(rewards={1: (np.array([0.1, math.inf]), 0.0)}), r"reward at node 1: coef\[1\] is inf"),
    (dict(bounds={1: (np.array([math.nan, 0.0]), np.ones(2))}), "bad decision bounds at node 1"),
    (dict(cons=[NodeConstraint(0, "<=", math.nan, coef_self={0: 1.0})]),
     "constraint at node 0: rhs is nan"),
    (dict(cons=[NodeConstraint(0, "<=", 1.0, coef_self={1: math.inf})]),
     r"constraint at node 0: coef_self\[1\] is inf"),
])
def test_problem_refuses_non_finite_inputs(change, message):
    rng = np.random.default_rng(2)
    problem, spec = random_ball_problem(rng, radius=0.05)
    kw = dict(grid=problem.grid, rewards=dict(problem.rewards),
              bounds=dict(problem.decision_bounds), cons=problem.constraints)
    for key, value in change.items():
        kw[key] = {**kw[key], **value} if isinstance(value, dict) else value
    with pytest.raises(ValueError, match=message):
        MultistageProblem(problem.tree, kw["bounds"], kw["rewards"], spec, kw["grid"],
                          kw["cons"])


def _count_reward_extremes(monkeypatch):
    """Record (node, sign) of every reward-range LP a build solves."""
    calls = []
    real = MultistageProblem._reward_extreme

    def spy(self, lp, cols, coef, sign, node, session):
        calls.append((node, sign))
        return real(self, lp, cols, coef, sign, node, session)

    monkeypatch.setattr(MultistageProblem, "_reward_extreme", spy)
    return calls


def test_certification_solves_two_lps_per_parent_and_direction(monkeypatch):
    config = experiment.ExperimentConfig(branching=(4, 4), model="pro_kan", tree_seed=11)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    calls = _count_reward_extremes(monkeypatch)
    problem = experiment.build_investment_consumption(tree, config)
    pairs = {(tree.nodes[i].parent, (rm.coef / np.max(np.abs(rm.coef))).tobytes())
             for i, rm in problem.rewards.items()}
    assert len(calls) == 2 * len(pairs) < 2 * len(problem.rewards)


def test_rewards_along_one_direction_share_their_range_lps(monkeypatch, certify_backend):
    tree = balanced_tree([5])
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    bounds = {0: (np.zeros(2), np.ones(2))}
    # 1 and 2 are positive multiples, so are 3 and 5, which point the other
    # way; 4 points elsewhere
    rewards = {1: ([0.25, 0.125], 0.1), 2: ([0.5, 0.25], 0.0),
               3: ([-0.25, -0.125], 0.5), 4: ([0.125, 0.5], 0.0), 5: ([-0.5, -0.25], 0.75)}
    calls = _count_reward_extremes(monkeypatch)
    MultistageProblem(tree, bounds, rewards, spec, y)
    assert calls == [(1, 1.0), (1, -1.0), (3, 1.0), (3, -1.0), (4, 1.0), (4, -1.0)]

    # a shared range is scaled to each reward, so the wider one is refused
    rewards[2] = ([2.0, 1.0], 0.0)
    with pytest.raises(ValueError, match=r"reward at node 2 spans \[0, 3\], outside"):
        MultistageProblem(tree, bounds, rewards, spec, y)


def test_certification_names_the_same_node_as_one_lp_pair_per_reward(certify_backend):
    tree = balanced_tree([3])
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    half_open = {0: (np.zeros(2), np.array([1.0, math.inf]))}
    # node 2 shares node 1's direction, which is bounded; node 3's is not
    rewards = {1: ([0.5, 0.0], 0.0), 2: ([0.25, 0.0], 0.0), 3: ([0.0, 0.5], 0.0)}
    with pytest.raises(ValueError, match="reward at node 3 is unbounded"):
        MultistageProblem(tree, half_open, rewards, spec, y)

    # zero rewards still solve their LP, which finds the empty decision set
    tree = balanced_tree([2, 2])
    bounds = {s: (np.zeros(1), np.ones(1)) for s in tree.nonleaf_ids()}
    zero = {n.id: (np.zeros(1), 0.5) for n in tree.nodes if n.parent is not None}
    clash = [NodeConstraint(2, ">=", 0.8, coef_self={0: 1.0}),
             NodeConstraint(2, "<=", 0.2, coef_self={0: 1.0})]
    with pytest.raises(InfeasibleProblemError) as err:
        MultistageProblem(tree, bounds, zero, spec, y, clash)
    assert err.value.node == 2


def _certified_extremes(monkeypatch, tree, config):
    """Every reward-range extreme that building the problem computes."""
    values = []
    real = MultistageProblem._reward_extreme

    def spy(self, lp, cols, coef, sign, node, session):
        values.append(real(self, lp, cols, coef, sign, node, session))
        return values[-1]

    with monkeypatch.context() as patch:
        patch.setattr(MultistageProblem, "_reward_extreme", spy)
        experiment.build_investment_consumption(tree, config)
    return values


def test_a_declined_warm_solve_is_answered_cold(monkeypatch):
    config = experiment.ExperimentConfig(branching=(3, 3), model="pro_kan", tree_seed=5)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    warm = _certified_extremes(monkeypatch, tree, config)
    with monkeypatch.context() as patch:
        answers = _decline_every_warm_solve(patch)
        cold = _certified_extremes(monkeypatch, tree, config)
    assert len(answers) == len(cold) == len(warm) > 0
    assert all(a is not None for a in answers)
    np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-9)


def _random_problem(rng, branching, assign):
    """The instance of :func:`random_ball_problem` with random conditional
    probabilities and reward offsets; the spec at node ``s`` is
    ``assign(rng, s, shared)``, ``shared`` being that instance's ball."""
    base, shared = random_ball_problem(rng, branching=branching, radius=0.05)
    prob = {0: 1.0}
    for s in base.tree.nonleaf_ids():
        kids = base.tree.children[s]
        prob.update(zip(kids, rng.dirichlet(np.full(len(kids), 2.0))))
    tree = ScenarioTree([TreeNode(n.id, n.parent, n.stage, float(prob[n.id]), {})
                         for n in base.tree.nodes])
    rewards = {i: (rm.coef, float(rng.uniform(0.0, 0.1))) for i, rm in base.rewards.items()}
    specs = {s: assign(rng, s, shared) for s in tree.nonleaf_ids()}
    return MultistageProblem(tree, base.decision_bounds, rewards,
                             StateDependentAmbiguity(specs), base.grid, base.constraints)


@st.composite
def stamped_problems(draw):
    """A 2- or 3-stage tree of branching 1 to 3 whose nodes carry, drawn node
    by node: one shared ball, a ball of their own (another nominal, on a finer
    grid, and radius), the shared ball's nominal with another ``L``,
    ``L_tilde`` or concavity, one shared questionnaire, or a questionnaire of
    their own."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    n_nonleaf = sum(int(np.prod(branching[:t])) for t in range(len(branching)))
    kinds = draw(st.lists(st.integers(0, 6), min_size=n_nonleaf, max_size=n_nonleaf))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    asked = {}

    def assign(rng, s, shared):
        kind = kinds[s]
        if kind == 1:
            own = random_concave_pl(rng, uniform_grid(0.0, 1.0, 13))
            return KantorovichBallSpec(own, float(rng.uniform(0.0, 0.2)),
                                       L=shared.L, L_tilde=shared.L_tilde)
        other = {2: {"concave": False}, 3: {"L": 2 * shared.L},
                 4: {"L_tilde": 2 * shared.L_tilde}}
        if kind in other:
            caps = {"L": shared.L, "L_tilde": shared.L_tilde, **other[kind]}
            return KantorovichBallSpec(shared.nominal, 0.1, **caps)
        if kind in (5, 6):
            seed = 3 if kind == 5 else 100 + s
            if seed not in asked:
                asked[seed] = elicit_pairwise(shared.nominal, K=8, grid=shared.nominal.breakpoints,
                                              seed=seed, L=shared.L, L_tilde=shared.L_tilde)
            return asked[seed]
        return shared

    return _random_problem(rng, branching, assign)


def _assemble_reference(problem):
    """The tree LP as it was assembled before templates: :func:`node_primal`,
    :func:`dualize` and a row-by-row block copy at every node.  Returns it
    with the dual costs per node."""
    tree = problem.tree
    pu = tree.unconditional_probs()
    big = LinearProgram("max", name="tree")
    xvar = problem.add_decisions(big)
    costs = {}
    for s in tree.nonleaf_ids():
        kids = tree.children[s]
        probs = np.array([tree.nodes[i].prob for i in kids])
        offsets = np.array([problem.rewards[i].offset for i in kids])
        node = node_primal(offsets, probs, problem.ambiguity.for_node(s), problem.grid)
        extra = {}
        for pos, i in enumerate(kids):
            coef = problem.rewards[i].coef
            for k in np.flatnonzero(coef):
                extra.setdefault(int(node.eps[pos]), {})[int(xvar[s][k])] = \
                    -probs[pos] * coef[k]
        dual = dualize(node.lp)
        _copy_dual_block_reference(big, dual, float(pu[s]), extra, f"n{s}")
        costs[s] = dual.objective
    return big, costs


def _with_data(lp, cost, rhs):
    """``lp`` with its costs and right-hand sides replaced."""
    return lp.restricted(np.arange(lp.num_rows), np.arange(lp.num_vars), cost, rhs)


@settings(max_examples=15, deadline=None)
@given(stamped_problems())
def test_stamped_node_blocks_equal_their_own_builds(problem):
    tree, y = problem.tree, problem.grid
    templates = {}
    for s in tree.nonleaf_ids():
        spec = problem.ambiguity.for_node(s)
        kids = tree.children[s]
        probs = np.array([tree.nodes[i].prob for i in kids])
        offsets = np.array([problem.rewards[i].offset for i in kids])
        own = node_primal(offsets, probs, spec, y)
        key = multistage_module._template_key(spec, len(kids))
        tpl, dual = templates.setdefault(key, (own, dualize(own.lp)))
        cost, rhs = tpl.stamped(offsets, probs, spec, y)
        assert_same_program(_with_data(tpl.lp, cost, rhs), own.lp)
        assert_same_program(_with_data(dual, rhs, cost), dualize(own.lp))
        for part in ("eps", "fee", "match"):
            assert np.array_equal(getattr(tpl, part), getattr(own, part))
        assert tpl.budget == own.budget
        assert np.array_equal(tpl.block.alpha, own.block.alpha)

    big, _, blocks = _assemble_holistic(problem)
    ref, costs = _assemble_reference(problem)
    assert_same_program(big, ref)
    for s, nb in blocks.items():
        assert nb.cost.tobytes() == costs[s].tobytes()


def test_templates_are_dropped_after_the_last_node_of_their_shape(monkeypatch):
    # every node asks its own questionnaire, so no template is ever reused
    problem = _random_problem(
        np.random.default_rng(5), (2, 2),
        lambda rng, s, shared: elicit_pairwise(shared.nominal, K=8, grid=shared.nominal.breakpoints,
                                               seed=s, L=shared.L, L_tilde=shared.L_tilde))
    built, alive = [], []
    real = multistage_module.node_primal

    def spy(*args):
        alive.append(sum(ref() is not None for ref in built))
        node = real(*args)
        built.append(weakref.ref(node))
        return node

    monkeypatch.setattr(multistage_module, "node_primal", spy)
    _assemble_holistic(problem)
    # only the previous node's template may still be held, by a local name
    assert len(built) == 3 and max(alive) <= 1
