import math

import numpy as np
import pytest

import prefrobust.lp as lp_module
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
    supporting_line_primal,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)


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


@pytest.fixture(params=["session", "binding unavailable"])
def certify_backend(request, monkeypatch):
    """Certify reward ranges in a warm HiGHS session, or, with scipy's HiGHS
    binding taken away, through one linprog call per LP."""
    if request.param == "binding unavailable":
        monkeypatch.setattr(lp_module, "_Highs", None)
    probe = lp_module.LinearProgram("min")
    probe.add_var("x")
    assert (lp_module.warm_session(probe) is None) == (request.param != "session")
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
    inner, block, eps = supporting_line_primal(
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
    vmap, rmap = _copy_dual_block(
        programs[0], dual, 0.5, tuple(np.array(col) for col in zip(*entries)), "n0")
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
