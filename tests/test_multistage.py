import math
import os
import re
import sys
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import prefrobust.lp as lp_module
import prefrobust.multistage as multistage_module
import prefrobust.worst_case as worst_case_module
from prefrobust import experiment
from prefrobust.ambiguity import (
    DiscreteLottery,
    FiniteUtilitySet,
    KantorovichBallSpec,
    PairwiseComparisonSpec,
    StateDependentAmbiguity,
    elicit_pairwise,
)
from prefrobust.blocks import append_ball_membership, append_pairwise_rows
from prefrobust.lp import LinearProgram, LpStatus, dualize
from prefrobust.multistage import (
    InfeasibleProblemError,
    MultistageProblem,
    NodeConstraint,
    Policy,
    RewardMap,
    check_time_consistency,
    evaluate_policy_worst_case,
    solve_holistic,
    solve_nominal,
    _assemble_holistic,
    _splice_dual_blocks,
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
    DOMAIN_TOL,
    WorstCaseResult,
    node_primal,
    supporting_line_primal,
    worst_case_kantorovich_primal,
    worst_case_pairwise,
)
from oracles import reward_ranges_oracle
from test_blocks import assert_same_program
from test_lp_digests import mixed_problem


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
        DiscreteLottery(g @ xfix + c, [0.55, 0.45]), spec)
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
        DiscreteLottery(g @ xfix + 0.1, [0.5, 0.3, 0.2]), spec, y)
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
        ref = worst_case_kantorovich_primal(DiscreteLottery(h, probs), spec, y)
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
        report = check_time_consistency(problem, pol)
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


def _fail_every_warm_run(monkeypatch):
    """Make every warm run of a session fail, as if HiGHS broke down there:
    a run on an instance that has run since its load ends FAILED.  Returns
    the list of the answers the failed runs held back."""
    held = []
    real_load, real_run = lp_module.HighsSession.load, lp_module.HighsSession.run

    def load(self, cost, *args, **kwargs):
        real_load(self, cost, *args, **kwargs)
        self.cold = True

    def run(self):
        x = real_run(self)
        if self.cold:
            self.cold = False
            return x
        held.append(x)
        self.status, self.message = LpStatus.FAILED, "warm run made to fail"
        return None

    monkeypatch.setattr(lp_module.HighsSession, "load", load)
    monkeypatch.setattr(lp_module.HighsSession, "run", run)
    return held


@pytest.fixture(params=["session", "session declines"])
def certify_backend(request, monkeypatch):
    """Certify reward ranges in a warm HiGHS session, or in one whose every
    warm run fails, so that each LP is run cold again in a fresh instance."""
    if request.param == "session declines":
        _fail_every_warm_run(monkeypatch)
    return request.param


def test_infeasibility_names_the_offending_node(monkeypatch, certify_backend):
    tree = balanced_tree([2, 2])
    y = uniform_grid(0.0, 1.0, 5)
    identity = PiecewiseLinearUtility(y, y)
    spec = KantorovichBallSpec(identity, 0.1, L=2.0, L_tilde=3.0)
    bounds = {s: (np.zeros(1), np.ones(1)) for s in tree.nonleaf_ids()}
    rewards = {n.id: (np.array([0.8]), 0.1) for n in tree.nodes if n.parent is not None}

    clash = [NodeConstraint(1, ">=", 0.8, coef_self={0: 1.0}),
             NodeConstraint(1, "<=", 0.2, coef_self={0: 1.0})]
    runs = _count_calls(monkeypatch, lp_module.HighsSession, ("run", "conflict"))
    with pytest.raises(InfeasibleProblemError) as err:
        MultistageProblem(tree, bounds, rewards, spec, y, clash)
    assert err.value.node == 1
    assert str(err.value) == ("decision constraints become infeasible at node 1: "
                              "rows con0[1], con1[1]")
    # an empty decision set costs one HiGHS run and one IIS
    assert runs == ["run", "conflict"]

    # an over-constrained questionnaire at one node empties its utility set
    sane = elicit_pairwise(ClosedFormUtility.quadratic(), K=10, grid=y, seed=1)
    steep = PairwiseComparisonSpec([], L=0.9, L_tilde=3.0)
    amb = StateDependentAmbiguity({0: sane, 1: sane, 2: steep})
    problem = MultistageProblem(tree, bounds, rewards, amb, y)
    with pytest.raises(InfeasibleProblemError) as err:
        solve_holistic(problem)
    assert err.value.node == 2


def _count_calls(monkeypatch, owner, names):
    """Record the name of each call of the methods ``names`` of ``owner``."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def _first_infeasible_prefix(problem):
    """The first node, in id order, at which the decision rows of the nodes up
    to it have no solution: one cold solve per node that carries a row."""
    for cutoff in sorted({con.node for con in problem.constraints}):
        lp = LinearProgram("min", name="decisions")
        _add_decisions_reference(problem, lp, last_node=cutoff)
        if lp.solve().status is LpStatus.INFEASIBLE:
            return cutoff
    return None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_conflict_is_named_as_the_prefix_loop_names_it(data):
    """Rows that hold at a random point never touch the variable that one
    injected pair of rows pins to two values, so that pair is the only
    conflict, and the first infeasible prefix ends at its later node."""
    branching = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    tree = balanced_tree(branching)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dims = {s: int(rng.integers(1, 4)) for s in tree.nonleaf_ids()}
    bounds = {s: (np.zeros(d), np.ones(d)) for s, d in dims.items()}
    point = {s: rng.uniform(0.0, 1.0, d) for s, d in dims.items()}
    # each row of the pair sits at the node owning the pinned decision or at
    # one of its children
    owner = data.draw(st.sampled_from(tree.nonleaf_ids()))
    pinned = (owner, int(rng.integers(dims[owner])))
    at = data.draw(st.lists(st.sampled_from([owner, *tree.children[owner]]),
                            min_size=2, max_size=2))

    def coefs(s):
        return {k: float(rng.uniform(-1.0, 1.0)) for k in range(dims[s])
                if (s, k) != pinned and rng.random() < 0.7}

    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        node = int(rng.integers(len(tree.nodes)))
        par = tree.nodes[node].parent
        cs = {} if tree.is_leaf(node) else coefs(node)
        cp = {} if par is None else coefs(par)
        if not cs and not cp:
            continue
        value = sum(v * point[node][k] for k, v in cs.items())
        value += sum(v * point[par][k] for k, v in cp.items())
        rel = data.draw(st.sampled_from(["<=", ">=", "="]))
        slack = {"<=": 0.1, ">=": -0.1, "=": 0.0}[rel]
        rows.append(NodeConstraint(node, rel, value + slack, cs, cp))
    pair = []
    for node, rel, value in zip(at, (">=", "<="), rng.uniform([0.6, 0.0], [1.0, 0.4])):
        scale = float(rng.uniform(0.5, 2.0))
        key = "coef_self" if node == owner else "coef_parent"
        pair.append(NodeConstraint(node, rel, scale * value, **{key: {pinned[1]: scale}}))
    first = data.draw(st.integers(0, len(rows)))
    rows.insert(first, pair[0])
    second = data.draw(st.integers(0, len(rows)))
    rows.insert(second, pair[1])
    first += second <= first

    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    rewards = {n.id: (np.full(dims[n.parent], 0.1), 0.0)
               for n in tree.nodes if n.parent is not None}
    with pytest.raises(InfeasibleProblemError) as err:
        MultistageProblem(tree, bounds, rewards, spec, y, rows)
    last = max(at)
    assert err.value.node == last == _first_infeasible_prefix(
        SimpleNamespace(tree=tree, decision_bounds=bounds, constraints=rows))
    named = ", ".join(f"con{i}[{rows[i].node}]" for i in sorted((first, second)))
    assert str(err.value) == f"decision constraints become infeasible at node {last}: rows {named}"


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


def test_policy_table_prints_negative_zero_as_zero():
    nv = multistage_module.NodeValue(0, -0.0, None)
    table = Policy({0: np.array([-0.0, 0.25])}, -0.0, {0: nv}).export_table()
    assert table == "node\tstage\tdecision\tvalue\n0\t0\t0,0.25\t0\n"


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
                                [*problem.constraints, *extra])
    calls = _counting_add_row(monkeypatch)
    lp, xvar = problem._decision_lp()
    assert calls == []
    ref = LinearProgram("min", name="decisions")
    ref_x = _add_decisions_reference(problem, ref)
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

    def noisy(problem, big, kept):
        nb = kept.blocks[2]
        kept.y[nb.rows[nb.alpha[1]]] = -0.25 * nb.prob
        return real(problem, big, kept)

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


def test_dual_block_splice_matches_the_row_by_row_reference(monkeypatch):
    y = uniform_grid(0.0, 1.0, 6)
    inner, block, eps, _ = supporting_line_primal(
        [0.2, 0.5, 0.9], [0.3, 0.3, 0.4], y, 3.0, 9.0)
    append_ball_membership(inner, block.beta, np.ones(5), y, 0.05)
    ball = dualize(inner)
    asked, asked_block, _, _ = supporting_line_primal([0.1, 0.6], [0.5, 0.5], y, 3.0, 9.0)
    base = dualize(asked)
    pairs = [(DiscreteLottery.two_outcome(0.0, 1.0, 0.5), DiscreteLottery.point_mass(0.4), 1),
             (DiscreteLottery.point_mass(0.6), DiscreteLottery.two_outcome(0.2, 0.8, 0.3), -1)]
    # two nodes' answers stacked on the base's columns: the second node's
    # answer duals and the base's dual make the dual of the base plus them
    stacked = LinearProgram("min")
    stacked.add_vars(asked.num_vars, lb=asked.lower, ub=asked.upper)
    append_pairwise_rows(stacked, asked_block.alpha, y, pairs[1:])
    append_pairwise_rows(stacked, asked_block.alpha, y, pairs)
    answers = dualize(stacked)
    append_pairwise_rows(asked, asked_block.alpha, y, pairs)
    asked = dualize(asked)
    # decision columns 0..2 enter the rows of eps[2] and eps[0], listed out of
    # order; the second block has none
    entries = [(eps[2], 1, -0.4), (eps[2], 0, 0.25), (eps[0], 2, -0.3)]
    parts = [("n0.", [(ball, 0, ball.num_vars)], ball.objective, ball.rhs, 0.5,
              tuple(np.array(col) for col in zip(*entries))),
             ("n3.", [(base, 0, base.num_vars), (answers, 1, 3)], 2.0 * asked.objective,
              asked.rhs - 1.0, 0.25,
              (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)))]
    programs = []
    for _ in range(2):
        big = LinearProgram("max")
        big.add_vars(3, "x")
        big.add_row({0: 1.0, 1: 1.0}, "<=", 1.0, name="budget")
        programs.append(big)
    calls = []
    real_add_row = LinearProgram.add_row
    monkeypatch.setattr(LinearProgram, "add_row", lambda *a, **k: calls.append(a))
    spans = _splice_dual_blocks(
        programs[0], iter(parts), ball.num_vars + asked.num_vars,
        ball.num_rows + asked.num_rows, ball.row_matrix().nnz + asked.row_matrix().nnz + 3)
    assert calls == []
    monkeypatch.setattr(LinearProgram, "add_row", real_add_row)
    extra = {}
    for row, col, val in entries:
        extra.setdefault(int(row), {})[col] = val
    ref_spans = [_copy_dual_block_reference(programs[1], ball, 0.5, extra, "n0")]
    scaled = _with_data(asked, 2.0 * asked.objective, asked.rhs - 1.0)
    ref_spans.append(_copy_dual_block_reference(programs[1], scaled, 0.25, {}, "n3"))

    for (cols, rows), (ref_cols, ref_rows) in zip(spans, ref_spans, strict=True):
        assert np.array_equal(cols, ref_cols) and np.array_equal(rows, ref_rows)
    assert_same_program(*programs)


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


def test_a_node_never_reached_is_named():
    problem, spec = random_ball_problem(np.random.default_rng(3), (2, 2, 2), 0.05)
    problem = MultistageProblem(
        balanced_tree((2, 2, 2), probs=[(1.0, 0.0), (0.5, 0.5), (0.5, 0.5)]),
        problem.decision_bounds, problem.rewards, problem.ambiguity, problem.grid,
        problem.constraints)
    with pytest.raises(ValueError, match=r"^node 2 is reached with probability 0\.0;"):
        solve_holistic(problem)
    # the nominal solve has no per-node block to divide by it
    pol = solve_nominal(problem, spec.nominal)
    assert pol.value == 2.59647666031141
    # node 0's outcomes include node 2's, in either evaluation mode
    uset = FiniteUtilitySet((spec.nominal,))
    finite = _reassigned(problem, dict.fromkeys(problem.tree.nonleaf_ids(), uset))
    for run in (lambda: evaluate_policy_worst_case(problem, pol.decisions),
                lambda: evaluate_policy_worst_case(finite, pol.decisions, "sequence_global"),
                lambda: check_time_consistency(problem, pol)):
        with pytest.raises(ValueError, match="^node 0: outcome probabilities must be positive$"):
            run()


def test_nested_evaluation_names_a_node_whose_outcomes_leave_the_domain():
    # the build refuses a reward 5e-8 past the domain, as the node LPs of the
    # nested evaluation would refuse the outcome, and prints its ends in full
    problem, _ = random_ball_problem(np.random.default_rng(3), (2, 2), 0.05)
    rewards = {i: RewardMap(0.0 * r.coef, 1.0 + 5e-8) for i, r in problem.rewards.items()}
    with pytest.raises(ValueError, match=r"^reward at node 1 spans \[1\.00000005, 1\.00000005\], "
                                         r"outside the utility domain \[0, 1\]$"):
        MultistageProblem(problem.tree, problem.decision_bounds, rewards,
                          problem.ambiguity, problem.grid, problem.constraints)


def test_tree_refuses_siblings_the_nested_evaluation_would_refuse():
    # siblings summing to 1 + 4e-10 fail the lottery check of a node's outcomes
    with pytest.raises(ValueError, match=r"^node 0: children probabilities sum to 1\.0000000004"):
        balanced_tree((2, 2), probs=[(0.5, 0.5 + 4e-10), (0.5, 0.5)])
    with pytest.raises(ValueError, match="sum to 1.0000000004, not 1"):
        DiscreteLottery((0.2, 0.8), (0.5, 0.5 + 4e-10))


@pytest.mark.parametrize("shift, fails", [(1e-5, True), (1e-9, False)])
def test_big_solves_check_the_duality_gap(monkeypatch, shift, fails):
    # raising the dual of node 1's carry-over row con1[1] (<=, in a
    # maximization) keeps its sign, and the row meets only decision columns,
    # whose bounds are finite: x stays, every sign holds, and only the gap
    # moves, by the shift times the row's slack at the bounds its columns
    # are priced at, which the shift moves for a column at a bound with
    # reduced cost 0
    rng = np.random.default_rng(3)
    problem, spec = random_ball_problem(rng, radius=0.05)
    answer = lp_module.HighsSession.answer

    def perturbed(self, *args, **kwargs):
        sol = answer(self, *args, **kwargs)
        if self._lp.name in ("tree", "nominal"):
            assert self._lp.row_name(1) == "con1[1]"
            sol.duals[1] += shift
        return sol

    monkeypatch.setattr(lp_module.HighsSession, "answer", perturbed)
    for label, run in (("holistic", lambda: solve_holistic(problem)),
                       ("nominal", lambda: solve_nominal(problem, spec.nominal))):
        if fails:
            with pytest.raises(RuntimeError, match=rf"^{label} solve: primal objective \S+ and "
                                                   rf"dual objective \S+ differ by "):
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
    answer = lp_module.HighsSession.answer

    def perturbed(self, *args, **kwargs):
        sol = answer(self, *args, **kwargs)
        if self._lp.name in ("tree", "nominal"):
            sol.x = sol.x.copy()
            sol.x[0] += shift
        return sol

    monkeypatch.setattr(lp_module.HighsSession, "answer", perturbed)
    _refuse_every_certificate(monkeypatch)
    # the two big solves, the check's one tree solve for a policy that keeps
    # none, and the re-solves of the check's rebuilt subtrees
    for run in (lambda: solve_holistic(problem),
                lambda: solve_nominal(problem, spec.nominal),
                lambda: check_time_consistency(problem, Policy(pol.decisions, pol.value, {})),
                lambda: check_time_consistency(problem, pol)):
        if fails:
            with pytest.raises(RuntimeError, match="violates a row or bound"):
                run()
        else:
            run()


def _refuse_every_certificate(monkeypatch):
    """Send every subtree of the check down the re-solve path, and every node
    worst case down the cold solve."""
    monkeypatch.setattr(multistage_module, "_subtree_certificate", lambda *args: None)
    monkeypatch.setattr(multistage_module, "_node_certificate", lambda *args: None)


def _entries(report):
    return [(e.node, e.stage, e.local_value, e.achieved_value, e.discrepancy)
            for e in report.entries]


def _assert_close_to_reference(entries, reference):
    """Certified entries: local and achieved values within 1e-9 * (1 + |v|)
    of the re-solved and cold-solved ones."""
    assert [e[:2] for e in entries] == [e[:2] for e in reference]
    for e, ref in zip(entries, reference):
        for k in (2, 3):
            assert abs(e[k] - ref[k]) <= 1e-9 * (1.0 + abs(ref[k]))


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
    # a refused subtree is rebuilt, so the refused report has the reference's
    # bits; the certified one reads the subtree's part of the tree solve
    problem = make(np.random.default_rng(11))
    pol = solve_holistic(problem)
    rebuilt, rebuild = [], multistage_module.subtree_problem
    monkeypatch.setattr(multistage_module, "subtree_problem",
                        lambda *args: (rebuilt.append(args[1]), rebuild(*args))[1])
    _refuse_every_certificate(monkeypatch)
    report = check_time_consistency(problem, pol)
    monkeypatch.undo()
    reference = _reference_report(problem, pol)
    assert _entries(report) == reference
    _assert_close_to_reference(_entries(check_time_consistency(problem, pol)), reference)
    # the subtrees run in parallel, so only the set of rebuilds is fixed
    assert sorted(rebuilt) == problem.tree.nonleaf_ids()


def test_subtree_problems_certify_their_rewards(monkeypatch):
    problem, _ = random_ball_problem(np.random.default_rng(5), radius=0.05)
    pol = solve_holistic(problem)
    certified, real = [], MultistageProblem._certify_rewards
    monkeypatch.setattr(MultistageProblem, "_certify_rewards",
                        lambda self: (certified.append(self), real(self))[1])
    subs = [subtree_problem(problem, s, pol.decisions)[0] for s in problem.tree.nonleaf_ids()]
    assert certified == subs
    # a history that empties the re-rooted decision set is refused when built
    with pytest.raises(InfeasibleProblemError, match="infeasible at node 0"):
        subtree_problem(problem, 1, {0: np.array([-1.0, 0.0])})


def test_slices_drop_parent_only_rows_and_name_a_failed_subtree(monkeypatch):
    rng = np.random.default_rng(11)
    problem, _ = random_ball_problem(rng, branching=(2, 2), radius=0.05)
    pol = solve_holistic(problem)
    # a row at node 1 on the parent decision alone is a constant once that
    # decision is fixed: the certificate and the rebuild drop it when it holds
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

    # a rebuilt subtree that ends without an optimum raises after its one
    # solve, before any later subtree runs (node 1, the first after the whole tree)
    run, full = lp_module.HighsSession.run, _assemble_holistic(problem)[0].num_rows
    rebuilt, rebuild = [], multistage_module.subtree_problem
    monkeypatch.setattr(multistage_module, "subtree_problem",
                        lambda *args: (rebuilt.append(args[1]), rebuild(*args))[1])
    _refuse_every_certificate(monkeypatch)
    for status, message in ((lp_module.LpStatus.FAILED, "failed: stalled"),
                            (lp_module.LpStatus.INFEASIBLE, "infeasible")):
        rebuilt.clear()
        failed = []

        def failing(self):
            if self._lp.name == "tree" and self._lp.num_rows < full:
                failed.append(self)
                self.status, self.message = status, "stalled"
                return None
            return run(self)

        monkeypatch.setattr(lp_module.HighsSession, "run", failing)
        with pytest.raises(RuntimeError, match=rf"^subtree 1 solve ended {message}$"):
            check_time_consistency(problem, pol)
        assert rebuilt == [0, 1] and len(failed) == 1


def test_checks_give_the_same_bits_on_any_core_count(monkeypatch):
    problem = _mixed_problem(np.random.default_rng(11), (2, 3, 2), asked_nodes={1, 5, 6})
    pol = solve_holistic(problem)

    def runs():
        with pytest.MonkeyPatch.context() as m:
            certified = _entries(check_time_consistency(problem, pol))
            _refuse_every_certificate(m)
            return [certified, _entries(check_time_consistency(problem, pol)),
                    _entries(check_time_consistency(problem, pol, subtree_solver=solve_holistic))]

    free = list(runs()), evaluate_policy_worst_case(problem, pol.decisions)
    node_worst_case, solve_big = multistage_module._node_worst_case, multistage_module._solve_big

    seen = []

    def failing_worst_case(problem, s, dist, template):
        seen.append(s)
        if s == 5:
            raise RuntimeError("node 5 broke")
        if s == 2:
            return WorstCaseResult("infeasible")
        return node_worst_case(problem, s, dist, template)

    def failing_solve(problem, big, xvar, label, **kwargs):
        if label in ("subtree 2", "subtree 5"):
            raise RuntimeError(f"{label} solve ended failed: stalled")
        return solve_big(problem, big, xvar, label, **kwargs)

    for cores in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
        try:
            assert (list(runs()), evaluate_policy_worst_case(problem, pol.decisions)) == free
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        # every node still runs; the first failure in node order is raised
        with monkeypatch.context() as m:
            _refuse_every_certificate(m)
            m.setattr(multistage_module, "_node_worst_case", failing_worst_case)
            for run in (lambda: evaluate_policy_worst_case(problem, pol.decisions),
                        lambda: check_time_consistency(problem, pol)):
                seen.clear()
                with pytest.raises(InfeasibleProblemError,
                                   match="^worst case at node 2 is infeasible$"):
                    run()
                assert sorted(seen) == problem.tree.nonleaf_ids()
            m.setattr(multistage_module, "_solve_big", failing_solve)
            m.setattr(multistage_module, "_node_worst_case", node_worst_case)
            with pytest.raises(RuntimeError, match="^subtree 2 solve ended failed: stalled$"):
                check_time_consistency(problem, pol)
        assert threading.active_count() == threads


def test_subtrees_run_on_the_calling_thread_in_node_order(monkeypatch):
    problem = _mixed_problem(np.random.default_rng(11), (2, 3, 2), asked_nodes={1, 5})
    pol = solve_holistic(problem)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    roots, seen, rebuild = [], [], multistage_module.subtree_problem
    monkeypatch.setattr(multistage_module, "subtree_problem",
                        lambda *args: (roots.append(args[1]), rebuild(*args))[1])

    def spying(sub):
        seen.append((roots[-1], threading.current_thread() is threading.main_thread()))
        return solve_holistic(sub)

    check_time_consistency(problem, pol, subtree_solver=spying)
    assert seen == [(s, True) for s in problem.tree.nonleaf_ids()]


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
    reference = _reference_report(problem, pol)
    with pytest.MonkeyPatch.context() as m:
        _refuse_every_certificate(m)
        assert _entries(check_time_consistency(problem, pol)) == reference
    report = check_time_consistency(problem, pol)
    _assert_close_to_reference(_entries(report), reference)
    assert report.max_discrepancy <= 1e-6
    assert abs(pol.value - evaluate_policy_worst_case(problem, pol.decisions)) <= 1e-6


def _with_kept_solve(pol, x=None, duals=None, decisions=None):
    """``pol`` with its kept tree solve's ``x`` or row duals replaced (its
    certificate record computed anew from them), or its decisions."""
    kept = pol._tree_solve
    record = multistage_module._certificate_data(
        _assemble_holistic(kept.problem)[0], kept.x if x is None else x,
        kept.y if duals is None else duals, problem=kept.problem, xvar=kept.xvar,
        blocks=kept.blocks, value=kept.value)
    return Policy(pol.decisions if decisions is None else decisions, pol.value, pol.per_node,
                  record)


def test_a_tampered_tree_solve_is_refused_where_it_was_tampered(monkeypatch):
    def build(radius):
        return random_ball_problem(np.random.default_rng(11), (2, 2, 2), radius)[0]

    problem = build(0.05)
    tree, pol = problem.tree, solve_holistic(problem)
    with monkeypatch.context() as m:
        _refuse_every_certificate(m)
        resolved = _entries(check_time_consistency(problem, pol))
    certified = _entries(check_time_consistency(problem, pol))
    _assert_close_to_reference(certified, resolved)

    # four tamperings at node 4, which need all three checks of the
    # certificate: flip the sign of a clearly nonzero inequality dual of its
    # block; move the block column with the largest cost by 1e-3; move its
    # decision, which costs nothing, by 1e-3; raise the dual of its
    # constraint row, which keeps the sign and meets only bounded columns
    big, xvar, blocks = _assemble_holistic(problem)
    sol, nb = pol._tree_solve, blocks[4]
    rels = np.asarray(big.relations)[nb.rows]
    row = nb.rows[np.argmax(np.where(rels != "=", np.abs(sol.y[nb.rows]), 0.0))]
    assert abs(sol.y[row]) > 1e-3
    duals = sol.y.copy()
    duals[row] = -duals[row]
    x, decided = sol.x.copy(), sol.x.copy()
    x[nb.cols[np.argmax(np.abs(big.objective[nb.cols]))]] += 1e-3
    decided[xvar[4]] += 1e-3
    raised = sol.y.copy()
    raised[[k for k, con in enumerate(problem.constraints) if con.node == 4]] += 0.5
    tampered = [_with_kept_solve(pol, duals=duals), _with_kept_solve(pol, x=x),
                _with_kept_solve(pol, x=decided), _with_kept_solve(pol, duals=raised)]

    ids = tree.nonleaf_ids()
    cold = multistage_module._nested_worst_cases(problem, pol.decisions)
    # node 4's pair reads its block's columns and row duals, not its decision
    # nor its constraint rows
    for bad, nodes in zip(tampered, ([4], [4], [], [])):
        got, refused, rebuilt, certified_nodes = _spied_check(monkeypatch, problem, bad)
        # node 4 and the subtrees above it are re-solved, with the re-solve's bits
        assert sorted(refused) == sorted(rebuilt) == [0, 1, 4]
        assert [e[2] for e in got] == [(resolved if s in (0, 1, 4) else certified)[k][2]
                                       for k, s in enumerate(ids)]
        # a refused node is solved cold, alone, and node 4's subtree is node 4
        assert [s for s in ids if certified_nodes[s] is None] == nodes
        assert float.hex(got[ids.index(4)][3]) == float.hex(
            (cold if nodes else certified_nodes)[4])
        _assert_close_to_reference(got, resolved)

    # a solve of the same tree at another radius, put in this policy's
    # record, is certified only where it holds: each node's block prices its
    # budget at the other radius
    far = solve_holistic(build(0.2))
    other = _with_kept_solve(pol, far._tree_solve.x, far._tree_solve.y, far.decisions)
    # and so is the policy's own solve under another feasible plan: a node
    # whose decision moved no longer faces the outcomes its block priced
    plan = Policy(other.decisions, pol.value, pol.per_node, pol._tree_solve)
    moved = [s for s in ids if not np.array_equal(plan.decisions[s], pol.decisions[s])]
    assert moved == [1]
    for bad, nodes in ((other, ids), (plan, moved)):
        with monkeypatch.context() as m:
            _refuse_every_certificate(m)
            resolved = _entries(check_time_consistency(problem, bad))
        got, _, _, certified_nodes = _spied_check(monkeypatch, problem, bad)
        assert [s for s in ids if certified_nodes[s] is None] == nodes
        cold = multistage_module._nested_worst_cases(problem, bad.decisions)
        for s, value in certified_nodes.items():
            if value is not None:
                assert abs(value - cold[s]) <= multistage_module._GAP_TOL * (1.0 + abs(cold[s]))
        _assert_close_to_reference(got, resolved)


@pytest.mark.parametrize("kind", ["holistic", "nominal", "subtree"])
def test_a_tree_solve_with_a_wrong_signed_row_dual_is_refused(monkeypatch, kind):
    # flip the sign of the largest inequality dual HiGHS returns for a
    # tree-wide LP: x and the dual objective HiGHS reports are untouched, so
    # the primal residual and that gap still pass, but the row's dual has
    # the wrong sign and the columns it meets are priced off by twice its
    # share; the refusal names the row or one of those columns
    problem, spec = random_ball_problem(np.random.default_rng(3), radius=0.05)
    pol = solve_holistic(problem)
    answer, flipped = lp_module.HighsSession.answer, []

    def flipping(self, *args, **kwargs):
        sol, lp = answer(self, *args, **kwargs), self._lp
        if lp.name in ("tree", "nominal"):
            k = int(np.argmax(np.where(lp.relations != "=", np.abs(sol.duals), 0.0)))
            assert abs(sol.duals[k]) > 1e-3
            sol.duals[k] = -sol.duals[k]
            row = lp.row_matrix()[k]
            flipped.append((lp.row_name(k), [lp.var_name(j) for j in row.indices]))
        return sol

    monkeypatch.setattr(lp_module.HighsSession, "answer", flipping)
    if kind == "subtree":
        # every subtree is rebuilt and solved, the whole tree first
        _refuse_every_certificate(monkeypatch)
    label, run = {"holistic": ("holistic", lambda: solve_holistic(problem)),
                  "nominal": ("nominal", lambda: solve_nominal(problem, spec.nominal)),
                  "subtree": ("subtree 0", lambda: check_time_consistency(problem, pol))}[kind]
    with pytest.raises(RuntimeError, match=rf"^{label} solve: ") as err:
        run()
    [(row, cols)] = flipped
    named = [f"row {row} (", *(f"column {c} has reduced cost " for c in cols)]
    assert any(str(err.value).startswith(f"{label} solve: {n}") for n in named), str(err.value)


def test_a_check_assembles_the_tree_lp_only_without_a_kept_solve_of_its_problem(monkeypatch):
    problem = random_ball_problem(np.random.default_rng(11), (2, 2, 2), 0.05)[0]
    pol = solve_holistic(problem)
    assembled, real = [], multistage_module._assemble_holistic
    monkeypatch.setattr(multistage_module, "_assemble_holistic",
                        lambda p: (assembled.append(p), real(p))[1])
    certified = _entries(check_time_consistency(problem, pol))
    assert assembled == []
    # a plan that keeps no tree solve, and a policy whose record is of another
    # problem object (an equal one), are each checked with one tree solve
    twin = MultistageProblem(problem.tree, problem.decision_bounds, problem.rewards,
                             problem.ambiguity, problem.grid, problem.constraints)
    for checked, plan in ((problem, Policy(pol.decisions, pol.value, {})), (twin, pol)):
        assembled.clear()
        entries = _entries(check_time_consistency(checked, plan))
        assert assembled == [checked]
        _assert_close_to_reference(entries, certified)


def _spied_check(monkeypatch, problem, policy):
    """``check_time_consistency(problem, policy)``'s entries, with the roots
    of the subtrees whose certificates were refused, the roots of the
    subtrees rebuilt, and each node's certified worst case (``None`` where
    refused); checks that exactly the refused nodes were solved cold."""
    subtree, node = multistage_module._subtree_certificate, multistage_module._node_certificate
    rebuild, nested = multistage_module.subtree_problem, multistage_module._nested_worst_cases
    refused, rebuilt, certified, cold = [], [], {}, []

    def spy_subtree(problem, kept, order, *args):
        value = subtree(problem, kept, order, *args)
        if value is None:
            refused.append(order[0])
        return value

    def spy_node(problem, s, *args):
        certified[s] = node(problem, s, *args)
        return certified[s]

    def spy_rebuild(problem, s, decisions):
        rebuilt.append(s)
        return rebuild(problem, s, decisions)

    def spy_nested(problem, decisions, nodes=None):
        cold.append(list(nodes))
        return nested(problem, decisions, nodes)

    with monkeypatch.context() as m:
        m.setattr(multistage_module, "_subtree_certificate", spy_subtree)
        m.setattr(multistage_module, "_node_certificate", spy_node)
        m.setattr(multistage_module, "subtree_problem", spy_rebuild)
        m.setattr(multistage_module, "_nested_worst_cases", spy_nested)
        entries = _entries(check_time_consistency(problem, policy))
    assert cold == [[s for s, v in certified.items() if v is None]]
    return entries, refused, rebuilt, certified


def test_a_check_of_a_holistic_policy_solves_no_lp(monkeypatch):
    config = experiment.ExperimentConfig(
        branching=(3, 3, 3, 3), n_breakpoints=20, radius=0.01, model="pro_kan", seeds=(0,),
        tree_seed=11)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    problem = experiment.build_investment_consumption(tree, config)
    pol = experiment.solve_model(problem, config)
    runs, rebuilt = [], []
    run, rebuild = lp_module.HighsSession.run, multistage_module.subtree_problem
    # every HiGHS run passes HighsSession.run, the node worst cases' too
    monkeypatch.setattr(lp_module.HighsSession, "run",
                        lambda self: (runs.append(self), run(self))[1])
    monkeypatch.setattr(multistage_module, "subtree_problem",
                        lambda *args: (rebuilt.append(args), rebuild(*args))[1])
    report = check_time_consistency(problem, pol)
    assert len(report.entries) == 40
    assert runs == [] and rebuilt == []
    assert report.max_discrepancy <= 1e-6
    # the count sees the runs of a policy that keeps no tree solve: one per
    # node worst case, then the check's own tree solve, after the one run
    # of its one shape's start (see _shape_basis)
    check_time_consistency(problem, Policy(pol.decisions, pol.value, {}))
    assert [session._lp.name for session in runs] == (
        ["worst-case"] * 40 + ["dual(worst-case)", "tree"])


def _highs_presolve_options(monkeypatch):
    """The presolve and dual pricing options of every HiGHS instance loaded,
    in load order, each with the label of the tree-wide solve it was loaded
    in (``None`` outside ``_solve_big``).  The pricing reads ``"devex"`` or
    ``"choose"``, HiGHS's own choice, which linprog leaves it."""
    loads, label = [], [None]
    solve_big = multistage_module._solve_big
    pricing = {-1: "choose", 1: "devex"}

    class Spy(lp_module._Highs):
        def passModel(self, *args):
            edge = self.getOptionValue("simplex_dual_edge_weight_strategy")[1]
            loads.append((label[0], self.getOptionValue("presolve")[1],
                          pricing.get(edge, edge)))
            return super().passModel(*args)

    def labelled(problem, big, xvar, lab, **kwargs):
        label[0] = lab
        try:
            return solve_big(problem, big, xvar, lab, **kwargs)
        finally:
            label[0] = None

    monkeypatch.setattr(lp_module, "_Highs", Spy)
    monkeypatch.setattr(multistage_module, "_solve_big", labelled)
    return loads


def test_only_holistic_tree_lps_run_without_presolve(monkeypatch):
    config = experiment.ExperimentConfig(branching=(2, 2), n_breakpoints=10, radius=0.05,
                                         model="pro_kan", seeds=(0,), tree_seed=11)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    loads = _highs_presolve_options(monkeypatch)
    nonleaf = tree.nonleaf_ids()
    linprog = ("on", "choose")

    def run(call):
        loads.clear()
        call()
        return list(loads)

    problem = experiment.build_investment_consumption(tree, config)
    certify = list(loads)  # reward certification
    assert certify and set(certify) == {(None, *linprog)}
    pol = solve_holistic(problem)
    # every node carries a ball: the tree LP is priced with Devex, after its
    # one shape's start LP (see _shape_basis) keeps linprog's options
    start = [(None, *linprog)]
    assert loads[len(certify):] == start + [("holistic", "off", "devex")]
    nominal = {s: problem.ambiguity.for_node(s).nominal_on(problem.grid) for s in nonleaf}
    assert run(lambda: solve_nominal(problem, nominal)) == [("nominal", *linprog)]
    # the node worst cases, then the check's own tree solve for a policy that keeps none
    node_solves = [(None, *linprog)] * len(nonleaf)
    assert run(lambda: evaluate_policy_worst_case(problem, pol.decisions)) == node_solves
    assert (run(lambda: check_time_consistency(problem, Policy(pol.decisions, pol.value, {})))
            == node_solves + start + [("subtree 0", "off", "devex")])
    # every subtree refused: its rebuild certifies its rewards, its re-solve skips
    # presolve and prices with Devex
    _refuse_every_certificate(monkeypatch)
    refused = run(lambda: check_time_consistency(problem, pol))
    assert [load for load in refused if load[0] is not None] == [
        (f"subtree {s}", "off", "devex") for s in nonleaf]
    assert len(refused) > 2 * len(nonleaf)
    assert {load for load in refused if load[0] is None} == {(None, *linprog)}

    # a tree with a questionnaire node keeps HiGHS's own pricing, all or some asked
    asked = experiment.build_investment_consumption(
        tree, replace(config, model="pro_pc", questionnaires=20))
    mixed = _mixed_problem(np.random.default_rng(11), (2, 3, 2), asked_nodes={1, 5, 6})
    for other in (asked, mixed):
        shapes = {multistage_module._template_key(other.ambiguity.for_node(s),
                                                  len(other.tree.children[s]))
                  for s in other.tree.nonleaf_ids()}
        assert (run(lambda: solve_holistic(other))
                == start * len(shapes) + [("holistic", "off", "choose")])


@st.composite
def small_ball_problems(draw):
    """A 2- or 3-stage tree of branching 1 to 3 per stage with a Kantorovich
    ball at every node."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    radius = draw(st.sampled_from([0.001, 0.01, 0.05, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return random_ball_problem(rng, branching, radius)[0]


@settings(max_examples=25, deadline=None)
@given(small_ball_problems())
def test_devex_pricing_moves_no_value(problem):
    pol = solve_holistic(problem)
    # the same tree LP under HiGHS's own pricing
    default = multistage_module._assemble_holistic(problem)[0].solve(presolve=False)
    assert default.is_optimal
    assert abs(pol.value - default.objective) <= (
        multistage_module._GAP_TOL * (1.0 + abs(default.objective)))
    # the Devex solve still certifies every node worst case and every subtree optimum
    runs, rebuilt = [], []
    run, rebuild = lp_module.HighsSession.run, multistage_module.subtree_problem
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module.HighsSession, "run", lambda self: (runs.append(self), run(self))[1])
        m.setattr(multistage_module, "subtree_problem",
                  lambda *args: (rebuilt.append(args), rebuild(*args))[1])
        report = check_time_consistency(problem, pol)
    assert runs == [] and rebuilt == []
    assert report.max_discrepancy <= 1e-6


def _worst_case_bits(res):
    return float.hex(res.value), [float.hex(v) for v in res.utility.values]


@settings(max_examples=12, deadline=None)
@given(small_mixed_problems())
def test_templated_node_solves_equal_the_node_by_node_ones(problem):
    """Every node worst case of the nested evaluation, stamped from its
    shape's template, has the bits of the node's own LP solved on its own:
    through the public call without a template, and through
    ``LinearProgram.solve`` of its :func:`node_primal`."""
    pol = solve_holistic(problem)
    calls, real = [], multistage_module._node_worst_case

    def spy(problem, s, dist, template):
        calls.append((s, dist, template, real(problem, s, dist, template)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(multistage_module, "_node_worst_case", spy)
        evaluate_policy_worst_case(problem, pol.decisions)
    tree, grid = problem.tree, problem.grid
    assert sorted(s for s, _, _, _ in calls) == tree.nonleaf_ids()
    shapes = [multistage_module._template_key(problem.ambiguity.for_node(s),
                                              len(tree.children[s])) for s, _, _, _ in calls]
    for (s, dist, template, res), shape in zip(calls, shapes):
        # a shape of two or more nodes is stamped from one template
        assert (template is not None) == (shapes.count(shape) > 1)
        spec = problem.ambiguity.for_node(s)
        solve = (worst_case_kantorovich_primal if isinstance(spec, KantorovichBallSpec)
                 else worst_case_pairwise)
        assert _worst_case_bits(res) == _worst_case_bits(solve(dist, spec, grid))
        node = node_primal(dist.support, dist.probs, spec, grid)
        sol = node.lp.solve()
        assert _worst_case_bits(res) == _worst_case_bits(WorstCaseResult(
            "optimal", sol.objective, PiecewiseLinearUtility(grid, sol.x[node.block.alpha])))


def test_questionnaires_of_one_shape_are_evaluated_with_their_own_answers():
    """Every node asks its own questionnaire, with one child count and one
    pair of caps: the tree LP's assembly shares their supporting-line base,
    but a template stamps no answer rows, so each node's nested worst case
    must still have the bits of its own LP solved on its own."""
    problem = _random_problem(
        np.random.default_rng(6), (2, 2),
        lambda rng, s, shared: elicit_pairwise(shared.nominal, K=40, grid=shared.nominal.breakpoints,
                                               seed=s, L=shared.L, L_tilde=shared.L_tilde))
    pol = solve_holistic(problem)
    values = multistage_module._nested_worst_cases(problem, pol.decisions)
    assert sorted(values) == [0, 1, 2]
    under_root_answers = []
    for s, value in values.items():
        dist = multistage_module._node_outcomes(problem, s, pol.decisions)
        node = node_primal(dist.support, dist.probs, problem.ambiguity.for_node(s), problem.grid)
        assert float.hex(value) == float.hex(node.lp.solve().objective)
        root = node_primal(dist.support, dist.probs, problem.ambiguity.for_node(0), problem.grid)
        under_root_answers.append(root.lp.solve().objective)
    # the answers matter: under node 0's, a node's value differs
    assert under_root_answers != list(values.values())


def test_one_node_lp_per_shape_and_a_fresh_highs_per_node(monkeypatch):
    tree = experiment.generate_tree((3, 3, 3), 11)
    config = experiment.ExperimentConfig(branching=(3, 3, 3), model="pro_kan", seeds=(0,),
                                         tree_seed=11)
    problem = experiment.build_investment_consumption(tree, config)
    pol = experiment.solve_model(problem, config)
    built, runs = [], []
    support = worst_case_module.supporting_line_primal

    class Counted(lp_module._Highs):
        def run(self):
            runs.append(self)
            return super().run()

    monkeypatch.setattr(worst_case_module, "supporting_line_primal",
                        lambda *args: (built.append(args), support(*args))[1])
    monkeypatch.setattr(lp_module, "_Highs", Counted)
    evaluate_policy_worst_case(problem, pol.decisions)
    assert len(tree.nonleaf_ids()) == 13
    assert len(built) == 1  # one shape: every node has 3 children and one ball
    # one cold run per node, each in an instance of its own
    assert len(runs) == 13 and len({id(h) for h in runs}) == 13


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
    # of two faults, the first in node or row order is named
    (dict(rewards={2: (np.array([math.nan, 0.1]), 0.0), 3: (np.array([0.1]), 0.0)}),
     r"reward at node 2: coef\[0\] is nan"),
    (dict(rewards={2: (np.array([0.1]), 0.0), 3: (np.array([math.nan, 0.1]), 0.0)}),
     "reward coefficient at node 2 must have length 2"),
    (dict(rewards={2: (np.array([math.nan, 0.1]), 0.0), 3: (np.array([0.1, 0.1]), None)}),
     r"reward at node 2: coef\[0\] is nan"),
    (dict(cons=[NodeConstraint(0, "<=", math.nan, coef_self={0: 1.0}),
                NodeConstraint(0, "<", 1.0, coef_self={0: 1.0})]),
     "constraint at node 0: rhs is nan"),
    (dict(cons=[NodeConstraint(0, "<", 1.0, coef_self={0: 1.0}),
                NodeConstraint(0, "<=", math.nan, coef_self={0: 1.0})]),
     "unknown relation '<'"),
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


@pytest.mark.parametrize("branching, lps", [((4, 4), 5), ((4, 4, 4, 4), 85)])
def test_certification_solves_one_max_lp_per_parent_and_direction(monkeypatch, branching, lps):
    config = experiment.ExperimentConfig(branching=branching, model="pro_kan", tree_seed=11)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    calls = _count_reward_extremes(monkeypatch)
    problem = experiment.build_investment_consumption(tree, config)
    first = {}  # (parent, direction) -> its first reward in id order
    for i in sorted(problem.rewards):
        rm = problem.rewards[i]
        first.setdefault((tree.nodes[i].parent, (rm.coef / np.max(np.abs(rm.coef))).tobytes()), i)
    # every lower bound is 0 and every coefficient >= 0, so the box decides
    # every minimum; the maxima, whose upper bounds are infinite, run in order
    assert calls == [(i, -1.0) for i in first.values()]
    assert len(calls) == lps < len(problem.rewards)


def test_rewards_along_one_direction_share_their_range_lps(monkeypatch, certify_backend):
    tree = balanced_tree([5])
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    # x[1] is bounded by a row, not by the box, so the box leaves open each
    # side that x[1] pushes up
    bounds = {0: (np.zeros(2), np.array([1.0, math.inf]))}
    rows = [NodeConstraint(0, "<=", 1.0, coef_self={1: 1.0})]
    # 1 and 2 are positive multiples, so are 3 and 5, which point the other
    # way; 4 points elsewhere
    rewards = {1: ([0.25, 0.125], 0.1), 2: ([0.5, 0.25], 0.0),
               3: ([-0.25, -0.125], 0.5), 4: ([0.125, 0.5], 0.0), 5: ([-0.5, -0.25], 0.75)}
    calls = _count_reward_extremes(monkeypatch)
    MultistageProblem(tree, bounds, rewards, spec, y, rows)
    # each open side once, at the first reward along its direction
    assert calls == [(1, -1.0), (3, 1.0), (4, -1.0)]

    # a shared range is scaled to each reward, so the wider one is refused,
    # with the side the box decided solved for the message
    rewards[2] = ([2.0, 1.0], 0.0)
    calls.clear()
    with pytest.raises(ValueError, match=r"reward at node 2 spans \[0\.0, 3\.0\], outside"):
        MultistageProblem(tree, bounds, rewards, spec, y, rows)
    assert calls == [(1, -1.0), (2, 1.0)]


def test_the_box_decides_a_side_only_for_every_reward_along_it(monkeypatch, certify_backend):
    tree = balanced_tree([3])
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    bounds = {0: (np.zeros(2), np.array([2.0, 1.0]))}
    rows = [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0})]
    # the box keeps the narrow reward inside the domain but lets the wide one
    # reach 2 (or -1); the row keeps both inside it, which only the LP shows.
    # Node 3's max is open too, so no side is solved just to run one LP.
    calls = _count_reward_extremes(monkeypatch)
    other = ([0.5, 0.5], 0.0)
    for narrow, wide, sign in ((([0.25, 0.0], 0.0), ([1.0, 0.0], 0.0), -1.0),
                               (([-0.25, 0.0], 0.5), ([-1.0, 0.0], 1.0), 1.0)):
        for rewards in ({1: narrow, 2: wide, 3: other}, {1: wide, 2: narrow, 3: other}):
            calls.clear()
            MultistageProblem(tree, bounds, rewards, spec, y, rows)
            assert calls == [(1, sign), (3, -1.0)]

    # a box open at both ends leaves both sides to the LPs, min first
    tree = balanced_tree([1])
    free = {0: (np.array([-math.inf]), np.array([math.inf]))}
    rows = [NodeConstraint(0, "<=", 1.0, coef_self={0: 1.0}),
            NodeConstraint(0, ">=", -1.0, coef_self={0: 1.0})]
    calls.clear()
    MultistageProblem(tree, free, {1: ([0.5], 0.5)}, spec, y, rows)
    assert calls == [(1, 1.0), (1, -1.0)]


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
    assert str(err.value).endswith("at node 2: rows con0[2], con1[2]")


def _build_verdict(tree, bounds, rewards, rows):
    """What building the problem says, in the terms of
    :func:`oracles.reward_ranges_oracle`."""
    y = uniform_grid(0.0, 1.0, 5)
    spec = KantorovichBallSpec(PiecewiseLinearUtility(y, y), 0.1, L=2.0, L_tilde=3.0)
    try:
        MultistageProblem(tree, bounds, rewards, spec, y, rows)
    except InfeasibleProblemError as err:
        return "empty", err.node, None
    except ValueError as err:
        unbounded = re.fullmatch(r"reward at node (\d+) is unbounded over the decision set; "
                                 r"add box bounds", str(err))
        if unbounded:
            return "unbounded", int(unbounded[1]), None
        domain = re.fullmatch(r"reward at node (\d+) spans \[(\S+), (\S+)\], outside the "
                              r"utility domain \[0, 1\]", str(err))
        assert domain, str(err)
        return "domain", int(domain[1]), (float(domain[2]), float(domain[3]))
    return None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_certification_refuses_exactly_what_two_lps_per_reward_refuse(data):
    """Boxes with finite and infinite ends, rewards with mixed-sign, zero and
    shared directions and offsets at both ends of the domain, and rows that
    hold at a point of the box, sometimes with a pair that empties the
    decision set: the build accepts exactly what the oracle accepts, and
    names the same fault at the same node, with the same ends."""
    tree = balanced_tree(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dims = {s: int(rng.integers(1, 4)) for s in tree.nonleaf_ids()}
    bounds = {s: (rng.choice([0.0, -0.5, -math.inf], d), rng.choice([1.0, 1.5, math.inf], d))
              for s, d in dims.items()}
    point = {s: rng.uniform(0.0, 1.0, d) for s, d in dims.items()}
    # a few directions per parent, each reward a positive multiple of one
    pool = {s: [rng.choice([-1.0, -0.5, 0.0, 0.0, 0.25, 1.0], d) * rng.choice([0.05, 0.3, 1.0])
                for _ in range(2)] for s, d in dims.items()}
    rewards = {}
    for node in tree.nodes[1:]:
        coef = pool[node.parent][int(rng.integers(2))] * rng.choice([0.5, 1.0, 2.0])
        rewards[node.id] = (coef, float(rng.choice([0.0, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0])))

    # one pinned decision entry that no other row touches, so that the pair
    # of rows emptying the set is its only conflict
    owner = data.draw(st.sampled_from(tree.nonleaf_ids()))
    pinned = (owner, int(rng.integers(dims[owner])))
    rows = []
    for _ in range(data.draw(st.integers(0, 6))):
        node = int(rng.integers(len(tree.nodes)))
        par = tree.nodes[node].parent
        cs = {} if tree.is_leaf(node) else {
            k: float(rng.choice([-1.0, 0.5, 1.0])) for k in range(dims[node])
            if (node, k) != pinned and rng.random() < 0.6}
        cp = {} if par is None else {
            k: float(rng.choice([-1.0, 0.5, 1.0])) for k in range(dims[par])
            if (par, k) != pinned and rng.random() < 0.6}
        if not cs and not cp:
            continue
        value = sum(v * point[node][k] for k, v in cs.items())
        value += sum(v * point[par][k] for k, v in cp.items())
        rel = data.draw(st.sampled_from(["<=", ">=", "="]))
        rows.append(NodeConstraint(node, rel, value + {"<=": 0.5, ">=": -0.5, "=": 0.0}[rel],
                                   cs, cp))
    if data.draw(st.booleans()):
        for node, rel, value in zip(data.draw(st.lists(
                st.sampled_from([owner, *tree.children[owner]]), min_size=2, max_size=2)),
                (">=", "<="), rng.uniform([0.6, 0.0], [1.0, 0.4])):
            key = "coef_self" if node == owner else "coef_parent"
            rows.insert(int(rng.integers(len(rows) + 1)),
                        NodeConstraint(node, rel, value, **{key: {pinned[1]: 1.0}}))

    want = reward_ranges_oracle(tree, bounds, rewards, rows, 0.0, 1.0, DOMAIN_TOL)
    got = _build_verdict(tree, bounds, rewards, rows)
    event("accepted" if want is None else want[0])
    assert (got is None) == (want is None)
    if want is not None:
        assert got[:2] == want[:2]
        if want[2] is not None:
            np.testing.assert_allclose(got[2], want[2], rtol=0.0, atol=1e-9)


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
        held = _fail_every_warm_run(patch)
        cold = _certified_extremes(monkeypatch, tree, config)
    # every extreme but the first one of the build ran warm, failed and
    # was run again cold
    assert len(held) + 1 == len(cold) == len(warm) > 1
    assert all(x is not None for x in held)
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
    ``L_tilde`` or both, one shared questionnaire, or a questionnaire of
    their own: of 8 answers, or of 13 with the shared caps or with ``L`` and
    ``L_tilde`` doubled."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    n_nonleaf = sum(int(np.prod(branching[:t])) for t in range(len(branching)))
    kinds = draw(st.lists(st.integers(0, 8), min_size=n_nonleaf, max_size=n_nonleaf))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    asked = {}

    def assign(rng, s, shared):
        kind = kinds[s]
        if kind == 1:
            own = random_concave_pl(rng, uniform_grid(0.0, 1.0, 13))
            return KantorovichBallSpec(own, float(rng.uniform(0.0, 0.2)),
                                       L=shared.L, L_tilde=shared.L_tilde)
        other = {2: {"L": 2 * shared.L, "L_tilde": 2 * shared.L_tilde},
                 3: {"L": 2 * shared.L}, 4: {"L_tilde": 2 * shared.L_tilde}}
        if kind in other:
            caps = {"L": shared.L, "L_tilde": shared.L_tilde, **other[kind]}
            return KantorovichBallSpec(shared.nominal, 0.1, **caps)
        if kind >= 5:
            seed = 3 if kind == 5 else 100 * kind + s
            scale = 2.0 if kind == 8 else 1.0
            if seed not in asked:
                asked[seed] = elicit_pairwise(
                    shared.nominal, K=13 if kind >= 7 else 8, grid=shared.nominal.breakpoints,
                    seed=seed, L=scale * shared.L, L_tilde=scale * shared.L_tilde)
            return asked[seed]
        return shared

    return _random_problem(rng, branching, assign)


def _assemble_reference(problem):
    """The tree LP as it was assembled before templates: :func:`node_primal`,
    :func:`dualize` and a row-by-row block copy at every node.  Returns it
    with each node's :class:`_NodeBlock` fields: columns, rows, alpha
    positions and dual costs."""
    tree = problem.tree
    pu = tree.unconditional_probs()
    big = LinearProgram("max", name="tree")
    xvar = problem.add_decisions(big)
    blocks = {}
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
        cols, rows = _copy_dual_block_reference(big, dual, float(pu[s]), extra, f"n{s}")
        blocks[s] = cols, rows, node.block.alpha, dual.objective
    return big, blocks


def _with_data(lp, cost, rhs):
    """``lp`` with its costs and right-hand sides replaced."""
    out = LinearProgram(lp.sense, lp.name)
    out.add_vars(lp.num_vars, [lp.var_name(j) for j in range(lp.num_vars)],
                 lb=lp.lower, ub=lp.upper, obj=cost)
    mat = lp.row_matrix()
    out.add_rows(mat.indptr, mat.indices, mat.data, lp.relations, rhs,
                 [lp.row_name(k) for k in range(lp.num_rows)])
    return out


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
        # stamping writes no answer rows: a template fixes its questionnaire
        key = (multistage_module._template_key(spec, len(kids)),
               spec if isinstance(spec, PairwiseComparisonSpec) else None)
        tpl, dual = templates.setdefault(key, (own, dualize(own.lp)))
        cost, rhs = tpl.stamped(offsets, probs, spec, y)
        assert_same_program(_with_data(tpl.lp, cost, rhs), own.lp)
        assert_same_program(_with_data(dual, rhs, cost), dualize(own.lp))
        for part in ("eps", "fee", "match"):
            assert np.array_equal(getattr(tpl, part), getattr(own, part))
        assert tpl.budget == own.budget
        assert np.array_equal(tpl.block.alpha, own.block.alpha)

    big, _, blocks = _assemble_holistic(problem)
    ref, ref_blocks = _assemble_reference(problem)
    assert_same_program(big, ref)
    assert list(blocks) == list(ref_blocks)
    for s, nb in blocks.items():
        for part, want in zip(("cols", "rows", "alpha", "cost"), ref_blocks[s]):
            got = getattr(nb, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_stacked_answers_are_dropped_once_spliced(monkeypatch):
    # every node asks its own questionnaire, so its answer rows are a one-off
    problem = _random_problem(
        np.random.default_rng(5), (2, 2),
        lambda rng, s, shared: elicit_pairwise(shared.nominal, K=8, grid=shared.nominal.breakpoints,
                                               seed=s, L=shared.L, L_tilde=shared.L_tilde))
    stacks, duals, bases, at_splice = [], [], [], []
    real_rows, real_base, real_dualize, real_splice = (
        multistage_module.append_pairwise_rows, multistage_module.supporting_line_primal,
        multistage_module.dualize, multistage_module._splice_dual_blocks)

    def rows_spy(lp, *args):
        stacks.append((id(lp), weakref.ref(lp)))
        return real_rows(lp, *args)

    def base_spy(*args):
        bases.append(args)
        return real_base(*args)

    def dualize_spy(lp):
        dual = real_dualize(lp)
        duals.append(weakref.ref(dual))
        return dual

    def splice_spy(*args):
        at_splice.append([ref() is not None for _, ref in stacks])
        return real_splice(*args)

    monkeypatch.setattr(multistage_module, "append_pairwise_rows", rows_spy)
    monkeypatch.setattr(multistage_module, "supporting_line_primal", base_spy)
    monkeypatch.setattr(multistage_module, "dualize", dualize_spy)
    monkeypatch.setattr(multistage_module, "_splice_dual_blocks", splice_spy)
    _, _, blocks = _assemble_holistic(problem)
    # one base for the shape, and the three nodes' answers stacked in one
    # call, dropped once dualized, before the splice
    assert len(bases) == 1
    assert len(stacks) == 1
    assert at_splice == [[False]]
    # the base's dual and the stack's are dropped once spliced
    assert len(duals) == 2 and all(ref() is None for ref in duals)
    assert len(blocks) == 3


def test_assembly_dualizes_each_shape_once_and_its_stacked_answers_once(monkeypatch):
    problem = mixed_problem()
    tree = problem.tree
    calls = []
    real = multistage_module.dualize

    def spy(lp):
        calls.append(lp.name)
        return real(lp)

    monkeypatch.setattr(multistage_module, "dualize", spy)
    _assemble_holistic(problem)
    shapes = {multistage_module._template_key(problem.ambiguity.for_node(s), len(tree.children[s]))
              for s in tree.nonleaf_ids()}
    balls = sum(key[0] is KantorovichBallSpec for key in shapes)
    # two ball shapes (3 and 2 children) and four questionnaire shapes (two
    # child counts times two pairs of caps) over 13 nodes: each shape's
    # template is dualized once, a questionnaire shape's stacked answers once
    assert (balls, len(shapes) - balls, len(tree.nonleaf_ids())) == (2, 4, 13)
    assert calls == ["worst-case"] * 6 + ["answers"] * 4


# ------------------------------------------------------------- priced solves

def _tree_sessions(monkeypatch):
    """Every HiGHS session that runs a tree-wide LP, in order of first run."""
    sessions, run = [], lp_module.HighsSession.run

    def spy(self):
        if self._lp.name == "tree" and self not in sessions:
            sessions.append(self)
        return run(self)

    monkeypatch.setattr(lp_module.HighsSession, "run", spy)
    return sessions


def _asked_problem():
    """pro_pc with 20 answers per node on the (3, 3) tree of seed 11."""
    config = experiment.ExperimentConfig(branching=(3, 3), model="pro_pc", questionnaires=20,
                                         seeds=(0,), tree_seed=11)
    tree = experiment.generate_tree(config.branching, config.tree_seed)
    return experiment.build_investment_consumption(tree, config)


def test_answer_columns_are_priced_in_and_the_rest_load_in_full(monkeypatch):
    problem = _asked_problem()
    answers = multistage_module._answer_columns(_assemble_holistic(problem)[2])
    sessions = _tree_sessions(monkeypatch)
    solve_holistic(problem)
    [session] = sessions
    # some answers enter, not all, over more than one HiGHS run
    loaded = np.isin(answers, session.cols).sum()
    assert 0 < loaded < answers.size
    assert session.runs > 1 and session.iterations > 0
    # a tree without answers loads every column and runs once
    sessions.clear()
    solve_holistic(random_ball_problem(np.random.default_rng(3))[0])
    [session] = sessions
    assert session.cols is None and session.runs == 1


def test_a_priced_solve_stopped_early_is_refused(monkeypatch):
    problem = _asked_problem()
    # nothing prices in after the first run, so binding answers stay out; x
    # is still feasible and the restricted duals close the gap
    monkeypatch.setattr(lp_module.HighsSession, "reduced_costs",
                        lambda self, cols: np.zeros(cols.size))
    with pytest.raises(RuntimeError,
                       match=r"^holistic solve: column n\d+\.y_pc\[\d+\] has reduced cost "):
        solve_holistic(problem)


def test_answers_that_alone_empty_a_set_are_named(monkeypatch):
    tree = balanced_tree([2, 2])
    y = uniform_grid(0.0, 1.0, 5)
    bounds = {s: (np.zeros(1), np.ones(1)) for s in tree.nonleaf_ids()}
    rewards = {n.id: (np.array([0.8]), 0.1) for n in tree.nodes if n.parent is not None}
    sane = elicit_pairwise(ClosedFormUtility.quadratic(), K=10, grid=y, seed=1)
    # node 1 prefers the sure worst outcome to the sure best
    worst, best = DiscreteLottery((0.0,), (1.0,)), DiscreteLottery((1.0,), (1.0,))
    backwards = PairwiseComparisonSpec([(worst, best, 1)], L=sane.L, L_tilde=sane.L_tilde)
    problem = MultistageProblem(tree, bounds, rewards,
                                StateDependentAmbiguity({0: sane, 1: backwards, 2: sane}), y)
    sessions = _tree_sessions(monkeypatch)
    with pytest.raises(InfeasibleProblemError, match="^ambiguity set at node 1 is empty$") as err:
        solve_holistic(problem)
    assert err.value.node == 1
    # without its answer the set is not empty: the first run ends optimal,
    # and the tree LP turns unbounded only once that answer prices in
    [session] = sessions
    assert session.runs == 2 and session.status is LpStatus.UNBOUNDED


def _unboxed(problem, kinds):
    """``problem`` with the box of each node ``s`` opened as ``kinds[s]``
    says: ``"box"`` keeps it, ``"below"`` moves its lower bounds to -inf and
    ``"free"`` both bounds to infinity.  Constraint rows hold each opened
    bound instead, so the decision set is the same."""
    bounds, cons = {}, list(problem.constraints)
    for s, (lb, ub) in problem.decision_bounds.items():
        opened = {"box": (), "below": (">=",), "free": (">=", "<=")}[kinds[s]]
        bounds[s] = (np.full(lb.size, -math.inf) if opened else lb,
                     np.full(ub.size, math.inf) if "<=" in opened else ub)
        cons += [NodeConstraint(s, rel, (lb if rel == ">=" else ub)[k], coef_self={k: 1.0})
                 for rel in opened for k in range(lb.size)]
    return MultistageProblem(problem.tree, bounds, problem.rewards, problem.ambiguity,
                             problem.grid, cons)


@st.composite
def priced_problems(draw):
    """A 2- or 3-stage tree of branching 1 to 3 whose nodes carry, drawn node
    by node, a Kantorovich ball or the shared questionnaire of
    :func:`_mixed_problem` of 20 or 60 answers; every node asks in half the
    draws.  Each node's decision box is kept, or opened below or both ways
    (see :func:`_unboxed`), so the tree LP's start puts decisions at their
    upper bounds and free at 0 too."""
    branching = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    n_nonleaf = sum(int(np.prod(branching[:t])) for t in range(len(branching)))
    asked = set(range(n_nonleaf))
    if draw(st.booleans()):
        flags = draw(st.lists(st.booleans(), min_size=n_nonleaf, max_size=n_nonleaf))
        asked = {s for s, a in enumerate(flags) if a}
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kinds = draw(st.lists(st.sampled_from(["box", "below", "free"]), min_size=n_nonleaf,
                          max_size=n_nonleaf))
    return _unboxed(_mixed_problem(rng, branching, asked, draw(st.sampled_from([0.01, 0.05])),
                                   K=draw(st.sampled_from([20, 60]))), kinds)


@settings(max_examples=40, deadline=None)
@given(priced_problems())
def test_the_priced_solve_answers_as_the_whole_tree_lp(problem):
    pol = solve_holistic(problem)
    big, xvar, blocks = _assemble_holistic(problem)
    whole = big.solve(presolve=False)
    assert whole.is_optimal
    ref = multistage_module._holistic_policy(problem, big, multistage_module._certificate_data(
        big, whole.x, whole.duals, xvar=xvar, blocks=blocks, value=whole.objective))
    assert abs(pol.value - whole.objective) <= 1e-9 * (1.0 + abs(whole.objective))
    for s in xvar:
        assert np.max(np.abs(pol.decisions[s] - ref.decisions[s]), initial=0.0) <= 1e-9
    for s, nv in ref.per_node.items():
        assert abs(pol.per_node[s].value - nv.value) <= 1e-9
        # a node may have more than one worst-case utility, whose values
        # differ between its outcomes: the one read back must attain the
        # node's worst case
        dist = multistage_module._node_outcomes(problem, s, pol.decisions)
        assert abs(dist.expectation(pol.per_node[s].utility) - nv.value) <= 1e-9


def _started(monkeypatch, problem):
    """Solve ``problem``'s tree LP; return its HiGHS session, the start
    basis it was loaded with, and the basis each shape's start LP ended
    with, in order of its first node (see :func:`multistage._shape_basis`)."""
    sessions, starts, shapes = _tree_sessions(monkeypatch), [], []
    load, shape_basis = lp_module.HighsSession.load, multistage_module._shape_basis

    def load_spy(self, *args, basis=None, **kwargs):
        if self._lp.name == "tree":
            starts.append(basis)
        return load(self, *args, basis=basis, **kwargs)

    monkeypatch.setattr(lp_module.HighsSession, "load", load_spy)
    monkeypatch.setattr(multistage_module, "_shape_basis",
                        lambda *args: (shapes.append(shape_basis(*args)), shapes[-1])[1])
    pol = solve_holistic(problem)
    [session], [start] = sessions, starts
    return pol, session, start, shapes


@pytest.mark.parametrize("make", [
    lambda: experiment.build_investment_consumption(
        experiment.generate_tree((3, 3, 3, 3), 11), experiment.ExperimentConfig(
            branching=(3, 3, 3, 3), n_breakpoints=20, radius=0.01, model="pro_kan",
            seeds=(0,), tree_seed=11)),
    mixed_problem,
], ids=["pro_kan 3^4", "mixed"])
def test_every_block_starts_from_its_shapes_solved_basis(monkeypatch, make):
    problem = make()
    tree = problem.tree
    pol, _, (cols, rows), shapes = _started(monkeypatch, problem)
    keys = {s: multistage_module._template_key(problem.ambiguity.for_node(s),
                                               len(tree.children[s]))
            for s in tree.nonleaf_ids()}
    assert len(shapes) == len(set(keys.values())) and all(b is not None for b in shapes)
    basis = dict(zip(dict.fromkeys(keys.values()), shapes))
    blocks = pol._tree_solve.blocks
    for s, nb in blocks.items():
        shape_cols, shape_rows = basis[keys[s]]
        assert np.array_equal(cols[nb.cols[:shape_cols.size]], shape_cols)
        assert np.array_equal(rows[nb.rows], shape_rows)
    # decisions nonbasic at their box's lower ends, constraint rows basic
    decisions = np.concatenate(list(pol._tree_solve.xvar.values()))
    assert np.all(cols[decisions] == lp_module.LOWER)
    assert np.all(rows[:len(problem.constraints)] == lp_module.BASIC)
    # one basic entry per row of the tree LP
    answers = multistage_module._answer_columns(blocks)
    assert np.all(cols[answers] == lp_module.LOWER)
    assert np.count_nonzero(cols == lp_module.BASIC) + np.count_nonzero(
        rows == lp_module.BASIC) == rows.size


def test_the_started_tree_lp_runs_in_half_the_iterations_of_a_cold_load(monkeypatch):
    config = experiment.ExperimentConfig(branching=(3, 3, 3, 3), n_breakpoints=20, radius=0.01,
                                         model="pro_kan", seeds=(0,), tree_seed=11)
    problem = experiment.build_investment_consumption(
        experiment.generate_tree(config.branching, config.tree_seed), config)
    _, session, _, _ = _started(monkeypatch, problem)
    big = _assemble_holistic(problem)[0]
    cold = lp_module.HighsSession(big, presolve=False, devex=True)
    cold.load(-big.objective)
    assert cold.run() is not None
    assert 0 < session.iterations <= cold.iterations / 2


def test_a_shape_whose_start_lp_fails_leaves_its_blocks_at_slack_statuses(monkeypatch):
    problem = random_ball_problem(np.random.default_rng(3), branching=(3, 2))[0]
    run = lp_module.HighsSession.run
    monkeypatch.setattr(lp_module.HighsSession, "run",
                        lambda self: None if self._lp.name == "dual(worst-case)" else run(self))
    pol, session, (cols, rows), shapes = _started(monkeypatch, problem)
    assert shapes == [None, None]  # nodes with three children and with two
    big = _assemble_holistic(problem)[0]
    assert np.array_equal(cols, lp_module.at_bound(big.lower, big.upper)[0])
    assert np.all(rows == lp_module.BASIC)
    # that is HiGHS's own slack start: the run is a cold load's, bit for bit
    cold = lp_module.HighsSession(big, presolve=False, devex=True)
    cold.load(-big.objective)
    assert cold.run().tolist() == pol._tree_solve.x.tolist()
    assert session.iterations == cold.iterations


@pytest.mark.filterwarnings("error")
def test_a_box_end_that_overflows_a_reward_leaves_its_shape_at_slack(monkeypatch):
    # the root's box starts at -1e308, held at 0 by a row: at that box end
    # the reward 2 x + 0.1 overflows, silently, so the root's shape gets no
    # start LP
    tree = balanced_tree([2])
    y = uniform_grid(0.0, 1.0, 5)
    spec = random_ball_problem(np.random.default_rng(3))[1]
    problem = MultistageProblem(
        tree, {0: (np.array([-1e308]), np.array([0.4]))}, {1: ([2.0], 0.1), 2: ([1.0], 0.2)},
        spec, y, [NodeConstraint(0, ">=", 0.0, coef_self={0: 1.0})])
    pol, _, (cols, rows), shapes = _started(monkeypatch, problem)
    assert shapes == [None]
    big = _assemble_holistic(problem)[0]
    assert np.array_equal(cols, lp_module.at_bound(big.lower, big.upper)[0])
    assert np.all(rows == lp_module.BASIC)
    assert pol.value == pytest.approx(big.solve(presolve=False).objective, abs=1e-12)
