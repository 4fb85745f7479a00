"""Synthetic investment-consumption study: assembly, models, sweeps, IO."""

import math
from dataclasses import replace

import numpy as np
import pytest

from prefrobust.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    ReturnModel,
    aggregate,
    build_investment_consumption,
    config_from_dict,
    config_to_dict,
    generate_tree,
    read_policy_table,
    rows_to_csv,
    run,
    run_one,
    solve_model,
    sweep,
)
from prefrobust.tree import ScenarioTree, TreeNode
from prefrobust.utility import PiecewiseLinearUtility


def flat_market_tree(branching, price=1.0):
    """All returns zero, constant commodity price: budget arithmetic only."""
    nodes = [TreeNode(0, None, 0, 1.0, {"r1": 0.0, "oil": price})]
    frontier, next_id = [0], 1
    for stage, width in enumerate(branching, start=1):
        grown = []
        for parent in frontier:
            for _ in range(width):
                nodes.append(
                    TreeNode(next_id, parent, stage, 1.0 / width,
                             {"r1": 0.0, "oil": price}))
                grown.append(next_id)
                next_id += 1
        frontier = grown
    return ScenarioTree(nodes)


ONE_ASSET = ReturnModel(drift=(0.0,), vol=(0.0,))
SMALL = ExperimentConfig(branching=(2, 2), n_breakpoints=10, seeds=(0,))


def reference_generate_tree(branching, seed, returns=None):
    """The market generator's own draw loop, kept as the reference for
    ``generate_tree`` now that it delegates to ``generate_synthetic``."""
    rm = returns or ReturnModel()
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    zeros = {f"r{k + 1}": 0.0 for k in range(rm.n_assets)}
    nodes = [TreeNode(0, None, 0, 1.0, {**zeros, "oil": rm.p0})]
    frontier = [0]
    next_id = 1
    for stage, width in enumerate(branching, start=1):
        grown = []
        for parent in frontier:
            price = nodes[parent].realization["oil"]
            for _ in range(width):
                z = rng.standard_normal(rm.n_assets + 1)
                real = {
                    f"r{k + 1}": math.exp(rm.drift[k] + rm.vol[k] * z[k]) - 1.0
                    for k in range(rm.n_assets)
                }
                real["oil"] = price * math.exp(rm.oil_drift + rm.oil_vol * z[-1])
                nodes.append(TreeNode(next_id, parent, stage, 1.0 / width, real))
                grown.append(next_id)
                next_id += 1
        frontier = grown
    return ScenarioTree(nodes)


def bits(realization):
    return [(k, float(v).hex()) for k, v in realization.items()]


REFERENCE_MARKETS = [
    None,
    ReturnModel(drift=(0.01,), vol=(0.1,)),
    ReturnModel(drift=(0.0, 0.03, -0.01), vol=(0.0, 0.3, 0.05),
                oil_drift=0.02, oil_vol=0.0, p0=61.5),
    ReturnModel(drift=(0.02, 0.05), vol=(0.0, 0.0), oil_vol=0.0, p0=55),
]


@pytest.mark.parametrize("branching", [
    (2, 2), (3, 3, 3), (4, 4, 4, 4), (5, 5, 5), (3, 3, 3, 3), (25, 25), (1, 3, 2)])
def test_generate_tree_matches_the_reference_draw_loop(branching):
    for seed in (0, 3, 11, 12, 2**40 + 7):
        for rm in REFERENCE_MARKETS:
            got = generate_tree(branching, seed, rm)
            want = reference_generate_tree(branching, seed, rm)
            assert len(got) == len(want)
            for a, b in zip(got.nodes, want.nodes):
                assert (a.id, a.parent, a.stage) == (b.id, b.parent, b.stage)
                assert a.prob.hex() == b.prob.hex()
                # bit-equal values in the same key order
                assert bits(a.realization) == bits(b.realization)


def test_single_period_consumes_everything():
    # constant price 1 and zero returns: the reward is q1/C with C=1, and a
    # monotone utility pushes the whole unit of wealth into consumption
    tree = flat_market_tree([2])
    cfg = ExperimentConfig(branching=(2,), model="msp_pln", returns=ONE_ASSET)
    problem = build_investment_consumption(tree, cfg)
    assert problem.reward_scale == pytest.approx(1.0)
    policy = solve_model(problem, cfg)
    assert policy.value == pytest.approx(1.0, abs=1e-8)
    assert policy.decisions[0][-1] == pytest.approx(1.0, abs=1e-8)


def test_two_period_chain_value_is_scale_invariant_to_the_split():
    # a chain with zero returns and unit prices forces q1 + q2 = 1; linear
    # utility makes the total worth (q1+q2)/C = 1 however it is split
    tree = flat_market_tree([1, 1])
    cfg = ExperimentConfig(branching=(1, 1), model="msp_pln", returns=ONE_ASSET)
    problem = build_investment_consumption(tree, cfg)
    policy = solve_model(problem, cfg)
    assert policy.value == pytest.approx(1.0, abs=1e-8)
    q1 = policy.decisions[0][-1]
    q2 = policy.decisions[1][-1]
    assert q1 + q2 == pytest.approx(1.0, abs=1e-8)


def test_wealth_balance_holds_at_the_optimum():
    rng = np.random.default_rng(3)
    for seed in rng.integers(0, 10_000, size=3):
        cfg = replace(SMALL, tree_seed=int(seed))
        tree = generate_tree(cfg.branching, cfg.tree_seed, cfg.returns)
        problem = build_investment_consumption(tree, cfg)
        policy = solve_model(problem, cfg)
        n = cfg.returns.n_assets
        for s in tree.nonleaf_ids():
            x = policy.decisions[s]
            spent = float(np.sum(x[:n])) + x[n] * tree.value(s, "oil")
            if s == 0:
                wealth = 1.0
            else:
                xp = policy.decisions[tree.nodes[s].parent]
                gross = np.array(
                    [1.0 + tree.value(s, f"r{k + 1}") for k in range(n)])
                wealth = float(gross @ xp[:n])
            assert spent == pytest.approx(wealth, abs=1e-7)


def test_final_decision_stage_holds_no_assets():
    tree = generate_tree(SMALL.branching, SMALL.tree_seed, SMALL.returns)
    problem = build_investment_consumption(tree, SMALL)
    policy = solve_model(problem, SMALL)
    n = SMALL.returns.n_assets
    for s in tree.stage_ids(tree.horizon - 1):
        np.testing.assert_allclose(policy.decisions[s][:n], 0.0, atol=1e-12)


def test_rewards_certified_inside_the_unit_interval():
    tree = generate_tree((3, 3, 3), 11)
    cfg = ExperimentConfig()
    problem = build_investment_consumption(tree, cfg)
    # the scale is the max reachable consumption value, so some reward map
    # must actually be able to touch 1
    hi = max(
        problem.rewards[i].coef[-1] * 5.0  # wealth can reach a few units
        for i in tree.leaf_ids()
    )
    assert problem.reward_scale > 0 and hi > 0
    # an override below the true scale is rejected at build time
    with pytest.raises(ValueError, match="outside the utility domain"):
        build_investment_consumption(
            tree, replace(cfg, scale_override=problem.reward_scale / 4.0))


def test_trees_past_600_rewards_are_certified():
    tree = generate_tree((25, 25), 11)
    cfg = ExperimentConfig(branching=(25, 25))
    problem = build_investment_consumption(tree, cfg)
    assert len(problem.rewards) == 650
    with pytest.raises(ValueError, match="outside the utility domain"):
        build_investment_consumption(
            tree, replace(cfg, scale_override=problem.reward_scale / 4.0))


def test_regime_assignment_follows_the_decision_node_price():
    tree = generate_tree((3, 3, 3), 11)
    cfg = ExperimentConfig(model="pro_kan")
    problem = build_investment_consumption(tree, cfg)
    saw = {True: 0, False: 0}
    for s in tree.nonleaf_ids():
        nominal = problem.ambiguity.for_node(s).nominal
        exponential = tree.value(s, "oil") > 60.0
        saw[exponential] += 1
        if exponential:
            assert nominal.slopes[0] > 1.5  # steep at zero reward
            assert nominal.slopes[-1] < 0.5
        else:
            np.testing.assert_allclose(nominal.slopes, 1.0, atol=1e-12)
    assert saw[True] >= 2 and saw[False] >= 2  # both regimes exercised


def test_zero_radius_collapses_to_the_nominal_model():
    tree = generate_tree(SMALL.branching, SMALL.tree_seed, SMALL.returns)
    kan = run_one(tree, replace(SMALL, model="pro_kan", radius=0.0), 0)
    pln = run_one(tree, replace(SMALL, model="msp_pln"), 0)
    assert kan.value == pytest.approx(pln.value, abs=1e-6)
    robust = run_one(tree, replace(SMALL, model="pro_kan", radius=0.05), 0)
    assert robust.value <= pln.value + 1e-9


def test_finer_nominal_grids_approach_the_true_model():
    cfg = ExperimentConfig(branching=(2, 2), model="msp_pln")
    tree = generate_tree(cfg.branching, cfg.tree_seed, cfg.returns)
    true = run_one(tree, replace(cfg, model="msp_true"), 0).value
    gaps = []
    for n in (5, 10, 20, 40):
        v = run_one(tree, replace(cfg, n_breakpoints=n), 0).value
        gaps.append(true - v)
    assert all(g >= -1e-9 for g in gaps)  # chords sit below a concave curve
    # consecutive uniform grids are not nested, so near convergence the gap
    # may wiggle at the grid-placement error scale; monotonicity is asserted
    # with slack of that order
    assert all(b <= a + 1e-5 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1 * gaps[0] + 1e-9


def test_horizon_sweep_shares_the_tree_prefix_and_grows_value():
    cfg = ExperimentConfig(branching=(2, 2, 2), n_breakpoints=10, model="pro_kan")
    rows = sweep(cfg, "T", [1, 2, 3])
    assert [r.T for r in rows] == [1, 2, 3]
    vals = [r.value for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    # distinct horizons must not collide in run identity
    assert len({r.run_id for r in rows}) == 3
    with pytest.raises(ValueError, match="outside"):
        sweep(cfg, "T", [5])
    with pytest.raises(ValueError, match="cannot sweep"):
        sweep(cfg, "volatility", [1])


def test_radius_sweep_is_nonincreasing():
    rows = sweep(replace(SMALL, model="pro_kan"), "radius", [0.0, 0.01, 0.1])
    vals = [r.value for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert [r.R for r in rows] == [0.0, 0.01, 0.1]


def test_questionnaire_sweep_aggregates_per_count():
    cfg = replace(SMALL, model="pro_pc", seeds=(0, 1, 2))
    rows = sweep(cfg, "K", [0, 20])
    assert len(rows) == 6
    groups = aggregate(rows)
    assert [g["K"] for g in groups] == [0, 20]
    assert groups[0]["runs"] == 3
    by_k = {g["K"]: g for g in groups}
    # answers only shrink the feasible utility set, so the mean cannot drop
    assert by_k[20]["mean"] >= by_k[0]["mean"] - 1e-9
    # K=0 has no questionnaire randomness at all
    assert by_k[0]["std"] == pytest.approx(0.0, abs=1e-12)
    hand = np.array([r.value for r in rows if r.K == 20])
    assert by_k[20]["mean"] == pytest.approx(hand.mean())
    assert by_k[20]["std"] == pytest.approx(hand.std(ddof=1))


def test_repeated_runs_emit_identical_bytes():
    cfg = replace(SMALL, model="pro_pc", questionnaires=10, seeds=(0, 1))
    first = rows_to_csv(run(cfg))
    second = rows_to_csv(run(cfg))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    # different seeds are different runs
    assert lines[1].split(",")[0] != lines[2].split(",")[0]
    # milliseconds stay zero unless timing is requested
    assert all(ln.endswith(",0") for ln in lines[1:])
    timed = run(replace(cfg, timing=True))
    assert all(r.ms >= 0 for r in timed)
    assert [r.line().rsplit(",", 1)[0] for r in timed] == [
        ln.rsplit(",", 1)[0] for ln in lines[1:]
    ]


def test_reported_consumption_is_the_root_decision():
    tree = generate_tree(SMALL.branching, SMALL.tree_seed, SMALL.returns)
    problem = build_investment_consumption(tree, SMALL)
    policy = solve_model(problem, SMALL)
    row = run_one(tree, SMALL, 0)
    assert row.value == pytest.approx(policy.value, abs=1e-12)
    assert row.q1 == pytest.approx(policy.decisions[0][-1], abs=1e-12)


def test_tree_json_round_trip():
    tree = generate_tree((2, 3), 5)
    text = tree.to_json()
    back = ScenarioTree.from_json(text)
    assert len(back) == len(tree)
    for a, b in zip(tree.nodes, back.nodes):
        assert (a.id, a.parent, a.stage) == (b.id, b.parent, b.stage)
        assert a.prob == pytest.approx(b.prob, abs=0)
        assert a.realization == b.realization
    assert back.to_json() == text


def test_config_dict_round_trip():
    cfg = ExperimentConfig(branching=(2, 2), model="pro_pc", questionnaires=7,
                           seeds=(3, 4), returns=ReturnModel(drift=(0.01,), vol=(0.1,)))
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"radius": 0.1, "volatility": 3})
    with pytest.raises(ValueError, match="unknown model"):
        ExperimentConfig(model="msp_exact")
    for radius in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            ExperimentConfig(radius=radius)


@pytest.mark.parametrize("fields, message", [
    ({"branching": [2.9, 2]}, r"branching\[0\] must be an integer, got 2.9"),
    ({"seeds": [0, 0.7]}, r"seeds\[1\] must be an integer, got 0.7"),
    ({"n_true": math.inf}, "n_true must be an integer, got inf"),
    ({"scale_override": math.inf}, "scale_override must be positive and finite, got inf"),
])
def test_config_refuses_fractional_counts_and_bad_scales(fields, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**fields)


def test_generate_tree_refuses_a_fractional_branching():
    with pytest.raises(ValueError, match=r"branching\[0\] must be an integer, got 2.9"):
        generate_tree((2.9, 2), 0)
    assert len(generate_tree((2.0, 2), 0)) == 7


def test_whole_numbers_stand_for_integers():
    cfg = ExperimentConfig(branching=[2.0, 3], seeds=[np.int64(4)], n_breakpoints=10.0)
    assert cfg.branching == (2, 3) and cfg.seeds == (4,) and cfg.n_breakpoints == 10
    assert all(type(v) is int for v in (*cfg.branching, *cfg.seeds, cfg.n_breakpoints))


def test_policy_table_round_trip():
    tree = generate_tree(SMALL.branching, SMALL.tree_seed, SMALL.returns)
    problem = build_investment_consumption(tree, SMALL)
    policy = solve_model(problem, SMALL)
    decisions = read_policy_table(policy.export_table())
    assert set(decisions) == set(tree.nonleaf_ids())
    for s, x in decisions.items():
        np.testing.assert_allclose(x, policy.decisions[s], atol=1e-9)
    with pytest.raises(ValueError, match="policy table"):
        read_policy_table("id,value\n0,1\n")


@pytest.mark.parametrize("body, message", [
    ("0\t0\t1,2\n0\t0\t3,4\n", r"line 3 \(node 0\): node listed again, first on line 2$"),
    ("0\t0\t1,abc\n", r"line 2 \(node 0\): decision\[1\] is 'abc', not a number$"),
    ("\n1\t1\t0.5,\n", r"line 3 \(node 1\): decision\[1\] is '', not a number$"),
    ("0\t0\n", r"line 2: expected node, stage and decision fields, got 2 field\(s\)$"),
    ("x\t0\t1\n", r"line 2: node is 'x', not an integer$"),
])
def test_policy_table_names_the_line_and_field_at_fault(body, message):
    with pytest.raises(ValueError, match=message):
        read_policy_table("node\tstage\tdecision\tvalue\n" + body)


def test_market_validation_errors():
    nodes = [
        TreeNode(0, None, 0, 1.0, {"r1": 0.0}),
        TreeNode(1, 0, 1, 1.0, {"r1": 0.1}),
    ]
    cfg = ExperimentConfig(branching=(1,), returns=ONE_ASSET)
    with pytest.raises(ValueError, match="missing series"):
        build_investment_consumption(ScenarioTree(nodes), cfg)

    for price in (-3.0, 0.0, math.nan, math.inf):
        bad_price = flat_market_tree([2], price=price)
        with pytest.raises(ValueError, match="commodity price at node 0 must be positive"):
            build_investment_consumption(bad_price, replace(cfg, branching=(2,)))

    for name, value in [("drift", (math.nan,)), ("vol", (math.inf,)), ("oil_drift", math.nan),
                        ("oil_vol", math.inf), ("p0", math.nan), ("p0", -math.inf)]:
        fields = {"drift": (0.0,), "vol": (0.1,), name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ReturnModel(**fields)
