"""The worked two-stage example with a two-member utility set.

Every headline number is checked against the values derived in closed
form: enumeration at the fixed all-on-asset-one plan must be exact to
1e-9, grid-search answers to 2e-3 at the stated 1e-3 resolution.
"""

import time

import numpy as np
import pytest

from prefrobust.counterexample import (
    example_problem,
    fixed_plan,
    grid_subtree_solver,
    solve_counterexample,
)
from prefrobust.multistage import evaluate_policy_worst_case


@pytest.fixture(scope="module")
def report():
    return solve_counterexample()


def test_enumeration_reproduces_the_published_values(report):
    want = {
        "f1_star": 0.45,
        "f2_star": 0.825,
        "f_star": 1.275,
        "fhat2_first": 0.8,
        "fhat2_second": 0.82,
        "fhat_star": 1.26,
        "nested": 1.26,
        "sequence_global": 1.275,
        "gap": 0.015,
    }
    for key, val in want.items():
        assert report.fixed[key] == pytest.approx(val, abs=1e-9), key
    assert report.gap == pytest.approx(0.015, abs=1e-9)


def test_committing_to_one_utility_per_stage_is_worth_more(report):
    # The adversary is weaker when it must pick a single utility for the
    # whole stage than when it may pick per node, so the stage-coupled
    # value strictly exceeds the nested one.
    assert report.fixed["sequence_global"] > report.fixed["nested"] + 1e-4


def test_grid_search_locates_the_published_optima():
    start = time.perf_counter()
    report = solve_counterexample()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    want = {
        "v_linear": 0.825,
        "v_quad": 0.848,
        "v_int": 0.82,
        "v2_star": 0.825,
        "vhat2_first": 0.8,
        "vhat2_second": 0.84,
        "local_second": 0.84,
        "achieved_second": 0.82,
    }
    for key, val in want.items():
        assert report.search[key] == pytest.approx(val, abs=2e-3), key

    assert report.points["v2_star"] == pytest.approx((1.0, 1.0), abs=2e-3)
    assert report.points["v_quad"] == pytest.approx((1.0, 0.4), abs=2e-3)
    assert report.points["v_int"] == pytest.approx((0.8, 1.0), abs=2e-3)
    assert report.points["vhat2_first"] == pytest.approx((1.0,), abs=2e-3)
    assert report.points["vhat2_second"] == pytest.approx((0.8,), abs=2e-3)

    # the two surfaces really do cross at the reported point: the maximin
    # over the intersection cannot beat the overall maximin
    assert report.search["v_int"] <= report.search["v2_star"] + 2e-3
    assert report.mismatches() == []
    assert report.ok


def test_halving_the_grid_leaves_answers_stable(report):
    coarse = solve_counterexample(step=2e-3)
    for key in report.search:
        assert coarse.search[key] == pytest.approx(report.search[key], abs=2e-3), key


def test_resolving_the_second_state_beats_the_committed_plan(report):
    by_node = {e.node: e for e in report.consistency.entries}
    assert set(by_node) == {0, 1, 2}

    # first state: the committed plan is still locally optimal
    assert by_node[1].discrepancy == pytest.approx(0.0, abs=2e-3)
    # second state: a fresh solve finds 0.84 while the committed plan
    # only achieves 0.82 there
    assert by_node[2].local_value == pytest.approx(0.84, abs=2e-3)
    assert by_node[2].achieved_value == pytest.approx(0.82, abs=2e-3)
    assert by_node[2].discrepancy > 1e-2
    # and the gap propagates to the root re-solve
    assert by_node[0].discrepancy == pytest.approx(0.01, abs=2e-3)
    assert not report.consistency.consistent


def test_grid_solver_recovers_the_per_node_optima():
    problem = example_problem()
    sol = grid_subtree_solver(problem)
    assert sol.value == pytest.approx(1.27, abs=2e-3)
    np.testing.assert_allclose(sol.decisions[0], [1.0, 0.0], atol=2e-3)
    np.testing.assert_allclose(sol.decisions[1], [1.0, 0.0], atol=2e-3)
    np.testing.assert_allclose(sol.decisions[2], [0.8, 0.2], atol=2e-3)

    # per-node re-optimization is NOT the committed plan's value: the
    # plan that is optimal under the stage-coupled criterion scores only
    # 1.26 when each node is judged in isolation
    nested = evaluate_policy_worst_case(problem, fixed_plan(), mode="nested")
    assert sol.value > nested + 1e-3


def test_mismatch_detection_catches_perturbations(report):
    assert report.ok

    tampered = solve_counterexample()
    tampered.fixed["f_star"] += 5e-9
    lines = tampered.mismatches()
    assert len(lines) == 1 and "f_star" in lines[0]

    tampered = solve_counterexample()
    tampered.search["v_quad"] -= 0.01
    assert any("v_quad" in line for line in tampered.mismatches())

    tampered = solve_counterexample()
    tampered.points["v_int"] = (0.5, 0.5)
    assert any("argmax of v_int" in line for line in tampered.mismatches())


def test_mismatched_points_print_as_plain_floats():
    tampered = solve_counterexample()
    tampered.points["vhat2_second"] = (np.float64(1.0),)
    assert tampered.mismatches() == [
        "argmax of vhat2_second: got (1.0,), want (0.8,) (tol 0.002)"]
