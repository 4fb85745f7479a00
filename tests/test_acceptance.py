"""Release checklist: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL verdict line (visible under ``pytest -s``
and in the captured output of any failure) and asserts the same condition, so
running this file end to end doubles as the package's acceptance report.  The
tolerances quoted in the verdict lines are the ones the checks enforce.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from oracles import lp_vertex_oracle
from test_lp import random_small_lp

from prefrobust.ambiguity import DEFAULT_L, DiscreteLottery, KantorovichBallSpec
from prefrobust.counterexample import solve_counterexample
from prefrobust.experiment import (
    ExperimentConfig,
    aggregate,
    build_investment_consumption,
    generate_tree,
    rows_to_csv,
    run,
    run_one,
    solve_model,
    sweep,
)
from prefrobust.lp import LinearProgram, LpStatus
from prefrobust.multistage import check_time_consistency, solve_holistic
from prefrobust.utility import (
    ClosedFormUtility,
    PiecewiseLinearUtility,
    kantorovich_exact,
    kantorovich_lp,
    kolmogorov,
    project,
    uniform_grid,
)
from prefrobust.worst_case import (
    worst_case_kantorovich_dual,
    worst_case_kantorovich_primal,
)


def _verdict(num, label, ok, detail):
    line = f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def worked_example():
    start = time.perf_counter()
    report = solve_counterexample()
    return report, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1. The worked two-stage example reproduces every published quantity.


def test_worked_example_reproduces_its_published_values(worked_example):
    report, elapsed = worked_example
    bad = report.mismatches(fixed_tol=1e-9, search_tol=2e-3)
    ok = not bad and elapsed < 5.0
    _verdict(
        1,
        "worked example matches the published values",
        ok,
        f"{len(bad)} mismatches (enum tol 1e-9, grid tol 2e-3), "
        f"gap {report.fixed['gap']:.3f}, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 2. Primal and dual one-stage worst-case solves agree to solver precision.


def test_primal_and_dual_worst_case_solves_agree():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y = uniform_grid(0.0, 1.0, int(rng.integers(5, 41)))
        curvature = float(rng.uniform(0.4, 3.0))
        nominal = project(ClosedFormUtility.exponential(curvature), y)
        spec = KantorovichBallSpec(nominal, float(rng.uniform(0.0, 0.3)))
        m = int(rng.integers(2, 11))
        dist = DiscreteLottery(
            tuple(rng.uniform(0.0, 1.0, size=m)), tuple(rng.dirichlet(np.ones(m)))
        )
        primal = worst_case_kantorovich_primal(dist, spec)
        dual = worst_case_kantorovich_dual(dist, spec)
        assert primal.is_optimal and dual.is_optimal
        worst = max(worst, abs(primal.value - dual.value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 60.0
    _verdict(
        2,
        "primal/dual worst-case agreement on 100 random instances",
        ok,
        f"max |primal - dual| {worst:.2e} <= 1e-7, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 3. The LP metric never undercuts the exact metric, vanishes on identical
#    inputs, and its slack shrinks under mesh refinement.


def _random_pl(rng):
    k = int(rng.integers(0, 9))
    xs = np.sort(rng.uniform(0.02, 0.98, size=k))
    while np.any(np.diff(np.concatenate(([0.0], xs, [1.0]))) <= 1e-6):
        xs = np.sort(rng.uniform(0.02, 0.98, size=k))
    values = np.concatenate(([0.0], np.cumsum(rng.dirichlet(np.ones(k + 1)))))
    values[-1] = 1.0
    return PiecewiseLinearUtility(np.concatenate(([0.0], xs, [1.0])), values)


def test_lp_metric_dominates_the_exact_metric():
    rng = np.random.default_rng(7)
    min_slack = math.inf
    self_dist = 0.0
    for _ in range(100):
        u, v = _random_pl(rng), _random_pl(rng)
        min_slack = min(min_slack, kantorovich_lp(u, v) - kantorovich_exact(u, v))
        self_dist = max(self_dist, abs(kantorovich_lp(u, u)))
    gaps = []
    for n in (5, 10, 20, 40):
        grid = uniform_grid(0.0, 1.0, n)
        u_n = project(ClosedFormUtility.exponential(2.0), grid)
        v_n = project(ClosedFormUtility.quadratic(), grid)
        gaps.append(kantorovich_lp(u_n, v_n) - kantorovich_exact(u_n, v_n))
    shrinking = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok = min_slack >= -1e-8 and self_dist <= 1e-12 and shrinking
    _verdict(
        3,
        "LP metric >= exact metric on 100 random pairs",
        ok,
        f"min slack {min_slack:.1e} >= -1e-8, self-distance {self_dist:.1e}, "
        f"refinement slack {gaps[0]:.1e} -> {gaps[-1]:.1e} nonincreasing",
    )


# ---------------------------------------------------------------------------
# 4. Projection error bounds for the curvature-3 exponential utility.


def test_projection_error_bounds_for_the_exponential_utility():
    true = ClosedFormUtility.exponential(3.0)
    modulus = DEFAULT_L  # = 3 / (1 - e^-3), the utility's own Lipschitz bound
    xs = np.linspace(0.0, 1.0, 10_000)
    fine = project(true, uniform_grid(0.0, 1.0, 10_001))
    worst_ratio = 0.0
    for n in (5, 10, 20, 40):
        u_n = project(true, uniform_grid(0.0, 1.0, n))
        beta = u_n.mesh
        sup_err = float(np.max(np.abs(u_n(xs) - true(xs))))
        kol = kolmogorov(u_n, fine)
        kan = kantorovich_exact(u_n, fine)
        assert sup_err <= modulus * beta, (n, sup_err, modulus * beta)
        assert kol <= modulus * beta, (n, kol, modulus * beta)
        assert kan <= 2.0 * beta, (n, kan, 2.0 * beta)
        worst_ratio = max(
            worst_ratio, sup_err / (modulus * beta), kol / (modulus * beta), kan / (2.0 * beta)
        )
    _verdict(
        4,
        "projection errors within L*mesh (sup, Kolmogorov) and 2*mesh (Kantorovich)",
        worst_ratio <= 1.0,
        f"worst bound usage {worst_ratio:.1%} across N in {{5,10,20,40}}, 10^4 sample points",
    )


# ---------------------------------------------------------------------------
# 5. The robust value converges to the fine-mesh value within the a-priori
#    error bound (loose by design: a sanity inequality, not a tightness claim).


def test_value_error_shrinks_within_the_mesh_bound():
    base = ExperimentConfig(branching=(2, 2), tree_seed=11, model="pro_kan", seeds=(0,))
    tree = generate_tree(base.branching, base.tree_seed, base.returns)

    def value_at(n):
        cfg = dataclasses.replace(base, n_breakpoints=n)
        return solve_model(build_investment_consumption(tree, cfg), cfg).value

    reference = value_at(80)
    horizon = base.horizon
    worst_use = 0.0
    diffs = []
    for n in (5, 10, 20, 40):
        beta = 1.0 / (n - 1)
        bound = 6.0 * horizon * max(2.0, DEFAULT_L) * beta
        diff = abs(value_at(n) - reference)
        diffs.append(diff)
        assert diff <= bound, (n, diff, bound)
        worst_use = max(worst_use, diff / bound)
    _verdict(
        5,
        "two-stage value within 6*T*max(2,L)*mesh of the fine-mesh value",
        worst_use <= 1.0 and diffs[-1] <= diffs[0],
        f"|v(N) - v(80)| from {diffs[0]:.1e} (N=5) to {diffs[-1]:.1e} (N=40), "
        f"worst bound usage {worst_use:.2%}",
    )


# ---------------------------------------------------------------------------
# 6. Per-node ambiguity is time consistent; the shared-set worked example
#    is not, with the documented value gap.


def test_per_node_ambiguity_is_time_consistent_unlike_the_shared_set(worked_example):
    rng = np.random.default_rng(6)
    worst = 0.0
    count = 0
    for branching in ((2, 2), (3, 3)):
        for tree_seed in range(1, 11):
            cfg = ExperimentConfig(
                branching=branching,
                tree_seed=tree_seed,
                model="pro_kan",
                n_breakpoints=int(rng.integers(8, 17)),
                radius=float(rng.uniform(0.005, 0.2)),
                seeds=(0,),
            )
            tree = generate_tree(branching, tree_seed, cfg.returns)
            problem = build_investment_consumption(tree, cfg)
            policy = solve_holistic(problem)
            report = check_time_consistency(problem, policy)
            worst = max(worst, max(abs(e.discrepancy) for e in report.entries))
            count += 1
    example, _ = worked_example
    gap = example.fixed["sequence_global"] - example.fixed["nested"]
    example_ok = (
        abs(example.fixed["nested"] - 1.26) <= 1e-3
        and abs(example.fixed["sequence_global"] - 1.275) <= 1e-3
        and abs(gap - 0.015) <= 1e-3
        and example.consistency.max_discrepancy > 0.0
        and not example.consistency.consistent
    )
    ok = worst <= 1e-6 and count == 20 and example_ok
    _verdict(
        6,
        "subtree re-solves match the global policy under per-node balls",
        ok,
        f"max |re-solve - achieved| {worst:.1e} <= 1e-6 over {count} random problems; "
        f"shared-set example gap {gap:.3f} (1.275 vs 1.26) flagged inconsistent",
    )


# ---------------------------------------------------------------------------
# 7. Growing the ball radius never raises the robust value, and the zero
#    radius recovers the nominal piecewise-linear model.


def test_robust_value_is_nonincreasing_in_the_ball_radius():
    cfg = ExperimentConfig(model="pro_kan", seeds=(0,))
    radii = [0.0, 0.001, 0.01, 0.1, 0.3]
    values = [row.value for row in sweep(cfg, "R", radii)]
    nominal = run_one(
        generate_tree(cfg.branching, cfg.tree_seed, cfg.returns),
        dataclasses.replace(cfg, model="msp_pln"),
        0,
    ).value
    nonincreasing = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    ok = nonincreasing and abs(values[0] - nominal) <= 1e-6
    _verdict(
        7,
        "radius sweep is nonincreasing and starts at the nominal value",
        ok,
        f"values {values[0]:.4f} -> {values[-1]:.4f} over R in {radii}, "
        f"|v(R=0) - nominal| {abs(values[0] - nominal):.1e} <= 1e-6",
    )


# ---------------------------------------------------------------------------
# 8. More answered questionnaires tighten the elicited model toward (and
#    never beyond) the true-utility value.


def test_answered_questionnaires_tighten_the_elicited_value():
    cfg = ExperimentConfig(model="pro_pc", seeds=tuple(range(10)))
    ks = [0, 10, 50, 200]
    stats = aggregate(sweep(cfg, "K", ks))
    means = [s["mean"] for s in stats]
    stds = [s["std"] for s in stats]
    true_value = run_one(
        generate_tree(cfg.branching, cfg.tree_seed, cfg.returns),
        dataclasses.replace(cfg, model="msp_true"),
        0,
    ).value
    pooled = [math.sqrt(0.5 * (a**2 + b**2)) for a, b in zip(stds, stds[1:])]
    nondecreasing = all(m2 >= m1 - p for m1, m2, p in zip(means, means[1:], pooled))
    capped = all(m <= true_value + 1e-6 for m in means)
    ok = nondecreasing and capped
    _verdict(
        8,
        "mean elicited value is nondecreasing in K and capped by the true value",
        ok,
        f"means {means[0]:.4f} -> {means[-1]:.4f} over K in {ks} (10 seeds), "
        f"true value {true_value:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. The LP backend agrees with a brute-force vertex oracle and classifies
#    infeasible and unbounded instances.


def test_lp_solver_agrees_with_the_vertex_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    n_optimal = n_infeasible = 0
    for _ in range(200):
        lp = random_small_lp(rng)
        status, value, _ = lp_vertex_oracle(lp)
        sol = lp.solve()
        if status == "infeasible":
            assert sol.status is LpStatus.INFEASIBLE
            n_infeasible += 1
        else:
            assert sol.status is LpStatus.OPTIMAL
            worst = max(worst, abs(sol.objective - value))
            n_optimal += 1

    up = LinearProgram("max")
    up.add_var("x", obj=1.0)  # no upper bound: the objective ray is free
    assert up.solve().status is LpStatus.UNBOUNDED
    down = LinearProgram("min")
    x = down.add_var("x", lb=-math.inf, obj=1.0)
    down.add_row({x: 1.0}, "<=", 5.0)
    assert down.solve().status is LpStatus.UNBOUNDED

    ok = worst <= 1e-8 and n_optimal >= 50 and n_infeasible >= 20
    _verdict(
        9,
        "LP solver matches the vertex oracle and classifies degenerate cases",
        ok,
        f"max |lp - oracle| {worst:.1e} <= 1e-8 on {n_optimal} optimal instances, "
        f"{n_infeasible} infeasible and 2 unbounded classified",
    )


# ---------------------------------------------------------------------------
# 10. Reruns with identical configuration produce byte-identical tables.


def test_solve_and_sweep_reruns_are_byte_identical():
    run_cfg = ExperimentConfig(
        branching=(2, 2),
        tree_seed=11,
        model="pro_pc",
        n_breakpoints=10,
        questionnaires=25,
        seeds=(0, 1, 2),
    )
    first = rows_to_csv(run(run_cfg))
    second = rows_to_csv(run(run_cfg))
    sweep_cfg = ExperimentConfig(
        branching=(2, 2), tree_seed=11, model="pro_kan", n_breakpoints=10, seeds=(0, 1)
    )
    sweep_first = rows_to_csv(sweep(sweep_cfg, "R", [0.0, 0.01, 0.1]))
    sweep_second = rows_to_csv(sweep(sweep_cfg, "R", [0.0, 0.01, 0.1]))
    ok = first == second and sweep_first == sweep_second
    _verdict(
        10,
        "solve and sweep reruns are byte-identical",
        ok,
        f"solve {len(first.encode())} bytes, sweep {len(sweep_first.encode())} bytes, "
        "both identical on rerun",
    )
