"""The layers of a prefrobust solve, as seen from outside ``src/``.

``install`` wraps every name a layer is reached through; ``pass_metrics``
turns the spans of one pass of a workload into the per-layer metrics.
``LAYER_MAP`` says which end-to-end metric each layer should move, and on
which workload, so a later change can state its prediction against it.
"""

from collections import namedtuple

Metric = namedtuple("Metric", "name unit better")

PER_LAYER = [
    Metric("tree.gen_s", "s", "lower"),
    Metric("experiment.build_self_s", "s", "lower"),
    Metric("experiment.solve_self_s", "s", "lower"),
    Metric("multistage.problem_s", "s", "lower"),
    Metric("multistage.problem_self_s", "s", "lower"),
    Metric("multistage.certify_lps", "count", "lower"),
    Metric("multistage.certify_s", "s", "lower"),
    Metric("multistage.certified_frac", "frac", "higher"),
    Metric("ambiguity.elicit_calls", "count", "lower"),
    Metric("ambiguity.elicit_s", "s", "lower"),
    Metric("utility.project_calls", "count", "lower"),
    Metric("utility.project_s", "s", "lower"),
    Metric("blocks.support_calls", "count", "lower"),
    Metric("blocks.support_s", "s", "lower"),
    Metric("blocks.ball_s", "s", "lower"),
    Metric("blocks.pairwise_s", "s", "lower"),
    Metric("worst_case.primal_calls", "count", "lower"),
    Metric("worst_case.primal_s", "s", "lower"),
    Metric("lp.dualize_calls", "count", "lower"),
    Metric("lp.dualize_s", "s", "lower"),
    Metric("lp.add_row_calls", "count", "lower"),
    Metric("multistage.holistic_self_s", "s", "lower"),
    Metric("multistage.nominal_self_s", "s", "lower"),
    Metric("lp.solve_calls", "count", "lower"),
    Metric("lp.solve_s", "s", "lower"),
    Metric("lp.convert_s", "s", "lower"),
    Metric("lp.highs_s", "s", "lower"),
    Metric("lp.simplex_iters", "count", "lower"),
    Metric("lp.big_rows", "count", "lower"),
    Metric("lp.big_cols", "count", "lower"),
    Metric("lp.big_nnz", "count", "lower"),
    Metric("lp.max_dual_gap", "util", "lower"),
    Metric("multistage.subtree_s", "s", "lower"),
    Metric("multistage.eval_s", "s", "lower"),
    Metric("multistage.consistency_s", "s", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.overhead_frac", "frac", "lower"),
]

LAYER_MAP = {
    "multistage certification": {
        "metrics": ["multistage.problem_s", "multistage.problem_self_s",
                    "multistage.certify_lps", "multistage.certify_s",
                    "multistage.certified_frac"],
        "moves": "build_s and wall_s: most of tree341_models, about 20% of tc_check",
    },
    "ambiguity / utility": {
        "metrics": ["ambiguity.elicit_calls", "ambiguity.elicit_s",
                    "utility.project_calls", "utility.project_s"],
        "moves": "build_s on pc_elicit only (elicitation); zero elsewhere",
    },
    "worst_case / blocks": {
        "metrics": ["blocks.support_calls", "blocks.support_s", "blocks.ball_s",
                    "blocks.pairwise_s", "worst_case.primal_calls",
                    "worst_case.primal_s"],
        "moves": "solve_s on tree341_models and tc_check; the pairwise part on pc_elicit",
    },
    "lp dualizer and assembly": {
        "metrics": ["lp.dualize_calls", "lp.dualize_s", "lp.add_row_calls",
                    "multistage.holistic_self_s", "multistage.nominal_self_s"],
        "moves": "solve_s and peak_rss_mb on tree341_models",
    },
    "lp backend": {
        "metrics": ["lp.solve_calls", "lp.solve_s", "lp.convert_s", "lp.highs_s",
                    "lp.simplex_iters", "lp.big_rows", "lp.big_cols", "lp.big_nnz",
                    "lp.max_dual_gap"],
        "moves": "cost per LP: wall_s on tc_check and build_s everywhere; "
                 "big-LP time: solve_s on tree341_models",
    },
    "multistage consistency": {
        "metrics": ["multistage.subtree_s", "multistage.eval_s",
                    "multistage.consistency_s"],
        "moves": "solve_s on tc_check only",
    },
    "tree": {"metrics": ["tree.gen_s"], "moves": "setup_s"},
    "unattributed": {
        "metrics": ["experiment.build_self_s", "experiment.solve_self_s"],
        "moves": "build_s / solve_s: program code outside every named layer",
    },
}


def install(tracer, experiment, multistage, worst_case, ambiguity, lp):
    """Wrap each layer's entry points where the caller looks them up."""
    Problem = multistage.MultistageProblem
    LinearProgram = lp.LinearProgram

    def on_problem(args, problem):
        tracer.stats["rewards"] = tracer.stats.get("rewards", 0) + len(problem.rewards)

    def on_highs(args, res):
        tracer.stats["nit"] = tracer.stats.get("nit", 0) + int(res.nit)

    def on_solve(args, sol):
        prog = args[0]
        size = (prog.num_rows, prog.num_vars)
        big = tracer.stats.get("big")
        if big is None or size > big[:2]:
            tracer.stats["big"] = size + (int(prog.row_matrix().nnz),)
        if sol.is_optimal:
            gap = abs(sol.objective - sol.dual_objective)
            tracer.stats["gap"] = max(tracer.stats.get("gap", 0.0), gap)

    tracer.span(experiment, "generate_tree", "tree.gen")
    tracer.span(experiment, "build_investment_consumption", "experiment.build")
    tracer.span(experiment, "solve_model", "experiment.solve")
    tracer.span(experiment, "MultistageProblem", "multistage.problem", on_problem)
    tracer.span(Problem, "_certify_rewards", "multistage.certify")
    tracer.count(Problem, "_reward_extreme", "reward_extreme")
    tracer.span(experiment, "elicit_pairwise", "ambiguity.elicit")
    for mod in (experiment, multistage, worst_case, ambiguity):
        tracer.span(mod, "project", "utility.project")
    for mod in (multistage, worst_case):
        tracer.span(mod, "supporting_line_primal", "blocks.support")
        tracer.span(mod, "dualize", "lp.dualize")
    for mod in (multistage, worst_case, ambiguity):
        tracer.span(mod, "append_ball_membership", "blocks.ball")
        tracer.span(mod, "append_pairwise_rows", "blocks.pairwise")
    tracer.span(multistage, "worst_case_kantorovich_primal", "worst_case.primal")
    tracer.span(multistage, "worst_case_pairwise", "worst_case.primal")
    tracer.span(multistage, "_solve_holistic", "multistage.holistic")
    tracer.span(experiment, "solve_nominal", "multistage.nominal")
    tracer.span(LinearProgram, "solve", "lp.solve", on_solve)
    tracer.count(LinearProgram, "add_row", "add_row")
    tracer.span(lp, "linprog", "lp.highs", on_highs)
    tracer.span(multistage, "check_time_consistency", "multistage.consistency")
    tracer.span(multistage, "subtree_problem", "multistage.subtree")
    tracer.span(multistage, "evaluate_policy_worst_case", "multistage.eval")


def pass_metrics(tracer):
    """Per-layer metrics of the spans recorded since the last reset.

    Tree generation happens in set-up, not in a pass, so ``tree.gen_s`` and
    the ``trace.*`` metrics are filled in by the caller.
    """
    calls, total, own = tracer.totals()
    certify_lps = sum(
        1 for index, span in enumerate(tracer.spans)
        if span[0] == "lp.solve" and tracer.ancestor_named(index, "multistage.problem"))
    rewards = tracer.stats.get("rewards", 0)
    rows, cols, nnz = tracer.stats.get("big", (0, 0, 0))
    return {
        "experiment.build_self_s": own["experiment.build"],
        "experiment.solve_self_s": own["experiment.solve"],
        "multistage.problem_s": total["multistage.problem"],
        "multistage.problem_self_s": own["multistage.problem"],
        "multistage.certify_lps": certify_lps,
        "multistage.certify_s": total["multistage.certify"],
        "multistage.certified_frac":
            tracer.counts["reward_extreme"] / (2 * rewards) if rewards else 0.0,
        "ambiguity.elicit_calls": calls["ambiguity.elicit"],
        "ambiguity.elicit_s": total["ambiguity.elicit"],
        "utility.project_calls": calls["utility.project"],
        "utility.project_s": total["utility.project"],
        "blocks.support_calls": calls["blocks.support"],
        "blocks.support_s": total["blocks.support"],
        "blocks.ball_s": total["blocks.ball"],
        "blocks.pairwise_s": total["blocks.pairwise"],
        "worst_case.primal_calls": calls["worst_case.primal"],
        "worst_case.primal_s": total["worst_case.primal"],
        "lp.dualize_calls": calls["lp.dualize"],
        "lp.dualize_s": total["lp.dualize"],
        "lp.add_row_calls": tracer.counts["add_row"],
        "multistage.holistic_self_s": own["multistage.holistic"],
        "multistage.nominal_self_s": own["multistage.nominal"],
        "lp.solve_calls": calls["lp.solve"],
        "lp.solve_s": total["lp.solve"],
        "lp.convert_s": own["lp.solve"],
        "lp.highs_s": total["lp.highs"],
        "lp.simplex_iters": tracer.stats.get("nit", 0),
        "lp.big_rows": rows,
        "lp.big_cols": cols,
        "lp.big_nnz": nnz,
        "lp.max_dual_gap": tracer.stats.get("gap", 0.0),
        "multistage.subtree_s": total["multistage.subtree"],
        "multistage.eval_s": total["multistage.eval"],
        "multistage.consistency_s": total["multistage.consistency"],
    }
