"""Command-line front end.

Subcommands mirror the library surface: ``gen-tree`` emits a synthetic
market tree as JSON, ``solve`` and ``sweep`` emit result rows as CSV with
the fixed header, ``counterexample`` prints the worked two-stage example
and exits nonzero if any published value fails to reproduce, and ``eval``
scores a stored policy table on a tree.  Options can come from a JSON
config file (``--config``), with command-line flags taking precedence.

Result CSV goes to ``--out`` or stdout; progress notes and aggregate
summaries go to stderr so piped output stays machine-readable.  Timing is
off by default to keep reruns byte-identical; switch it on with
``--timing`` or ``PREFROBUST_TIMING=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .counterexample import solve_counterexample
from .experiment import (
    MODELS,
    build_investment_consumption,
    config_from_dict,
    generate_tree,
    read_policy_table,
    reward_scale,
    rows_to_csv,
    run_one,
    sweep,
    aggregate,
)
from .multistage import evaluate_policy_worst_case
from .tree import ScenarioTree

TIMING_ENV = "PREFROBUST_TIMING"


def _add_config_flags(p):
    p.add_argument("--config", metavar="FILE",
                   help="JSON file with experiment settings; flags override it")
    p.add_argument("--branching", metavar="B1,B2,...",
                   help="children per stage, e.g. 3,3,3")
    p.add_argument("--tree-seed", type=int, dest="tree_seed", metavar="S",
                   help="seed for the synthetic market tree")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--breakpoints", type=int, metavar="N",
                   help="utility grid size on [0,1]")
    p.add_argument("--radius", type=float, metavar="R",
                   help="Kantorovich ball radius")
    p.add_argument("--questionnaires", type=int, metavar="K",
                   help="simulated lottery comparisons per node")
    p.add_argument("--seeds", metavar="S1,S2,...",
                   help="one run per seed")
    p.add_argument("--scale", type=float, dest="scale_override", metavar="C",
                   help="override the computed reward-scaling constant")
    p.add_argument("--n-true", type=int, dest="n_true", metavar="M",
                   help="grid size standing in for the exact utility")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall-clock milliseconds in the ms column")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


_FLAG_TO_FIELD = {
    "model": "model",
    "breakpoints": "n_breakpoints",
    "radius": "radius",
    "questionnaires": "questionnaires",
    "tree_seed": "tree_seed",
    "scale_override": "scale_override",
    "n_true": "n_true",
    "timing": "timing",
    "out": "out",
}


def _number_list(text, flag, kind=int):
    """The comma-separated integers (or, with ``kind=float``, numbers)
    given to ``flag``; an empty text is an empty list, and an empty token in
    a non-empty one is refused."""
    try:
        return [kind(tok) for tok in str(text).split(",")] if text != "" else []
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} takes comma-separated {what}, got {text!r}") from None


def _config_from_args(args):
    base = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
    for flag, field in _FLAG_TO_FIELD.items():
        val = getattr(args, flag, None)
        if val is not None:
            base[field] = val
    if getattr(args, "branching", None) is not None:
        base["branching"] = _number_list(args.branching, "--branching")
    if getattr(args, "seeds", None) is not None:
        base["seeds"] = _number_list(args.seeds, "--seeds")
    if base.get("timing") is None:
        base["timing"] = os.environ.get(TIMING_ENV, "") in ("1", "true", "yes")
    return config_from_dict(base)


def _load_tree(args, config):
    if getattr(args, "tree", None) is not None:
        with open(args.tree, encoding="utf-8") as fh:
            return ScenarioTree.from_json(fh.read())
    return generate_tree(config.branching, config.tree_seed, config.returns)


def _emit(text, out):
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_tree(args):
    config = _config_from_args(args)
    tree = generate_tree(config.branching, config.tree_seed, config.returns)
    _emit(tree.to_json(), config.out)
    print(
        f"tree: {len(tree)} nodes, horizon {tree.horizon}, seed {config.tree_seed}",
        file=sys.stderr,
    )
    return 0


def _cmd_solve(args):
    config = _config_from_args(args)
    tree = _load_tree(args, config)
    print(f"reward scale C = {reward_scale(tree, config):.10g}", file=sys.stderr)
    rows = [run_one(tree, config, seed) for seed in config.seeds]
    _emit(rows_to_csv(rows), config.out)
    return 0


def _cmd_sweep(args):
    config = _config_from_args(args)
    values = _number_list(args.values, "--values", float)
    rows = sweep(config, args.param, values)
    _emit(rows_to_csv(rows), config.out)
    for g in aggregate(rows):
        print(
            "agg model=%s T=%d N=%d R=%g K=%d  mean %.8f  std %.8f  (%d runs)"
            % (g["model"], g["T"], g["N"], g["R"], g["K"],
               g["mean"], g["std"], g["runs"]),
            file=sys.stderr,
        )
    return 0


def _print_counterexample(rep):
    fixed_names = [
        ("f1_star", "stage-1 worst case"),
        ("f2_star", "stage-2 worst case"),
        ("f_star", "stage-coupled total"),
        ("fhat2_first", "per-node value, first state"),
        ("fhat2_second", "per-node value, second state"),
        ("fhat_star", "nested total"),
        ("nested", "policy evaluation, nested"),
        ("sequence_global", "policy evaluation, stage-coupled"),
        ("gap", "criterion gap"),
    ]
    print("fixed plan [1,0] everywhere — enumeration over the two utilities:")
    for key, label in fixed_names:
        print(f"  {key:16s} {rep.fixed[key]:<10.6g} {label}")
    print(f"grid maximin over the two second-period weights (step {rep.step:g}):")
    for key in ("v_linear", "v_quad", "v_int", "v2_star",
                "vhat2_first", "vhat2_second"):
        at = ""
        if key in rep.points:
            pt = ", ".join(format(p, "g") for p in rep.points[key])
            at = f" at ({pt})"
        print(f"  {key:16s} {rep.search[key]:<10.6g}{at}")
    print("subtree re-solves against the committed plan:")
    for e in rep.consistency.entries:
        print(
            f"  node {e.node} (stage {e.stage}): fresh optimum {e.local_value:.6g}, "
            f"committed plan achieves {e.achieved_value:.6g}, gap {e.discrepancy:.6g}"
        )


def _cmd_counterexample(args):
    rep = solve_counterexample(step=args.step)
    _print_counterexample(rep)
    problems = rep.mismatches()
    if problems:
        print("MISMATCH against the published values:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("all quantities match the published values")
    return 0


def _cmd_eval(args):
    config = _config_from_args(args)
    tree = _load_tree(args, config)
    problem = build_investment_consumption(tree, config)
    with open(args.policy, encoding="utf-8") as fh:
        decisions = read_policy_table(fh.read())
    value = evaluate_policy_worst_case(problem, decisions, mode=args.mode)
    print(format(value, ".12g"))
    return 0


def build_parser():
    # abbreviations are disabled everywhere: with both --seed and --seeds in
    # the grammar, a prefix match would silently hit the wrong one
    parser = argparse.ArgumentParser(
        prog="prefrobust",
        description="worst-case expected-utility planning on scenario trees",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-tree", help="emit a synthetic market tree as JSON",
                         allow_abbrev=False)
    _add_config_flags(gen)
    gen.add_argument("--seed", type=int, dest="tree_seed", metavar="S",
                     help="alias for --tree-seed")
    gen.set_defaults(fn=_cmd_gen_tree)

    solve = sub.add_parser("solve", help="solve one model, one row per seed",
                           allow_abbrev=False)
    solve.add_argument("--tree", metavar="FILE",
                       help="tree JSON (default: generate from the config)")
    _add_config_flags(solve)
    solve.set_defaults(fn=_cmd_solve)

    swp = sub.add_parser("sweep", help="re-solve across one parameter",
                         allow_abbrev=False)
    swp.add_argument("--param", required=True,
                     help="T|N|R|K (or horizon|breakpoints|radius|questionnaires)")
    swp.add_argument("--values", required=True, metavar="V1,V2,...")
    _add_config_flags(swp)
    swp.set_defaults(fn=_cmd_sweep)

    ce = sub.add_parser(
        "counterexample",
        help="reproduce the two-stage example; nonzero exit on mismatch",
        allow_abbrev=False,
    )
    ce.add_argument("--step", type=float, default=1e-3,
                    help="grid resolution (default 1e-3)")
    ce.set_defaults(fn=_cmd_counterexample)

    ev = sub.add_parser("eval", help="worst-case value of a stored policy table",
                        allow_abbrev=False)
    ev.add_argument("--policy", required=True, metavar="FILE")
    ev.add_argument("--tree", metavar="FILE")
    ev.add_argument("--mode", choices=("nested", "sequence_global"),
                    default="nested")
    _add_config_flags(ev)
    ev.set_defaults(fn=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
