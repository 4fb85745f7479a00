"""Benchmark of the prefrobust build -> solve -> certify pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree341_models --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
One process runs one workload as a closed loop: a single caller runs the
workload's instances one after another, each waiting for the previous one,
and repeats whole passes while another pass fits in ``--seconds``, with at
least ``MIN_PASSES`` timed passes.  An untimed warm-up pass on a small tree
first fills lazy imports and caches.  Every instance's output is checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, their times scaled to a reference host speed (see
``calibrate``), and the per-layer metrics (from traced passes, see
``layers.py``) with ``--trace 1``.

``--seed n`` shifts the tree seed to ``11 + n`` and the elicitation seeds to
``n`` and ``n + 1``.  Seed 0 is checked against values recorded at the
commit that introduced this benchmark (``reference.json``); every seed is
also checked against certificates the answer must satisfy.
"""

import os

# Pin native thread pools before numpy is imported, here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse
import contextlib
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
from tracer import Tracer, dump_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

TREE_SEED = 11
N_BREAKPOINTS = 20
SETUP_REPEATS = 20       # per probe; one probe before the loop, one after
GEN_REPEATS = 5
MIN_PASSES = 3          # timed passes of an untraced run
MIN_PAIRS = 2           # untraced + traced pass pairs of a traced run
WARMUP_BRANCHING = (2, 2, 2)
VALUE_TOL = 1e-7       # against the recorded reference, and read-back sums
FEASIBILITY_TOL = 1e-7
CERTIFICATE_TOL = 1e-6  # nested worst-case evaluation and time consistency
END_TO_END = [
    layers.Metric("wall_s", "s", "lower"),
    layers.Metric("build_s", "s", "lower"),
    layers.Metric("solve_s", "s", "lower"),
    layers.Metric("setup_s", "s", "lower"),
    layers.Metric("peak_rss_mb", "MB", "lower"),
]


@dataclass(frozen=True)
class Instance:
    name: str
    model: str
    radius: float = 0.001
    questionnaires: int = 0
    elicit_offset: int = 0
    consistency: bool = False


@dataclass(frozen=True)
class Workload:
    branching: tuple
    instances: tuple


# Why each workload was chosen is recorded in BENCHMARK.json.  Every tree
# stays at or below 600 rewards: past that the program skips reward
# certification, so a bigger tree would time an uncertified build.
WORKLOADS = {
    "tree341_models": Workload(
        (4, 4, 4, 4),
        (Instance("msp_pln", "msp_pln"),
         Instance("pro_kan_R0.001", "pro_kan", radius=0.001),
         Instance("pro_kan_R0.1", "pro_kan", radius=0.1))),
    "pc_elicit": Workload(
        (5, 5, 5),
        (Instance("pro_pc_K200_e0", "pro_pc", questionnaires=200),
         Instance("pro_pc_K200_e1", "pro_pc", questionnaires=200, elicit_offset=1))),
    "tc_check": Workload(
        (3, 3, 3, 3),
        (Instance("pro_kan_R0.01_tc", "pro_kan", radius=0.01, consistency=True),)),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ set-up

# The set-up probe runs in a fresh interpreter.  numpy and scipy are imported
# before the clock starts: their import time is not the program's and varies
# far more than the program's own set-up.  Dropping prefrobust from
# sys.modules makes the next import execute every module of the package again.
_PROBE = """
import sys, time
import numpy, scipy.optimize, scipy.sparse
sys.path.insert(0, sys.argv[1])
branching = tuple(int(b) for b in sys.argv[2].split(","))
for _ in range(int(sys.argv[4])):
    for name in [m for m in sys.modules if m.split(".")[0] == "prefrobust"]:
        del sys.modules[name]
    start = time.perf_counter()
    import prefrobust
    from prefrobust import experiment
    tree = experiment.generate_tree(branching, int(sys.argv[3]))
    print(time.perf_counter() - start, prefrobust.__file__, len(tree))
"""


def measure_setup(branching, tree_seed):
    """Times to import prefrobust and generate the tree."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), ",".join(map(str, branching)),
         str(tree_seed), str(SETUP_REPEATS)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    times = []
    for line in proc.stdout.splitlines():
        seconds, module_file, _ = line.split()
        if Path(module_file).resolve().parent != SRC / "prefrobust":
            fail(f"set-up probe imported prefrobust from {module_file}")
        times.append(float(seconds))
    if len(times) != SETUP_REPEATS:
        fail(f"set-up probe reported {len(times)} times, not {SETUP_REPEATS}")
    return times


def import_program():
    if not (SRC / "prefrobust" / "__init__.py").is_file():
        fail(f"no prefrobust package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import prefrobust
        from prefrobust import ambiguity, experiment, lp, multistage, worst_case
    except ImportError as exc:
        fail(f"cannot import prefrobust: {exc}")
    if Path(prefrobust.__file__).resolve().parent != SRC / "prefrobust":
        fail(f"imported prefrobust from {prefrobust.__file__}, not from {SRC}")
    return experiment, multistage, worst_case, ambiguity, lp


# --------------------------------------------------------------- instances

@dataclass
class Outcome:
    problem: object
    policy: object
    report: object
    nested: float
    build_s: float
    solve_s: float

    @property
    def value(self):
        return float(self.policy.value)

    @property
    def root(self):
        return [float(v) for v in self.policy.decisions[0]]


def run_instance(experiment, multistage, tree, workload, inst, seed):
    """One solve through the public API that ``prefrobust solve`` uses."""
    elicit_seed = seed + inst.elicit_offset
    config = experiment.ExperimentConfig(
        branching=workload.branching, n_breakpoints=N_BREAKPOINTS,
        radius=inst.radius, questionnaires=inst.questionnaires, model=inst.model,
        seeds=(elicit_seed,), tree_seed=TREE_SEED + seed)
    start = time.perf_counter()
    problem = experiment.build_investment_consumption(tree, config, elicit_seed=elicit_seed)
    built = time.perf_counter()
    policy = experiment.solve_model(problem, config)
    report = nested = None
    if inst.consistency:
        report = multistage.check_time_consistency(problem, policy)
        nested = multistage.evaluate_policy_worst_case(problem, policy.decisions)
    done = time.perf_counter()
    return Outcome(problem, policy, report, nested, built - start, done - built)


def feasibility_errors(problem, decisions):
    errors = []
    for s, (lb, ub) in problem.decision_bounds.items():
        x = decisions[s]
        if any(x[k] < lb[k] - FEASIBILITY_TOL or x[k] > ub[k] + FEASIBILITY_TOL
               for k in range(len(x))):
            errors.append(f"decision at node {s} leaves its bounds")
    for con in problem.constraints:
        lhs = sum(v * decisions[con.node][k] for k, v in con.coef_self.items())
        if con.coef_parent:
            parent = decisions[problem.tree.nodes[con.node].parent]
            lhs += sum(v * parent[k] for k, v in con.coef_parent.items())
        slack = {"<=": con.rhs - lhs, ">=": lhs - con.rhs, "=": -abs(lhs - con.rhs)}[con.rel]
        if slack < -FEASIBILITY_TOL:
            errors.append(f"constraint at node {con.node} violated by {-slack:.3g}")
    return errors


def cheap_errors(out, inst, reference, first):
    """Checks run on every instance, outside the timed region."""
    errors = feasibility_errors(out.problem, out.policy.decisions)
    pu = out.problem.tree.unconditional_probs()
    readback = sum(pu[s] * nv.value for s, nv in out.policy.per_node.items())
    if not abs(readback - out.value) <= VALUE_TOL:
        errors.append(f"per-node values sum to {readback!r}, not {out.value!r}")
    if reference is not None:
        if not abs(out.value - reference["value"]) <= VALUE_TOL:
            errors.append(f"value {out.value!r} differs from reference {reference['value']!r}")
        root = out.root
        if len(root) != len(reference["root"]) or any(
                not abs(a - b) <= VALUE_TOL for a, b in zip(root, reference["root"])):
            errors.append(f"root decision {root!r} differs from reference {reference['root']!r}")
    if first is not None and (out.value, out.root) != (first.value, first.root):
        errors.append("answer differs from the first pass")
    if inst.consistency:
        if not out.report.max_discrepancy <= CERTIFICATE_TOL:
            errors.append(f"time-consistency discrepancy {out.report.max_discrepancy!r}")
        if not abs(out.nested - out.value) <= CERTIFICATE_TOL:
            errors.append(f"nested evaluation {out.nested!r} != value {out.value!r}")
    return errors


def certificate_errors(multistage, out, inst):
    """The primal per-node worst cases of the policy must reproduce the value
    the holistic dual LP reports (run once per instance and run)."""
    if inst.consistency:
        return []  # the workload computed this itself; cheap_errors checked it
    nested = multistage.evaluate_policy_worst_case(out.problem, out.policy.decisions)
    if not abs(nested - out.value) <= CERTIFICATE_TOL:
        return [f"nested evaluation {nested!r} != value {out.value!r}"]
    return []


# ------------------------------------------------------------- calibration

# On a host whose cores are shared (a 2-vCPU Xeon VM, for one), speed drifts
# by a quarter over minutes, which no length of run averages away.  So every
# time an untraced run reports is scaled by CALIBRATION_REF_S over the median
# time, in the same run, of fixed work that does not use prefrobust: sparse
# LPs through HiGHS and a pure-Python loop, as the program mixes them.  The
# reported times are seconds on a host where that work takes
# CALIBRATION_REF_S; a change to prefrobust moves them, the host's speed
# much less.  The raw times are printed beside them.
CALIBRATION_REF_S = 0.3


@functools.lru_cache(maxsize=None)
def _calibration_lp():
    import numpy as np
    import scipy.sparse as sp
    rng = np.random.default_rng(20240917)
    a = sp.random(80, 160, density=0.08, random_state=rng, format="csr")
    return -rng.random(160), a, np.ones(80)


def calibrate():
    """Seconds the fixed calibration work takes now."""
    from scipy.optimize import linprog
    c, a, b = _calibration_lp()
    start = time.perf_counter()
    for _ in range(28):
        res = linprog(c, A_ub=a, b_ub=b, bounds=(0, 10), method="highs-ds")
        if res.status != 0:
            fail(f"calibration LP ended with status {res.status}")
    acc, table = 0.0, {}
    for i in range(300000):
        key = i % 251
        acc += table.get(key, 0.5) * 1.0000001
        table[key] = acc % 7.0
    return time.perf_counter() - start


# -------------------------------------------------------------------- loop

class Runner:
    def __init__(self, modules, tracer, tree, workload, seed, references):
        self.experiment, self.multistage = modules[0], modules[1]
        self.tracer = tracer
        self.tree = tree
        self.workload = workload
        self.seed = seed
        self.references = references
        self.first = {}         # instance name -> Outcome of its first success
        self.ok = {}            # instance name -> list of per-attempt flags
        self.attempted = 0

    def run_pass(self, number, traced):
        """Run every instance once; returns (wall, build, solve) seconds."""
        wall = build = solve = 0.0
        tracer = self.tracer
        for inst in self.workload.instances:
            self.attempted += 1
            tracer.instance = f"{number}/{inst.name}"
            tracer.active = traced
            span = tracer.record("bench.instance") if traced else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    out = run_instance(self.experiment, self.multistage, self.tree,
                                       self.workload, inst, self.seed)
            except Exception:
                tracer.active = False
                traceback.print_exc()
                self.ok.setdefault(inst.name, []).append(False)
                continue
            wall += time.perf_counter() - start
            tracer.active = False
            build += out.build_s
            solve += out.solve_s
            errors = cheap_errors(out, inst, self.references.get(inst.name),
                                  self.first.get(inst.name))
            for err in errors:
                print(f"check failed: {inst.name}: {err}", file=sys.stderr)
            self.ok.setdefault(inst.name, []).append(not errors)
            if not errors:
                self.first.setdefault(inst.name, out)
        return wall, build, solve

    def warm_up(self):
        """One untimed, unchecked pass of every instance on a small tree."""
        small = Workload(WARMUP_BRANCHING, self.workload.instances)
        tree = self.experiment.generate_tree(small.branching, TREE_SEED + self.seed)
        for inst in small.instances:
            run_instance(self.experiment, self.multistage, tree, small, inst, self.seed)

    def loop(self, seconds, after_pass, alternate=False):
        """Closed loop: repeat passes while another one fits in ``seconds``,
        and at least ``MIN_PASSES``.  With ``alternate``, passes alternate
        untraced and traced, at least ``MIN_PAIRS`` of each.  Each pass is
        followed by ``after_pass(traced)``."""
        walls, builds, solves = [], [], []
        start = time.perf_counter()
        number = 0
        while True:
            traced = alternate and number % 2 == 1
            if traced:
                self.tracer.reset()
            pass_start = time.perf_counter()
            wall, build, solve = self.run_pass(number, traced)
            took = time.perf_counter() - pass_start
            walls.append(wall)
            builds.append(build)
            solves.append(solve)
            after_pass(traced)
            number += 1
            must = number < (2 * MIN_PAIRS if alternate else MIN_PASSES)
            if not must and time.perf_counter() - start + took > seconds:
                return walls, builds, solves

    def certify(self):
        for inst in self.workload.instances:
            out = self.first.get(inst.name)
            if out is None:
                continue
            errors = certificate_errors(self.multistage, out, inst)
            for err in errors:
                print(f"certificate failed: {inst.name}: {err}", file=sys.stderr)
            if errors:
                self.ok[inst.name] = [False] * len(self.ok[inst.name])

    @property
    def failed(self):
        return sum(flags.count(False) for flags in self.ok.values())


# -------------------------------------------------------------------- main

def load_references(workload_name, seed):
    if seed != 0:
        return {}
    data = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return data["workloads"][workload_name]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    tree_seed = TREE_SEED + args.seed

    # Probes before and after the loop, so that set-up time is sampled over
    # the same stretch of the host's speed as the passes.
    setup_times = [] if args.trace else measure_setup(workload.branching, tree_seed)
    modules = import_program()
    experiment = modules[0]
    tracer = Tracer()
    gen_s = []
    if args.trace:
        layers.install(tracer, *modules)
    try:
        for _ in range(GEN_REPEATS if args.trace else 1):
            tracer.reset()
            tracer.instance, tracer.active = "setup", bool(args.trace)
            tree = experiment.generate_tree(workload.branching, tree_seed)
            tracer.active = False
            gen_s.extend(end - start for name, start, end, _, _ in tracer.spans)
        runner = Runner(modules, tracer, tree, workload, args.seed,
                        load_references(args.workload, args.seed))
        runner.warm_up()
        if not args.trace:
            calibrations = [calibrate()]
            walls, builds, solves = runner.loop(
                args.seconds, lambda traced: calibrations.append(calibrate()))
            setup_times += measure_setup(workload.branching, tree_seed)
            raw = {"wall_s": statistics.median(walls),
                   "build_s": statistics.median(builds),
                   "solve_s": statistics.median(solves),
                   "setup_s": statistics.median(setup_times)}
            scale = CALIBRATION_REF_S / statistics.median(calibrations)
            metrics = {name: value * scale for name, value in raw.items()}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {m.name: m.unit for m in END_TO_END}
            counts_repeat = True
        else:
            per_pass, spans = [], []

            def after_pass(traced):
                if traced:
                    per_pass.append(layers.pass_metrics(tracer))
                    spans.extend(tracer.spans)

            walls, _, _ = runner.loop(args.seconds, after_pass, alternate=True)
            metrics, counts_repeat = combine_traced(per_pass, walls, gen_s)
            units = {m.name: m.unit for m in layers.PER_LAYER}
            dump_spans(TRACE_DIR / f"trace_{args.workload}_seed{args.seed}.json", spans)
        runner.certify()
    finally:
        tracer.restore()

    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in raw.items():
            print(f"{'raw ' + name:32s} {value:.6g} s")
        print(f"{'calibration':32s} " + " ".join(f"{c:.4f}" for c in calibrations)
              + f" s (times above scaled by {scale:.4f})")
    print(f"{'pass walls':32s} " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"{'fail_frac':32s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} instances, {len(walls)} passes)")
    result = {
        "correct": runner.failed == 0 and counts_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def combine_traced(per_pass, walls, gen_s):
    """Counts must repeat exactly between traced passes; times are medians.
    Even passes ran untraced and each odd pass traced, so the median, over
    these pairs, of traced wall over untraced wall is the tracing overhead."""
    counts = [m.name for m in layers.PER_LAYER if m.unit == "count"]
    counts_repeat = all(p[c] == per_pass[0][c] for p in per_pass for c in counts)
    if not counts_repeat:
        print("count metrics differ between traced passes", file=sys.stderr)
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name == "lp.max_dual_gap":
            metrics[name] = max(values)
        elif name in counts:
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_wall = statistics.median(walls[1::2])
    metrics["tree.gen_s"] = statistics.median(gen_s)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for u, t in zip(walls[0::2], walls[1::2])) - 1.0
    return {m.name: metrics[m.name] for m in layers.PER_LAYER}, counts_repeat


if __name__ == "__main__":
    sys.exit(main())
