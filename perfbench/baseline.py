"""Run every workload over ten seeds, twice, and record the numbers.

    python3 perfbench/baseline.py --label <commit>

Two sets of runs are made.  Each set runs ``run.py`` untraced once per seed
and workload, seeds in the outer loop and workloads in the inner one, so a
slow spell of the host is shared by the workloads instead of landing in one.
Then each workload runs traced twice on seed 0.  For each workload and set
this prints each end-to-end metric's median and quartiles with its unit and
its spread (interquartile range over median) against the bound in
``BENCHMARK.json``, the second set's median against the first's, the
failure fraction and the tracing overhead.  It checks that every count
metric repeats exactly between the traced runs, and writes everything, with
the workload reasons and the layer map, to ``perfbench/baseline.json``.
``meets_bounds`` there is false, and the exit code non-zero, when a run
fails, a spread exceeds its bound, a median moves by more than its bound
between the sets, or a count does not repeat.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import layers
from run import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2
TRACED_RUNS = 2


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values),
            "n": len(values), "values": values}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit the numbers belong to")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    names = sorted(WORKLOADS)

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    counts = [m.name for m in layers.PER_LAYER if m.unit == "count"]
    problems = []
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [tuple(m) for m in emitted]:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py emits")

    runs = {name: [[] for _ in range(SETS)] for name in names}
    for number in range(SETS):
        for seed in range(SEEDS):
            for name in names:
                runs[name][number].append(run_once(name, seed, seconds, 0))
                print(f"set {number + 1} seed {seed} {name} done", flush=True)
    traced = {name: [run_once(name, 0, seconds, 1) for _ in range(TRACED_RUNS)]
              for name in names}

    summary = {}
    for name in names:
        every = [r for runs_of_set in runs[name] for r in runs_of_set] + traced[name]
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        if failed or not all(r["correct"] for r in every):
            problems.append(f"{name}: {failed}/{attempted} instances failed")
        drift = [c for c in counts
                 if len({r["metrics"][c]["value"] for r in traced[name]}) != 1]
        if drift:
            problems.append(f"{name}: counts differ between traced runs: {drift}")
        print(f"{name}  ({SETS} sets of {SEEDS} seeds, {seconds} s per run)")
        end_to_end = {}
        for metric, bound in bounds.items():
            sets = [summarize([r["metrics"][metric]["value"] for r in runs_of_set])
                    for runs_of_set in runs[name]]
            # the same seed in both sets: a spread free of per-seed cost
            paired = spread([b / a for a, b in zip(sets[0]["values"], sets[1]["values"])])
            moved = sets[1]["median"] / sets[0]["median"] - 1.0
            end_to_end[metric] = {"sets": sets, "second_over_first": moved,
                                  "paired_ratio_spread": paired}
            for number, s in enumerate(sets, 1):
                flag = ""
                if s["spread"] > bound:
                    problems.append(f"{name}: set {number} {metric} spread "
                                    f"{s['spread']:.3f} > bound {bound}")
                    flag = "  OVER BOUND"
                elif s["spread"] > bound / 3:
                    flag = "  over a third of the bound"
                print(f"  {metric:12s} set {number}: median {s['median']:.4g} "
                      f"{units[metric]}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                      f"spread {s['spread']:.3f} (bound {bound}){flag}")
            if moved > bound:
                problems.append(f"{name}: {metric} median worse by {moved:+.3f} "
                                f"in set 2 > bound {bound}")
            print(f"  {metric:12s} set 2 over set 1: {moved:+.3f}; "
                  f"paired per-seed ratio spread {paired:.3f}")
        print(f"  {'fail_frac':12s} {failed / attempted:.3g} ({failed}/{attempted})")
        per_layer = {}
        for m in layers.PER_LAYER:
            values = [r["metrics"][m.name]["value"] for r in traced[name]]
            per_layer[m.name] = values[0] if m.name in counts else statistics.median(values)
        print(f"  tracing overhead {per_layer['trace.overhead_frac']:+.3f} of the "
              f"untraced pass wall (median of {TRACED_RUNS} traced runs)")
        summary[name] = {
            "why": whys[name],
            "runs_per_set": SEEDS,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer_seed0": per_layer,
            "traced_runs": TRACED_RUNS,
        }

    record = {
        "label": args.label,
        "meets_bounds": not problems,
        "problems": problems,
        "hardware": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                     "python": platform.python_version()},
        "run_seconds": seconds,
        "layer_map": layers.LAYER_MAP,
        "workloads": summary,
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in problems:
        print(f"PROBLEM: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
