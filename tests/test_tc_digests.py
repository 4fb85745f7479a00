"""Pinned bits of the time-consistency check and the nested evaluation.

``data/tc_digests.json`` holds, for tree seeds 11, 12 and 13 (the
instances of the benchmark's ``tc_check`` workload at seeds 0 to 2), the
``float.hex`` of the nested worst-case value of the ``pro_kan`` policy
(radius 0.01, 20 breakpoints) on the (3,3,3,3) tree, and the sha256 of the
``float.hex`` of every field of every :class:`TimeConsistencyEntry` that
``check_time_consistency`` reports for it.  A change to how the node worst
cases or the subtree optima (certified, solved cold or re-solved) are
computed must leave these bits alone.  They pin the tree solve's HiGHS
options and its start basis too: the check certifies each subtree and each
node worst case from that solve, so running it with presolve on again,
pricing it with HiGHS's default dual steepest edge instead of Devex, or
starting it from another basis than the one stitched from its node shapes
(``multistage._start_basis``), moves the entries.  The nested
values read nothing of the tree solve but the plan they score; they are
solved as one warm chain per node LP (``multistage._nested_worst_cases``),
so a change to the chain's order or restarts may move them.  To record them again after an intended change of the values, run from the
repo root:

    PYTHONPATH=src python tests/test_tc_digests.py
"""

import hashlib
import json
from pathlib import Path

from prefrobust import experiment, multistage

DIGESTS = Path(__file__).resolve().parent / "data" / "tc_digests.json"
BRANCHING, RADIUS, SEEDS = (3, 3, 3, 3), 0.01, (0, 1, 2)


def current_digests():
    out = {}
    for seed in SEEDS:
        config = experiment.ExperimentConfig(
            branching=BRANCHING, n_breakpoints=20, radius=RADIUS, model="pro_kan",
            seeds=(seed,), tree_seed=11 + seed)
        tree = experiment.generate_tree(BRANCHING, config.tree_seed)
        problem = experiment.build_investment_consumption(tree, config, elicit_seed=seed)
        policy = experiment.solve_model(problem, config)
        report = multistage.check_time_consistency(problem, policy)
        entries = [[e.node, e.stage] + [float.hex(v) for v in
                                        (e.local_value, e.achieved_value, e.discrepancy)]
                   for e in report.entries]
        nested = multistage.evaluate_policy_worst_case(problem, policy.decisions)
        out[f"tree_seed{config.tree_seed}"] = {
            "entries": hashlib.sha256(json.dumps(entries).encode()).hexdigest(),
            "nested": float.hex(nested),
        }
    return out


def test_check_and_nested_values_match_the_recorded_bits():
    assert current_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
