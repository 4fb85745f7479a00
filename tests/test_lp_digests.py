"""sha256 digests of the tree-wide LPs handed to HiGHS.

Each digest covers one LP exactly as ``multistage._solve_big`` receives it:
sense, the CSR matrix (data, indices, indptr), right-hand sides, relations,
bounds, costs and the row and variable names.  The recorded values in
``data/lp_digests.json`` pin the LPs of pro_kan, pro_pc (K=20) and msp_pln
on the (3,3,3) tree with tree seed 11, so a refactor of the assembly can
show that it hands the solver the same programs bit for bit.  Key ``mixed``
pins the tree LP of :func:`mixed_problem`, where ball and questionnaire
nodes share one tree.  They also pin
each model's decision LP (``problem._decision_lp()``, keyed
``decisions/<model>``), which reward certification solves, and the metric
LP of ``utility.build_kantorovich_lp`` for one fixed utility pair (keyed
``kantorovich``).  To record them again after an intended change of the
LPs, run from the repo root:

    PYTHONPATH=src python tests/test_lp_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from prefrobust import experiment, multistage, utility
from prefrobust.ambiguity import StateDependentAmbiguity, elicit_pairwise

DIGESTS = Path(__file__).resolve().parent / "data" / "lp_digests.json"
BRANCHING, TREE_SEED = (3, 3, 3), 11
MODELS = (("pro_kan", 0), ("pro_pc", 20), ("msp_pln", 0))


def lp_digest(lp):
    """sha256 of every array and name that defines ``lp``."""
    h = hashlib.sha256()
    mat = lp.row_matrix()
    for arr in (mat.data, mat.indices.astype(np.int64), mat.indptr.astype(np.int64),
                lp.rhs, lp.lower, lp.upper, lp.objective):
        h.update(np.ascontiguousarray(arr).tobytes())
    names = [lp.sense, lp.relations.tolist(),
             [lp.var_name(j) for j in range(lp.num_vars)],
             [lp.row_name(k) for k in range(lp.num_rows)]]
    h.update(json.dumps(names).encode())
    return h.hexdigest()


def mixed_problem():
    """pro_kan on the (3, 3, 2) tree with seed 11, its balls kept at nodes 1,
    4, 7 and 10.  Every other non-leaf node asks a questionnaire of its own, of
    ``K = 4 * s`` answers (none at the root), elicited from the node's
    nominal; the even nodes double ``L`` and ``L_tilde``.  So questionnaires
    meet two child counts and two pairs of caps."""
    config = experiment.ExperimentConfig(branching=(3, 3, 2), model="pro_kan", seeds=(0,),
                                         tree_seed=TREE_SEED)
    tree = experiment.generate_tree(config.branching, TREE_SEED)
    base = experiment.build_investment_consumption(tree, config)
    specs = {}
    for s in tree.nonleaf_ids():
        ball = base.ambiguity.for_node(s)
        scale = 2.0 if s % 2 == 0 else 1.0
        specs[s] = ball if s % 3 == 1 else elicit_pairwise(
            ball.nominal, 4 * s, base.grid, seed=s, L=scale * ball.L,
            L_tilde=scale * ball.L_tilde)
    return multistage.MultistageProblem(tree, base.decision_bounds, base.rewards,
                                        StateDependentAmbiguity(specs), base.grid,
                                        base.constraints)


def current_digests():
    """Digest of each model's tree LP, keyed by model name, and of the
    tree LP of :func:`mixed_problem`, keyed ``mixed``."""
    tree = experiment.generate_tree(BRANCHING, TREE_SEED)
    real = multistage._solve_big
    seen = []

    def capture(problem, big, xvar, label, **kwargs):
        seen.append(lp_digest(big))
        return real(problem, big, xvar, label, **kwargs)

    out = {}
    try:
        multistage._solve_big = capture
        for model, k in MODELS:
            config = experiment.ExperimentConfig(
                branching=BRANCHING, model=model, questionnaires=k, seeds=(0,),
                tree_seed=TREE_SEED)
            problem = experiment.build_investment_consumption(tree, config)
            experiment.solve_model(problem, config)
            assert len(seen) == 1, f"{model}: expected one tree-wide solve, saw {len(seen)}"
            out[model] = seen.pop()
            out[f"decisions/{model}"] = lp_digest(problem._decision_lp()[0])
        multistage.solve_holistic(mixed_problem())
        out["mixed"] = seen.pop()
    finally:
        multistage._solve_big = real
    y = utility.uniform_grid(0.0, 1.0, 9)
    u = utility.project(utility.ClosedFormUtility.exponential(3.0), y)
    v = utility.project(utility.ClosedFormUtility.quadratic(), y)
    out["kantorovich"] = lp_digest(utility.build_kantorovich_lp(y, u.slopes, v.slopes))
    return out


def test_tree_lps_match_the_recorded_digests():
    assert current_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
