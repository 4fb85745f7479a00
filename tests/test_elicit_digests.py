"""sha256 digests of the simulated questionnaires.

``test_elicitation_matches_the_scalar_reference`` compares elicitation with a
loop over ``Generator.choice``/``Generator.integers``, so it follows whatever
the installed numpy draws.  These digests do not: they pin the questionnaires
themselves, so a refactor of the draw or a numpy upgrade cannot change which
questions a seed asks, or their answers, without failing here.

The recorded values in ``data/elicit_digests.json`` cover the ``pro_pc``
elicitation seeds ``(e, nid)`` for e in {0, 1} and every non-leaf node of the
(5,5,5) tree with tree seed 11, at K=200 on the 20-point grid.  Each digest
covers, in order: the outcomes (K x 4) and head probabilities (K x 2) of all
K drawn pairs, then the K answers of the node's true utility, 0 where an
indifferent pair was dropped.  To record them again after an intended change
of the draw, run from the repo root:

    PYTHONPATH=src python tests/test_elicit_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from prefrobust import experiment
from prefrobust.ambiguity import elicit_pairwise
from prefrobust.utility import uniform_grid

DIGESTS = Path(__file__).resolve().parent / "data" / "elicit_digests.json"
BRANCHING, TREE_SEED, K, N_GRID = (5, 5, 5), 11, 200, 20


def _prefer_first_outcome(x):
    """Utility 1 at each pair's first W outcome and 0 elsewhere: every
    answer is +1, so no pair is dropped and all draws are visible."""
    return np.tile([1.0, 0.0, 0.0, 0.0], np.size(x) // 4)


def questionnaire_digest(true_utility, seed, grid):
    drawn = elicit_pairwise(_prefer_first_outcome, K, grid, seed=seed).pairs
    assert len(drawn) == K
    kept = list(elicit_pairwise(true_utility, K, grid, seed=seed).pairs)
    # identical pairs get identical answers, so an in-order match is exact
    answers = np.zeros(K, dtype=np.int8)
    for k, (w, y, _) in enumerate(drawn):
        if kept and kept[0][:2] == (w, y):
            answers[k] = kept.pop(0)[2]
    assert not kept, "an answered pair is missing from the draws"
    outcomes = np.array([w.support + y.support for w, y, _ in drawn])
    heads = np.array([(w.probs[0], y.probs[0]) for w, y, _ in drawn])
    h = hashlib.sha256()
    for arr in (outcomes, heads, answers):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def current_digests():
    """Digest of each elicitation seed, keyed ``"e,nid"``."""
    tree = experiment.generate_tree(BRANCHING, TREE_SEED)
    grid = uniform_grid(0.0, 1.0, N_GRID)
    return {
        f"{e},{nid}": questionnaire_digest(experiment._true_utility(tree, nid), (e, int(nid)),
                                           grid)
        for e in (0, 1) for nid in tree.nonleaf_ids()
    }


def test_questionnaires_match_the_recorded_digests():
    assert current_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
