import json
import math

import numpy as np
import pytest

from prefrobust.tree import (
    ScenarioTree,
    SeriesModel,
    TreeNode,
    TreeSchemaError,
    generate_synthetic,
)


def two_stage_tree():
    # root -> {0.3, 0.7}, each -> {0.5, 0.5}
    nodes = [
        TreeNode(0, None, 0, 1.0, {"r": 0.0}),
        TreeNode(1, 0, 1, 0.3, {"r": 0.1}),
        TreeNode(2, 0, 1, 0.7, {"r": -0.1}),
        TreeNode(3, 1, 2, 0.5, {"r": 0.2}),
        TreeNode(4, 1, 2, 0.5, {"r": 0.0}),
        TreeNode(5, 2, 2, 0.5, {"r": 0.05}),
        TreeNode(6, 2, 2, 0.5, {"r": -0.05}),
    ]
    return ScenarioTree(nodes)


def test_unconditional_probs():
    tree = two_stage_tree()
    probs = tree.unconditional_probs()
    assert probs[0] == 1.0
    assert probs[3] == pytest.approx(0.15)
    assert probs[6] == pytest.approx(0.35)
    assert tree.unconditional_prob(4) == pytest.approx(0.15)
    # each stage is a probability distribution
    for t in range(tree.horizon + 1):
        assert math.fsum(probs[i] for i in tree.stage_ids(t)) == pytest.approx(1.0)


def test_validation_rejects_bad_sibling_probs():
    nodes = [
        TreeNode(0, None, 0, 1.0, {}),
        TreeNode(1, 0, 1, 0.3, {}),
        TreeNode(2, 0, 1, 0.6, {}),
    ]
    with pytest.raises(ValueError, match="node 0"):
        ScenarioTree(nodes)


def test_validation_rejects_non_dense_ids():
    nodes = [
        TreeNode(0, None, 0, 1.0, {}),
        TreeNode(2, 0, 1, 1.0, {}),
    ]
    with pytest.raises(ValueError, match="dense"):
        ScenarioTree(nodes)


def test_subtree_at_root_is_identity():
    tree = two_stage_tree()
    view = tree.subtree(0)
    assert view.path == [0]
    assert view.original_ids == list(range(7))
    assert len(view.tree) == len(tree)
    for a, b in zip(view.tree.nodes, tree.nodes):
        assert (a.id, a.parent, a.stage, a.prob, a.realization) == \
               (b.id, b.parent, b.stage, b.prob, b.realization)


def test_subtree_reroots_and_renormalizes():
    tree = two_stage_tree()
    view = tree.subtree(2)
    sub = view.tree
    assert view.path == [0, 2]
    assert view.original_ids == [2, 5, 6]
    assert sub.nodes[0].prob == 1.0 and sub.nodes[0].stage == 0
    assert sub.nodes[1].prob == 0.5
    assert sub.unconditional_prob(2) == pytest.approx(0.5)
    assert sub.nodes[2].realization == {"r": -0.05}


def test_truncate_keeps_prefix():
    tree = two_stage_tree()
    short = tree.truncate(1)
    assert short.horizon == 1
    assert len(short) == 3
    assert short.nodes[2].prob == 0.7
    with pytest.raises(ValueError):
        tree.truncate(5)


def test_save_load_round_trip_bit_exact():
    series = [SeriesModel("r1", 0.01, 0.2), SeriesModel("oil", 0.0, 0.15, kind="price", initial=58.0)]
    tree = generate_synthetic([3, 2], series, seed=123)
    text = tree.to_json()
    back = ScenarioTree.from_json(text)
    assert len(back) == len(tree)
    for a, b in zip(back.nodes, tree.nodes):
        assert a.prob == b.prob  # bit-equal, not approx
        assert a.realization == b.realization
        assert (a.id, a.parent, a.stage) == (b.id, b.parent, b.stage)
    assert back.to_json() == text


def test_load_rejects_missing_field():
    series = [SeriesModel("r1", 0.0, 0.1)]
    tree = generate_synthetic([2], series, seed=1)
    data = json.loads(tree.to_json())
    del data["nodes"][1]["parent"]
    with pytest.raises(TreeSchemaError, match="node 1: missing field 'parent'"):
        ScenarioTree.from_json(json.dumps(data))


def test_a_parent_past_the_last_node_is_named():
    nodes = [TreeNode(0, None, 0, 1.0, {}), TreeNode(1, 5, 1, 1.0, {})]
    with pytest.raises(ValueError, match="^node 1: parent 5 must precede it$"):
        ScenarioTree(nodes)
    data = json.loads(two_stage_tree().to_json())
    data["nodes"] = data["nodes"][:2]
    data["nodes"][1]["parent"] = 5
    with pytest.raises(TreeSchemaError, match="^node 1: parent 5 must precede it$"):
        ScenarioTree.from_json(json.dumps(data))


def test_files_written_by_the_old_save_still_load():
    # the retired writer added "horizon"/"series" and wrote probs as strings
    text = """{
 "horizon": 1,
 "series": ["r1"],
 "nodes": [
  {"id": 0, "parent": null, "stage": 0, "prob": "1.0", "realization": {"r1": 0.0}},
  {"id": 1, "parent": 0, "stage": 1, "prob": "0.3", "realization": {"r1": 0.1}},
  {"id": 2, "parent": 0, "stage": 1, "prob": "0.7", "realization": {"r1": -0.2}}
 ]
}
"""
    tree = ScenarioTree.from_json(text)
    assert [n.prob for n in tree.nodes] == [1.0, 0.3, 0.7]
    assert tree.nodes[2].realization == {"r1": -0.2}


def test_load_sorts_nodes_by_id():
    data = json.loads(two_stage_tree().to_json())
    data["nodes"].reverse()
    assert ScenarioTree.from_json(json.dumps(data)).to_json() == two_stage_tree().to_json()


def test_generate_synthetic_structure_and_determinism():
    series = [SeriesModel("r1", 0.02, 0.1), SeriesModel("r2", 0.0, 0.2),
              SeriesModel("oil", 0.01, 0.12, kind="price", initial=60.0)]
    branching = [5, 4, 3, 2, 2, 2, 2]
    tree = generate_synthetic(branching, series, seed=7)
    expected = 1
    width = 1
    for b in branching:
        width *= b
        expected += width
    assert len(tree) == expected == 1886
    assert tree.horizon == 7
    # equal sibling probabilities
    for nid in tree.nonleaf_ids():
        kids = tree.children[nid]
        assert all(tree.nodes[k].prob == pytest.approx(1.0 / len(kids)) for k in kids)
    # oil is a positive level path, returns stay above -1
    for node in tree.nodes[1:]:
        assert node.realization["oil"] > 0
        assert node.realization["r1"] > -1.0

    again = generate_synthetic(branching, series, seed=7)
    assert all(a.realization == b.realization for a, b in zip(tree.nodes, again.nodes))
    other = generate_synthetic(branching, series, seed=8)
    assert any(a.realization != b.realization for a, b in zip(tree.nodes, other.nodes))


def test_random_trees_validate(seed_count=5):
    rng = np.random.default_rng(99)
    series = [SeriesModel("r", 0.0, 0.3)]
    for s in range(seed_count):
        branching = list(rng.integers(1, 4, size=rng.integers(1, 4)))
        tree = generate_synthetic(branching, series, seed=s)
        probs = tree.unconditional_probs()
        leaves = tree.leaf_ids()
        assert math.fsum(probs[i] for i in leaves) == pytest.approx(1.0)
