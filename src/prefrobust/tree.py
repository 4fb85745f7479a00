"""Scenario trees: the discrete stochastic processes the models run on.

A tree is a list of nodes in breadth-first order with dense integer ids
(root = 0).  Each node carries the conditional probability of reaching it
from its parent and a named realization vector (asset returns for the period
ending at the node, price levels, ...).  Stages run 0..T with decisions
living on non-leaf nodes.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

# how far the masses of a distribution (a node's children, a lottery) may sum from 1
PROB_TOL = 1e-12


class TreeSchemaError(ValueError):
    """Raised when a serialized tree is malformed; names the node and field."""


@dataclass
class TreeNode:
    id: int
    parent: int | None
    stage: int
    prob: float  # conditional probability given the parent (1.0 at the root)
    realization: dict[str, float] = field(default_factory=dict)


class ScenarioTree:
    def __init__(self, nodes):
        self.nodes = list(nodes)
        self.validate()

    # ------------------------------------------------------------ structure
    def __len__(self):
        return len(self.nodes)

    @property
    def horizon(self):
        return self.nodes[-1].stage if self.nodes else 0

    @property
    def series(self):
        return sorted(self.nodes[0].realization.keys())

    def is_leaf(self, node_id):
        return not self.children[node_id]

    def leaf_ids(self):
        return [n.id for n in self.nodes if self.is_leaf(n.id)]

    def nonleaf_ids(self):
        return [n.id for n in self.nodes if not self.is_leaf(n.id)]

    def stage_ids(self, t):
        return [n.id for n in self.nodes if n.stage == t]

    def path_to(self, node_id):
        """Node ids from the root to ``node_id`` inclusive."""
        path = []
        cur = node_id
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].parent
        return path[::-1]

    def value(self, node_id, name):
        return self.nodes[node_id].realization[name]

    def validate(self):
        """Dense BFS ids, linked parents, sibling probabilities summing to 1,
        consistent stages, and a shared realization schema.  Fills
        ``children`` once every parent is known to precede its node."""
        if not self.nodes:
            raise ValueError("empty tree")
        root = self.nodes[0]
        if root.id != 0 or root.parent is not None or root.stage != 0:
            raise ValueError("node 0 must be the root (no parent, stage 0)")
        if not abs(root.prob - 1.0) <= PROB_TOL:
            raise ValueError("root conditional probability must be 1")
        names = set(root.realization)
        prev_stage = 0
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node ids must be dense and ordered; slot {i} holds id {node.id}")
            if i > 0:
                p = node.parent
                if p is None or not (0 <= p < i):
                    raise ValueError(f"node {i}: parent {p!r} must precede it")
                if node.stage != self.nodes[p].stage + 1:
                    raise ValueError(f"node {i}: stage {node.stage} != parent stage + 1")
                if node.stage < prev_stage:
                    raise ValueError(f"node {i}: breadth-first order broken")
                if not (0.0 <= node.prob <= 1.0):
                    raise ValueError(f"node {i}: conditional probability {node.prob} outside [0, 1]")
            if set(node.realization) != names:
                raise ValueError(f"node {i}: realization keys differ from the root's")
            prev_stage = node.stage
        self.children = [[] for _ in self.nodes]
        for node in self.nodes[1:]:
            self.children[node.parent].append(node.id)
        for node_id, kids in enumerate(self.children):
            if kids:
                s = math.fsum(self.nodes[k].prob for k in kids)
                if not abs(s - 1.0) <= PROB_TOL:
                    raise ValueError(
                        f"node {node_id}: children probabilities sum to {s!r}, expected 1")
        # leaves must all sit at the final stage (balanced horizon)
        horizon = self.horizon
        for leaf in self.leaf_ids():
            if self.nodes[leaf].stage != horizon:
                raise ValueError(f"node {leaf}: leaf at stage {self.nodes[leaf].stage}, "
                                 f"but the horizon is {horizon}")
        return self

    # -------------------------------------------------------- probabilities
    def unconditional_prob(self, node_id):
        p = 1.0
        for nid in self.path_to(node_id):
            p *= self.nodes[nid].prob
        return p

    def unconditional_probs(self):
        """Vector of unconditional probabilities, computed root-down."""
        probs = np.zeros(len(self.nodes))
        probs[0] = 1.0
        for node in self.nodes[1:]:
            probs[node.id] = probs[node.parent] * node.prob
        return probs

    # ---------------------------------------------------------- operations
    def descendants(self, node_id):
        """``node_id`` and every node below it, breadth first: the node order
        of :meth:`subtree`."""
        order = [node_id]
        for cur in order:
            order.extend(self.children[cur])
        return order

    def subtree(self, node_id):
        """Re-root at ``node_id``.

        Returns a :class:`SubtreeView`: the new tree (dense BFS ids, root
        probability 1, stages shifted to 0) together with the historical
        path root -> node_id in original ids and the new-id -> original-id
        map, which state-dependent ambiguity lookups need.
        """
        order = self.descendants(node_id)
        new_id = {old: new for new, old in enumerate(order)}
        base_stage = self.nodes[node_id].stage
        nodes = []
        for old in order:
            src = self.nodes[old]
            nodes.append(TreeNode(
                id=new_id[old],
                parent=None if old == node_id else new_id[src.parent],
                stage=src.stage - base_stage,
                prob=1.0 if old == node_id else src.prob,
                realization=dict(src.realization),
            ))
        return SubtreeView(tree=ScenarioTree(nodes), path=self.path_to(node_id),
                           original_ids=order)

    def truncate(self, horizon):
        """First ``horizon`` stages as a new tree (shared realizations)."""
        if not (1 <= horizon <= self.horizon):
            raise ValueError(f"horizon must be within 1..{self.horizon}")
        # BFS order puts every kept node in a prefix of the node list
        kept = [n for n in self.nodes if n.stage <= horizon]
        nodes = [TreeNode(n.id, n.parent, n.stage, n.prob, dict(n.realization))
                 for n in kept]
        return ScenarioTree(nodes)

    # ------------------------------------------------------------------- io
    def to_json(self):
        """The tree file format: ``{"nodes": [...]}`` with sorted keys.

        ``json`` writes floats with ``repr``, so a round trip is bit-exact.
        """
        nodes = [
            {
                "id": n.id,
                "parent": n.parent,
                "stage": n.stage,
                "prob": n.prob,
                "realization": {k: float(v) for k, v in n.realization.items()},
            }
            for n in self.nodes
        ]
        return json.dumps({"nodes": nodes}, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        """Parse :meth:`to_json` output; unknown top-level keys are ignored.

        Every malformed node raises :class:`TreeSchemaError` naming the node
        (its position in the file) and the field.
        """
        data = json.loads(text)
        if not isinstance(data, dict) or "nodes" not in data:
            raise TreeSchemaError("tree: missing field 'nodes'")
        if not isinstance(data["nodes"], list):
            raise TreeSchemaError("tree: field 'nodes' must be a list")
        nodes = [_parse_node(i, raw) for i, raw in enumerate(data["nodes"])]
        nodes.sort(key=lambda n: n.id)
        try:
            return cls(nodes)
        except ValueError as exc:
            raise TreeSchemaError(str(exc)) from exc


def _parse_node(i, raw):
    if not isinstance(raw, dict):
        raise TreeSchemaError(f"node {i}: must be an object")
    for key in ("id", "parent", "stage", "prob", "realization"):
        if key not in raw:
            raise TreeSchemaError(f"node {i}: missing field {key!r}")
    if not isinstance(raw["realization"], dict):
        raise TreeSchemaError(f"node {i}: realization must be an object")

    def parse(kind, name, value):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            noun = "an integer" if kind is int else "a number"
            raise TreeSchemaError(f"node {i}: {name} is {value!r}, not {noun}") from None

    node = TreeNode(
        id=parse(int, "id", raw["id"]),
        parent=None if raw["parent"] is None else parse(int, "parent", raw["parent"]),
        stage=parse(int, "stage", raw["stage"]),
        prob=parse(float, "prob", raw["prob"]),
    )
    for k, v in raw["realization"].items():
        value = parse(float, f"realization {k!r}", v)
        if not math.isfinite(value):
            raise TreeSchemaError(f"node {i}: realization {k!r} is {value!r}")
        node.realization[k] = value
    return node


@dataclass
class SubtreeView:
    tree: ScenarioTree
    path: list  # original node ids, root -> subtree root
    original_ids: list  # original_ids[new_id] -> id in the parent tree


@dataclass(frozen=True)
class SeriesModel:
    """Gaussian log-increment model for one named series.

    ``kind="return"`` realizes per-period rates exp(g) - 1 (0 at the root);
    ``kind="price"`` realizes a level path starting at ``initial``.
    """
    name: str
    drift: float
    vol: float
    kind: str = "return"
    initial: float | None = None

    def __post_init__(self):
        if self.kind not in ("return", "price"):
            raise ValueError(f"series {self.name}: kind must be 'return' or 'price'")
        if self.kind == "price" and self.initial is None:
            raise ValueError(f"series {self.name}: price series needs an initial level")


def _number(value, name):
    """``value`` if it is a real number; a bool or a string names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _integer(value, name):
    """``value`` as an int if it is a whole real number; else names ``name``."""
    if not isinstance(_number(value, name), numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, name, item=_number):
    """``value`` as a tuple of ``item``-checked numbers; anything else names
    ``name``."""
    if isinstance(value, (str, bytes, dict)) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(item(v, f"{name}[{k}]") for k, v in enumerate(value))


def generate_synthetic(branching, series, seed):
    """Build a balanced tree with iid Gaussian log-increments.

    ``branching`` lists the child count per stage (e.g. [3, 3, 3]);
    conditional probabilities are equal among siblings.  Node draws follow
    id order, so a given seed pins the tree bit-for-bit.
    """
    branching = _numbers(branching, "branching", _integer)
    if not branching or any(b < 1 for b in branching):
        raise ValueError("branching must be a non-empty list of positive counts")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    root_real = {}
    for s in series:
        root_real[s.name] = float(s.initial) if s.kind == "price" else 0.0
    nodes = [TreeNode(0, None, 0, 1.0, root_real)]
    frontier = [0]
    for t, width in enumerate(branching, start=1):
        nxt = []
        for parent in frontier:
            for _ in range(width):
                real = {}
                for s in series:
                    g = rng.normal(s.drift, s.vol)
                    if s.kind == "price":
                        real[s.name] = nodes[parent].realization[s.name] * math.exp(g)
                    else:
                        real[s.name] = math.exp(g) - 1.0
                node = TreeNode(len(nodes), parent, t, 1.0 / width, real)
                nodes.append(node)
                nxt.append(node.id)
        frontier = nxt
    return ScenarioTree(nodes)
