"""Desk-scale study of robust investment-consumption planning.

An investor starts with unit wealth.  At each decision node the wealth is
split between ``n`` risky assets and the purchase of a consumable
commodity at the node's spot price; the consumption bought at a node is
valued one period later, at the child node's price, and at the final
decision stage everything is consumed.  Writing ``q(s)`` for the quantity
bought at node ``s`` and ``p`` for prices, the flow constraints are

    e'x(root) + q(root) p(root) = 1,
    e'x(s) + q(s) p(s) = (e + r(s))'x(parent of s)     at later nodes,

with the investment legs pinned to zero at the last decision stage.  The
reward attached to a child node ``i`` is ``q(s) p(i) / C``: a scaling
constant ``C``, computed by interval propagation of the maximum
attainable wealth, keeps every reward inside the utility domain [0, 1].

Tastes are regime-dependent: utility is linear while the spot price sits
at or below 60, and switches to a calibrated exponential above — decided
by the price at the node where the decision is taken, since that is the
state known when the stage utility applies.  Four model variants share
this market:

* ``msp_true``   — expected utility under a fine piecewise-linear stand-in
                   for the exact regime utility (breakpoint count
                   ``n_true``; the linear regime is represented exactly);
* ``msp_pln``    — expected utility under the N-point nominal projection;
* ``pro_kan``    — worst case over a Kantorovich ball around the nominal;
* ``pro_pc``     — worst case over utilities consistent with K simulated
                   lottery comparisons answered by the regime utility.

``run``/``sweep`` emit one result row per (configuration, seed), designed
to be byte-identical across reruns: wall-clock milliseconds are recorded
only when timing is switched on.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .ambiguity import (
    KantorovichBallSpec,
    FiniteUtilitySet,
    elicit_pairwise,
    regime_nominal,
)
from .multistage import (
    MultistageProblem,
    NodeConstraint,
    Policy,
    solve_holistic,
    solve_nominal,
)
from .tree import ScenarioTree, SeriesModel, generate_synthetic
from .utility import project, uniform_grid

__all__ = [
    "CSV_HEADER",
    "MODELS",
    "ExperimentConfig",
    "ResultRow",
    "ReturnModel",
    "aggregate",
    "build_investment_consumption",
    "config_from_dict",
    "config_to_dict",
    "generate_tree",
    "read_policy_table",
    "rows_to_csv",
    "run",
    "run_one",
    "solve_model",
    "sweep",
    "write_csv",
]

CSV_HEADER = "run_id,model,T,N,R,K,seed,value,q1,ms"
MODELS = ("msp_true", "msp_pln", "pro_kan", "pro_pc")

_OIL = "oil"


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


@dataclass(frozen=True)
class ReturnModel:
    """Per-period Gaussian log-return generator for the synthetic market.

    Asset ``k`` multiplies wealth by ``exp(drift[k] + vol[k] Z)``; the
    commodity price follows its own log-normal series from ``p0``.  The
    default start price sits near the regime threshold so both utility
    regimes actually occur on generated trees.
    """

    drift: Tuple[float, ...] = (0.02, 0.05)
    vol: Tuple[float, ...] = (0.08, 0.2)
    oil_drift: float = 0.0
    oil_vol: float = 0.15
    p0: float = 55.0

    def __post_init__(self):
        object.__setattr__(self, "drift", tuple(float(d) for d in _numbers(self.drift, "drift")))
        object.__setattr__(self, "vol", tuple(float(v) for v in _numbers(self.vol, "vol")))
        for name in ("oil_drift", "oil_vol", "p0"):
            _number(getattr(self, name), name)
        for name in ("drift", "vol", "oil_drift", "oil_vol", "p0"):
            value = getattr(self, name)
            if not all(math.isfinite(v) for v in np.atleast_1d(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if len(self.drift) != len(self.vol) or not self.drift:
            raise ValueError("drift and vol must be equal-length, non-empty")
        if any(v < 0 for v in self.vol) or self.oil_vol < 0:
            raise ValueError("volatilities must be nonnegative")
        if self.p0 <= 0:
            raise ValueError("the initial commodity price must be positive")

    @property
    def n_assets(self) -> int:
        return len(self.drift)


@dataclass
class ExperimentConfig:
    """Everything a run needs; one row in the output per (config, seed)."""

    branching: Tuple[int, ...] = (3, 3, 3)
    n_breakpoints: int = 20
    radius: float = 0.001
    questionnaires: int = 0
    model: str = "pro_kan"
    seeds: Tuple[int, ...] = (0,)
    #: default chosen so generated trees visit both utility regimes
    tree_seed: int = 11
    returns: ReturnModel = field(default_factory=ReturnModel)
    scale_override: Optional[float] = None
    n_true: int = 1601
    out: Optional[str] = None
    timing: bool = False

    def __post_init__(self):
        self.branching = _numbers(self.branching, "branching", _integer)
        self.seeds = _numbers(self.seeds, "seeds", _integer)
        for name in ("n_breakpoints", "questionnaires", "tree_seed", "n_true"):
            setattr(self, name, _integer(getattr(self, name), name))
        _number(self.radius, "radius")
        if (self.scale_override is not None
                and not 0 < _number(self.scale_override, "scale_override") < math.inf):
            raise ValueError(
                f"scale_override must be positive and finite, got {self.scale_override!r}")
        if not isinstance(self.returns, ReturnModel):
            raise ValueError(f"returns must be a ReturnModel, got {self.returns!r}")
        if not isinstance(self.model, str):
            raise ValueError(f"model must be a string, got {self.model!r}")
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise ValueError(f"out must be a path, got {self.out!r}")
        if not self.branching or any(b < 1 for b in self.branching):
            raise ValueError("branching must be a non-empty vector of positive counts")
        if self.n_breakpoints < 2:
            raise ValueError("need at least 2 breakpoints")
        if self.n_true < 2:
            raise ValueError("need at least 2 fine breakpoints")
        if not 0 <= self.radius < math.inf:
            raise ValueError(
                f"the ball radius must be finite and nonnegative, got {self.radius!r}")
        if self.questionnaires < 0:
            raise ValueError("the questionnaire count must be nonnegative")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; pick one of {MODELS}")
        if not self.seeds:
            raise ValueError("at least one seed is required")

    @property
    def horizon(self) -> int:
        return len(self.branching)


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["branching"] = list(config.branching)
    d["seeds"] = list(config.seeds)
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    raw = d.pop("returns", None)
    known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    stray = set(d) - known
    if stray:
        raise ValueError(f"unknown config keys: {sorted(stray)}")
    if isinstance(raw, dict):
        stray = set(raw) - {f.name for f in ReturnModel.__dataclass_fields__.values()}
        if stray:
            raise ValueError(f"unknown returns keys: {sorted(stray)}")
        returns = ReturnModel(**raw)
    elif raw is None or isinstance(raw, ReturnModel):
        returns = raw or ReturnModel()
    else:
        raise ValueError(f"returns must be an object, got {raw!r}")
    return ExperimentConfig(returns=returns, **d)


# ------------------------------------------------------------- market trees


def generate_tree(branching, seed, returns: Optional[ReturnModel] = None) -> ScenarioTree:
    """Symmetric scenario tree of seeded Gaussian log-returns.

    Children of each node are equiprobable; realizations carry the asset
    return rates ``r1..rn`` and the commodity price ``oil``.  Draw order is
    breadth-first, so a fixed seed reproduces the tree exactly and
    truncations share the common prefix.
    """
    rm = returns or ReturnModel()
    series = [SeriesModel(f"r{k + 1}", d, v) for k, (d, v) in enumerate(zip(rm.drift, rm.vol))]
    series.append(SeriesModel(_OIL, rm.oil_drift, rm.oil_vol, kind="price", initial=rm.p0))
    return generate_synthetic(branching, series, int(seed))


# ------------------------------------------------------- problem assembly


def _check_series(tree: ScenarioTree, n_assets: int):
    need = {_OIL, *(f"r{k + 1}" for k in range(n_assets))}
    have = set(tree.series)
    missing = sorted(need - have)
    if missing:
        raise ValueError(f"tree is missing series {missing}; found {sorted(have)}")
    for node in tree.nodes:
        price = node.realization[_OIL]
        if not 0 < price < math.inf:
            raise ValueError(
                f"commodity price at node {node.id} must be positive and finite, got {price!r}")


def reward_scale(tree: ScenarioTree, config: ExperimentConfig) -> float:
    """The reward-scaling constant C of :func:`build_investment_consumption`,
    after the same checks of the tree: ``config.scale_override`` when set,
    else the smallest C with q(s) p(i) / C <= 1 for every feasible plan.

    Wealth at a node can exceed the parent's wealth by at most the best
    gross return among the assets, so propagating that cap down the tree
    and taking the extreme consumption-value ratio bounds every reward.
    """
    n_assets = config.returns.n_assets
    _check_series(tree, n_assets)
    if tree.horizon < 1:
        raise ValueError("the tree needs at least one period")
    if config.scale_override is not None:
        return float(config.scale_override)
    cap = np.zeros(len(tree))
    cap[0] = 1.0
    for node in tree.nodes[1:]:
        growth = max(1.0 + node.realization[f"r{k + 1}"] for k in range(n_assets))
        cap[node.id] = cap[node.parent] * max(growth, 0.0)
    worst = 0.0
    for s in tree.nonleaf_ids():
        price = tree.value(s, _OIL)
        for i in tree.children[s]:
            worst = max(worst, cap[s] * tree.value(i, _OIL) / price)
    if worst <= 0:
        raise ValueError("the market admits no positive consumption; cannot scale rewards")
    return worst


def _true_utility(tree, node_id):
    return regime_nominal(tree.value(node_id, _OIL))


def _fine_projection(tree, node_id, n_true):
    """Stand-in for the exact regime utility: the linear regime is already
    piecewise linear, the exponential regime gets a fine uniform grid."""
    u = _true_utility(tree, node_id)
    n = 2 if u.kind == "linear" else n_true
    return project(u, uniform_grid(0.0, 1.0, n))


def build_investment_consumption(
    tree: ScenarioTree, config: ExperimentConfig, elicit_seed: Optional[int] = None
) -> MultistageProblem:
    """Assemble the flow constraints, scaled rewards, and per-node ambiguity.

    The decision at each non-leaf node is ``[x_1, ..., x_n, q]``.  The
    scaling constant is exposed as ``problem.reward_scale`` so reported
    utility values can be traced back to consumption units.  For the
    ``pro_pc`` model, ``elicit_seed`` (default: the first configured seed)
    feeds the per-node questionnaire simulation.
    """
    C = reward_scale(tree, config)
    n = config.returns.n_assets
    T = tree.horizon
    grid = uniform_grid(0.0, 1.0, config.n_breakpoints)

    bounds, constraints = {}, []
    for s in tree.nonleaf_ids():
        lb = np.zeros(n + 1)
        ub = np.full(n + 1, math.inf)
        stage = tree.nodes[s].stage
        if stage == T - 1 and stage > 0:
            ub[:n] = 0.0  # final decision: everything goes to consumption
        bounds[s] = (lb, ub)
        price = float(tree.value(s, _OIL))
        spend = {k: 1.0 for k in range(n)}
        spend[n] = price
        if s == 0:
            constraints.append(NodeConstraint(0, "=", 1.0, coef_self=spend))
        else:
            carry = {
                k: -(1.0 + float(tree.value(s, f"r{k + 1}"))) for k in range(n)
            }
            constraints.append(
                NodeConstraint(s, "=", 0.0, coef_self=spend, coef_parent=carry)
            )

    rewards = {}
    for node in tree.nodes[1:]:
        coef = np.zeros(n + 1)
        coef[n] = float(node.realization[_OIL]) / C
        rewards[node.id] = (coef, 0.0)

    if config.model == "pro_kan":
        def spec_for(tr, nid):
            nominal = project(_true_utility(tr, nid), grid)
            return KantorovichBallSpec(nominal, config.radius)
    elif config.model == "pro_pc":
        base = config.seeds[0] if elicit_seed is None else int(elicit_seed)
        def spec_for(tr, nid):
            return elicit_pairwise(
                _true_utility(tr, nid), config.questionnaires, grid,
                seed=(base, int(nid)))
    elif config.model == "msp_true":
        def spec_for(tr, nid):
            return FiniteUtilitySet((_fine_projection(tr, nid, config.n_true),))
    else:  # msp_pln
        def spec_for(tr, nid):
            return FiniteUtilitySet((project(_true_utility(tr, nid), grid),))

    problem = MultistageProblem(tree, bounds, rewards, spec_for, grid, constraints)
    problem.reward_scale = C
    return problem


def solve_model(problem: MultistageProblem, config: ExperimentConfig) -> Policy:
    if config.model in ("pro_kan", "pro_pc"):
        return solve_holistic(problem)
    utilities = {
        s: problem.ambiguity.for_node(s).members[0]
        for s in problem.tree.nonleaf_ids()
    }
    return solve_nominal(problem, utilities)


# ---------------------------------------------------------------- running


@dataclass
class ResultRow:
    run_id: str
    model: str
    T: int
    N: int
    R: float
    K: int
    seed: int
    value: float
    q1: float
    ms: int

    def line(self) -> str:
        # adding 0.0 folds IEEE negative zero into plain "0" in the output
        return ",".join(
            [
                self.run_id,
                self.model,
                str(self.T),
                str(self.N),
                format(float(self.R) + 0.0, "g"),
                str(self.K),
                str(self.seed),
                format(float(self.value) + 0.0, ".12g"),
                format(float(self.q1) + 0.0, ".12g"),
                str(self.ms),
            ]
        )


def _run_id(config: ExperimentConfig, horizon: int, seed: int) -> str:
    ident = {
        "branching": list(config.branching[:horizon]),
        "model": config.model,
        "T": horizon,
        "N": config.n_breakpoints,
        "R": config.radius,
        "K": config.questionnaires,
        "seed": seed,
        "tree_seed": config.tree_seed,
        "returns": asdict(config.returns),
        "scale_override": config.scale_override,
        "n_true": config.n_true,
    }
    blob = json.dumps(ident, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


def run_one(tree: ScenarioTree, config: ExperimentConfig, seed: int) -> ResultRow:
    start = time.perf_counter()
    problem = build_investment_consumption(tree, config, elicit_seed=seed)
    policy = solve_model(problem, config)
    ms = int(round((time.perf_counter() - start) * 1000.0)) if config.timing else 0
    return ResultRow(
        run_id=_run_id(config, tree.horizon, seed),
        model=config.model,
        T=tree.horizon,
        N=config.n_breakpoints,
        R=config.radius,
        K=config.questionnaires,
        seed=int(seed),
        value=float(policy.value),
        q1=float(policy.decisions[0][-1]),
        ms=ms,
    )


def run(config: ExperimentConfig):
    """One solved instance per configured seed, on the seeded tree."""
    tree = generate_tree(config.branching, config.tree_seed, config.returns)
    return [run_one(tree, config, seed) for seed in config.seeds]


_SWEEPABLE = {
    "T": "T", "horizon": "T",
    "N": "N", "breakpoints": "N",
    "R": "R", "radius": "R",
    "K": "K", "questionnaires": "K",
}


def sweep(config: ExperimentConfig, param: str, values: Sequence):
    """One run per (value, seed).

    Horizon sweeps truncate a single generated tree so every horizon shares
    the common realization prefix; the other parameters re-solve on the
    fixed full tree.
    """
    try:
        key = _SWEEPABLE[param]
    except KeyError:
        raise ValueError(
            f"cannot sweep {param!r}; choose from {sorted(set(_SWEEPABLE))}"
        ) from None
    if not values:
        raise ValueError("sweep needs at least one value")
    full = generate_tree(config.branching, config.tree_seed, config.returns)
    rows = []
    for v in values:
        cfg, tree = config, full
        if key == "T":
            horizon = _integer(v, "horizon")
            if not 1 <= horizon <= full.horizon:
                raise ValueError(
                    f"horizon {horizon} outside 1..{full.horizon} for this tree")
            tree = full.truncate(horizon)
        elif key == "N":
            cfg = replace(config, n_breakpoints=v)
        elif key == "R":
            cfg = replace(config, radius=float(v))
        else:
            cfg = replace(config, questionnaires=v)
        for seed in cfg.seeds:
            rows.append(run_one(tree, cfg, seed))
    return rows


def aggregate(rows: Sequence[ResultRow]):
    """Mean/std of the optimal value per (model, T, N, R, K) group, in
    first-appearance order; the spread is the sample deviation over seeds."""
    order, groups = [], {}
    for row in rows:
        key = (row.model, row.T, row.N, row.R, row.K)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row.value)
    out = []
    for key in order:
        vals = np.asarray(groups[key])
        model, T, N, R, K = key
        out.append(
            {
                "model": model, "T": T, "N": N, "R": R, "K": K,
                "mean": float(vals.mean()),
                "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                "runs": int(vals.size),
            }
        )
    return out


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.line() for row in rows)]) + "\n"


def write_csv(rows: Sequence[ResultRow], path) -> str:
    text = rows_to_csv(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def read_policy_table(text: str) -> Dict[int, np.ndarray]:
    """Parse the tab-separated policy export back into a decision map.

    A malformed row or a node listed twice is refused with its line number
    (blank lines count) and the field at fault."""
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not rows or rows[0][1].split("\t")[:3] != ["node", "stage", "decision"]:
        raise ValueError("not a policy table: expected a node/stage/decision header")
    decisions, first = {}, {}
    for n, ln in rows[1:]:
        fields = ln.split("\t")
        if len(fields) < 3:
            raise ValueError(f"line {n}: expected node, stage and decision fields, "
                             f"got {len(fields)} field(s)")
        try:
            node = int(fields[0])
        except ValueError:
            raise ValueError(f"line {n}: node is {fields[0]!r}, not an integer") from None
        if node in first:
            raise ValueError(f"line {n} (node {node}): node listed again, first on "
                             f"line {first[node]}")
        first[node] = n
        dec = []
        for k, tok in enumerate(fields[2].split(",")):
            try:
                dec.append(float(tok))
            except ValueError:
                raise ValueError(f"line {n} (node {node}): decision[{k}] is {tok!r}, "
                                 "not a number") from None
        decisions[node] = np.array(dec)
    return decisions
