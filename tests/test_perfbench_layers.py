"""The benchmark's layer tracer (``perfbench/layers.py``) wraps program names
where they are looked up, as module globals.  Renaming or bypassing one of
those names in ``src/`` leaves its layer silently unmeasured, so this test
runs a small pass through every layer with the tracer installed and checks
that each layer records at least one span."""

import importlib.util
from pathlib import Path

from prefrobust import ambiguity, experiment, lp, multistage, worst_case

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SPANS = (
    "multistage.holistic",
    "multistage.nominal",
    "blocks.support",
    "blocks.ball",
    "blocks.pairwise",
    "worst_case.primal",
    "lp.dualize",
    "ambiguity.elicit",
    "utility.project",
    "multistage.certify",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_reached():
    layers, tracing = _load("layers"), _load("tracer")
    holistic = multistage._solve_holistic
    tracer = tracing.Tracer()
    layers.install(tracer, experiment, multistage, worst_case, ambiguity, lp)
    try:
        tracer.active = True
        tree = experiment.generate_tree((2, 2), 11)
        for model in ("pro_kan", "pro_pc", "msp_pln"):
            config = experiment.ExperimentConfig(
                branching=(2, 2), n_breakpoints=10, model=model, questionnaires=20,
                seeds=(0,), tree_seed=11)
            problem = experiment.build_investment_consumption(tree, config)
            policy = experiment.solve_model(problem, config)
            if model == "pro_kan":
                multistage.check_time_consistency(problem, policy)
    finally:
        tracer.active = False
        tracer.restore()
    assert multistage._solve_holistic is holistic
    calls, _, _ = tracer.totals()
    assert [name for name in SPANS if calls[name] < 1] == []
