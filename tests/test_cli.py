"""Command-line driver: subcommand wiring, precedence, exit codes."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prefrobust.cli as cli
import prefrobust.counterexample as counterexample_module
import prefrobust.experiment as experiment_module
from prefrobust import multistage
from prefrobust.cli import main
from prefrobust.counterexample import solve_counterexample
from prefrobust.experiment import (
    CSV_HEADER,
    build_investment_consumption,
    config_from_dict,
    generate_tree,
    solve_model,
)
from prefrobust.tree import ScenarioTree

PINNED_TREE = Path(__file__).parent / "data" / "tree_2x2_seed3.json"


def test_counterexample_exits_zero_and_reports_match(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "all quantities match the published values" in out
    assert "gap" in out and "0.015" in out


def test_counterexample_flags_mismatches(monkeypatch, capsys):
    rep = solve_counterexample()
    rep.fixed["f_star"] += 1e-6
    monkeypatch.setattr(cli, "solve_counterexample", lambda step: rep)
    assert main(["counterexample"]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "f_star" in err


def test_gen_tree_writes_deterministic_json(tmp_path, capsys):
    out = tmp_path / "tree.json"
    argv = ["gen-tree", "--branching", "2,2", "--tree-seed", "3",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    tree = ScenarioTree.from_json(first)
    assert len(tree) == 7 and tree.horizon == 2
    assert main(argv) == 0
    assert out.read_text() == first
    # without --out the JSON goes to stdout
    assert main(["gen-tree", "--branching", "2,2", "--tree-seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"][0]["id"] == 0


def test_gen_tree_seed_flag_is_an_alias_for_tree_seed(tmp_path, capsys):
    via_alias = tmp_path / "a.json"
    via_full = tmp_path / "b.json"
    assert main(["gen-tree", "--branching", "2,2", "--seed", "7",
                 "--out", str(via_alias)]) == 0
    assert main(["gen-tree", "--branching", "2,2", "--tree-seed", "7",
                 "--out", str(via_full)]) == 0
    assert via_alias.read_text() == via_full.read_text()
    assert "seed 7" in capsys.readouterr().err
    # elsewhere --seed must be rejected, not prefix-matched onto --seeds
    with pytest.raises(SystemExit):
        main(["solve", "--branching", "2,2", "--seed", "7"])


def test_solve_emits_csv_matching_the_library(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    main(["gen-tree", "--branching", "2,2", "--tree-seed", "3",
          "--out", str(tree_file)])
    rc = main(["solve", "--tree", str(tree_file), "--model", "pro_kan",
               "--radius", "0.01", "--breakpoints", "10"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert "reward scale C =" in captured.err

    cfg = config_from_dict(
        {"branching": [2, 2], "tree_seed": 3, "model": "pro_kan",
         "radius": 0.01, "n_breakpoints": 10})
    problem = build_investment_consumption(
        ScenarioTree.from_json(tree_file.read_text()), cfg)
    policy = solve_model(problem, cfg)
    fields = lines[1].split(",")
    assert fields[1:7] == ["pro_kan", "2", "10", "0.01", "0", "0"]
    assert float(fields[7]) == pytest.approx(policy.value, abs=1e-9)
    assert float(fields[8]) == pytest.approx(policy.decisions[0][-1], abs=1e-9)
    assert fields[9] == "0"


def test_solve_builds_each_problem_once(monkeypatch, capsys):
    built, asked = [], []
    real_init, real_elicit = multistage.MultistageProblem.__init__, experiment_module.elicit_pairwise

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def counted_elicit(*args, **kwargs):
        asked.append(1)
        return real_elicit(*args, **kwargs)

    monkeypatch.setattr(multistage.MultistageProblem, "__init__", counted_init)
    monkeypatch.setattr(experiment_module, "elicit_pairwise", counted_elicit)
    assert main(["solve", "--branching", "3,3", "--model", "pro_pc",
                 "--questionnaires", "50", "--seeds", "0"]) == 0
    assert (len(built), len(asked)) == (1, 4)
    tree = generate_tree((3, 3), config_from_dict({}).tree_seed)
    scale = build_investment_consumption(
        tree, config_from_dict({"branching": [3, 3]})).reward_scale
    assert f"reward scale C = {scale:.10g}" in capsys.readouterr().err


def test_flags_override_the_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"branching": [2, 2], "tree_seed": 3, "model": "pro_kan",
         "radius": 0.3, "n_breakpoints": 10}))
    assert main(["solve", "--config", str(cfg_file), "--radius", "0"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert row.split(",")[4] == "0"  # the flag wins over the file


def test_sweep_prints_aggregates_to_stderr(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--branching", "2,2", "--tree-seed", "3",
               "--model", "pro_kan", "--breakpoints", "10",
               "--param", "radius", "--values", "0,0.01",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 3
    assert captured.err.count("agg model=pro_kan") == 2
    # reruns of the same sweep are byte-identical
    rc = main(["sweep", "--branching", "2,2", "--tree-seed", "3",
               "--model", "pro_kan", "--breakpoints", "10",
               "--param", "radius", "--values", "0,0.01"])
    assert rc == 0
    assert capsys.readouterr().out == out.read_text()

    assert main(["sweep", "--param", "volatility", "--values", "1"]) == 2
    assert "cannot sweep" in capsys.readouterr().err


def test_eval_scores_a_stored_policy(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    main(["gen-tree", "--branching", "2,2", "--tree-seed", "3",
          "--out", str(tree_file)])
    capsys.readouterr()
    cfg = config_from_dict(
        {"branching": [2, 2], "tree_seed": 3, "model": "pro_kan",
         "radius": 0.01, "n_breakpoints": 10})
    tree = ScenarioTree.from_json(tree_file.read_text())
    problem = build_investment_consumption(tree, cfg)
    policy = solve_model(problem, cfg)
    policy_file = tmp_path / "policy.tsv"
    policy_file.write_text(policy.export_table())

    rc = main(["eval", "--tree", str(tree_file), "--policy", str(policy_file),
               "--model", "pro_kan", "--radius", "0.01",
               "--breakpoints", "10", "--branching", "2,2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert float(captured.out.strip()) == pytest.approx(policy.value, abs=1e-6)

    # stage-coupled evaluation needs a finite utility set, not a ball
    rc = main(["eval", "--tree", str(tree_file), "--policy", str(policy_file),
               "--model", "pro_kan", "--radius", "0.01",
               "--breakpoints", "10", "--branching", "2,2",
               "--mode", "sequence_global"])
    assert rc == 2
    assert "finite utility sets" in capsys.readouterr().err


def test_eval_refuses_a_plan_off_the_decision_set(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    main(["gen-tree", "--branching", "2,2", "--tree-seed", "3",
          "--out", str(tree_file)])
    flags = ["--tree", str(tree_file), "--model", "pro_kan", "--radius", "0.01",
             "--breakpoints", "10", "--branching", "2,2"]
    cfg = config_from_dict(
        {"branching": [2, 2], "tree_seed": 3, "model": "pro_kan",
         "radius": 0.01, "n_breakpoints": 10})
    problem = build_investment_consumption(ScenarioTree.from_json(tree_file.read_text()), cfg)
    header, *rows = solve_model(problem, cfg).export_table().strip().split("\n")
    capsys.readouterr()

    def table(rows):
        return "\n".join([header, *rows]) + "\n"

    # 5% more than the optimal plan at every node breaks the root budget row
    over = []
    for row in rows:
        node, stage, dec, value = row.split("\t")
        dec = ",".join(repr(1.05 * float(v)) for v in dec.split(","))
        over.append("\t".join([node, stage, dec, value]))
    # a row for leaf 5 or for node 99, which take no decision, is refused too
    stray = [f"{s}\t2\t0.5,0.5\t0" for s in (5, 99)]
    cases = [(over, r"error: row con0\[0\] does not hold"),
             (rows[:-1], "error: node 2: the plan has no decision"),
             ([*rows, *stray], r"error: the plan has decisions for non-decision nodes \[5, 99\]")]
    for plan, message in cases:
        policy_file = tmp_path / "policy.tsv"
        policy_file.write_text(table(plan))
        assert main(["eval", "--policy", str(policy_file), *flags]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "Traceback" not in err


def test_eval_refuses_a_malformed_policy_table(tmp_path, capsys):
    policy_file = tmp_path / "policy.tsv"
    flags = ["--policy", str(policy_file), "--branching", "2,2", "--tree-seed", "3",
             "--model", "pro_kan", "--breakpoints", "10"]
    cases = [("0\t0\t0.5,0.5\t1\n0\t0\t0.4,0.6\t1\n",
              "error: line 3 (node 0): node listed again, first on line 2"),
             ("0\t0\t0.5,abc\t1\n",
              "error: line 2 (node 0): decision[1] is 'abc', not a number")]
    for body, message in cases:
        policy_file.write_text("node\tstage\tdecision\tvalue\n" + body)
        assert main(["eval", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err, err
        assert "Traceback" not in err


def test_timing_env_fills_the_ms_column(monkeypatch, capsys):
    argv = ["solve", "--branching", "2,2", "--tree-seed", "3",
            "--model", "pro_kan", "--breakpoints", "10"]
    monkeypatch.setenv(cli.TIMING_ENV, "1")
    assert main(argv) == 0
    timed = capsys.readouterr().out.strip().split("\n")[1]
    assert int(timed.rsplit(",", 1)[1]) > 0
    monkeypatch.delenv(cli.TIMING_ENV)
    assert main(argv) == 0
    plain = capsys.readouterr().out.strip().split("\n")[1]
    assert plain.rsplit(",", 1)[1] == "0"
    assert timed.rsplit(",", 1)[0] == plain.rsplit(",", 1)[0]


def test_missing_files_exit_cleanly(capsys):
    assert main(["solve", "--tree", "/no/such/tree.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["eval", "--policy", "/no/such/policy.tsv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "prefrobust", "counterexample", "--step", "0.002"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "all quantities match" in proc.stdout


@pytest.mark.parametrize("field", ["id", "parent", "stage", "prob", "realization"])
def test_tree_file_missing_a_node_field_exits_cleanly(tmp_path, capsys, field):
    payload = json.loads(generate_tree((2, 2), 3).to_json())
    del payload["nodes"][0][field]
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(payload))
    assert main(["solve", "--tree", str(tree_file), "--model", "pro_kan"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: node 0: missing field '{field}'\n"
    with pytest.raises(ValueError, match=f"node 0: missing field '{field}'"):
        ScenarioTree.from_json(json.dumps(payload))


def pinned_tree_with(node, field, value):
    """The pinned tree file with one node field (or realization entry) set."""
    data = json.loads(PINNED_TREE.read_text())
    target = data["nodes"][node]
    if field in target:
        target[field] = value
    else:
        target["realization"][field] = value
    return json.dumps(data)


@pytest.mark.parametrize("text, message", [
    ("{}", "tree: missing field 'nodes'"),
    ('{"nodes": [1]}', "node 0: must be an object"),
    ('{"nodes": [{"id": 0, "parent": null, "stage": 0, "prob": 1.0, "realization": [1]}]}',
     "node 0: realization must be an object"),
    pytest.param(pinned_tree_with(0, "r2", math.nan), "node 0: realization 'r2' is nan",
                 id="nan-r2-at-root"),
    pytest.param(pinned_tree_with(3, "oil", math.nan), "node 3: realization 'oil' is nan",
                 id="nan-oil"),
    pytest.param(pinned_tree_with(2, "r1", math.inf), "node 2: realization 'r1' is inf",
                 id="inf-r1"),
    pytest.param(pinned_tree_with(1, "prob", None), "node 1: prob is None, not a number",
                 id="null-prob"),
    pytest.param(pinned_tree_with(1, "id", "abc"), "node 1: id is 'abc', not an integer",
                 id="text-id"),
    pytest.param(pinned_tree_with(1, "prob", "abc"), "node 1: prob is 'abc', not a number",
                 id="text-prob"),
    pytest.param(pinned_tree_with(4, "r1", "abc"),
                 "node 4: realization 'r1' is 'abc', not a number", id="text-realization"),
    pytest.param(pinned_tree_with(5, "parent", math.inf), "node 5: parent is inf, not an integer",
                 id="inf-parent"),
    pytest.param(pinned_tree_with(0, "prob", math.nan), "root conditional probability must be 1",
                 id="nan-root-prob"),
    pytest.param('{"nodes": {}}', "tree: field 'nodes' must be a list", id="nodes-not-a-list"),
    pytest.param('{"nodes": [{"id": 0, "parent": null, "stage": 0, "prob": 1.0, "realization": {}},'
                 ' {"id": 1, "parent": 5, "stage": 1, "prob": 1.0, "realization": {}}]}',
                 "node 1: parent 5 must precede it", id="parent-past-the-end"),
])
def test_malformed_tree_file_exits_cleanly(tmp_path, capsys, text, message):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(text)
    assert main(["solve", "--tree", str(tree_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tree_file_format_is_pinned(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["gen-tree", "--branching", "2,2", "--tree-seed", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == PINNED_TREE.read_bytes()
    tree = ScenarioTree.from_json(PINNED_TREE.read_text())
    assert len(tree) == 7 and tree.to_json() == PINNED_TREE.read_text()
    capsys.readouterr()
    flags = ["--branching", "2,2", "--tree-seed", "3", "--seeds", "0,1"]
    assert main(["solve", *flags]) == 0
    generated = capsys.readouterr().out
    assert main(["solve", "--tree", str(PINNED_TREE), *flags]) == 0
    assert capsys.readouterr().out == generated



@pytest.mark.parametrize("config, message", [
    ({"returns": {"p0": "abc"}}, "p0 must be a number, got 'abc'"),
    ({"returns": {"drift": 0.1}}, "drift must be a list of numbers, got 0.1"),
    ({"returns": {"drift": [0.1, "x"], "vol": [0.1, 0.2]}}, "drift[1] must be a number, got 'x'"),
    ({"returns": {"oil_vol": True}}, "oil_vol must be a number, got True"),
    ({"returns": {"spread": 1}}, "unknown returns keys: ['spread']"),
    ({"returns": [0.1]}, "returns must be an object, got [0.1]"),
    ({"radius": "0.1"}, "radius must be a number, got '0.1'"),
    ({"n_breakpoints": None}, "n_breakpoints must be a number, got None"),
    ({"seeds": 3}, "seeds must be a list of numbers, got 3"),
    ({"model": ["pro_kan"]}, "model must be a string, got ['pro_kan']"),
    ({"out": 5}, "out must be a path, got 5"),
    ({"seeds": [0.7]}, "seeds[0] must be an integer, got 0.7"),
    ({"tree_seed": 1.5}, "tree_seed must be an integer, got 1.5"),
    ({"n_breakpoints": 10.5}, "n_breakpoints must be an integer, got 10.5"),
    ({"questionnaires": 3.5}, "questionnaires must be an integer, got 3.5"),
    ({"scale_override": 0}, "scale_override must be positive and finite, got 0"),
    ({"scale_override": -1.0}, "scale_override must be positive and finite, got -1.0"),
    ({"scale_override": math.nan}, "scale_override must be positive and finite, got nan"),
])
def test_wrongly_typed_config_exits_cleanly(tmp_path, capsys, config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg), "--branching", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--scale", "0"], "scale_override must be positive and finite, got 0.0"),
    (["solve", "--scale", "nan"], "scale_override must be positive and finite, got nan"),
    (["solve", "--scale", "-1"], "scale_override must be positive and finite, got -1.0"),
    (["solve", "--seeds", "0,x"], "--seeds takes comma-separated integers, got '0,x'"),
    (["solve", "--branching", "2,2.5"],
     "--branching takes comma-separated integers, got '2,2.5'"),
    (["sweep", "--param", "K", "--values", "10,3.5"],
     "questionnaires must be an integer, got 3.5"),
    (["sweep", "--param", "T", "--values", "0.5"], "horizon must be an integer, got 0.5"),
    (["sweep", "--param", "R", "--values", "0,x"],
     "--values takes comma-separated numbers, got '0,x'"),
    *[(["counterexample", "--step", step], f"step must be a number in [0.0005, 1], got {got}")
      for step, got in (("0", "0.0"), ("2", "2.0"), ("-1", "-1.0"), ("nan", "nan"),
                        ("inf", "inf"), ("1e-4", "0.0001"), ("4.9e-4", "0.00049"))],
    # an empty list or path is refused, not read as the flag left out
    (["solve", "--seeds", ""], "at least one seed is required"),
    (["solve", "--branching", ""], "branching must be a non-empty vector of positive counts"),
    (["solve", "--tree", ""], "[Errno 2] No such file or directory: ''"),
    (["solve", "--config", ""], "[Errno 2] No such file or directory: ''"),
    (["solve", "--out", ""], "out must be a path, got ''"),
    # a dict stands for a config file holding it
    (["solve", "--config", {"out": ""}], "out must be a path, got ''"),
    # an empty token is refused, not dropped
    (["solve", "--seeds", "0,1,"], "--seeds takes comma-separated integers, got '0,1,'"),
    (["solve", "--branching", ",2"], "--branching takes comma-separated integers, got ',2'"),
    (["sweep", "--param", "R", "--values", "0,,1"],
     "--values takes comma-separated numbers, got '0,,1'"),
    # a negative seed is refused before any tree or questionnaire is drawn
    (["gen-tree", "--seed", "-3"], "tree_seed must be nonnegative, got -3"),
    (["solve", "--tree-seed", "-1"], "tree_seed must be nonnegative, got -1"),
    (["solve", "--model", "pro_pc", "--seeds", "-1"], "seeds[0] must be nonnegative, got -1"),
    (["solve", "--model", "pro_kan", "--seeds", "0,-1"], "seeds[1] must be nonnegative, got -1"),
])
def test_bad_flag_values_exit_cleanly(monkeypatch, capsys, tmp_path, argv, message):
    # a refused step must not reach the search grid
    monkeypatch.setattr(counterexample_module, "_grid",
                        lambda step: pytest.fail(f"grid built for step {step!r}"))
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(cfg)]
    extra = [] if argv[0] == "counterexample" else ["--branching", "2"]
    assert main([*argv[:1], *extra, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
