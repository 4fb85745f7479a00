"""Command-line driver: subcommand wiring, precedence, exit codes."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

import prefrobust.cli as cli
from prefrobust.cli import main
from prefrobust.counterexample import solve_counterexample
from prefrobust.experiment import (
    CSV_HEADER,
    build_investment_consumption,
    config_from_dict,
    generate_tree,
    solve_model,
    tree_from_json,
    tree_to_json,
)


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
    tree = tree_from_json(first)
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
        tree_from_json(tree_file.read_text()), cfg)
    policy = solve_model(problem, cfg)
    fields = lines[1].split(",")
    assert fields[1:7] == ["pro_kan", "2", "10", "0.01", "0", "0"]
    assert float(fields[7]) == pytest.approx(policy.value, abs=1e-9)
    assert float(fields[8]) == pytest.approx(policy.decisions[0][-1], abs=1e-9)
    assert fields[9] == "0"


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
    tree = tree_from_json(tree_file.read_text())
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
    problem = build_investment_consumption(tree_from_json(tree_file.read_text()), cfg)
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
    cases = [(over, r"error: row con0\[0\] does not hold"),
             (rows[:-1], "error: node 2: the plan has no decision")]
    for plan, message in cases:
        policy_file = tmp_path / "policy.tsv"
        policy_file.write_text(table(plan))
        assert main(["eval", "--policy", str(policy_file), *flags]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
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
    payload = json.loads(tree_to_json(generate_tree((2, 2), 3)))
    del payload["nodes"][0][field]
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(payload))
    assert main(["solve", "--tree", str(tree_file), "--model", "pro_kan"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: node 0: missing field '{field}'\n"
    with pytest.raises(ValueError, match=f"node 0: missing field '{field}'"):
        tree_from_json(json.dumps(payload))


@pytest.mark.parametrize("text, message", [
    ("{}", "tree: missing field 'nodes'"),
    ('{"nodes": [1]}', "node 0: must be an object"),
    ('{"nodes": [{"id": 0, "parent": null, "stage": 0, "prob": 1.0, "realization": [1]}]}',
     "node 0: realization must be an object"),
])
def test_malformed_tree_file_exits_cleanly(tmp_path, capsys, text, message):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(text)
    assert main(["solve", "--tree", str(tree_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
