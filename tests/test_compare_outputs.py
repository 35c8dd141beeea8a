"""Tests for tools/compare_outputs.py, the two-tree output comparison."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_differences_name_every_changed_or_one_sided_output():
    parent = {"npc.csv": b"1\n", "<stdout>": b"PASS\n", "params.csv": b"a\n"}
    change = {"npc.csv": b"2\n", "<stdout>": b"PASS\n", "extra.csv": b""}
    assert compare_outputs.differences(parent, change) == ["extra.csv", "npc.csv", "params.csv"]
    assert compare_outputs.differences(parent, dict(parent)) == []


def test_only_wrote_lines_are_ignored():
    text = b"wrote /tmp/a/out/params.csv, npc.csv\nPASS  x: wrote\n  wrote y\n"
    assert compare_outputs._without_wrote(text) == b"PASS  x: wrote\n  wrote y\n"


def test_a_tree_against_itself_is_identical(tmp_path):
    args = compare_outputs.commands()["qnormal-conditional"]
    runs = []
    for side in ("a", "b"):
        (cwd := tmp_path / side).mkdir()
        runs.append(compare_outputs.run(ROOT, args, cwd))
    assert runs[0]["<exit code>"] == b"0" and runs[0]["<stdout>"].count(b"\n") > 100
    assert compare_outputs.differences(*runs) == []


def test_every_simulate_runs_at_three_worker_counts():
    labels = [label for label in compare_outputs.commands() if label.startswith("simulate-")]
    assert len(labels) == 24
    assert {label[-3:] for label in labels} == {"-w1", "-w2", "-w3"}


def test_config_commands_read_the_run_cfg_beside_them(tmp_path):
    outputs = compare_outputs.run(ROOT, compare_outputs.commands()["params-config"], tmp_path)
    assert outputs["<exit code>"] == b"0"
    assert outputs["run.cfg"] == compare_outputs.RUN_CFG.encode()
    assert b"\nN,9\nm,4\nt,1\nk,2\nxi_sq_target,0.5\n" in outputs["<stdout>"]
