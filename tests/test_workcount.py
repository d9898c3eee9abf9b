import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from graph import STEP_CENSUS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workcount", ROOT / "tools" / "workcount.py")
workcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workcount)


def test_a_directory_without_the_package_the_spec_or_the_workloads_is_refused(tmp_path, capsys):
    root = tmp_path.resolve()
    for made in (root / "src" / "cirtrain" / "__init__.py", root / "cirbench" / "spec.json",
                 root / "cirbench" / "workloads.py"):
        assert workcount.main([str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"workcount.py: {made} not found; give a checkout of the repository\n")
        made.parent.mkdir(parents=True, exist_ok=True)
        made.touch()


def test_an_unknown_workload_is_refused(capsys):
    assert workcount.main([str(ROOT), "gradcheck"]) == 2
    assert capsys.readouterr().err == (
        "usage: python tools/workcount.py <checkout> [train_full | train_matching | eval_gallery]\n")


def test_a_failed_child_is_reported_with_its_stderr(monkeypatch, capsys):
    def failing_child(args, **kwargs):
        return subprocess.CompletedProcess(args, 1, stdout="", stderr="ImportError: broken model\n")

    monkeypatch.setattr(workcount.subprocess, "run", failing_child)
    assert workcount.main([str(ROOT)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "workcount.py: train_full: child exited with 1\nImportError: broken model\n"


def test_two_runs_count_the_same_nodes_reads_frozen_rows_and_tensors():
    # the matching-only step at B=64: the baseline census, no counted read of a frozen weight,
    # three frozen-row lookups per triplet, all served from the warm-up epoch's memo, and
    # 25 tensors a step
    rows = [json.loads(subprocess.run(
        [sys.executable, str(ROOT / "tools" / "workcount.py"), str(ROOT), "train_matching"],
        check=True, capture_output=True, text=True).stdout) for _ in range(2)]
    exact = [{key: row[key] for key in ("counted", "nodes", "reads", "frozen_rows", "tensors",
                                        "calls")}
             for row in rows]
    assert exact[0] == exact[1]
    nodes = {op: n for op, n in rows[0]["nodes"].items() if n}
    assert nodes == STEP_CENSUS["baseline"][1]
    assert rows[0]["reads"] == dict(bridge=0, compositor=0, cross_encoder=3, fusion=4,
                                    ref_encoder=0, text_encoder=5, tgt_encoder=0)
    assert rows[0]["frozen_rows"] == dict(computed=0, served=192)
    assert (rows[0]["counted"], rows[0]["tensors"]) == (16, 25)
