import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workcount", ROOT / "tools" / "workcount.py")
workcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workcount)


def test_a_directory_without_the_package_or_the_spec_is_refused(tmp_path, capsys):
    assert workcount.main([str(tmp_path)]) == 2
    package = tmp_path.resolve() / "src" / "cirtrain" / "__init__.py"
    assert capsys.readouterr().err == (
        f"workcount.py: {package} not found; give a checkout of the repository\n")
    package.parent.mkdir(parents=True)
    package.touch()
    assert workcount.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"workcount.py: {tmp_path.resolve() / 'cirbench' / 'spec.json'}"
                                       " not found; give a checkout of the repository\n")


def test_an_unknown_workload_is_refused(capsys):
    assert workcount.main([str(ROOT), "gradcheck"]) == 2
    assert capsys.readouterr().err.startswith("usage: python tools/workcount.py <checkout> [")


def test_two_runs_count_the_same_nodes_and_tensors():
    # the matching-only step at B=64: the baseline census, and 25 tensors a step
    rows = [json.loads(subprocess.run(
        [sys.executable, str(ROOT / "tools" / "workcount.py"), str(ROOT), "train_matching"],
        check=True, capture_output=True, text=True).stdout) for _ in range(2)]
    exact = [{key: row[key] for key in ("counted", "nodes", "tensors")} for row in rows]
    assert exact[0] == exact[1]
    nodes = {op: n for op, n in rows[0]["nodes"].items() if n}
    assert nodes == dict(add=3, attention=2, concat=1, diagonal_nll=1, l2_normalize_rows=1,
                         matmul=2, mean_axis=2, reshape=1, take_rows=3)
    assert (rows[0]["counted"], rows[0]["tensors"]) == (16, 25)
