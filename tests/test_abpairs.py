import importlib.util
import io
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "abpairs", Path(__file__).resolve().parent.parent / "tools" / "abpairs.py")
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)


def _archive(rev):
    """(a made-up commit id, a tar holding only a BENCHMARK.json listing two workloads)."""
    bench = json.dumps({"workloads": [{"name": "train_full"}, {"name": "eval_gallery"}],
                        "end_to_end": [], "per_layer": []}).encode()
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        info = tarfile.TarInfo("BENCHMARK.json")
        info.size = len(bench)
        tar.addfile(info, io.BytesIO(bench))
    return rev * 8, buf.getvalue()


def _runs(values, failed=0):
    return [{"attempted": 10, "failed": failed, "metrics": {"t": {"value": v}, "q": {"value": v}}}
            for v in values]


def test_summary_counts_wins_by_direction_and_ties_for_neither_side():
    # "t" and "q" hold the same values; lower is better for "t", higher for "q"
    summary = abpairs.summarize(_runs([4.0, 2.0, 3.0, 5.0]), _runs([3.0, 2.0, 4.0, 1.0], failed=1),
                                {"t": "lower", "q": "higher"})
    t, q = summary["metrics"]["t"], summary["metrics"]["q"]
    assert (t["change_wins"], t["ties"]) == (2, 1)
    assert (q["change_wins"], q["ties"]) == (1, 1)
    assert t["parent"] == {"median": 3.5, "q1": 2.75, "q3": 4.25}
    assert t["parent_iqr"] == pytest.approx(1.5)
    assert t["median_delta_frac"] == pytest.approx(-2.0 / 7.0)
    assert t["runs"] == {"parent": [4.0, 2.0, 3.0, 5.0], "change": [3.0, 2.0, 4.0, 1.0]}
    assert summary["failed"] == {"parent": [0] * 4, "change": [1] * 4}


def test_one_pair_has_its_value_as_every_quartile():
    assert abpairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_document_holds_one_summary_per_workload_in_the_order_given():
    runs = {"train_full": {"parent": _runs([5.0, 4.0]), "change": _runs([6.0, 4.0])},
            "eval_gallery": {"parent": _runs([2.0, 4.0]), "change": _runs([1.0, 3.0], failed=1)}}
    doc = abpairs.document(runs, {"t": "lower", "q": "higher"}, parent="p" * 40, change="c" * 40,
                           pairs=2, seconds=1.0, trace=0)
    assert list(doc) == ["parent", "change", "pairs", "seconds", "trace", "workloads"]
    assert list(doc["workloads"]) == ["train_full", "eval_gallery"]
    for workload, sides in runs.items():
        assert doc["workloads"][workload] == abpairs.summarize(
            sides["parent"], sides["change"], {"t": "lower", "q": "higher"})
    assert doc["workloads"]["train_full"]["metrics"]["t"]["change_wins"] == 0
    assert doc["workloads"]["eval_gallery"]["metrics"]["t"]["change_wins"] == 2
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
def test_a_run_length_that_is_not_finite_and_positive_is_refused_before_archiving(
        seconds, monkeypatch, capsys):
    monkeypatch.setattr(abpairs, "archive", lambda rev: pytest.fail("archived a revision"))
    with pytest.raises(SystemExit) as exit_:
        abpairs.main(["HEAD", "HEAD", "--workload", "train_full", "--pairs", "1",
                      "--seconds", seconds])
    assert exit_.value.code == 2
    assert "--seconds must be a finite number > 0" in capsys.readouterr().err


def test_a_workload_the_parent_does_not_list_is_refused_before_any_run(monkeypatch, capsys):
    monkeypatch.setattr(abpairs, "archive", _archive)
    monkeypatch.setattr(abpairs, "run_once", lambda *args: pytest.fail("started a run"))
    with pytest.raises(SystemExit) as exit_:
        abpairs.main(["abcde", "fghij", "--workload", "train_full", "--workload", "no_such",
                      "--pairs", "1", "--seconds", "1"])
    assert exit_.value.code == 2
    assert ("--workload no_such: the parent's BENCHMARK.json lists only train_full, eval_gallery"
            in capsys.readouterr().err)


def test_a_run_that_exits_non_zero_is_named_on_one_line_before_its_stderr(monkeypatch, capsys):
    calls = []

    def run_once(tar, workload, seed, seconds, trace):
        calls.append(seed)
        if len(calls) == 2:  # pair 1 runs the parent, then the change
            raise subprocess.CalledProcessError(3, ["cirbench/run.py"], stderr="Traceback\nboom\n")
        return {"attempted": 1, "failed": 0, "metrics": {"t": {"value": 1.0}}}

    monkeypatch.setattr(abpairs, "archive", _archive)
    monkeypatch.setattr(abpairs, "run_once", run_once)
    assert abpairs.main(["abcde", "fghij", "--workload", "eval_gallery", "--pairs", "2",
                         "--seconds", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("abpairs: eval_gallery pair 1 change: cirbench/run.py exited with 3\n"
                        "Traceback\nboom\n")
    assert calls == [1, 1]
