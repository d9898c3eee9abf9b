"""The tool's refusals, and the fingerprint of this checkout against its committed golden.

`tests/golden/fingerprint.json` is `tools/fingerprint.py .`'s output, byte for byte, and
`fingerprint_build.json` the numpy, BLAS, machine and Python it was recorded on.  Re-record
both after a change that moves results on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import cirtrain  # imported first, as any earlier import of another tree would be

_spec = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _dump(doc) -> str:
    """The document as the tool prints it."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas['version']}", "machine": platform.machine(),
            "numpy": np.__version__, "python": platform.python_version()}


def _build_independent(doc) -> dict:
    """What no numpy or BLAS build moves: graph census by op, recall fractions, dataset hashes."""
    out = {"datasets": {name: doc["c7_artifacts"][name] for name in ("train.jsonl", "val.jsonl")},
           "eval_ragged_tied": doc["eval_ragged_tied"]}
    for geometry in fingerprint.GEOMETRIES:
        for variant, part in doc[geometry].items():
            out[f"{geometry}/{variant}"] = {
                key: part[key] for key in ("first_step_census", "eval_at_init", "eval_after_epoch")}
    return out


RECORDED = json.loads((GOLDEN / "fingerprint_build.json").read_text(encoding="utf-8"))
MODE = "recorded_build" if _build() == RECORDED else "other_build"


@pytest.mark.parametrize("mode", [MODE])
def test_the_fingerprint_matches_the_golden(mode):
    """On the recorded build the whole document is compared; on another, its build-independent
    parts, exactly."""
    golden = (GOLDEN / "fingerprint.json").read_text(encoding="utf-8")
    doc = fingerprint.fingerprint()
    if mode == "recorded_build":
        assert _dump(doc) == golden
    else:
        assert _build_independent(doc) == _build_independent(json.loads(golden))


def test_a_directory_without_the_package_is_refused(tmp_path, capsys):
    assert fingerprint.main([str(tmp_path)]) == 2
    package = tmp_path.resolve() / "src" / "cirtrain" / "__init__.py"
    assert capsys.readouterr().err == (
        f"fingerprint.py: {package} not found; give a checkout of the repository\n")


def test_a_package_imported_from_another_tree_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    package = tmp_path.resolve() / "src" / "cirtrain" / "__init__.py"
    package.parent.mkdir(parents=True)
    package.touch()
    assert fingerprint.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"fingerprint.py: imported cirtrain from {cirtrain.__file__}, not {package}\n")


if __name__ == "__main__":
    (GOLDEN / "fingerprint.json").write_text(_dump(fingerprint.fingerprint()), encoding="utf-8")
    (GOLDEN / "fingerprint_build.json").write_text(_dump(_build()), encoding="utf-8")
