import importlib.util
import sys
from pathlib import Path

import cirtrain  # imported first, as any earlier import of another tree would be

_spec = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


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
