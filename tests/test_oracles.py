import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_nothing_but_numpy():
    # the oracles check the library, so they must not share code with it
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"numpy"}, f"oracles.py imports {sorted(imported - {'numpy'})}"
