import ast
from pathlib import Path

import kstab


def _library_nodes():
    files = sorted(Path(kstab.__file__).parent.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_floats():
    # arithmetic stays exact: no float literal and no float(...) call
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert found == []
