import ast
from pathlib import Path

import kstab


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    files = sorted(Path(kstab.__file__).parent.glob("*.py"))
    assert len(files) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
