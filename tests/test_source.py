"""Rules on the package source itself."""

import ast
from pathlib import Path

import domkit


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check in the package may be one
    paths = sorted(Path(domkit.__file__).parent.glob("*.py"))
    assert len(paths) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
