import ast
from pathlib import Path

import superproj

SOURCES = sorted(Path(superproj.__file__).parent.glob("*.py"))


def test_engine_has_no_assert_statements():
    # python -O strips assert, so an invariant the engine checks at runtime
    # must raise an error instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
