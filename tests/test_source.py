import ast
import os
import subprocess
import sys
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


def test_selftest_output_is_the_same_under_python_O():
    # the engine's checks must not depend on assert, which -O strips
    src = str(Path(superproj.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "superproj.cli", "selftest", "--cases", "5"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        for flags in ((), ("-O",))
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout and runs[1].stdout == runs[0].stdout
