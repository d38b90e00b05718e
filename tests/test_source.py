import ast
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_test_oracles_stay_off_engine_paths():
    # echelon_basis and bareiss_rank are the tests' references, defined in
    # linalg; substitute, the general substitution, lives only in
    # tests/substitution_reference.py.  An engine path that used one would
    # be checked against itself.  load_record, suite_duality and
    # express_in_span are test-only helpers kept in tests/test_golden.py,
    # tests/test_properties.py and tests/test_superlie.py; composed_apply and
    # composed_bracket, the derivation calculus by whole-polynomial steps,
    # live only in tests/derivation_reference.py, bott_dim, the Bott
    # numbers as a per-degree dict, only in tests/closed_form_reference.py,
    # the windowed Cech engine's _run_window and _mask_pass only in
    # tests/cech_window_reference.py, and the osp(2|2) check by direct
    # brackets, combo_matches and direct_osp22, only in
    # tests/osp22_reference.py, and the integrability conditions by squaring
    # a formal odd field, general_odd_section, only in
    # tests/integrability_reference.py, the sampled N=2 frame check,
    # FRAME_SAMPLES, _frame_rank and eval_body, only in
    # tests/frame_sample_reference.py, rational_value only in
    # tests/scalar_reference.py, the recursive-descent parser that builds a
    # polynomial per factor, DescentParser, descent_parse and
    # descent_parse_in_context, only in tests/parser_reference.py, and the
    # generator lists built through whole polynomials, polynomial_generators,
    # only in tests/cech_generators_reference.py
    homes = {
        "echelon_basis": "linalg.py", "bareiss_rank": "linalg.py", "substitute": None,
        "load_record": None, "suite_duality": None, "express_in_span": None,
        "composed_apply": None, "composed_bracket": None, "bott_dim": None,
        "_run_window": None, "_mask_pass": None,
        "combo_matches": None, "_combo_matches": None, "direct_osp22": None,
        "general_odd_section": None,
        "FRAME_SAMPLES": None, "_frame_rank": None, "eval_body": None,
        "rational_value": None,
        "DescentParser": None, "descent_parse": None, "descent_parse_in_context": None,
        "polynomial_generators": None,
    }
    defs = (ast.alias, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, defs)
                else None
            )
            if name in homes and path.name != homes[name]:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []


def test_engine_has_no_unused_relative_imports():
    # a name imported from another engine module and never read is dead
    # coupling; the package itself re-exports nothing
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if (alias.asname or alias.name) not in read
        ]
    assert found == []


def test_chart_pairs_are_built_only_in_superpoly():
    # pnm_transition builds each chart pair once per process; a module that
    # called ChartTransition itself would rebuild pairs and re-run the
    # round-trip check on every call.  P^(1|m) has one name for its pair,
    # pnm_transition(1, m), so no module names a second one (the alias
    # cech.standard_transition is a benchmark shim, see below).
    found = [path.name for path in SOURCES if "p1m_transition" in path.read_text()]
    for path in SOURCES:
        if path.name == "superpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if name == "ChartTransition":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_shims_are_named_only_in_cech():
    # the E1-page engine has no window; the names the benchmark still reads
    # (the alias standard_transition, CechWindow, default_window, the result's
    # window_used and stabilized) stay in cech for it alone, and no engine
    # path reads them
    shims = re.compile(
        r"\b(standard_transition|CechWindow|default_window|window_used|stabilized)\b"
    )
    found = [f"{path.name} {name}" for path in SOURCES if path.name != "cech.py"
             for name in sorted(set(shims.findall(path.read_text())))]
    assert found == []


def test_pnm_shape_check_is_said_once():
    # errors.check_pnm is the one home of the P^(n|m) shape rule
    found = [path.name for path in SOURCES
             if "need n >= 1 and m >= 0" in path.read_text()]
    assert found == ["errors.py"]


def test_scalar_fraction_view_stays_off_engine_paths():
    # Scalar.c builds four Fractions on every read; the engine reads the int
    # numerators n and the denominator d instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "scalars.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "c"
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


def _loaded_after(code, *flags, path=None):
    """Stdout of ``code`` in a fresh interpreter with the package's source
    on the path."""
    src = str(Path(superproj.__file__).parent.parent)
    path = path or os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_cold_import_loads_neither_properties_nor_cli():
    # import superproj is the cold start every command pays: the package
    # re-exports nothing, so it loads no engine module, and each command
    # loads only the modules it uses
    code = (
        "import sys, superproj\n"
        "print(sorted(n for n in sys.modules if n.startswith('superproj.')))\n"
    )
    assert _loaded_after(code) == "[]\n"


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    # cold start is import superproj plus the fixture load; dataclasses, and
    # inspect with it, cost more to import than the engine's own start-up
    # work, and the fixture store reads JSON without compiling the engine
    src = str(Path(superproj.__file__).parent.parent)
    code = (
        "import sys, superproj.golden\n"
        "superproj.golden.load_records()\n"
        "print(sorted(n for n in ('dataclasses', 'inspect') if n in sys.modules))\n"
        "print(sorted(n for n in sys.modules if n.startswith('superproj.')))\n"
    )
    assert _loaded_after(code, "-S", path=src) == (
        "[]\n['superproj.golden', 'superproj.records']\n"
    )


@pytest.mark.parametrize("argv, absent", [
    (["characteristic", "--n", "3", "--m", "4"],
     ["cech", "golden", "linalg", "scalars", "superpoly"]),
    (["cohomology", "--n", "1", "--m", "3", "--ell", "-1"],
     ["cech", "golden", "linalg", "scalars", "superpoly"]),
    (["osp22-verify"], ["cech", "golden"]),
])
def test_each_command_loads_only_what_it_uses(argv, absent):
    # a closed-form answer needs no Cech engine and no polynomial algebra,
    # and no command but selftest reads the golden table
    code = (
        "import contextlib, io, sys\n"
        "from superproj.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, sorted(n for n in {absent!r} if 'superproj.' + n in sys.modules))\n"
    )
    assert _loaded_after(code) == "0 []\n"


def test_lazy_imports_stay_at_the_command_line():
    # a module's engine imports sit at its head; only a command of cli.py
    # loads what it needs when it runs, and the golden checkers load the law
    # suites only for their two records, so no hot path pays for an import
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ImportFrom):
                continue
            for node in ast.walk(top):
                if not (isinstance(node, ast.ImportFrom) and node.level):
                    continue
                if path.name == "cli.py" and getattr(top, "name", "").startswith("cmd_"):
                    continue
                if path.name == "checkers.py" and node.module == "properties":
                    continue
                found.append(f"{path.name}:{node.lineno} {node.module}")
    assert found == []


def test_readme_example_runs():
    # the README's Python example imports each name from its home module
    readme = Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", str(readme), 0
    )
    result = doctest.DocTestRunner().run(test)
    assert result.attempted and not result.failed


def test_engine_does_not_import_dataclasses():
    # the record types are plain slotted classes (superproj.records)
    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module] if isinstance(node, ast.ImportFrom) else []

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "dataclasses" in modules(node)
    ]
    assert found == []


def test_euler_route_names_no_gradient():
    # euler_tangent_dims takes the edge map's kernel from the Euler identity;
    # super_gradient_rank is the independent route the golden table and the
    # tests compare it with, so the engine route must not read it
    path = Path(superproj.__file__).parent / "tangent.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (route,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "euler_tangent_dims"
    ]
    found = [
        node.lineno
        for node in ast.walk(route)
        if (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
        == "super_gradient_rank"
    ]
    assert found == []


def test_cech_runs_one_window_and_has_no_instability_path():
    # the E1 page is exact with no degree bound (cech module docstring), so
    # no module keeps a retry path
    found = [path.name for path in SOURCES if "InstabilityError" in path.read_text()]
    assert found == []
