import ast
import contextlib
import io
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import signdom
from signdom import bounds, graph, reference, solver, verify


def test_package_re_exports_exactly_the_submodules_public_names():
    listed = {
        name: module
        for module in (bounds, graph, reference, solver, verify)
        for name in module.__all__
    }
    exported = {
        name
        for name in dir(signdom)
        if not name.startswith("_") and not isinstance(getattr(signdom, name), ModuleType)
    }
    assert exported == set(listed)
    for name, module in listed.items():
        assert getattr(signdom, name) is getattr(module, name), name


def test_star_import_gives_every_listed_name():
    namespace: dict[str, object] = {}
    exec("from signdom import *", namespace)
    for module in (bounds, graph, reference, solver, verify):
        assert namespace[module.__name__.rsplit(".", 1)[1]] is module
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


def _fresh_interpreter(body: str) -> str:
    """What a fresh interpreter prints for ``body``, with this signdom
    first on its path."""
    src = str(Path(signdom.__file__).resolve().parents[1])
    probe = f"import sys\nsys.path.insert(0, sys.argv[1])\n{body}\n"
    return subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout


def _signdom_modules_after(statements: str) -> list[str]:
    """The signdom modules a fresh interpreter holds after ``import
    signdom`` and ``statements``."""
    return _fresh_interpreter(
        "import signdom\n"
        f"{statements}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'signdom')))"
    ).split()


SOLVING = ["signdom", "signdom.graph", "signdom.solver"]


def test_import_loads_only_what_solving_needs():
    # bounds, reference and verify were 41 % of the import's CPU time
    assert _signdom_modules_after("signdom.solve_bnb, signdom.Graph") == SOLVING


def test_import_loads_no_dataclasses():
    # dataclasses and the inspect it imports took most of the import's time;
    # a module loaded before the import (say by a site hook) does not count
    loaded = _fresh_interpreter(
        "before = set(sys.modules)\n"
        "import signdom\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    assert loaded.split() == []


@pytest.mark.parametrize(
    "probe",
    [
        "getattr(signdom, '__wrapped__', None)",
        "getattr(signdom, '__test__', None)",
        "hasattr(signdom, '_private')",
    ],
)
def test_a_dunder_or_private_probe_loads_nothing(probe):
    assert _signdom_modules_after(f"assert not {probe}") == SOLVING


@pytest.mark.parametrize(
    "read, loaded",
    [
        ("signdom.reference_table", ["signdom.reference"]),
        ("signdom.bound_report", ["signdom.bounds", "signdom.reference"]),
        ("from signdom import bounds", ["signdom.bounds"]),
        ("signdom.run_campaign", ["signdom.bounds", "signdom.reference", "signdom.verify"]),
        ("assert not hasattr(signdom, 'nope')", ["signdom.bounds", "signdom.reference", "signdom.verify"]),
    ],
)
def test_a_deferred_name_loads_the_modules_searched_up_to_its_own(read, loaded):
    assert _signdom_modules_after(read) == sorted(SOLVING + loaded)


def test_readme_library_quick_start_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["0", "++++----", "0 0"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, apart from ``__future__``
    and star imports."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from x import *\n"
        "from y import a, b as c, d\n"
        "d = print(a)\n"
    )
    assert _unused_imports(source) == ["os", "c", "d"]  # d is only rebound


def test_no_signdom_module_imports_a_name_it_does_not_use():
    for path in sorted(Path(signdom.__file__).parent.glob("*.py")):
        assert _unused_imports(path.read_text()) == [], path.name
