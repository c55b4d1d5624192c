import ast
import contextlib
import io
from pathlib import Path
from types import ModuleType

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
        for name, value in vars(signdom).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == set(listed)
    for name, module in listed.items():
        assert getattr(signdom, name) is getattr(module, name), name


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
