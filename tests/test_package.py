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
