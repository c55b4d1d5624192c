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
