"""Exact solvers and sharp lower bounds for signed and nonnegative signed
k-subdomination numbers of simple graphs.

The public names are each submodule's ``__all__``; nothing is listed twice.
``import signdom`` loads ``graph`` and ``solver``, all that solving needs.
``reference``, ``bounds`` and ``verify`` load on first use (PEP 562): a
public name not found here is looked up in them in that order, the
cheapest to load first, each imported as the search reaches it.
``dir(signdom)`` and ``from signdom import *`` load all three."""

import importlib

from . import graph, solver
from .graph import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

_DEFERRED = ("reference", "bounds", "verify")


def _load(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _DEFERRED:
        return _load(name)
    if name == "__all__":  # read by `from signdom import *`
        modules = (graph, solver, *map(_load, _DEFERRED))
        return ["graph", "solver", *_DEFERRED, *(n for module in modules for n in module.__all__)]
    if not name.startswith("_"):  # a dunder probe loads nothing
        for module in map(_load, _DEFERRED):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
