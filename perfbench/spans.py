"""In-memory call spans around signdom's module-level functions.

The tracer wraps functions from outside the package: every module-level
name in ``signdom`` and its submodules that is bound to a traced function
is replaced by a wrapper, so calls made inside the package (for example
``signdom.verify`` calling its imported ``solve_bnb``) are seen too.
Nothing under ``src/`` is changed; :meth:`Tracer.uninstall` puts the
original objects back.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span (-1 at top level) and times in CPU seconds of the process,
the clock ``run.py`` uses for 1-worker passes. Calls are strictly nested
because the traced passes run in one thread of one process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (home module, attribute, span name). A missing attribute is skipped,
# so a metric whose function was removed reads 0.
TARGETS = (
    ("graph", "parse_dimacs", "graph.parse_dimacs"),
    ("graph", "degree_profile", "graph.degree_profile"),
    ("graph", "is_connected", "graph.is_connected"),
    ("bounds", "bound_report", "bounds.bound_report"),
    ("solver", "solve_bnb", "solver.solve_bnb"),
    ("solver", "_lexmin_witness", "solver.witness"),
    ("solver", "greedy_upper", "solver.greedy_upper"),
    ("solver", "solve_bruteforce", "solver.solve_bruteforce"),
    ("solver", "evaluate", "solver.evaluate"),
    ("verify", "build_ensemble", "verify.build_ensemble"),
    ("verify", "run_campaign", "verify.run_campaign"),
)

# Span names whose (args, result) pairs are kept for post-hoc counts.
CAPTURED = frozenset({"solver.solve_bnb"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.captured: list[tuple[tuple, object]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        captured = self.captured if name in CAPTURED else None
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if captured is not None:
                captured.append((args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "signdom" or key.startswith("signdom."))
        ]
        for home, attr, name in TARGETS:
            fn = getattr(sys.modules.get(f"signdom.{home}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds (total
    minus the time covered by direct child spans)."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, parent, start, end) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
    return out
