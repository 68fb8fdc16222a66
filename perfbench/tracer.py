"""In-memory spans recorded from the benchmark's own code.

A span is ``[name, parent index, op id, start, end]``.  Spans come from two
places: ``with tracer.span(name)`` around the benchmark's calls into a
layer, and wrappers installed over module attributes that the program looks
up at call time (``fairrank.solver.linprog`` and the like).  Nothing under
``src/`` changes.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# Names the solver resolves through its module globals on every call.
SOLVER_HOOKS = (
    ("fairrank.solver", "weight_order_key", "oracle.weight_order_key"),
    ("fairrank.solver", "best_response", "oracle.best_response"),
    ("fairrank.solver", "linprog", "solver.linprog"),
    ("fairrank.solver", "prune", "solver.prune"),
)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.record = [self.name, parent, t.op, perf_counter(), 0.0]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[4] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, module_name: str, attr: str, name: str) -> bool:
        """Record a span around every call of ``module.attr``.  A name the
        program no longer has is skipped, so its layer shows zero calls."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))
        return True

    def unwrap(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class NullTracer:
    """Stands in when tracing is off; its spans do nothing."""

    enabled = False
    op = -1

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _null = _Null()

    def span(self, name: str):
        return self._null


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds, and self seconds (total
    minus the time its direct child spans cover)."""
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, parent, _op, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, _parent, _op, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
