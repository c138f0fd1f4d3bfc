"""Stdlib span recorder that wraps gleak's public callables from outside.

Nothing here edits the package source.  ``install`` replaces every public
function and public method defined in the layer modules with a timing
wrapper, both where it is defined and in every ``gleak`` module that
imported it by name (found by identity over the module dicts), so
``gleak.harness.knn_train`` and ``gleak.cli.run_trial_matrix`` are traced
too.  Spans stay in memory; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = (
    "gleak.scenarios",
    "gleak.core",
    "gleak.preprocess",
    "gleak.estimation",
    "gleak.knn",
    "gleak.mlp",
    "gleak.features",
    "gleak.harness",
    "gleak.cli",
)


class SpanRecorder:
    """Keeps (name, start, end, parent) spans and the counters' tallies.

    ``counters`` maps a span name to ``fn(recorder, arguments, result)``,
    called after the span closes with the call's bound arguments.  A counter
    adds to ``counts`` or keeps an argument in ``kept`` for reduction after
    the run, which keeps costly counting out of the traced time.
    """

    def __init__(self, counters: dict) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.kept: defaultdict[str, list] = defaultdict(list)
        self.counters = counters
        self.names: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = self.counters.get(name)
        self.names.append(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


def _traceable(value) -> bool:
    return inspect.isfunction(value) and not (
        inspect.isgeneratorfunction(value) or value.__name__.startswith("_")
    )


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer modules' public callables (recorder.names lists them)."""
    wrappers: dict[int, tuple[object, object]] = {}
    for module_name in LAYER_MODULES:
        module = sys.modules[module_name]
        layer = module_name.removeprefix("gleak.")
        for name, value in list(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != module_name:
                continue
            if _traceable(value):
                wrappers[id(value)] = (value, recorder.wrap(f"{layer}.{name}", value))
            elif inspect.isclass(value):
                for attr, member in list(vars(value).items()):
                    span = f"{layer}.{value.__qualname__}.{attr}"
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, staticmethod) and _traceable(member.__func__):
                        setattr(value, attr, staticmethod(recorder.wrap(span, member.__func__)))
                    elif _traceable(member):
                        setattr(value, attr, recorder.wrap(span, member))
    for module_name, module in list(sys.modules.items()):
        if module_name != "gleak" and not module_name.startswith("gleak."):
            continue
        for name, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(module, name, wrapper)
