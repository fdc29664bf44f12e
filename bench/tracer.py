"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the ten layer modules,
and the public methods of the classes they define, then rebinds each
wrapper wherever ``dintervals`` bound the original: module attributes
(``from .geometry import intersect_all`` copies the name into
``complexes``, ``helly``, ``piercing``, ``generators`` and
``experiments``), dicts held by modules (``experiments.SUITES``) and
classes.  Rebinding only the defining module would miss those calls.

Each call records a span: name, start, end and the span that caused it.
Spans stay in memory and are written by ``write`` at the end of the run.
Calls to the hot leaves in ``HOT`` are aggregated per parent span (count,
total and self time) instead of one span each.  A function's self time is
its duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = (
    "generators", "geometry", "complexes", "helly", "piercing",
    "lp", "instances", "reports", "cli", "experiments",
)

# value classes whose methods are per-element accessors; their cost is
# charged to the wrapped function that calls them
SKIP_CLASSES = {"Point", "PointSet", "LevelInterval", "DInterval", "TraceSet", "LexValue"}

# leaves: they call no wrapped function, so aggregating them loses no parent
HOT = {
    "geometry.intersect_all", "geometry.trace_of", "geometry.f_value",
    "geometry.hull", "complexes.maximal_faces_containing", "complexes.face",
}

# per-call quantities summed from a function's result
RESULT_COUNTERS = {
    "complexes.nerve": ("complexes.nerve.faces", lambda r: len(r.faces)),
}


def _targets(module, layer):
    """(owner, attribute, qualified name, function) for each public
    function of the layer module and each public method of its classes."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, f"{layer}.{name}", obj
        elif (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and name not in SKIP_CLASSES
        ):
            for mname, meth in list(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield obj, mname, f"{layer}.{mname}", meth


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, name, start, end, self)
        self.leaves: dict = {}           # (parent, name) -> [calls, total, self]
        self.calls: dict = {}            # name -> calls
        self.self_s: dict = {}           # name -> self seconds
        self.counters: dict = {}         # counter name -> sum
        self._stack: list[list] = [[0, 0.0]]  # [span id, child seconds]
        self._next_id = 1
        self.paused = False              # while True, wrappers only forward

    def _wrap(self, qualname, fn):
        hot = qualname in HOT
        counter = RESULT_COUNTERS.get(qualname)
        clock = time.perf_counter
        stack, spans, leaves = self._stack, self.spans, self.leaves
        calls, self_s, counters = self.calls, self.self_s, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                parent[1] += duration
                calls[qualname] = calls.get(qualname, 0) + 1
                self_s[qualname] = self_s.get(qualname, 0.0) + own
                if hot:
                    agg = leaves.setdefault((parent[0], qualname), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += own
                else:
                    spans.append((span_id, parent[0], qualname, start, end, own))
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    def install(self, package_modules: dict) -> int:
        """Wrap and rebind; returns the number of wrapped functions."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = package_modules[f"dintervals.{layer}"]
            for owner, attr, qualname, fn in _targets(module, layer):
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(qualname, fn)
                setattr(owner, attr, wrapped[id(fn)])
        for module in package_modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
        return len(wrapped)

    def layer_totals(self) -> dict:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            out[layer][0] += n
            out[layer][1] += self.self_s[name]
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, then the per-parent leaf aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, own in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "self_s": own,
                }) + "\n")
            for (parent, name), (n, total, own) in sorted(self.leaves.items()):
                fh.write(json.dumps({
                    "parent": parent, "name": name, "calls": n,
                    "total_s": total, "self_s": own,
                }) + "\n")
