"""Spans and counts at the public functions of every treecascade module.

``Tracer.install`` replaces each public function of the traced modules
(and the public methods of ``engine.CascadePath``) with a wrapper, in
every treecascade namespace that holds a reference to it, so calls made
between modules are seen too.  The program itself is not edited.  While
the tracer is enabled each wrapped call records a span (operation id,
span id, parent span id, name, start, end) in memory; the self time of a
span is its duration minus the time its child spans cover.  ``pause``
opens a span whose children are not traced, so work the benchmark does
for itself (correctness checks) is neither recorded nor charged to the
self time of the span around it.  Span times are read from the process's
CPU clock, like the operation times in ``workloads``.
"""

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import process_time as clock

MODULES = (
    "rng",
    "weights",
    "engine",
    "observables",
    "transport",
    "regularity",
    "kpz",
    "tree",
    "verify",
    "cli",
)
PATH_METHODS = ("mass_levels", "masses_flat", "snapshot", "root_mass", "root_masses",
                "vertex_mass_series", "log_weight_state")


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def _array_bytes(obj):
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    return 0


def stored_bytes(path):
    """Bytes of the arrays a CascadePath holds, apart from its base flow."""
    return sum(_array_bytes(v) for k, v in vars(path).items() if k != "base")


def _count_result_size(key):
    def count(tracer, result):
        tracer.counts[key] += int(result.size)

    return count


def _count_path(tracer, path):
    tracer.counts["engine.stored_snapshots"] += int(path.n_snapshots)
    tracer.stored_state_mb = max(tracer.stored_state_mb, stored_bytes(path) / 2**20)


# Counts taken from a wrapped function's result, keyed by span name.
RESULT_COUNTERS = {
    "rng.vertex_uniforms": _count_result_size("rng.words"),
    "rng.vertex_uniforms_multi": _count_result_size("rng.words"),
    "weights.log_increments": _count_result_size("weights.vertex_steps"),
    "weights.log_increments_multi": _count_result_size("weights.vertex_steps"),
    "engine.simulate_path": _count_path,
}


class Tracer:
    """Wraps treecascade's public functions; records spans while enabled."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.spans = []
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.stored_state_mb = 0.0  # largest CascadePath storage seen
        self._stack = []
        self._next_id = 1
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"treecascade.{short}")
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        path_cls = sys.modules["treecascade.engine"].CascadePath
        for name in PATH_METHODS:
            fn = path_cls.__dict__[name]
            self._set(path_cls, name, self._wrap(f"engine.{name}", fn))

        for modname, mod in list(sys.modules.items()):
            if modname != "treecascade" and not modname.startswith("treecascade."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(mod, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    # dispatch tables such as verify's test registry
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._undo.append((value.__setitem__, key, item))
                            value[key] = wrappers[id(item)][1]
        return self

    def uninstall(self):
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if counter is not None:
                counter(tracer, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- spans ------------------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, parent, self.op_id, clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = clock()
        self._stack.pop()
        span_id, parent, op, start, child_time = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((op, span_id, parent, name, start, end))
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += duration - child_time

    def pause(self, name="bench.check"):
        """Span around benchmark code whose library calls are not traced."""
        return _PausedSpan(self, name)

    def write(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


class _PausedSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.frame = None
        self.was_enabled = False

    def __enter__(self):
        self.was_enabled = self.tracer.enabled
        if self.was_enabled:
            self.frame = self.tracer._enter()
            self.tracer.enabled = False
        return self

    def __exit__(self, *exc):
        if self.was_enabled:
            self.tracer.enabled = True
            self.tracer._exit(self.name, self.frame)
        return False
