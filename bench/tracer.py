"""Layer tracing from outside the program.

`Tracer.install` discovers the public functions and methods of each layer
module (plus a few named dunders), replaces them with timing wrappers and
rebinds every reference other stratval modules hold to them.  `uninstall`
puts the originals back.  Nothing inside `stratval` is edited.

Each wrapped call is a span (name, start, end, parent).  A span's self time
is its duration minus the time covered by its child spans in *other*
layers; a call into the same layer is counted but stays inside the caller's
self time, so `laurent.__pow__` includes the multiplications it makes.  The
per-layer self time counts each instant once: it sums self times of the
spans that enter the layer from outside.

Spans are kept in compact arrays (up to SPAN_CAP of them) and written out
by `write_spans`; counts and self times are aggregated exactly whatever the
cap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

# Modules that do work when the benchmark calls the program.  `datagen` and
# `errors` carry no load and are not traced.
LAYERS = (
    "avector", "laurent", "poset", "charts", "valuation", "intlattice",
    "monoids", "geometry", "ringmodel", "smt", "weyl", "workspace", "cli",
)
# Spans kept for `write_spans`; counts and self times go on past the cap.
SPAN_CAP = 1_000_000

# Private methods traced in addition to the public surface: the two Laurent
# operators the valuation recursion leans on, and lattice construction.
EXTRA_METHODS = {
    "laurent": {"LaurentPoly": ("__mul__", "__pow__")},
    "monoids": {"LatticeQ": ("__init__",)},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []          # span name per name id
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.layer_self: dict[str, float] = {}
        self.layer_calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.hooks: dict[str, object] = {}  # span name -> fn(args, result)
        self.op_seq = 0                     # the benchmark numbers its ops
        self._stack: list[list] = []        # [span id, layer, start, foreign]
        self.spans_started = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patched: list[tuple[object, str, object]] = []

    # -- counting ------------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def stats(self, name: str) -> tuple[int, float] | None:
        """(calls, self seconds) of a span name, None when nothing by that
        name was traced (the function does not exist)."""
        try:
            i = self.names.index(name)
        except ValueError:
            return None
        return self.calls[i], self.self_s[i]

    # -- wrapping ------------------------------------------------------------

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.layer_self.setdefault(layer, 0.0)
        self.layer_calls.setdefault(layer, 0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str):
        idx = self.register(name, layer)
        tracer = self
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.spans_started
            tracer.spans_started = sid + 1
            frame = [sid, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, frame, clock())
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _exit(self, idx: int, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        sid, layer, start, foreign = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is None or parent[1] != layer:
            self.layer_self[layer] += dur - foreign
            if parent is not None:
                parent[3] += dur
        else:
            parent[3] += foreign
        self.calls[idx] += 1
        self.self_s[idx] += dur - foreign
        self.layer_calls[layer] += 1
        if sid < SPAN_CAP:
            self.span_id.append(sid)
            self.span_parent.append(parent[0] if parent is not None else -1)
            self.span_name.append(idx)
            self.span_start.append(start)
            self.span_end.append(end)

    def install(self, layers=LAYERS, package: str = "stratval") -> None:
        """Wrap the public functions and methods of each layer module."""
        originals: dict[int, object] = {}
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self.wrap(obj, f"{layer}.{attr}", layer)
                    originals[id(obj)] = wrapped
                    self._set(module, attr, obj, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    extra = EXTRA_METHODS.get(layer, {}).get(attr, ())
                    self._wrap_class(obj, f"{layer}.{attr}", layer, extra)
        # rebind names other modules imported with `from ... import`
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (
                modname == package or modname.startswith(package + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None and obj is not wrapped:
                    self._set(module, attr, obj, wrapped)

    def _wrap_class(self, cls, prefix: str, layer: str, extra) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, f"{prefix}.{attr}", layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, f"{prefix}.{attr}", layer))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, f"{prefix}.{attr}", layer)
            else:
                continue
            self._set(cls, attr, raw, new)

    def _set(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the kept spans as gzip'd tab-separated text; returns the
        number of rows.  Columns: id, parent id (-1 at the root), name,
        start and end in seconds on the tracer's clock."""
        n = len(self.span_id)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(n):
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\n"
                )
        return n
