"""Layer spans for fibrecount, recorded from outside the library.

`install` replaces every public function of each layer module, at every
module attribute it is bound to (so `from`-imports such as
`expsums.two_squares_sieve` are covered), plus `Form.evaluate_batch` and
`Form.evaluate_batch_mod`, with a wrapper that opens a span.  A call from a
layer into itself opens no span: its time is the caller's self time either
way, and skipping it keeps hot inner calls cheap.

Counters:

* points: the number of points passed to `Form.evaluate_batch{,_mod}`
  (the size of the broadcast column shape).  Every point counts for
  `forms`, and also for the innermost enclosing span of another layer.
* samples: Monte Carlo samples reported by the `McEstimate` an entry call
  into `archimedean` returns.
* Birch tables: calls of `expsums.birch_sum_table`; a build is a call with
  a (config hash, q) pair not seen before in the process.

Spans opened in a pool thread with nothing on its own stack have the span
the main thread is in as their parent.  Self time is a span's duration minus
the union of its children's intervals; parallel children may make the
layers' self times add up to more than the wall time.

Memory peaks are taken on the main thread only: a span's peak is the
highest resident set size (RSS) seen during it, minus the RSS when it
opened.  A sampling thread reads the RSS every 2 ms, and every span reads it
when it opens and closes.  `tracemalloc` would give exact heap peaks, but it
slows the Python loops of the counting layer about tenfold.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("arith", "forms", "counting", "expsums", "padic", "archimedean",
          "constant", "cli")
FORM_METHODS = ("evaluate_batch", "evaluate_batch_mod")
RSS_INTERVAL_S = 0.002


class _Span:
    __slots__ = ("layer", "parent", "start", "end", "mem0", "peak")

    def __init__(self, layer, parent, start):
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = None
        self.mem0 = None
        self.peak = None


class RssSampler:
    """Running peak of this process's RSS, in bytes, with a resettable start."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.peak = self._read()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _read(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _loop(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            with self._lock:
                self.peak = max(self.peak, self._read())

    def mark(self, reset: bool) -> tuple:
        """(current RSS, peak since the last reset); optionally reset."""
        with self._lock:
            cur = self._read()
            peak = max(self.peak, cur)
            self.peak = cur if reset else peak
        return cur, peak

    def close(self):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


class Tracer:
    """Collects spans and counters for one process.

    Samples the RSS from a thread until `summary` is called.
    """

    def __init__(self):
        self.memory = RssSampler()
        self.spans: list[_Span] = []
        self.points = {layer: 0 for layer in LAYERS}
        self.samples = 0
        self.table_calls = 0
        self.table_keys: set = set()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[_Span] = []

    # -- stacks ------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self, stack):
        """Innermost open span: this thread's, else the main thread's."""
        top = stack[-1:] or self._main_stack[-1:]
        return top[0] if top else None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, layer: str, hook=None):
        """Wrapper of fn that records a span of `layer` around each call.

        hook(parent_layer, args, kwargs) runs before the call, whether or
        not a span is opened.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._current(stack)
            parent_layer = parent.layer if parent is not None else None
            if hook is not None:
                hook(parent_layer, args, kwargs)
            if parent_layer == layer:
                return fn(*args, **kwargs)
            return tracer._call(fn, layer, parent, stack, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def _call(self, fn, layer, parent, stack, args, kwargs):
        main = stack is self._main_stack
        span = _Span(layer, parent, 0.0)
        if main:
            cur, peak = self.memory.mark(reset=True)
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            span.mem0 = span.peak = cur
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if main:
                span.peak = max(span.peak, self.memory.mark(reset=False)[1])
                if parent is not None:
                    parent.peak = max(parent.peak, span.peak)
        if layer == "archimedean":
            self.samples += int(getattr(result, "samples", 0))
        return result

    # -- hooks -------------------------------------------------------------

    def _count_points(self, parent_layer, args, kwargs):
        cols = args[1] if len(args) > 1 else kwargs["cols"]
        npts = math.prod(np.broadcast_shapes(*(np.shape(c) for c in cols)))
        with self._count_lock:  # pool threads evaluate too
            self.points["forms"] += npts
            if parent_layer is not None and parent_layer != "forms":
                self.points[parent_layer] += npts

    def _count_table(self, parent_layer, args, kwargs):
        inst = args[0] if args else kwargs["inst"]
        q = args[1] if len(args) > 1 else kwargs["q"]
        self.table_calls += 1
        self.table_keys.add((inst.config_hash(), q))

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, counters and peaks of the finished spans.

        `covered_s` is the time inside spans of the library layers (every
        layer but cli).  Stops the RSS sampler.
        """
        self.memory.close()
        children: dict[int, list] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        self_s = {layer: 0.0 for layer in LAYERS}
        peak_b = {layer: 0 for layer in LAYERS}
        library = []  # outermost spans of the layers below cli
        for span in self.spans:
            if span.end is None:
                continue
            kids = [(max(k.start, span.start), min(k.end, span.end))
                    for k in children.get(id(span), []) if k.end is not None]
            self_s[span.layer] += (span.end - span.start) - _union(kids)
            if span.peak is not None:
                peak_b[span.layer] = max(peak_b[span.layer],
                                         span.peak - span.mem0)
            if span.layer != "cli" and (span.parent is None
                                        or span.parent.layer == "cli"):
                library.append((span.start, span.end))
        return {
            "self_s": self_s,
            "peak_mb": {k: v / 2**20 for k, v in peak_b.items()},
            "points": dict(self.points),
            "samples": self.samples,
            "table_calls": self.table_calls,
            "table_builds": len(self.table_keys),
            "covered_s": _union(library),
        }


def _union(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def install(tracer: Tracer):
    """Wrap the layer functions of the imported fibrecount package.

    Returns a function that puts the original functions back.
    """
    import fibrecount.cli  # noqa: F401  (imports every layer module)
    from fibrecount.forms import Form

    hooks = {"birch_sum_table": tracer._count_table}
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"fibrecount.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(obj, layer, hooks.get(name))
    replaced = [(Form, name, getattr(Form, name)) for name in FORM_METHODS]
    for mod in [m for name, m in sys.modules.items()
                if name == "fibrecount" or name.startswith("fibrecount.")]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                replaced.append((mod, name, obj))
                setattr(mod, name, wrapped[obj])
    for name in FORM_METHODS:
        setattr(Form, name, tracer.wrap(getattr(Form, name), "forms",
                                        tracer._count_points))

    def uninstall():
        for owner, name, obj in replaced:
            setattr(owner, name, obj)

    return uninstall
