"""Layer tracing from outside the library: wrap every binding, record spans.

``Tracer.install`` replaces each traced function of ``inacc`` in every
module namespace that binds it (``verify_inaccessibility`` is bound in
``construct``, ``degrees``, ``cli`` and the package root), and wraps the
``__init__`` of the classes of ``core`` and ``partitions`` so objects are
counted.  ``uninstall`` restores the originals, so untraced runs execute
the library untouched.

A span is (layer, start, end, parent, op): the parent is the span open
when the call began, and every span of one op carries that op's index.
Spans stay in memory; ``layer_totals`` turns them into per-layer self
time, where a span's self time is its duration minus the union of its
children's intervals.

Layers are the library's modules; the scan engine ``_scan`` is split into
``scan.enum`` (label enumeration), ``scan.kernel`` (score and posterior
kernels), ``scan.dedup`` (posterior-class dedup and merge), ``scan.pool``
(the fork pool) and ``scan`` (the scan entry points, one call per pass).

Pool tasks run in forked children.  The pool wrapper hands each task to a
picklable ``PoolTask`` that traces the task in the child and returns the
child's layer totals with the result, so rows counted in workers are not
lost.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "construct", "degrees", "monotonicity", "conditioning", "partitions", "core")
#: modules whose class instances are counted as ``<module>.objects``
OBJECT_MODULES = ("core", "partitions")
PASS_KINDS = {
    "score_scan": "score",
    "class_scan": "class",
    "epsilon_scan": "epsilon",
    "iter_scored_chunks": "stream",
}
#: _scan functions by layer; any other public _scan function is layer "scan"
SCAN_LAYERS = {
    "iter_label_chunks": "scan.enum",
    "cached_labels": "scan.enum",
    "chunk_scores": "scan.kernel",
    "chunk_posteriors": "scan.kernel",
    "block_sums": "scan.kernel",
    "block_ratio": "scan.kernel",
    "_class_chunk": "scan.dedup",
    "_merge_within_tolerance": "scan.dedup",
    "_parallel_map": "scan.pool",
}

#: the tracer a forked pool task reports into; set while installed
ACTIVE: "Tracer | None" = None


def union_length(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals clipped to [start, end]."""
    covered = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return covered


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for layer, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(start, end, children.get(i, []))
        for i, (layer, start, end, parent, op) in enumerate(spans)
    ]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = -1  # -1 marks set-up work before the first op
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[(self.op >= 0, key)] += value

    def peak(self, key: str, value: float) -> None:
        k = f"{'ops' if self.op >= 0 else 'setup'}:{key}"
        self.maxima[k] = max(self.maxima.get(k, 0), value)

    def reset(self) -> None:
        self.spans, self._stack = [], []
        self.counts, self.maxima = Counter(), {}

    # -- totals ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """{"ops"|"setup": {"<layer>.self_s": s, counters...}} from spans and counts."""
        out = {"ops": Counter(), "setup": Counter()}
        for span, own in zip(self.spans, self_times(self.spans)):
            out["ops" if span[4] >= 0 else "setup"][f"{span[0]}.self_s"] += own
        for (is_op, key), value in self.counts.items():
            out["ops" if is_op else "setup"][key] += value
        for key, value in self.maxima.items():
            phase, name = key.split(":", 1)
            out[phase][name] = max(out[phase].get(name, 0), value)
        return out

    def merge(self, totals: dict) -> None:
        """Fold a pool child's layer totals into the current phase."""
        phase = "ops" if self.op >= 0 else "setup"
        for key, value in totals[phase].items():
            if key.endswith("max_chunk_rows"):
                self.peak(key, value)
            else:
                self.add(key, value)

    # -- wrapping ----------------------------------------------------------

    def _call(self, layer: str, fn, after=None):
        calls, fn_calls = f"{layer}.calls", f"fn.{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(calls)
            self.add(fn_calls)
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _generator(self, layer: str, fn, each=None, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(f"{layer}.calls")
            if on_call is not None:
                on_call()
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    if each is not None:
                        each(item)
                    yield item
            finally:
                gen.close()

        return wrapper

    def _pool(self, fn):
        @functools.wraps(fn)
        def wrapper(worker, common, n, workers, chunk_rows):
            self.add("scan.pool.calls")
            idx = self.open("scan.pool")
            try:
                parts = fn(PoolTask(worker.__name__), common, n, workers, chunk_rows)
            finally:
                self.close(idx)
            span = self.spans[idx]
            self.add("scan.pool.wall_s", span[2] - span[1])
            self.add("scan.pool.tasks", len(parts))
            self.add("scan.pool.worker_wall_s", workers * (span[2] - span[1]))
            self.peak("scan.pool.workers", workers)
            results = []
            for result, totals, busy in parts:
                self.merge(totals)
                self.add("scan.pool.busy_s", busy)
                results.append(result)
            return results

        return wrapper

    def _count_kernel(self, args, result) -> None:
        labels = args[0]
        self.add("scan.kernel.rows", labels.shape[0])
        self.add("scan.kernel.bytes", labels.nbytes + result.nbytes)

    def _count_chunk(self, labels) -> None:
        self.add("scan.enum.rows", labels.shape[0])
        self.peak("scan.enum.max_chunk_rows", labels.shape[0])

    def _scan_wrappers(self, scan) -> dict:
        """Wrappers for the scan engine: layer from SCAN_LAYERS, counters per function."""

        def count_pass(kind):
            def after(*_):
                self.add("scan.passes")
                self.add(f"scan.passes.{kind}")

            return after

        after = {
            "chunk_scores": self._count_kernel,
            "chunk_posteriors": self._count_kernel,
            "_class_chunk": lambda a, r: self.add("scan.dedup.rows_in", a[1].shape[0]),
            "_merge_within_tolerance": lambda a, r: self.add("scan.dedup.classes_out", len(r)),
            **{name: count_pass(kind) for name, kind in PASS_KINDS.items()},
        }
        wrappers = {}
        for name, obj in vars(scan).items():
            if name.startswith("_") and name not in SCAN_LAYERS:
                continue
            if not callable(obj) or isinstance(obj, type) or getattr(obj, "__module__", None) != scan.__name__:
                continue
            layer = SCAN_LAYERS.get(name, "scan")
            if name == "_parallel_map":
                wrappers[obj] = self._pool(obj)
            elif name == "iter_label_chunks":
                wrappers[obj] = self._generator(layer, obj, each=self._count_chunk)
            elif name == "iter_scored_chunks":
                wrappers[obj] = self._generator(layer, obj, on_call=after[name])
            else:
                wrappers[obj] = self._call(layer, obj, after.get(name))
        return wrappers

    def install(self) -> None:
        """Wrap every traced function at every binding inside ``inacc``."""
        global ACTIVE
        pkg = [m for name, m in sys.modules.items() if name == "inacc" or name.startswith("inacc.")]
        wrappers = self._scan_wrappers(sys.modules["inacc._scan"])
        for layer in MODULES:
            mod = sys.modules[f"inacc.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if layer in OBJECT_MODULES and not issubclass(obj, BaseException):
                        init = obj.__init__
                        self._undo.append((obj, "__init__", init))
                        setattr(obj, "__init__", self._call(layer, init, self._count_object(layer)))
                elif callable(obj):
                    wrappers[obj] = self._call(layer, obj)
        for mod in pkg:
            space = vars(mod)
            for name, obj in list(space.items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        ACTIVE = self

    def _count_object(self, layer: str):
        return lambda args, result: self.add(f"{layer}.objects")

    def uninstall(self) -> None:
        global ACTIVE
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []
        ACTIVE = None


class PoolTask:
    """Picklable stand-in for a ``_scan`` pool worker function.

    Runs in the forked child, where ``ACTIVE`` is the child's copy of the
    parent tracer: it clears that copy, runs the real worker under it and
    returns (result, layer totals, busy seconds).
    """

    def __init__(self, name: str):
        self.name = name

    def __call__(self, task):
        tracer = ACTIVE
        tracer.reset()
        start = time.perf_counter()
        result = getattr(sys.modules["inacc._scan"], self.name)(task)
        busy = time.perf_counter() - start
        totals = tracer.layer_totals()
        return result, {k: dict(v) for k, v in totals.items()}, busy

