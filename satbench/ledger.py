"""Per-layer span ledger, recorded from outside the program.

The traced run of the benchmark wraps the public entry points of each
``repro`` layer with :meth:`Ledger.patch_function` /
:meth:`Ledger.patch_method` and books, per thread, every call's wall time
and *self* time (its span minus the part covered by child spans).  The
program itself is not modified: wrappers replace module and class
attributes for the traced phase only and :meth:`Ledger.uninstall` puts the
originals back.

Python binds ``from x import f`` at import time, so a function is patched
under every name any loaded ``repro`` module holds it by (for example
``launch_kernel`` is called through ``repro.exec.backends``).  Methods are
patched on their class, which every instance looks up at call time.

Spans are kept in memory as ``(name, t0_ns, t1_ns, depth, thread)`` tuples
and written out by :meth:`Ledger.write_spans` when the run ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The ``repro`` layers a span can be booked to, plus ``idle`` for time a
#: thread spends waiting (a serve worker for a batch, the caller for its
#: served burst) and ``bench`` for the benchmark's own gate.
LAYERS = ("sat", "exec", "plan", "engine", "compile", "gpusim", "shard",
          "serve", "idle", "bench")

_perf_ns = time.perf_counter_ns


class _ThreadBook:
    """One thread's open-span stack and running totals."""

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: List[List[int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.wall_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Open-span depth and outermost wall time per nesting group
        #: (``backend``: time inside the outermost ``Backend.run`` of the
        #: current op, for ``sat.dispatch_us``).
        self.depth: Dict[str, int] = defaultdict(int)
        self.outer_ns: Dict[str, int] = defaultdict(int)


class Ledger:
    """Benchmark-side tracer: wrappers, spans and the self-time ledger."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.layer_of: Dict[str, str] = {}
        self._local = threading.local()
        self._books: List[_ThreadBook] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _book(self) -> _ThreadBook:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = _ThreadBook()
            with self._lock:
                self._books.append(book)
        return book

    def wrap(self, fn: Callable, name: str, layer: str, *,
             work: Optional[Callable] = None,
             after: Optional[Callable] = None,
             group: Optional[str] = None,
             op: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span booked to ``layer``.

        ``work(args, kwargs, result)`` adds to the span's work total
        (pixels, images); ``after(book, args, kwargs, result, wall_ns)``
        records extra samples.  Spans sharing a ``group`` accumulate the
        wall time of the outermost one into ``book.outer_ns[group]``; an
        ``op`` span resets those accumulators when it opens at the root.
        """
        self.layer_of[name] = layer
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            book = ledger._book()
            if op and not book.stack:
                book.outer_ns.clear()
            if group is not None:
                book.depth[group] += 1
            frame = [0]
            book.stack.append(frame)
            t0 = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf_ns()
                book.stack.pop()
                wall = t1 - t0
                if book.stack:
                    book.stack[-1][0] += wall
                book.calls[name] += 1
                book.wall_ns[name] += wall
                book.self_ns[name] += wall - frame[0]
                ledger.spans.append((name, t0, t1, len(book.stack),
                                     book.ident))
                if group is not None:
                    book.depth[group] -= 1
                    if book.depth[group] == 0:
                        book.outer_ns[group] += wall
            if work is not None:
                book.work[name] += work(args, kwargs, result)
            if after is not None:
                after(book, args, kwargs, result, wall)
            return result

        return traced

    def wrap_counter(self, fn: Callable, name: str,
                     amount: Callable) -> Callable:
        """Wrap ``fn`` to count ``amount(args, kwargs)`` without a span
        (cache hit/miss notes are too small to time)."""
        ledger = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ledger._book().work[name] += amount(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- installing ------------------------------------------------------
    def patch_function(self, original: Callable, wrapper: Callable) -> int:
        """Replace ``original`` by ``wrapper`` under every name a loaded
        ``repro`` module binds it to; returns the number of bindings."""
        n = 0
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))
                    n += 1
        if n == 0:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")
        return n

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        """Replace ``cls.attr`` by ``make(original)``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------
    def _sum(self, field: str) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        with self._lock:
            books = list(self._books)
        for book in books:
            for k, v in list(getattr(book, field).items()):
                out[k] += v
        return out

    def threads(self) -> int:
        """Threads that entered at least one wrapped call."""
        with self._lock:
            return len(self._books)

    def calls(self, name: str) -> int:
        return int(self._sum("calls").get(name, 0))

    def wall_ns(self, name: str) -> float:
        return self._sum("wall_ns").get(name, 0.0)

    def self_ns(self, name: str) -> float:
        return self._sum("self_ns").get(name, 0.0)

    def work(self, name: str) -> float:
        return self._sum("work").get(name, 0.0)

    def samples(self, key: str) -> List[float]:
        out: List[float] = []
        with self._lock:
            books = list(self._books)
        for book in books:
            out.extend(book.samples.get(key, ()))
        return out

    def layer_self_ns(self) -> Dict[str, float]:
        """Self time per layer, summed over threads."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self._sum("self_ns").items():
            out[self.layer_of[name]] += ns
        return out

    def balance(self, wall_ns: float) -> Dict[str, float]:
        """Self-time fractions per layer plus the ``other`` remainder.

        ``wall_ns`` is the traced wall the spans partition, summed over
        the threads that ran program code; the fractions sum to 1 by
        construction, and ``other`` is negative only if spans overlapped
        on one thread, which :func:`check_balance` rejects.
        """
        per_layer = self.layer_self_ns()
        other = wall_ns - sum(per_layer.values())
        out = {layer: ns / wall_ns for layer, ns in per_layer.items()}
        out["other"] = other / wall_ns
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as CSV (times in ns)."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "layer", "t0_ns", "t1_ns", "depth", "thread"])
            for name, t0, t1, depth, thread in self.spans:
                w.writerow([name, self.layer_of[name], t0, t1, depth, thread])


def check_balance(fractions: Dict[str, float], tol: float = 1e-6) -> bool:
    """Self times plus ``other`` cover the wall exactly, none negative."""
    return (abs(sum(fractions.values()) - 1.0) < tol
            and all(v > -tol for v in fractions.values()))


def install(ledger: Ledger) -> None:
    """Wrap the public entry points of every ``repro`` layer."""
    from repro.compile import lower
    from repro.engine.batch import Engine
    from repro.engine.plan import LaunchPlanCache
    from repro.engine.scheduler import BatchScheduler
    from repro.exec import backends, config
    from repro.gpusim import launch
    from repro.plan.planner import Planner
    from repro.sat import api
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.pool import WorkerPool
    from repro.serve.service import SatService
    from repro.shard import executor

    def fn(original, name, layer, **kw):
        ledger.patch_function(original, ledger.wrap(original, name, layer,
                                                    **kw))

    def method(cls, attr, name, layer, **kw):
        ledger.patch_method(cls, attr,
                            lambda orig: ledger.wrap(orig, name, layer, **kw))

    # sat: the public entry points the workloads call.
    fn(api.sat, "sat", "sat", op=True, after=_dispatch_sample)
    fn(api.sat_batch, "sat_batch", "sat")
    # exec: config resolution and the three backends.
    fn(config.resolve_execution, "resolve_execution", "exec")
    for cls in (backends.GpusimBackend, backends.HostBackend,
                backends.CompiledBackend):
        method(cls, "run", f"backend.{cls.name}", "exec", group="backend",
               work=lambda a, k, r: a[2].size)
    # plan
    method(Planner, "decide", "Planner.decide", "plan")
    # engine
    method(Engine, "run_batch", "Engine.run_batch", "engine",
           work=lambda a, k, r: len(r.runs), after=_unplanned_sample)
    method(BatchScheduler, "chunk", "BatchScheduler.chunk", "engine",
           after=_chunk_sample)
    for attr in ("note_hit", "note_miss"):
        ledger.patch_method(
            LaunchPlanCache, attr,
            lambda orig, attr=attr: ledger.wrap_counter(
                orig, f"cache.{attr}",
                lambda a, k: k.get("n", a[1] if len(a) > 1 else 1)))
    # compile
    method(lower.CompiledPlan, "run", "CompiledPlan.run", "compile",
           work=lambda a, k, r: a[1].size)
    fn(lower.compile_plan, "compile_plan", "compile")
    # gpusim
    fn(launch.launch_kernel, "launch_kernel", "gpusim",
       work=lambda a, k, r: _grid_pixels(k))
    fn(launch.replay_kernel, "replay_kernel", "gpusim",
       work=lambda a, k, r: _grid_pixels(k))
    # shard
    method(executor.TiledSharder, "wants", "TiledSharder.wants", "shard")
    fn(executor.sharded_sat, "sharded_sat", "shard", after=_shard_sample)
    # serve
    method(SatService, "submit", "SatService.submit", "serve")
    method(WorkerPool, "_execute", "WorkerPool.execute", "serve")
    method(DynamicBatcher, "take", "DynamicBatcher.take", "idle")


def _grid_pixels(kwargs) -> float:
    args = kwargs.get("args") or ()
    return float(args[0].data.size) if args else 0.0


def _dispatch_sample(book, args, kwargs, result, wall_ns) -> None:
    if not book.stack:
        book.samples["sat.dispatch_ns"].append(
            wall_ns - book.outer_ns.get("backend", 0))


def _unplanned_sample(book, args, kwargs, result, wall_ns) -> None:
    # Host-backend batches run through Engine._run_fallback, which books
    # every image as a plan miss; count them as unplanned instead.
    if result.runs and result.runs[0].backend == "host":
        book.work["engine.unplanned"] += len(result.runs)


def _chunk_sample(book, args, kwargs, result, wall_ns) -> None:
    book.samples["engine.chunk_depth"].extend(len(c) for c in result)


def _shard_sample(book, args, kwargs, result, wall_ns) -> None:
    rep = result.report
    book.samples["shard.run_ns"].append(wall_ns)
    book.samples["shard.tiles"].append(rep["n_tiles"])
    book.samples["shard.carry_overhead_frac"].append(
        rep["carry_overhead_frac"])
    book.samples["shard.retries"].append(rep["retries"])
