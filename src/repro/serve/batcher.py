"""Dynamic request batcher: deadline + size-knee coalescing.

The batcher is the piece that turns chaotic concurrent traffic into the
warm, same-shaped batches the engine's plan cache and lowered programs
make nearly free.  Requests are grouped by their **compatibility key** — every
dimension the batched launch geometry depends on:

* algorithm and dtype pair,
* shape *bucket* (the padded shape, :meth:`BatchScheduler.bucket_of` at
  the algorithm's pad multiples — two raw shapes that pad identically
  share every counter, so they share a launch),
* the fully **resolved** :class:`~repro.exec.ExecutionConfig`
  (:meth:`~repro.exec.ExecutionConfig.compat_key`): sanitize/
  bounds-check/backend/device, resolved on the *submitting* thread so
  ambient ``execution()`` contexts and env profiles are honoured,
* canonicalised algorithm options (``scan=``, ``brlt_stride=``...).

Admission policy, per group (oldest request first):

* **size knee** — the group is admitted the moment its stacked staging
  footprint would reach the engine's chunk bound
  (:class:`~repro.engine.scheduler.BatchScheduler`'s 12 MB knee): any
  deeper and the engine would split the launch anyway, so waiting buys
  nothing;
* **deadline** — otherwise it is admitted ``max_delay_s`` after its
  *oldest* request arrived, bounding per-request queueing delay and
  making starvation impossible;
* **flush** — shutdown/drain admits everything immediately.

The clock is injectable so the policy is testable deterministically
(:mod:`tests.serve.test_batcher_policy` drives it with a fake clock and
Hypothesis-generated arrival sequences).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..engine.scheduler import BatchScheduler
from ..exec.config import ExecutionConfig
from ..exec.registry import get_kernel_spec, has_kernel_spec
from ..obs.context import TraceContext, recording_timeline
from ..obs.metrics import count, get_metrics, observe
from ..obs.trace import Span, Tracer
from .request import ServeRequest

__all__ = ["CompatKey", "Batch", "DynamicBatcher"]


@dataclass(frozen=True)
class CompatKey:
    """Everything two requests must share to ride one stacked launch."""

    algorithm: str
    pair: str
    bucket: Tuple[int, int]
    #: ``ExecutionConfig.compat_key()`` of the resolved config.
    exec_key: Tuple[Tuple[str, object], ...]
    #: Canonicalised algorithm options.
    opts: Tuple[Tuple[str, object], ...] = ()

    @property
    def config(self) -> ExecutionConfig:
        """The resolved execution config this key was built from."""
        return ExecutionConfig(**dict(self.exec_key))


@dataclass
class _Pending:
    """One queued request plus its completion plumbing."""

    request: ServeRequest
    future: Future
    #: Submitting clock (batcher clock) time, for deadline accounting.
    arrival: float
    #: ``time.perf_counter()`` at submit *entry* (before key resolution),
    #: the timeline's origin and the latency measurement's start.
    t_submit: float
    #: ``time.perf_counter()`` when the request entered its group queue.
    t_queued: float = 0.0
    #: The request's open span (tracing enabled) — closed at completion.
    span: Optional[Span] = None
    #: Lineage under the request span, for the worker to link/nest under.
    ctx: Optional[TraceContext] = None
    #: The tracer the span lives in (completion runs on a worker thread).
    tracer: Optional[Tracer] = None
    #: Submit-side timeline annotations (plan.decide runs on the
    #: submitting thread); merged with the worker's at completion.
    annotations: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Group:
    """The pending requests of one compatibility key."""

    key: CompatKey
    #: Admission depth: the stacked-bytes knee in images (>= 1).
    depth_cap: int
    entries: List[_Pending] = field(default_factory=list)

    def deadline(self, max_delay_s: float) -> float:
        return self.entries[0].arrival + max_delay_s

    @property
    def size_ready(self) -> bool:
        return len(self.entries) >= self.depth_cap


@dataclass
class Batch:
    """One admitted batch, ready for a worker."""

    key: CompatKey
    entries: List[_Pending]
    #: Why it was admitted: ``"size"``, ``"deadline"`` or ``"flush"``.
    reason: str
    #: Batcher-clock admission time.
    admitted: float
    #: ``time.perf_counter()`` at admission (timelines use the perf
    #: clock throughout; ``admitted`` may come from an injected clock).
    t_admitted: float = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def images(self) -> List[np.ndarray]:
        return [p.request.image for p in self.entries]


class DynamicBatcher:
    """Coalesces compatible requests under a deadline + size-knee policy."""

    def __init__(
        self,
        max_delay_s: float = 0.01,
        max_stack_bytes: Optional[int] = None,
        max_batch: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        #: Deadline bound: a request waits at most this long in the queue
        #: before its group is admitted (plus worker pickup latency).
        self.max_delay_s = float(max_delay_s)
        #: Stacked-footprint knee; defaults to the engine scheduler's
        #: 12 MB chunk bound — the depth past which the engine would
        #: split the launch anyway.
        self.max_stack_bytes = int(
            max_stack_bytes if max_stack_bytes is not None
            else BatchScheduler().max_stack_bytes
        )
        #: Optional hard cap on batch depth (testing / tail-latency knob).
        self.max_batch = max_batch
        self._clock = clock
        self._cond = threading.Condition()
        self._groups: "OrderedDict[CompatKey, _Group]" = OrderedDict()
        self._ready: Deque[Batch] = deque()
        self._closed = False
        self._pending = 0
        self.submitted = 0
        self.admitted_batches = 0

    # -- keying ----------------------------------------------------------
    @staticmethod
    def depth_cap_for(key: CompatKey, max_stack_bytes: int,
                      max_batch: Optional[int] = None) -> int:
        """Admission depth of ``key``: the stacked-bytes knee in images."""
        from ..dtypes import parse_pair

        tp = parse_pair(key.pair)
        per = BatchScheduler.stack_bytes(
            key.bucket, tp.input.np_dtype, tp.output.np_dtype
        )
        cap = max(1, max_stack_bytes // max(1, per))
        if max_batch is not None:
            cap = min(cap, int(max_batch))
        return cap

    @staticmethod
    def compat_key_of(request: ServeRequest,
                      resolved: ExecutionConfig) -> CompatKey:
        """The compatibility key of ``request`` under ``resolved`` modes.

        ``resolved`` must be fully resolved (the service resolves on the
        submitting thread).  Spec-less baseline algorithms bucket at their
        raw shape — they never stack, so each shape is its own "batch of
        solo runs".

        ``algorithm="auto"`` (or ``None`` under ``resolved.autotune``) is
        folded here: the :class:`~repro.plan.Planner` decision replaces
        the placeholder *before* keying, so autotuned requests coalesce
        with explicit requests for the same concrete configuration and
        workers only ever see concrete algorithms.
        """
        from ..sat.api import ALGORITHMS, _resolve_pair

        algorithm = request.algorithm
        opts = dict(request.opts)
        auto = algorithm is None or algorithm == "auto"
        if auto and not (algorithm == "auto" or resolved.autotune):
            from ..plan.planner import DEFAULT_ALGORITHM

            algorithm, auto = DEFAULT_ALGORITHM, False
        if not auto and algorithm not in ALGORITHMS:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; available: "
                f"{sorted(ALGORITHMS)}"
            )
        img = request.image
        if not isinstance(img, np.ndarray) or img.ndim != 2:
            raise ValueError("request image must be a 2-D numpy array")
        if img.shape[0] == 0 or img.shape[1] == 0:
            raise ValueError(
                f"request image must have at least one row and one column, "
                f"got shape {img.shape}"
            )
        tp = _resolve_pair(img, request.pair)
        if img.dtype != tp.input.np_dtype:
            raise ValueError(
                f"request image dtype {img.dtype} does not match pair "
                f"{tp.name} (input {tp.input.np_dtype}); cast at the client "
                f"so coalescing keys stay exact"
            )
        if auto:
            from ..plan import get_planner

            decision = get_planner().decide(img.shape, tp.name,
                                            resolved.device, batch_size=1)
            algorithm = decision.algorithm
            opts = {**decision.opts_dict(), **opts}
        if has_kernel_spec(algorithm):
            pad = get_kernel_spec(algorithm).pad
            bucket = BatchScheduler.bucket_of(img.shape, pad)
        else:
            bucket = (int(img.shape[0]), int(img.shape[1]))
        return CompatKey(
            algorithm=algorithm,
            pair=tp.name,
            bucket=bucket,
            exec_key=resolved.compat_key(),
            opts=tuple(sorted(opts.items())),
        )

    # -- submission ------------------------------------------------------
    def submit(self, request: ServeRequest, resolved: ExecutionConfig,
               tracer: Optional[Tracer] = None) -> Future:
        """Queue ``request`` under its compatibility key; returns a Future.

        Raises :class:`ValueError`/``KeyError`` synchronously for invalid
        requests (bad image, unknown algorithm, dtype/pair mismatch) and
        ``RuntimeError`` after :meth:`close` — a closed batcher accepts
        nothing.

        With a ``tracer``, a ``serve.request`` span is opened *here*, on
        the submitting thread — under the submitter's current span if it
        has one, else as the root of a fresh trace — and travels with the
        pending entry so the worker can nest execution under it and the
        completion path can close it.  The timeline's origin
        (``t_submit``) is taken before key resolution, so the submit
        stage includes config/plan.decide cost.
        """
        t_submit = time.perf_counter()
        sub_ann: Dict[str, float] = {}
        with recording_timeline(sub_ann):
            key = self.compat_key_of(request, resolved)
        fut: Future = Future()
        pend = _Pending(
            request=request, future=fut,
            arrival=self._clock(), t_submit=t_submit,
            annotations=sub_ann,
        )
        if tracer is not None:
            ctx = request.trace_ctx
            if ctx is None:
                ctx = TraceContext.capture(tracer)
            span = tracer.start_span(
                "serve.request", category="serve.request", ctx=ctx,
                request_id=request.request_id, kind=request.kind,
                algorithm=key.algorithm, pair=key.pair,
                bucket=key.bucket,
            )
            pend.span = span
            pend.ctx = ctx.child(span.id)
            pend.tracer = tracer
        pend.t_queued = time.perf_counter()
        with self._cond:
            if self._closed:
                if pend.span is not None:
                    pend.span.attrs["error"] = "closed"
                    tracer.end_span(pend.span)
                raise RuntimeError("batcher is closed")
            grp = self._groups.get(key)
            if grp is None:
                grp = _Group(
                    key=key,
                    depth_cap=self.depth_cap_for(
                        key, self.max_stack_bytes, self.max_batch
                    ),
                )
                self._groups[key] = grp
            grp.entries.append(pend)
            self._pending += 1
            self.submitted += 1
            if grp.size_ready:
                self._admit(key, grp, "size", pend.arrival)
            self._cond.notify_all()
        count("serve.requests", kind=request.kind, algorithm=key.algorithm)
        get_metrics().gauge("serve.queue_depth").set(self.queue_depth)
        return fut

    # -- admission (callers hold self._cond) -----------------------------
    def _admit(self, key: CompatKey, grp: _Group, reason: str,
               now: float) -> None:
        del self._groups[key]
        batch = Batch(key=key, entries=grp.entries, reason=reason,
                      admitted=now, t_admitted=time.perf_counter())
        self._ready.append(batch)
        self._pending -= len(grp.entries)
        self.admitted_batches += 1
        count("serve.batches", reason=reason)
        observe("serve.batch_size", len(grp.entries))
        observe("serve.batch_wait_us",
                max(0.0, now - grp.entries[0].arrival) * 1e6)

    def _promote_due(self, now: float) -> None:
        due = [
            (k, g) for k, g in self._groups.items()
            if g.size_ready or now >= g.deadline(self.max_delay_s)
        ]
        for k, g in due:
            self._admit(k, g, "size" if g.size_ready else "deadline", now)

    def _next_deadline(self) -> Optional[float]:
        if not self._groups:
            return None
        return min(g.deadline(self.max_delay_s)
                   for g in self._groups.values())

    # -- consumption -----------------------------------------------------
    def take(self, timeout: Optional[float] = None) -> Optional[Batch]:
        """Block until a batch is admitted; the worker-pool entry point.

        Returns ``None`` when the batcher is closed and fully drained, or
        when ``timeout`` (seconds) elapses with nothing admitted.
        """
        t_end = (time.monotonic() + timeout) if timeout is not None else None
        with self._cond:
            while True:
                # One clock sample per iteration: promotion and the wait
                # computation must see the same ``now``, otherwise an
                # injected/non-monotonic clock stepping between the two
                # reads can yield a zero wait for a group that promotion
                # just declined — a busy spin.  With a single sample,
                # every deadline <= now was already admitted, so the
                # remaining minimum deadline is strictly in the future
                # and the wait is strictly positive (clamped >= 0 for
                # float-arithmetic safety).
                now = self._clock()
                self._promote_due(now)
                if self._ready:
                    batch = self._ready.popleft()
                    get_metrics().gauge("serve.queue_depth").set(
                        self._pending + sum(len(b) for b in self._ready)
                    )
                    return batch
                if self._closed and not self._groups:
                    return None
                waits = []
                nxt = self._next_deadline()
                if nxt is not None:
                    waits.append(max(0.0, nxt - now))
                if t_end is not None:
                    remaining = t_end - time.monotonic()
                    if remaining <= 0:
                        return None
                    waits.append(remaining)
                self._cond.wait(min(waits) if waits else None)

    def poll(self, now: Optional[float] = None) -> List[Batch]:
        """Non-blocking admission sweep at time ``now`` (tests, drains).

        Promotes every group that is size-ready or past its deadline at
        ``now`` (default: the batcher clock) and returns all ready
        batches, admission order.
        """
        with self._cond:
            self._promote_due(self._clock() if now is None else now)
            out = list(self._ready)
            self._ready.clear()
            get_metrics().gauge("serve.queue_depth").set(self._pending)
            return out

    def flush(self) -> None:
        """Admit every pending group immediately (reason ``"flush"``)."""
        with self._cond:
            now = self._clock()
            for k, g in list(self._groups.items()):
                self._admit(k, g, "flush", now)
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests and flush what is queued.

        Workers drain the remaining ready batches; subsequent
        :meth:`take` calls return ``None`` once everything is consumed.
        """
        with self._cond:
            self._closed = True
            now = self._clock()
            for k, g in list(self._groups.items()):
                self._admit(k, g, "flush", now)
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests queued (pending groups + admitted-but-untaken)."""
        with self._cond:
            return self._pending + sum(len(b) for b in self._ready)

    def pending_keys(self) -> List[CompatKey]:
        with self._cond:
            return list(self._groups.keys())
