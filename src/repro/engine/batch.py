"""The batched SAT execution engine (``sat_batch``).

Serving workloads compute SATs over *streams* of images, not single
frames; re-paying the simulator's per-launch fixed costs on every
``sat()`` call is the batch-regime analogue of the per-launch overheads
the paper amortises on hardware.  The engine removes both:

* **Plan cache** (:class:`~repro.engine.plan.LaunchPlanCache`): padded
  geometry, grid/block dims, shared-memory layout, counters, timings and
  staging buffers are recorded once per ``(shape-bucket, pair, algorithm,
  device, opts)`` and reused for every further image in the bucket.
* **Batch stacking**: same-bucket images run as ONE stacked launch per
  pass, the pass's grid-parallel axis scaled by the batch depth.  Blocks
  along that axis are fully independent in all three paper kernels
  (carries run along the other axis), so the per-image results are
  bit-identical to solo runs while the per-launch host overhead is paid
  once per chunk.  Warm chunks execute the plan's lowered program
  (:mod:`repro.compile`) on a ``(depth, H, W)`` stack, whichever of
  ``gpusim`` and ``compiled`` was requested; bounds-checked chunks, and a
  chunk whose program raised, replay the interpreted kernels over images
  concatenated along that axis
  (:func:`~repro.gpusim.launch.replay_kernel`).

Per-image stats are clones of the recorded cold launch — bit-identical to
what looped ``sat()`` calls would report.  The *aggregate* modeled time is
different (and the point): a stacked launch of depth ``B`` is modeled with
the cold counters scaled by ``B`` over ``B``-fold blocks, which amortises
the fixed launch overhead and partial-wave latency across the batch.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import TypePair
from ..obs.metrics import count, observe
from ..obs.trace import annotate_launch, current_tracer
from ..exec.config import ExecutionConfig, requested_backend, resolve_execution
from ..exec.registry import (
    BatchSpec,
    get_kernel_spec,
    has_kernel_spec,
    kernel_spec_names,
)
from ..gpusim.cost.model import kernel_time
from ..gpusim.device import get_device
from ..gpusim.global_mem import GlobalArray
from ..gpusim.launch import replay_kernel
from ..sat.common import SatRun
from ..sat.naive import exclusive_from_inclusive
from .plan import LaunchPlanCache, PlanKey, SatPlan
from .scheduler import BatchScheduler, BucketGroup

__all__ = ["BATCH_SPECS", "BatchRun", "Engine", "default_engine", "sat_batch"]

#: Algorithms with a stacking recipe, derived from the kernel-spec
#: registry (each entry is that spec's ``batch_spec`` builder); everything
#: else (the baselines) falls back to a per-image loop inside
#: :meth:`Engine.run_batch`.
BATCH_SPECS = {
    name: get_kernel_spec(name).batch_spec for name in kernel_spec_names()
}

_AXIS_INDEX = {"x": 0, "y": 1}


@dataclass
class BatchRun:
    """Result of one :func:`sat_batch` call."""

    #: Per-image :class:`~repro.sat.common.SatRun` in input order.  Each
    #: carries the same outputs/counters/timings a solo ``sat()`` call on
    #: that image would have produced.
    runs: List[SatRun]
    algorithm: str
    device: str
    pair: str
    #: Host wall-clock time of the whole batch call, seconds.
    wall_s: float = 0.0
    #: Modeled GPU time of the launches the engine actually submitted
    #: (cold solo launches + depth-scaled stacked launches), seconds.
    modeled_batched_s: float = 0.0
    #: Modeled GPU time had every image run as a solo ``sat()``, seconds.
    modeled_sequential_s: float = 0.0
    #: Plan-cache hits/misses attributable to this call (one per image).
    plan_hits: int = 0
    plan_misses: int = 0
    #: Images that ran without a launch plan (host backend, baselines,
    #: sanitized runs): neither a hit nor a miss.
    unplanned: int = 0
    #: ``(bucket, image count)`` per shape bucket, first-seen order.
    buckets: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)
    #: Sector size the gmem counters were recorded with (for GB/s).
    sector_bytes: int = 32

    @property
    def n_images(self) -> int:
        return len(self.runs)

    @property
    def outputs(self) -> List[np.ndarray]:
        return [r.output for r in self.runs]

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    @property
    def images_per_s(self) -> float:
        """Modeled batch throughput."""
        return self.n_images / self.modeled_batched_s if self.modeled_batched_s else 0.0

    @property
    def wall_images_per_s(self) -> float:
        """Host wall-clock throughput of the simulated batch."""
        return self.n_images / self.wall_s if self.wall_s else 0.0

    @property
    def effective_gbps(self) -> float:
        """Modeled DRAM throughput: sectors moved over the batched time."""
        sectors = sum(
            s.counters.gmem_sectors for r in self.runs for s in r.launches
        )
        if not self.modeled_batched_s:
            return 0.0
        return sectors * float(self.sector_bytes) / self.modeled_batched_s / 1e9

    @property
    def speedup_vs_sequential(self) -> float:
        """Modeled batched vs. looped-``sat()`` speedup."""
        if not self.modeled_batched_s:
            return 0.0
        return self.modeled_sequential_s / self.modeled_batched_s

    def summary(self) -> str:
        return (
            f"{self.n_images} images, {self.algorithm}/{self.pair} on "
            f"{self.device}: {self.images_per_s:,.0f} img/s modeled "
            f"({self.effective_gbps:.1f} GB/s eff), "
            f"{self.speedup_vs_sequential:.2f}x vs sequential, "
            f"plan hit rate {self.plan_hit_rate:.1%}"
        )

    def to_dict(self) -> dict:
        """A stable, JSON-serialisable metric view of this batch run.

        The single formatter behind ``benchmarks/bench_batch.py`` entries,
        the trace exporters and the regression checker — key names are part
        of the ``BENCH_batch.json`` history format and must stay stable.
        Per-image outputs/launches are deliberately excluded.
        """
        return {
            "algorithm": self.algorithm,
            "device": self.device,
            "pair": self.pair,
            "n_images": self.n_images,
            "wall_s": self.wall_s,
            "modeled_batched_s": self.modeled_batched_s,
            "modeled_sequential_s": self.modeled_sequential_s,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "unplanned": self.unplanned,
            "plan_hit_rate": self.plan_hit_rate,
            "images_per_s_modeled": self.images_per_s,
            "wall_images_per_s": self.wall_images_per_s,
            "effective_gbps": self.effective_gbps,
            "speedup_vs_sequential": self.speedup_vs_sequential,
            "buckets": [[list(b), int(n)] for b, n in self.buckets],
            "sector_bytes": self.sector_bytes,
        }

    @classmethod
    def metrics_from_dict(cls, d: Mapping) -> "BatchRun":
        """Rebuild the metric view from :meth:`to_dict` output.

        The result carries no per-image runs (``runs`` is empty), so only
        the explicitly stored fields — not the derived properties that
        need launches, like ``effective_gbps`` — survive the round trip.
        """
        return cls(
            runs=[],
            algorithm=d["algorithm"],
            device=d["device"],
            pair=d["pair"],
            wall_s=float(d.get("wall_s", 0.0)),
            modeled_batched_s=float(d.get("modeled_batched_s", 0.0)),
            modeled_sequential_s=float(d.get("modeled_sequential_s", 0.0)),
            plan_hits=int(d.get("plan_hits", 0)),
            plan_misses=int(d.get("plan_misses", 0)),
            unplanned=int(d.get("unplanned", 0)),
            buckets=[(tuple(b), int(n)) for b, n in d.get("buckets", [])],
            sector_bytes=int(d.get("sector_bytes", 32)),
        )


def _stacked_grid(stats, p, depth: int) -> Tuple[int, int, int]:
    """The recorded grid with pass ``p``'s stacking axis scaled by depth."""
    grid = list(stats.grid)
    grid[_AXIS_INDEX[p.grid_axis]] *= depth
    return tuple(grid)


def _stacked_time_s(stats, depth: int) -> float:
    """Modeled time of a stacked launch: cold counters x depth over
    depth-fold blocks (chain clocks describe one warp and stay fixed)."""
    return kernel_time(
        stats.device,
        stats.counters.scaled(depth),
        n_blocks=depth * int(np.prod(stats.grid)),
        threads_per_block=int(np.prod(stats.block)),
        regs_per_thread=stats.regs_per_thread,
        smem_per_block=stats.smem_per_block,
        mlp=stats.mlp,
        l2_sector_reuse=stats.l2_sector_reuse,
        name=stats.name,
    ).total


class Engine:
    """Batched SAT executor with a launch-plan cache and a scheduler."""

    def __init__(
        self,
        cache: Optional[LaunchPlanCache] = None,
        scheduler: Optional[BatchScheduler] = None,
    ):
        self.cache = cache if cache is not None else LaunchPlanCache()
        self.scheduler = scheduler if scheduler is not None else BatchScheduler()

    # -- public entry ----------------------------------------------------
    def run_batch(
        self,
        images: Union[Sequence[np.ndarray], np.ndarray],
        pair: Optional[str] = None,
        algorithm: Optional[str] = None,
        device: Optional[str] = None,
        exclusive: bool = False,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
        backend: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        autotune: Optional[bool] = None,
        **opts,
    ) -> BatchRun:
        """Run a batch of images through ``algorithm``; see :func:`sat_batch`."""
        from ..sat.api import ALGORITHMS, _resolve_pair

        t0 = time.perf_counter()
        imgs = self._normalize(images)
        tp = _resolve_pair(imgs[0], pair)
        res = resolve_execution(config, sanitize=sanitize,
                                bounds_check=bounds_check, backend=backend,
                                device=device, autotune=autotune)
        if algorithm is None or algorithm == "auto":
            # Imported lazily: repro.plan leans on repro.engine.lru, so a
            # module-level import here would be circular.
            from ..plan.planner import DEFAULT_ALGORITHM, get_planner

            if algorithm == "auto" or res.autotune:

                decision = get_planner().decide(
                    imgs[0].shape, tp.name, res.device,
                    batch_size=len(imgs),
                )
                algorithm = decision.algorithm
                opts = {**decision.opts_dict(), **opts}
                # The planner may recommend the compiled backend for deep
                # batches (warm lowered programs amortise the cold compile).
                # Apply it only when the caller left the backend floating
                # on the simulator — an explicit backend request, in any
                # spelling, always wins.
                if (decision.backend != res.backend
                        and res.backend == "gpusim"
                        and requested_backend(config, backend) is None):
                    res = res.with_fields(backend=decision.backend)
            else:
                algorithm = DEFAULT_ALGORITHM
        try:
            fn = ALGORITHMS[algorithm]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
            ) from None
        dev = get_device(res.device)

        if has_kernel_spec(algorithm):
            # Spec'd algorithms take the fully-resolved mode set, so every
            # cold launch (and the plan key) sees concrete values.
            call_opts = dict(opts, sanitize=res.sanitize,
                             bounds_check=res.bounds_check, backend=res.backend)
        else:
            # Spec-less baselines run their own (CPU) path: an explicitly
            # requested backend is an error, a floating one (env/profile/
            # context preference) is quietly ignored.
            req = requested_backend(config, backend)
            if req not in (None, "gpusim"):
                raise ValueError(
                    f"algorithm {algorithm!r} has no kernel spec and supports "
                    f"only the 'gpusim' backend, not {req!r}"
                )
            call_opts = dict(opts)
            if sanitize is not None:
                call_opts["sanitize"] = sanitize

        # gpusim and compiled batches record one plan per bucket cold and
        # stack the warm images.  Everything else (host, baselines,
        # sanitized runs) loops per image — the sanitizer is the trusted
        # slow mode and never runs over compiled code.
        batchable = res.backend in ("gpusim", "compiled")

        spec_method = BATCH_SPECS.get(algorithm)
        tracer = current_tracer()
        with (tracer.span(f"batch:{algorithm}", category="batch",
                          algorithm=algorithm, device=dev.name, pair=tp.name,
                          n_images=len(imgs), backend=res.backend)
              if tracer is not None else nullcontext()):
            if not batchable or res.sanitize or spec_method is None:
                # Sanitized batches run cold per image so every launch is fully
                # instrumented and sanitizer reports stay per-image accurate;
                # baselines have no stacking recipe and the host backend has
                # no launches to stack.  Either way: a plain loop.
                run = self._run_fallback(fn, imgs, tp, dev, algorithm, call_opts)
            else:
                run = self._run_batched(
                    fn, imgs, tp, dev, algorithm, spec_method, opts, call_opts, res
                )
            # Booked inside the batch span, which receives them as attrs.
            count("engine.batches", algorithm=algorithm)
            count("engine.images", run.n_images, algorithm=algorithm)
            count("engine.plan_hits", run.plan_hits)
            count("engine.plan_misses", run.plan_misses)
            count("engine.unplanned", run.unplanned)
            observe("engine.modeled_batched_s", run.modeled_batched_s,
                    algorithm=algorithm)
            # µs-scaled live quantile source for /metrics ("per-kernel
            # modeled time").
            observe("engine.modeled_kernel_us", run.modeled_batched_s * 1e6,
                    algorithm=algorithm)

        if exclusive:
            for r in run.runs:
                r.output = exclusive_from_inclusive(r.output)
        run.wall_s = time.perf_counter() - t0
        return run

    def run_group(
        self,
        images: Union[Sequence[np.ndarray], np.ndarray],
        pair: Optional[str] = None,
        algorithm: str = "brlt_scanrow",
        **kwargs,
    ) -> BatchRun:
        """Run a *pre-coalesced* group: every image must share one bucket.

        The entry point for callers that have already done the grouping —
        the serving layer's dynamic batcher coalesces compatible requests
        (same algorithm, dtype pair, shape bucket and resolved execution
        config) before submission, so the engine only has to validate the
        invariant, chunk against the stack-size knee, and execute.  A
        mixed-bucket group raises ``ValueError`` instead of silently
        splitting: an upstream batcher that produces one is broken.

        Accepts exactly the :meth:`run_batch` keywords and returns the
        same :class:`BatchRun` (single entry in ``buckets``).
        """
        from ..sat.api import _resolve_pair

        imgs = self._normalize(images)
        if has_kernel_spec(algorithm):
            tp = _resolve_pair(imgs[0], pair)
            pad = get_kernel_spec(algorithm).pad
            buckets = {self.scheduler.bucket_of(im.shape, pad)
                       for im in imgs}
            if len(buckets) > 1:
                raise ValueError(
                    f"run_group requires one shape bucket, got "
                    f"{sorted(buckets)} (pad multiples {pad}); use "
                    f"run_batch for mixed groups"
                )
            if any(im.dtype != tp.input.np_dtype for im in imgs):
                raise ValueError(
                    f"run_group images must already be {tp.input.np_dtype} "
                    f"(pair {tp.name}); coalescing keys include the dtype"
                )
        return self.run_batch(imgs, pair=pair, algorithm=algorithm, **kwargs)

    # -- internals -------------------------------------------------------
    @staticmethod
    def _normalize(images) -> List[np.ndarray]:
        if isinstance(images, np.ndarray):
            if images.ndim != 3:
                raise ValueError(
                    f"array batches must be 3-D (batch, H, W), got shape "
                    f"{images.shape}"
                )
            images = [images[i] for i in range(images.shape[0])]
        imgs = list(images)
        if not imgs:
            raise ValueError("sat_batch requires at least one image")
        for i, im in enumerate(imgs):
            if not isinstance(im, np.ndarray) or im.ndim != 2:
                raise ValueError(f"batch image {i} must be a 2-D array")
            if im.shape[0] == 0 or im.shape[1] == 0:
                raise ValueError(
                    f"batch image {i} must have at least one row and one "
                    f"column, got shape {im.shape}"
                )
            if im.dtype != imgs[0].dtype:
                raise ValueError(
                    f"batch images must share one dtype; image {i} is "
                    f"{im.dtype}, image 0 is {imgs[0].dtype}"
                )
        return imgs

    def _run_fallback(self, fn, imgs, tp, dev, algorithm, opts):
        runs = []
        for im in imgs:
            runs.append(fn(im, pair=tp, device=dev, **opts))
        # Unmodeled backends (host) report no time; count them as zero.
        seq = sum((r.time_s or 0.0) for r in runs)
        return BatchRun(
            runs=runs,
            algorithm=algorithm,
            device=dev.name,
            pair=tp.name,
            modeled_batched_s=seq,
            modeled_sequential_s=seq,
            unplanned=len(imgs),
            buckets=[(im.shape, 1) for im in imgs],
            sector_bytes=dev.gmem_sector_bytes,
        )

    def _run_batched(self, fn, imgs, tp, dev, algorithm, spec_fn, opts,
                     call_opts, res: ExecutionConfig) -> BatchRun:
        spec: BatchSpec = spec_fn(tp, dev, **opts)
        groups = self.scheduler.groups([im.shape for im in imgs], spec.pad)
        runs: List[Optional[SatRun]] = [None] * len(imgs)
        hits = misses = 0
        modeled_batched = 0.0

        # Key plans on the *resolved* modes, so equivalent spellings (env
        # var vs. config object vs. kwarg) share plans, while
        # bounds-checked variants stay distinct.  Both simulator backends
        # record and lower the same program, so they share one plan.
        key_opts = dict(opts, bounds_check=res.bounds_check)
        if res.backend == "compiled":
            # The cold run must be the fully-accounted simulator run that
            # records the plan this engine compiles; routing it through the
            # compiled backend would record into the default engine's cache
            # instead of this one's.
            call_opts = dict(call_opts, backend="gpusim")

        tracer = current_tracer()
        for grp in groups:
            key = PlanKey.make(algorithm, dev.name, tp.name, grp.bucket,
                               key_opts)
            plan = self.cache.get_or_create(key, spec)
            pending = list(grp.indices)
            # One thread per plan: the cold recording run, lowering and the
            # chunk replays all mutate plan state (launch plans, staging
            # buffers, the compiled program).  Workers on *different*
            # buckets proceed in parallel; a second worker racing into the
            # same cold bucket blocks here, then sees ``plan.recorded``
            # and replays instead of double-running the cold compile.
            with plan.lock:
                hits, misses, modeled_batched = self._run_group_locked(
                    fn, imgs, tp, dev, algorithm, spec, opts, call_opts,
                    res, grp, plan, pending, tracer,
                    hits, misses, modeled_batched, runs,
                )

        return BatchRun(
            runs=runs,  # type: ignore[arg-type]
            algorithm=algorithm,
            device=dev.name,
            pair=tp.name,
            modeled_batched_s=modeled_batched,
            modeled_sequential_s=sum(r.time_s for r in runs),
            plan_hits=hits,
            plan_misses=misses,
            buckets=[(g.bucket, len(g.indices)) for g in groups],
            sector_bytes=dev.gmem_sector_bytes,
        )

    def _run_group_locked(self, fn, imgs, tp, dev, algorithm, spec, opts,
                          call_opts, res, grp, plan, pending, tracer,
                          hits, misses, modeled_batched, runs):
        """Cold-record + run the warm chunks of one bucket group (caller
        holds plan.lock)."""
        if not plan.recorded:
            # One cold, fully-accounted run records the bucket's plan.
            if tracer is not None:
                tracer.event("plan.miss", category="batch",
                             bucket=grp.bucket, algorithm=algorithm)
            i0 = pending.pop(0)
            run0 = fn(imgs[i0], pair=tp, device=dev, **call_opts)
            for lp, s in zip(plan.launch_plans, run0.launches):
                lp.record(replace(s, counters=s.counters.copy()))
            run0.backend = res.backend
            runs[i0] = run0
            misses += 1
            self.cache.note_miss()
            modeled_batched += run0.time_s
        if not res.bounds_check:
            # Lower the recorded plan once per bucket; failure leaves the
            # bucket on the interpreted replay path, which is also the one
            # that keeps every access bounds-checked.
            from ..exec.backends import ensure_compiled

            ensure_compiled(plan, get_kernel_spec(algorithm), tp, opts)
        if pending:
            if tracer is not None:
                tracer.event("plan.hit", category="batch",
                             bucket=grp.bucket, n_images=len(pending),
                             algorithm=algorithm)
            hits += len(pending)
            self.cache.note_hit(len(pending))
            per_img = self.scheduler.stack_bytes(
                grp.bucket, tp.input.np_dtype, tp.output.np_dtype
            )
            chunks = self.scheduler.chunk(
                BucketGroup(grp.bucket, pending), per_img
            )
            for chunk in chunks:
                if plan.compiled is not None:
                    modeled_batched += self._compiled_chunk(
                        plan, spec, tp, dev, algorithm, imgs, chunk,
                        runs, res,
                    )
                else:
                    modeled_batched += self._replay_chunk(
                        plan, spec, tp, dev, algorithm, imgs, chunk,
                        runs, res,
                    )
        return hits, misses, modeled_batched

    def _replay_chunk(
        self,
        plan: SatPlan,
        spec: BatchSpec,
        tp: TypePair,
        dev,
        algorithm: str,
        imgs: List[np.ndarray],
        chunk: List[int],
        runs: List[Optional[SatRun]],
        res: ExecutionConfig,
    ) -> float:
        """Run one stacked replay over ``chunk``; returns its modeled time."""
        depth = len(chunk)
        hp, wp = plan.key.bucket
        first = spec.passes[0]
        tracer = current_tracer()
        chunk_scope = (
            tracer.span(f"chunk:{algorithm}", category="chunk",
                        algorithm=algorithm, depth=depth, bucket=(hp, wp))
            if tracer is not None else nullcontext()
        )
        with chunk_scope as chunk_sp:
            t_stacked = self._replay_chunk_inner(
                plan, spec, tp, dev, algorithm, imgs, chunk, runs, res,
                depth, hp, wp, first,
            )
        if chunk_sp is not None:
            chunk_sp.attrs["modeled_us"] = t_stacked * 1e6
        return t_stacked

    def _replay_chunk_inner(
        self, plan, spec, tp, dev, algorithm, imgs, chunk, runs, res,
        depth, hp, wp, first,
    ) -> float:
        # Stage the padded inputs into the plan's reusable buffer.  Pad
        # regions are re-zeroed on every fill so replays see exactly what
        # pad_matrix would have produced for each image.
        if first.stack_in == "rows":
            stag = plan.get_staging("input", (depth * hp, wp), tp.input.np_dtype)
            for j, i in enumerate(chunk):
                im = imgs[i]
                h, w = im.shape
                blk = stag[j * hp:(j + 1) * hp]
                blk[:h, :w] = im
                if h < hp:
                    blk[h:, :] = 0
                if w < wp:
                    blk[:h, w:] = 0
        else:
            stag = plan.get_staging("input", (hp, depth * wp), tp.input.np_dtype)
            for j, i in enumerate(chunk):
                im = imgs[i]
                h, w = im.shape
                blk = stag[:, j * wp:(j + 1) * wp]
                blk[:h, :w] = im
                if h < hp:
                    blk[h:, :] = 0
                if w < wp:
                    blk[:h, w:] = 0

        cur = GlobalArray(stag, "batch_input")
        cur_stack = first.stack_in
        per_shape = (hp, wp)
        t_stacked = 0.0

        for pi, p in enumerate(spec.passes):
            if cur_stack != p.stack_in:
                # Restack: slice per image along the stacked axis, re-join
                # along the axis the next pass parallelises over.
                arr = cur.to_host()
                if p.stack_in == "rows":
                    arr = np.concatenate(
                        [arr[:, j * per_shape[1]:(j + 1) * per_shape[1]]
                         for j in range(depth)],
                        axis=0,
                    )
                else:
                    arr = np.concatenate(
                        [arr[j * per_shape[0]:(j + 1) * per_shape[0], :]
                         for j in range(depth)],
                        axis=1,
                    )
                cur = GlobalArray(arr, "batch_restack")
                cur_stack = p.stack_in

            out_shape = (per_shape[1], per_shape[0]) if p.transposed else per_shape
            if p.stack_out == "rows":
                dst_shape = (depth * out_shape[0], out_shape[1])
            else:
                dst_shape = (out_shape[0], depth * out_shape[1])
            # Kernels write every element of the padded stack, so the
            # reused buffer needs no clearing between chunks.
            dst = GlobalArray(
                plan.get_staging(f"pass{pi}", dst_shape, tp.output.np_dtype),
                f"batch_{p.name}",
            )

            lp = plan.launch_plans[pi]
            replay_kernel(
                p.kernel, plan=lp, grid=_stacked_grid(lp.stats, p, depth),
                args=(cur, dst) + tuple(p.extra_args),
                bounds_check=res.bounds_check,
            )
            t_stacked += _stacked_time_s(lp.stats, depth)

            cur = dst
            cur_stack = p.stack_out
            per_shape = out_shape

        final = cur.to_host()
        for j, i in enumerate(chunk):
            if cur_stack == "cols":
                view = final[:, j * per_shape[1]:(j + 1) * per_shape[1]]
            else:
                view = final[j * per_shape[0]:(j + 1) * per_shape[0], :]
            h, w = imgs[i].shape
            runs[i] = SatRun(
                output=view[:h, :w].copy(),
                launches=[lp.clone_stats() for lp in plan.launch_plans],
                algorithm=algorithm,
                device=dev.name,
                pair=tp.name,
            )
        return t_stacked

    def _compiled_chunk(
        self,
        plan: SatPlan,
        spec: BatchSpec,
        tp: TypePair,
        dev,
        algorithm: str,
        imgs: List[np.ndarray],
        chunk: List[int],
        runs: List[Optional[SatRun]],
        res: ExecutionConfig,
    ) -> float:
        """Run one chunk through the plan's compiled program.

        The ``(depth, hp, wp)`` stack *is* the stacked launch — every
        lowered pass vectorises over the leading batch axis exactly as the
        interpreted replay scales its grid axis, with no restacking
        between passes.  Outputs, per-image counters and the modeled
        stacked time are bit-identical to :meth:`_replay_chunk`, and each
        pass still leaves a ``replay`` span at its stacked grid for the
        modeled timeline.  An execute-time failure drops the program
        (``compile.fallback``) and reruns the chunk interpreted.
        """
        depth = len(chunk)
        hp, wp = plan.key.bucket
        # Stage straight into the accumulator dtype: the per-element cast
        # input->acc is exactly the kernels' load-time astype, and the pad
        # zeros are cast-invariant.  Images are first brought to the input
        # dtype so a foreign-dtype image quantises identically to the
        # interpreted staging path.
        x3 = plan.get_staging("compiled_input", (depth, hp, wp),
                              tp.output.np_dtype)
        for j, i in enumerate(chunk):
            im = imgs[i].astype(tp.input.np_dtype, copy=False)
            h, w = im.shape
            blk = x3[j]
            blk[:h, :w] = im
            if h < hp:
                blk[h:, :] = 0
            if w < wp:
                blk[:h, w:] = 0

        tracer = current_tracer()
        try:
            with (tracer.span(f"chunk:{algorithm}", category="chunk",
                              algorithm=algorithm, depth=depth,
                              bucket=(hp, wp), backend=res.backend)
                  if tracer is not None else nullcontext()) as sp:
                out3 = plan.compiled.run(x3)
                if sp is not None:
                    for p, lp in zip(spec.passes, plan.launch_plans):
                        with tracer.span(lp.stats.name,
                                         category="replay") as psp:
                            annotate_launch(psp, lp.stats,
                                            bounds_check=res.bounds_check)
                            psp.attrs["grid"] = _stacked_grid(lp.stats, p,
                                                              depth)
        except Exception as e:
            from ..exec.backends import book_compile_fallback

            plan.compiled = None
            book_compile_fallback(algorithm, e)
            return self._replay_chunk(
                plan, spec, tp, dev, algorithm, imgs, chunk, runs, res
            )

        t_stacked = sum(
            _stacked_time_s(lp.stats, depth) for lp in plan.launch_plans
        )
        if sp is not None:
            sp.attrs["modeled_us"] = t_stacked * 1e6
        count("compile.hit", depth, algorithm=algorithm)
        for j, i in enumerate(chunk):
            h, w = imgs[i].shape
            runs[i] = SatRun(
                output=out3[j, :h, :w].copy(),
                launches=[lp.clone_stats() for lp in plan.launch_plans],
                algorithm=algorithm,
                device=dev.name,
                pair=tp.name,
                backend=res.backend,
            )
        return t_stacked


_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide engine behind :func:`sat_batch` (lazily created)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def sat_batch(
    images: Union[Sequence[np.ndarray], np.ndarray],
    pair: Optional[str] = None,
    algorithm: Optional[str] = None,
    device: Optional[str] = None,
    exclusive: bool = False,
    engine: Optional[Engine] = None,
    **opts,
) -> BatchRun:
    """Compute SATs for a batch of images through the execution engine.

    Parameters
    ----------
    images:
        A list of 2-D arrays (any mix of shapes) or one 3-D stack
        ``(batch, H, W)``.  All images must share a dtype.
    pair, algorithm, device, exclusive, **opts:
        Exactly as :func:`repro.sat.api.sat`; ``opts`` may include the
        execution knobs (``sanitize=``, ``bounds_check=``,
        ``backend=``, ``config=``, ``autotune=``).  ``algorithm="auto"``
        (or leaving it unset with autotuning enabled) asks the
        :class:`~repro.plan.Planner` for the batch-aware choice — at
        batch depth >= 4 that includes upgrading a floating ``gpusim``
        backend to ``compiled``.  Warm images of a ``gpusim`` or
        ``compiled`` batch run the plan's lowered program;
        ``bounds_check=True`` keeps them on interpreted plan replays.
        ``sanitize=True`` runs the batch
        fully instrumented (per-image cold launches, no plan replay);
        ``backend="host"`` computes every image on the pure-NumPy
        executor (no launches, no modeled time).
    engine:
        Engine to run on; defaults to the process-wide
        :func:`default_engine` whose plan cache persists across calls.

    Returns
    -------
    BatchRun
        Per-image :class:`~repro.sat.common.SatRun` results (bit-identical
        outputs, counters and timings to looped ``sat()`` calls) plus
        aggregate modeled throughput and plan-cache statistics.
    """
    eng = engine if engine is not None else default_engine()
    return eng.run_batch(
        images, pair=pair, algorithm=algorithm, device=device,
        exclusive=exclusive, **opts,
    )
