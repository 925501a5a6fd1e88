"""Sharded SAT executor: tiles, devices, streams, single-pass carries.

The executor turns one oversized image into a tile grid (via
:class:`~repro.engine.scheduler.TileScheduler`), runs every tile's *local*
SAT on its placed simulated device, and resolves inter-tile carries with
the decoupled-lookback protocol of :mod:`repro.shard.descriptor` —
**one** carry fix-up per tile, never a second full sweep.

Carry decomposition
-------------------
For a tile starting at ``(R0, C0)`` the global table splits into three
regions::

    S[y, x] = local[y-R0, x-C0]          # the tile's own SAT
            + left[y-R0]                 # band rows R0..y, columns < C0
            + top[x-C0]                  # all rows < R0, columns <= x

``left`` is the *row chain*: each tile publishes its right-edge column
``local[:, -1]`` as the chain aggregate; the exclusive lookback prefix is
exactly ``left``.  ``top`` is the *column chain*: each tile publishes its
*adjusted* bottom edge ``local[-1, :] + left[-1]`` — the band sum over
**all** columns up to each local column, which folds the diagonal corner
region into the column chain.  That makes the column aggregate depend on
the row prefix: a genuine two-stage dependency the lookback protocol
resolves tile-by-tile in kernel-completion order, deferring (status
``X``) when a predecessor has not landed yet.

Cost model
----------
Every tile contributes one H2D copy, one kernel op (its local SAT's
modeled time) and one carry op (the fix-up's memory traffic), plus D2D
copies when an immediate predecessor lives on another device.  Ops land
on real :mod:`repro.gpusim.stream` queues: kernels serialise on the SM
engine, copies and carries on the copy/fix-up engine, so the
:class:`~repro.gpusim.stream.DeviceSet` report shows how much carry work
hid behind kernel execution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dtypes import TypePair, parse_pair
from ..engine.scheduler import TilePlan, TileScheduler
from ..exec.registry import get_kernel_spec
from ..gpusim.device import get_device, parse_device_set
from ..gpusim.stream import D2D_ALPHA, D2D_BW, H2D_BW, DeviceSet, SimDevice
from ..obs.metrics import count, observe
from ..obs.trace import resolve_tracer
from ..sat.common import SatRun
from .descriptor import DescriptorChain, LookbackStats
from .query import TiledSat

__all__ = [
    "DEFAULT_THRESHOLD_ELEMS",
    "ShardConfig",
    "ShardRun",
    "ShardSeriesRun",
    "sharded_sat",
    "sharded_sat_series",
    "TiledSharder",
]

#: Images strictly larger than this many elements shard by default —
#: 2048x2048 (the largest single-launch shape the benchmarks exercise)
#: sits exactly on the threshold and does *not* shard.
DEFAULT_THRESHOLD_ELEMS = 1 << 22

#: Environment knobs (all optional).
THRESHOLD_ENV = "REPRO_SHARD_THRESHOLD"
TILE_ENV = "REPRO_SHARD_TILE"
DEVICES_ENV = "REPRO_SHARD_DEVICES"
STREAMS_ENV = "REPRO_SHARD_STREAMS"
PLACEMENT_ENV = "REPRO_SHARD_PLACEMENT"


def _wrap_add(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return a + b


def _parse_tile(spec) -> Tuple[int, int]:
    if isinstance(spec, str):
        h, _, w = spec.lower().partition("x")
        return (int(h), int(w or h))
    h, w = spec
    return (int(h), int(w))


@dataclass(frozen=True)
class ShardConfig:
    """Everything the sharded executor needs beyond the SAT call itself."""

    #: ``None`` (the default) means planner-derived per image:
    #: :func:`repro.plan.shard_tile_shape` picks 1024^2 tiles for images
    #: with a deep enough grid and 512^2 below that, so every device
    #: keeps enough tiles in flight to overlap carries with compute.
    tile_shape: Optional[Tuple[int, int]] = None
    #: Any :func:`~repro.gpusim.device.parse_device_set` spelling.
    devices: object = "2xP100"
    streams_per_device: int = 2
    placement: str = "roundrobin"
    #: ``sat()`` shards transparently strictly above this element count.
    threshold_elems: int = DEFAULT_THRESHOLD_ELEMS

    @classmethod
    def from_env(cls, **overrides) -> "ShardConfig":
        """Defaults < environment < explicit overrides.

        When no threshold is pinned (env or override), it is derived from
        the configured pipeline depth via
        :func:`repro.plan.shard_threshold_elems` — for the default two
        P100s with two streams of 1024^2 tiles that reproduces the
        historical 2^22 constant exactly.
        """
        vals = {}
        if THRESHOLD_ENV in os.environ:
            vals["threshold_elems"] = int(os.environ[THRESHOLD_ENV])
        if TILE_ENV in os.environ:
            vals["tile_shape"] = _parse_tile(os.environ[TILE_ENV])
        if DEVICES_ENV in os.environ:
            vals["devices"] = os.environ[DEVICES_ENV]
        if STREAMS_ENV in os.environ:
            vals["streams_per_device"] = int(os.environ[STREAMS_ENV])
        if PLACEMENT_ENV in os.environ:
            vals["placement"] = os.environ[PLACEMENT_ENV]
        vals.update({k: v for k, v in overrides.items() if v is not None})
        if vals.get("tile_shape") is not None:
            vals["tile_shape"] = _parse_tile(vals["tile_shape"])
        if "threshold_elems" not in vals:
            # Late import: repro.plan depends on repro.engine, which this
            # module feeds.
            from ..plan.planner import shard_threshold_elems

            vals["threshold_elems"] = shard_threshold_elems(
                len(parse_device_set(vals.get("devices", cls.devices))),
                vals.get("streams_per_device", cls.streams_per_device),
                vals.get("tile_shape") or (1024, 1024),
            )
        return cls(**vals)

    def resolved_tile(self, image_shape: Tuple[int, int]) -> Tuple[int, int]:
        """The tile to use for ``image_shape``: the pinned one, or the
        planner's recommendation when ``tile_shape`` is ``None``."""
        if self.tile_shape is not None:
            return self.tile_shape
        from ..plan.planner import shard_tile_shape

        return shard_tile_shape(image_shape)

    @classmethod
    def coerce(cls, shard, device=None) -> "ShardConfig":
        """Normalise a ``sat(shard=...)`` value into a config.

        ``None``/``True`` mean env-configured defaults; a mapping supplies
        field overrides; a :class:`ShardConfig` passes through.  When the
        caller pinned a single ``device=`` and no device set was
        configured anywhere, the set becomes two of that device.
        """
        if isinstance(shard, cls):
            return shard
        over = {}
        if isinstance(shard, dict):
            over = dict(shard)
        elif shard not in (None, True, False):
            raise TypeError(
                f"shard= must be None, a bool, a dict or a ShardConfig, got "
                f"{type(shard).__name__}"
            )
        if (device is not None and "devices" not in over
                and DEVICES_ENV not in os.environ):
            over["devices"] = f"2x{get_device(device).name}"
        return cls.from_env(**over)

    @property
    def n_devices(self) -> int:
        return len(parse_device_set(self.devices))


@dataclass
class ShardRun(SatRun):
    """A sharded run: a :class:`SatRun` plus the shard report and the
    queryable tiled view.  ``time_s`` is the modeled *makespan* of the
    device set (overlap included), not the sum of kernel times."""

    report: Dict[str, object] = field(default_factory=dict)
    tiled: Optional[TiledSat] = None

    @property
    def time_s(self) -> Optional[float]:
        return self.report.get("makespan_s")


@dataclass
class ShardSeriesRun:
    """A streamed series run: per-frame outputs plus the fleet report."""

    outputs: List[np.ndarray]
    report: Dict[str, object] = field(default_factory=dict)
    algorithm: str = ""
    pair: str = ""
    backend: str = "gpusim"
    temporal: bool = False

    @property
    def time_s(self) -> Optional[float]:
        return self.report.get("makespan_s")


# Plan memoisation shared across calls: one scheduler per (tile, policy),
# so streaming series and repeated shards reuse their tile plans.
_SCHEDULERS: Dict[Tuple[Tuple[int, int], str], TileScheduler] = {}


def _scheduler_for(cfg: ShardConfig) -> TileScheduler:
    key = (cfg.tile_shape, cfg.placement)
    sched = _SCHEDULERS.get(key)
    if sched is None:
        sched = _SCHEDULERS[key] = TileScheduler(
            tile_shape=cfg.tile_shape, policy=cfg.placement
        )
    return sched


def _resolve_pair(image: np.ndarray, pair) -> TypePair:
    if pair is None:
        from ..sat.api import _resolve_pair as resolve

        return resolve(image, None)
    return parse_pair(pair)


def _kernel_cost_s(run: SatRun, shape: Tuple[int, int], tp: TypePair,
                   dev: SimDevice, n_passes: int) -> float:
    """Modeled duration of one tile's local SAT on the timeline.

    Backends with launch stats report their own modeled time; unmodeled
    backends (``host``) fall back to a bandwidth-bound estimate so the
    schedule stays meaningful.
    """
    t = run.time_s
    if t is not None and t > 0:
        return t
    h, w = shape
    traffic = h * w * (tp.input.size + 2 * n_passes * tp.output.size)
    return n_passes * dev.spec.launch_overhead_s + traffic / dev.spec.global_bw


def sharded_sat(
    image: np.ndarray,
    pair=None,
    algorithm: str = "brlt_scanrow",
    device=None,
    backend=None,
    config=None,
    shard=None,
    **opts,
) -> ShardRun:
    """Tiled SAT over a set of simulated devices, single-pass carries.

    Output is identical to a full-image run: bit-for-bit for integer
    accumulators (wraparound addition is associative), to float summation
    reordering for ``32f``/``64f`` pairs.  See :class:`ShardConfig` for
    the ``shard=`` knobs and module docs for the carry protocol.
    """
    from ..sat.api import ALGORITHMS  # late: avoid import cycles

    if image.ndim != 2:
        raise ValueError(f"sharded SAT input must be 2-D, got {image.shape}")
    cfg = ShardConfig.coerce(shard, device=device)
    cfg = replace(cfg, tile_shape=cfg.resolved_tile(image.shape))
    tp = _resolve_pair(image, pair)
    spec = get_kernel_spec(algorithm)  # sharding needs a spec'd algorithm
    n_passes = len(spec.passes)
    fn = ALGORITHMS[algorithm]

    sched = _scheduler_for(cfg)
    dset = DeviceSet.from_spec(cfg.devices, cfg.streams_per_device)
    plan = sched.plan(image.shape, len(dset), cfg.streams_per_device)
    nr, nc = plan.grid
    tracer = resolve_tracer(None)

    # -- phase 1: local SATs, one kernel + one H2D copy per tile ---------
    tiles: Dict[Tuple[int, int], np.ndarray] = {}
    kops: Dict[Tuple[int, int], object] = {}
    launches = []
    in_size = tp.input.size
    acc_size = tp.output.size
    for p in plan.placements:
        dev = dset.device(p.device)
        sub = np.ascontiguousarray(
            image[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w]
        )
        cop = dev.enqueue(
            p.stream, "copy", (p.h * p.w * in_size) / H2D_BW,
            f"h2d[{p.r},{p.c}]", tile=(p.r, p.c),
            bytes=p.h * p.w * in_size,
        )
        if tracer:
            cm = tracer.span(
                f"shard.tile[{p.r},{p.c}]", category="shard",
                device=dev.name, stream=f"{dev.name}/s{p.stream}",
                algorithm=algorithm,
            )
        else:
            from contextlib import nullcontext

            cm = nullcontext()
        with cm:
            run = fn(sub, pair=tp, device=dev.spec.name, backend=backend,
                     config=config, **opts)
        tiles[(p.r, p.c)] = run.output
        launches.extend(run.launches)
        kops[(p.r, p.c)] = dev.enqueue(
            p.stream, "kernel",
            _kernel_cost_s(run, (p.h, p.w), tp, dev, n_passes),
            f"sat[{p.r},{p.c}]", deps=[cop],
            tile=(p.r, p.c), passes=n_passes,
        )

    # -- phase 2: decoupled-lookback carry resolution --------------------
    rows = [DescriptorChain(nc, name=f"row{r}") for r in range(nr)]
    cols = [DescriptorChain(nr, name=f"col{c}") for c in range(nc)]
    left: Dict[Tuple[int, int], np.ndarray] = {}
    top: Dict[Tuple[int, int], np.ndarray] = {}
    out = np.empty(image.shape, dtype=tp.output.np_dtype)
    carry_ops = 0
    copy_d2d = 0

    def finalize(p) -> None:
        nonlocal carry_ops, copy_d2d
        key = (p.r, p.c)
        fixed = _wrap_add(
            _wrap_add(tiles[key], left[key][:, None]), top[key][None, :]
        )
        out[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w] = fixed
        dev = dset.device(p.device)
        cstream = (p.stream + 1) % len(dev.streams)
        deps = [kops[key]]
        for pr, pc, vec_len in (
            (p.r, p.c - 1, p.h), (p.r - 1, p.c, p.w)
        ):
            if pr < 0 or pc < 0:
                continue
            pred = plan.at(pr, pc)
            deps.append(kops[(pr, pc)])
            if pred.device != p.device:
                copy_d2d += 1
                deps.append(dev.enqueue(
                    cstream, "copy",
                    D2D_ALPHA + (vec_len * acc_size) / D2D_BW,
                    f"d2d[{pr},{pc}->{p.r},{p.c}]",
                    deps=[kops[(pr, pc)]],
                    bytes=vec_len * acc_size,
                ))
        carry_ops += 1
        dev.enqueue(
            cstream, "carry", (2 * p.h * p.w * acc_size) / dev.spec.global_bw,
            f"carry[{p.r},{p.c}]", deps=deps, tile=(p.r, p.c),
        )

    def attempt(p) -> bool:
        """Advance one tile; True when its carries fully resolved."""
        key = (p.r, p.c)
        if key not in left:
            excl = rows[p.r].lookback(p.c)
            if excl is None:
                return False
            left[key] = excl
            # Adjusted bottom edge: band sum over *all* columns <= x.
            cols[p.c].publish_aggregate(
                p.r, _wrap_add(tiles[key][-1, :], excl[-1])
            )
        exclt = cols[p.c].lookback(p.r)
        if exclt is None:
            return False
        top[key] = exclt
        finalize(p)
        return True

    # Tiles publish and resolve in modeled kernel-completion order — the
    # order real devices would race through the descriptor array.  A tile
    # finishing before its predecessors hits X and parks on the retry
    # queue until later publishes unblock it.
    completion = sorted(
        plan.placements, key=lambda p: (kops[(p.r, p.c)].end_s, p.order)
    )
    pending: List[object] = []
    for p in completion:
        rows[p.r].publish_aggregate(p.c, tiles[(p.r, p.c)][:, -1])
        pending.append(p)
        progress = True
        while progress and pending:
            progress = False
            still = []
            for q in pending:
                if attempt(q):
                    progress = True
                else:
                    still.append(q)
            pending = still
    if pending:  # pragma: no cover - protocol invariant
        raise RuntimeError(
            f"carry resolution stalled with {len(pending)} tiles pending"
        )

    # -- report / metrics ------------------------------------------------
    row_stats, col_stats = LookbackStats(), LookbackStats()
    for ch in rows:
        row_stats.merge(ch.stats)
    for ch in cols:
        col_stats.merge(ch.stats)
    rep = dset.report()
    kb, cb, pb = rep["kernel_busy_s"], rep["carry_busy_s"], rep["copy_busy_s"]
    rep.update({
        "algorithm": algorithm,
        "pair": tp.name,
        "image_shape": list(image.shape),
        "tile_shape": list(plan.tile_shape),
        "grid": list(plan.grid),
        "n_tiles": plan.n_tiles,
        "placement": plan.policy,
        "kernel_ops": plan.n_tiles,
        "carry_ops": carry_ops,
        "h2d_ops": plan.n_tiles,
        "d2d_ops": copy_d2d,
        "full_sweeps": 0,
        "carry_passes": 1,
        "launches": len(launches),
        "retries": row_stats.deferred + col_stats.deferred,
        "lookback": {"row": row_stats.to_dict(), "col": col_stats.to_dict()},
        "plan_cache": {"hits": sched.plan_hits, "misses": sched.plan_misses},
        "carry_overhead_frac": (cb + pb) / (kb + cb + pb) if kb else 0.0,
        "tiles_per_s": (plan.n_tiles / rep["makespan_s"]
                        if rep["makespan_s"] else 0.0),
    })
    count("shard.runs", algorithm=algorithm)
    count("shard.tiles", plan.n_tiles, algorithm=algorithm)
    count("shard.carry_ops", carry_ops)
    # Modeled carry + copy time the run spent off the kernel path.
    observe("shard.carry_us", (cb + pb) * 1e6)
    observe("shard.kernel_us", kb * 1e6)
    count("shard.lookback.steps", row_stats.steps + col_stats.steps)
    count("shard.lookback.deferred", row_stats.deferred + col_stats.deferred)
    if tracer:
        for d in dset:
            tracer.event(
                f"shard.device.{d.name}", category="shard",
                kernel_busy_s=d.busy_s("kernel"),
                carry_busy_s=d.busy_s("carry") + d.busy_s("copy"),
                n_ops=len(d.ops),
            )

    tiled = TiledSat(image.shape, plan.tile_shape, tiles, left, top)
    return ShardRun(
        output=out,
        launches=launches,
        algorithm=algorithm,
        device=",".join(dset.names),
        pair=tp.name,
        backend="gpusim" if launches else "host",
        report=rep,
        tiled=tiled,
    )


def sharded_sat_series(
    frames,
    pair=None,
    algorithm: str = "brlt_scanrow",
    temporal: bool = False,
    device=None,
    backend=None,
    config=None,
    shard=None,
    **opts,
) -> ShardSeriesRun:
    """Streamed SAT over a frame series across the device set.

    Frames round-robin across devices with H2D copies pipelined on
    alternating streams, so copies and carry work overlap kernels.  With
    ``temporal=True`` the run returns the *integral video* — frame ``t``'s
    output is the elementwise (wraparound) sum of SATs of frames
    ``0..t`` — propagated along the series with the same
    decoupled-lookback descriptor chain the tile executor uses (Copik's
    parallel prefix over arbitrarily long series).
    """
    from ..sat.api import ALGORITHMS  # late: avoid import cycles

    if hasattr(frames, "ndim") and getattr(frames, "ndim", 0) == 3:
        frames = [frames[i] for i in range(frames.shape[0])]
    frames = list(frames)
    if not frames:
        raise ValueError("empty frame series")
    shape = frames[0].shape
    for f in frames:
        if f.shape != shape:
            raise ValueError("all series frames must share one shape")
    cfg = ShardConfig.coerce(shard, device=device)
    tp = _resolve_pair(frames[0], pair)
    spec = get_kernel_spec(algorithm)
    n_passes = len(spec.passes)
    fn = ALGORITHMS[algorithm]
    dset = DeviceSet.from_spec(cfg.devices, cfg.streams_per_device)
    tracer = resolve_tracer(None)

    in_size, acc_size = tp.input.size, tp.output.size
    n = len(frames)
    outputs: List[Optional[np.ndarray]] = [None] * n
    kops = []
    placements = []  # (frame index, device index, stream)
    seq = [0] * len(dset)
    for t, frame in enumerate(frames):
        di = t % len(dset)
        dev = dset.device(di)
        stream = seq[di] % len(dev.streams)
        seq[di] += 1
        cop = dev.enqueue(
            stream, "copy", (frame.size * in_size) / H2D_BW,
            f"h2d[f{t}]", frame=t, bytes=frame.size * in_size,
        )
        run = fn(frame, pair=tp, device=dev.spec.name, backend=backend,
                 config=config, **opts)
        outputs[t] = run.output
        kops.append(dev.enqueue(
            stream, "kernel",
            _kernel_cost_s(run, frame.shape, tp, dev, n_passes),
            f"sat[f{t}]", deps=[cop], frame=t,
        ))
        placements.append((t, di, stream))

    chain = None
    if temporal:
        chain = DescriptorChain(n, name="series")
        completion = sorted(range(n), key=lambda t: (kops[t].end_s, t))
        pending: List[int] = []
        for t in completion:
            chain.publish_aggregate(t, outputs[t])
            pending.append(t)
            progress = True
            while progress and pending:
                progress = False
                still = []
                for q in pending:
                    if chain.lookback(q) is None:
                        still.append(q)
                        continue
                    progress = True
                    tq, di, stream = placements[q]
                    dev = dset.device(di)
                    cstream = (stream + 1) % len(dev.streams)
                    deps = [kops[q]]
                    if q > 0:
                        deps.append(kops[q - 1])
                        if placements[q - 1][1] != di:
                            deps.append(dev.enqueue(
                                cstream, "copy",
                                D2D_ALPHA + (outputs[q].size * acc_size)
                                / D2D_BW,
                                f"d2d[f{q - 1}->f{q}]", deps=[kops[q - 1]],
                            ))
                    dev.enqueue(
                        cstream, "carry",
                        (2 * outputs[q].size * acc_size)
                        / dev.spec.global_bw,
                        f"carry[f{q}]", deps=deps, frame=q,
                    )
                pending = still
        outputs = [chain.prefix[t] for t in range(n)]

    rep = dset.report()
    rep.update({
        "algorithm": algorithm,
        "pair": tp.name,
        "frames": n,
        "frame_shape": list(shape),
        "temporal": temporal,
        "frames_per_s": (n / rep["makespan_s"] if rep["makespan_s"] else 0.0),
        "full_sweeps": 0,
        "carry_passes": 1 if temporal else 0,
        "lookback": chain.stats.to_dict() if chain else None,
    })
    count("shard.series.frames", n, algorithm=algorithm)
    if tracer:
        tracer.event("shard.series", category="shard", frames=n,
                     temporal=temporal, makespan_s=rep["makespan_s"])
    return ShardSeriesRun(
        outputs=outputs, report=rep, algorithm=algorithm, pair=tp.name,
        backend="gpusim", temporal=temporal,
    )


class TiledSharder:
    """The registry hook :func:`repro.sat.api.sat` consults.

    ``wants`` decides transparent sharding; ``run`` executes it.
    Configuration comes from the ``shard=`` value and the environment on
    every call; the only state is a memo of the derived threshold.
    """

    name = "tiled"

    def __init__(self) -> None:
        #: ``(raw env strings, threshold)`` of the last derived threshold.
        self._derived: Tuple[tuple, int] = ((), 0)

    def threshold_elems(self) -> int:
        """``ShardConfig.from_env().threshold_elems``, without building
        the config on every call.

        The environment is read on every call: ``REPRO_SHARD_THRESHOLD``
        pins the threshold directly; otherwise it is derived from the
        device set, streams and tile shape, and memoised on the raw
        strings of those three variables, so changing any of them takes
        effect on the next call.
        """
        env = os.environ
        pinned = env.get(THRESHOLD_ENV)
        if pinned is not None:
            return int(pinned)
        key = (env.get(DEVICES_ENV), env.get(STREAMS_ENV), env.get(TILE_ENV))
        memo_key, threshold = self._derived
        if memo_key != key:
            threshold = ShardConfig.from_env().threshold_elems
            self._derived = (key, threshold)
        return threshold

    def wants(self, shape: Tuple[int, int], shard=None) -> bool:
        if shard is False:
            return False
        if shard is not None:
            return True
        return int(shape[0]) * int(shape[1]) > self.threshold_elems()

    def run(self, image, **kwargs) -> ShardRun:
        return sharded_sat(image, **kwargs)
