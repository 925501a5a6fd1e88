#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of ``repro``.

Run from the root of a checkout::

    python3 satbench/run.py --workload call_small --seed 1 --seconds 40 --trace 0
    python3 satbench/run.py --smoke      # the benchmark's own self-test

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run for the per-layer ledger.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the host fingerprint, the environment record, the settings,
sample counts and the exact modeled figures.  Both, and the traced run's
spans, are also written under ``.satbench/`` in the checkout.
See ``satbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".satbench"
sys.path.insert(0, str(HERE))

from ledger import LAYERS, Ledger, check_balance, install  # noqa: E402
from workloads import BulkLarge, CallSmall, Gate, ServeBurst  # noqa: E402

WORKLOADS = {"call_small": CallSmall, "bulk_large": BulkLarge}

#: Set-up is timed in this process and in this many more fresh ones; the
#: metric is the median.
SETUP_CHILDREN = 2

#: name -> unit.  Every run prints all of them; README.md defines each per
#: workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "latency_p99_us.hot": "us",
    "latency_p99_us.cold": "us",
    "ops_per_s": "1/s",
    "throughput_mpix_s": "Mpix/s",
    "modeled_gpu_us": "us",
}

PER_LAYER = {
    "error_rate": "ratio",
    "floor.numpy_us_per_mpix": "us/Mpix",
    "sat.overhead_vs_floor": "ratio",
    "sat.dispatch_us": "us",
    "exec.resolve_calls_per_op": "1/op",
    "exec.resolve_us_per_op": "us/op",
    "exec.backend_us_per_mpix.host": "us/Mpix",
    "exec.backend_us_per_mpix.compiled": "us/Mpix",
    "exec.backend_us_per_mpix.gpusim": "us/Mpix",
    "plan.decide_calls_per_op": "1/op",
    "plan.decide_us_per_op": "us/op",
    "plan.cache_hit_ratio": "ratio",
    "engine.run_batch_self_us_per_image": "us",
    "engine.plan_hit_ratio": "ratio",
    "engine.unplanned_ops": "1/op",
    "engine.stack_depth_mean": "images",
    "compile.program_us_per_mpix": "us/Mpix",
    "compile.lowerings_after_setup": "count",
    "compile.fallbacks": "count",
    "gpusim.interp_us_per_mpix": "us/Mpix",
    "gpusim.replay_us_per_mpix": "us/Mpix",
    "gpusim.launches": "1/op",
    "gpusim.gmem_transactions_per_mpix": "1/Mpix",
    "gpusim.smem_transactions_per_mpix": "1/Mpix",
    "gpusim.bank_conflicts": "count",
    "gpusim.shuffles_per_mpix": "1/Mpix",
    "shard.run_us": "us",
    "shard.tiles": "count",
    "shard.carry_overhead_frac": "ratio",
    "shard.retries": "count",
    "serve.queue_wait_us.p50": "us",
    "serve.queue_wait_us.p99": "us",
    "serve.dispatch_wait_us.p50": "us",
    "serve.dispatch_wait_us.p99": "us",
    "serve.execute_us.p50": "us",
    "serve.execute_us.p99": "us",
    "serve.finish_us.p50": "us",
    "serve.batch_size_mean": "requests",
    "serve.coalesce_ratio.hot": "ratio",
    "serve.coalesce_ratio.cold": "ratio",
    "obs.trace_overhead": "ratio",
    "obs.spans_per_op": "1/op",
    **{f"ledger.self_frac.{layer}": "ratio" for layer in LAYERS + ("other",)},
}


# -- environment -----------------------------------------------------------

def scrub_env() -> dict:
    """Record and remove every ``REPRO_*`` variable, so no ambient profile
    changes what is measured (the workloads pass every setting
    explicitly); child processes inherit the scrubbed environment."""
    found = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for k in found:
        del os.environ[k]
    return found


def fingerprint() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": cpu or platform.processor(),
    }


def import_repro():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}; run from a "
                         f"repository checkout")
    sys.path.insert(0, str(src))
    import repro

    return repro


# -- statistics ------------------------------------------------------------

def pct(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def median(values) -> float:
    return pct(values, 50)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- set-up ----------------------------------------------------------------

def timed_setup(name: str, seed: int):
    """Make the inputs, then time import + the program's set-up."""
    wl = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    wl.setup(import_repro())
    return wl, time.perf_counter() - t0


def child_setup_s(name: str, seed: int) -> float:
    """Set-up time of one fresh process running the same workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def program_counters() -> dict:
    from repro.obs.metrics import get_metrics

    m = get_metrics()
    return {"compile.miss": m.counter_total("compile.miss"),
            "compile.fallback": m.counter_total("compile.fallback")}


# -- exact (modeled) figures -----------------------------------------------

def exact_figures(runs_per_op, mpix_per_op) -> dict:
    """Modeled time and cost counters over one pass of the fixed inputs.

    These come from ``SatRun.launches``: deterministic for a given seed,
    and unchanged by any change that touches only the host side.
    """
    modeled = gmem = smem = conflicts = shuffles = mpix = 0.0
    for runs, op_mpix in zip(runs_per_op, mpix_per_op):
        launched = False
        for r in runs:
            if r.time_us is not None:
                modeled += r.time_us
            for s in r.launches:
                c = s.counters
                gmem += c.gmem_sectors
                smem += c.smem_transactions
                conflicts += c.smem_bank_conflict_replays
                shuffles += c.shuffles
                launched = True
        if launched:
            mpix += op_mpix
    return {
        "modeled_gpu_us": modeled,
        "gpusim.gmem_transactions_per_mpix": ratio(gmem, mpix),
        "gpusim.smem_transactions_per_mpix": ratio(smem, mpix),
        "gpusim.bank_conflicts": conflicts,
        "gpusim.shuffles_per_mpix": ratio(shuffles, mpix),
    }


def floor_us_per_mpix(inputs, repeats: int = 3) -> float:
    """The NumPy floor: a double ``cumsum`` over the same inputs."""
    acc = {"8u32s": np.int32, "32f32f": np.float32}
    items = list(inputs)
    mpix = sum(img.size for img, _ in items) / 1e6
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for img, pair in items:
            np.cumsum(np.cumsum(img, axis=1, dtype=acc[pair]), axis=0,
                      dtype=acc[pair])
        times.append(time.perf_counter_ns() - t0)
    return median(times) / 1e3 / mpix


# -- closed-loop workloads -------------------------------------------------

def faster_half(loop) -> tuple:
    """The faster half of a closed loop's passes, as a mask over its ops
    and their mean wall in seconds.

    The benchmark runs on shared hosts whose speed drifts by a quarter
    over seconds, while every pass does the same work: ranking passes by
    wall time and keeping the faster half drops the passes a neighbour
    disturbed.  A change that slows every pass still shows in full; one
    that slows only some passes shows in part.
    """
    walls = loop.pass_walls_ns()
    keep = np.argsort(walls, kind="stable")[:(loop.passes + 1) // 2]
    mask = np.zeros(loop.passes, bool)
    mask[keep] = True
    return np.repeat(mask, loop.n_ops), float(walls[keep].mean()) / 1e9


def closed_loop_e2e(wl, loop) -> tuple:
    mask, pass_s = faster_half(loop)
    lat_us = loop.wall_ns[mask] / 1e3
    klass = np.array([wl.ops[i].klass for i in loop.op_index[mask]])
    metrics = {
        "latency_p50_us": median(lat_us),
        "latency_p99_us": pct(lat_us, 99),
        "latency_p99_us.hot": pct(lat_us[klass == "hot"], 99),
        "latency_p99_us.cold": pct(lat_us[klass == "cold"], 99),
        "ops_per_s": len(wl.ops) / pass_s,
        "throughput_mpix_s": sum(op.mpix for op in wl.ops) / pass_s,
    }
    samples = {"ops": int(lat_us.size), "passes": loop.passes,
               "passes_kept": int(mask.sum()) // loop.n_ops,
               "hot": int((klass == "hot").sum()),
               "cold": int((klass == "cold").sum())}
    return metrics, samples, loop.first_pass


def traced_closed_loop(wl, gate, seconds: float) -> tuple:
    from repro.obs.trace import Tracer, tracing

    base = wl.measure(seconds / 2, gate)
    ledger, tracer = Ledger(), Tracer()
    planner = PlannerLookups()
    serve = getattr(wl, "serve", None)
    # The benchmark's own work inside the traced phase: the gate, and the
    # caller waiting on served requests.
    gate.check = ledger.wrap(gate.check, "gate", "bench")
    if serve is not None:
        serve.log = []
        serve.wait = ledger.wrap(serve.wait, "serve.wait", "idle")
    t0 = time.perf_counter_ns()
    install(ledger)
    try:
        with tracing(tracer):
            traced = wl.measure(seconds / 2, gate)
        # Every thread that ran program code (the caller, and the serve
        # workers) spans the whole phase; spans still open at its end
        # are left out, into ``other``.
        phase_ns = time.perf_counter_ns() - t0
        n_ops = traced.wall_ns.size
        m = layer_metrics(ledger, n_ops, phase_ns * ledger.threads())
    finally:
        ledger.uninstall()
        del gate.check
    if wl.name == "bulk_large":
        base_v = median(base.pass_walls_ns())
        traced_v = median(traced.pass_walls_ns())
        overhead_base = "median round wall"
    else:
        base_v, traced_v = median(base.wall_ns), median(traced.wall_ns)
        overhead_base = "latency_p50_us"
    floor = floor_us_per_mpix(wl.floor_inputs())
    base_mpix = sum(op.mpix for op in wl.ops) * base.passes
    m.update({
        "floor.numpy_us_per_mpix": floor,
        "sat.overhead_vs_floor": ratio(base.wall_ns.sum() / 1e3 / base_mpix,
                                       floor),
        "plan.cache_hit_ratio": planner.hit_ratio(),
        "obs.trace_overhead": ratio(traced_v, base_v),
        "obs.spans_per_op": ratio(len(tracer.spans), n_ops),
    })
    if serve is not None:
        m.update(serve_metrics(serve))
    info = {"trace_overhead_base": overhead_base,
            "untraced_ops": int(base.wall_ns.size), "traced_ops": n_ops}
    return m, ledger, info, base.first_pass


def serve_metrics(serve) -> dict:
    """Serve-layer metrics from the ``RequestTimeline`` of every request
    of the traced phase's bursts."""
    responses = [r for burst in serve.log for r in burst]
    hot = np.array([serve.templates[i].klass == "hot"
                    for _ in serve.log for i, _ in serve.plan])
    coalesced = np.array([r.coalesced for r in responses])
    stages = {k: np.array([getattr(r.timeline, k) for r in responses])
              for k in ("queue_wait_us", "dispatch_wait_us", "execute_us",
                        "finish_us")}
    m = {f"serve.{k}.{q}": pct(v, int(q[1:]))
         for k, v in stages.items() for q in ("p50", "p99")
         if f"serve.{k}.{q}" in PER_LAYER}
    m.update({
        "serve.batch_size_mean":
            float(np.mean([r.batch_size for r in responses])),
        "serve.coalesce_ratio.hot": float(coalesced[hot].mean()),
        "serve.coalesce_ratio.cold": float(coalesced[~hot].mean()),
    })
    return m


class PlannerLookups:
    """Hits and misses of the process planner's decision cache from now
    on (read from the cache's own counters)."""

    def __init__(self):
        from repro.plan import get_planner

        self.cache = get_planner().cache
        self.hits, self.misses = self.cache.hits, self.cache.misses

    def hit_ratio(self) -> float:
        hits = self.cache.hits - self.hits
        return ratio(hits, hits + self.cache.misses - self.misses)


def layer_metrics(ledger: Ledger, n_ops: int, wall_ns: float) -> dict:
    """Per-layer metrics every workload derives from the ledger alike."""
    def per_mpix(name):
        return ratio(ledger.self_ns(name) / 1e3, ledger.work(name) / 1e6)

    hits = ledger.work("cache.note_hit")
    misses = ledger.work("cache.note_miss")
    dispatch = ledger.samples("sat.dispatch_ns")
    depth = ledger.samples("engine.chunk_depth")
    shard_ns = ledger.samples("shard.run_ns")
    balance = ledger.balance(wall_ns)
    m = {
        "sat.dispatch_us": median(dispatch) / 1e3 if dispatch else 0.0,
        "exec.resolve_calls_per_op":
            ratio(ledger.calls("resolve_execution"), n_ops),
        "exec.resolve_us_per_op":
            ratio(ledger.wall_ns("resolve_execution") / 1e3, n_ops),
        "plan.decide_calls_per_op":
            ratio(ledger.calls("Planner.decide"), n_ops),
        "plan.decide_us_per_op":
            ratio(ledger.wall_ns("Planner.decide") / 1e3, n_ops),
        "engine.run_batch_self_us_per_image":
            ratio(ledger.self_ns("Engine.run_batch") / 1e3,
                  ledger.work("Engine.run_batch")),
        "engine.plan_hit_ratio": ratio(hits, hits + misses),
        "engine.unplanned_ops": ratio(ledger.work("engine.unplanned"), n_ops),
        "engine.stack_depth_mean": float(np.mean(depth)) if depth else 0.0,
        "compile.program_us_per_mpix": per_mpix("CompiledPlan.run"),
        "gpusim.interp_us_per_mpix": per_mpix("launch_kernel"),
        "gpusim.replay_us_per_mpix": per_mpix("replay_kernel"),
        "gpusim.launches": ratio(ledger.calls("launch_kernel")
                                 + ledger.calls("replay_kernel"), n_ops),
        "shard.run_us": median(shard_ns) / 1e3 if shard_ns else 0.0,
        "shard.tiles": float(np.mean(ledger.samples("shard.tiles")))
        if shard_ns else 0.0,
        "shard.carry_overhead_frac":
            float(np.mean(ledger.samples("shard.carry_overhead_frac")))
            if shard_ns else 0.0,
        "shard.retries": float(np.mean(ledger.samples("shard.retries")))
        if shard_ns else 0.0,
    }
    for backend in ("host", "compiled", "gpusim"):
        m[f"exec.backend_us_per_mpix.{backend}"] = per_mpix(
            f"backend.{backend}")
    for layer, frac in balance.items():
        m[f"ledger.self_frac.{layer}"] = frac
    return m


# -- one run ---------------------------------------------------------------

def run(args, env_record: dict) -> int:
    wl, setup_main = timed_setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        setups = [setup_main] + [child_setup_s(args.workload, args.seed)
                                 for _ in range(SETUP_CHILDREN)]
        wl.references()
        before = program_counters()
        gate = Gate(corrupt=args.corrupt)
        if args.trace:
            metrics, ledger, samples, first = traced_closed_loop(
                wl, gate, args.seconds)
        else:
            metrics, samples, first = closed_loop_e2e(
                wl, wl.measure(args.seconds, gate))
        # From the first measured pass: every op warm, outputs gated.
        exact = exact_figures(first, [op.mpix for op in wl.ops])
        after = program_counters()
    finally:
        wl.close()

    balanced = True
    if args.trace:
        metrics.update({k: v for k, v in exact.items()
                        if k.startswith("gpusim.")})
        metrics["compile.lowerings_after_setup"] = (
            after["compile.miss"] - before["compile.miss"])
        metrics["compile.fallbacks"] = (after["compile.fallback"]
                                        - before["compile.fallback"])
        metrics["error_rate"] = ratio(gate.failed, gate.attempted)
        balanced = check_balance({k: v for k, v in metrics.items()
                                  if k.startswith("ledger.self_frac.")})
        wanted = PER_LAYER
    else:
        metrics.update({
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "modeled_gpu_us": exact["modeled_gpu_us"],
        })
        wanted = END_TO_END
    values = {name: float(metrics.get(name, 0.0)) for name in wanted}
    finite = all(math.isfinite(v) for v in values.values())
    correct = gate.failed == 0 and balanced and finite
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v if math.isfinite(v) else -1.0,
                           "unit": wanted[name]}
                    for name, v in values.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(), "repro_env_scrubbed": env_record,
        "service": ServeBurst.SERVICE if wl.name == "bulk_large" else None,
        "setup_s_samples": setups, "samples": samples,
        "exact": exact, "errors": gate.first_errors,
        "ledger_balanced": balanced,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    if args.trace:
        ledger.write_spans(OUT_DIR / f"{args.workload}-spans.csv")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


# -- self-test -------------------------------------------------------------

def smoke() -> int:
    """Short runs that check the benchmark itself.

    Every named metric is printed with its unit; a deliberately corrupted
    output counts as a failed op; the modeled time and the ``gpusim.*``
    counts repeat exactly across two runs with one seed.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")

    def bench(workload, trace, seed=1, corrupt=0):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", "2",
             "--trace", str(trace), "--corrupt", str(corrupt)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"{workload} trace={trace} exited "
                            f"{proc.returncode}: {proc.stderr[-1000:]}")
            return None, None
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-2])["report"], json.loads(lines[-1])

    for workload in WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            _, result = bench(workload, trace)
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted or set(result) != {"correct", "attempted",
                                                "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: wrong metrics")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: not correct")
        _, result = bench(workload, 0, corrupt=1)
        if result is not None and (result["correct"]
                                   or result["failed"] != 1):
            problems.append(f"{workload}: a corrupted output was not "
                            f"counted as one failed op")
    for workload in WORKLOADS:
        first, _ = bench(workload, 1, seed=7)
        second, _ = bench(workload, 1, seed=7)
        if first is not None and second is not None \
                and first["exact"] != second["exact"]:
            problems.append(f"{workload}: modeled figures differ between "
                            f"two runs of seed 7")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    env_record = scrub_env()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args, env_record)


if __name__ == "__main__":
    sys.exit(main())
