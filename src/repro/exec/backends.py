"""Built-in execution backends: gpusim, host and the compiled executor.

All consume the same :class:`~repro.exec.registry.KernelSpec` — geometry,
batch axes and pass semantics are declared once per algorithm and the
backend supplies only the execution substrate:

* ``gpusim`` — the warp-synchronous simulator (counters, cost model,
  sanitizer); the default and the recorder every other mode trusts.
* ``host`` — pure NumPy per-pass ``host`` semantics; no launches, no
  modeled time.
* ``compiled`` — cold calls run the simulator and record a launch plan,
  which is lowered (:mod:`repro.compile`) into a closed-form NumPy
  program; warm calls execute that program with zero interpreter steps
  and clone the recorded counters/timings.  Sanitized or bounds-checked
  calls delegate to the interpreted path — the sanitizer is the trusted
  slow mode and never runs over compiled code.

Importing this module registers the backends;
:func:`repro.exec.registry.get_backend` does so lazily, so nothing below
the API layer needs to import it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Mapping, Optional, Tuple

import numpy as np

from ..dtypes import TypePair
from ..gpusim.device import get_device
from ..gpusim.global_mem import GlobalArray
from ..gpusim.launch import LaunchStats, launch_kernel
from ..obs.metrics import count, observe
from ..obs.trace import current_tracer
from ..sat.common import SatRun, crop, pad_matrix, regs_per_thread
from .config import resolve_execution
from .registry import KernelSpec, PassSpec, register_backend

__all__ = [
    "GpusimBackend",
    "HostBackend",
    "CompiledBackend",
    "launch_pass",
    "ensure_compiled",
]


def launch_pass(
    p: PassSpec,
    src: GlobalArray,
    *,
    acc,
    device,
    opts: Optional[Mapping] = None,
    name: Optional[str] = None,
    sanitize: Optional[bool] = None,
    bounds_check: Optional[bool] = None,
) -> Tuple[GlobalArray, LaunchStats]:
    """Launch one spec'd pass over ``src`` on the simulator.

    The grid/block dims, output shape, register footprint, MLP and kernel
    arguments all come from the :class:`PassSpec`; returns ``(dst, stats)``
    like the historical per-kernel ``*_pass`` helpers.
    """
    dev = get_device(device)
    h, w = src.shape
    grid, block = p.geometry(h, w, acc, dev)
    out_shape = (w, h) if p.transposed else (h, w)
    kname = name or p.name
    dst = GlobalArray.empty(out_shape, acc.np_dtype, name=f"{kname}_out")
    stats = launch_kernel(
        p.kernel,
        device=dev,
        grid=grid,
        block=block,
        regs_per_thread=regs_per_thread(acc),
        args=(src, dst) + p.extra_args(opts or {}),
        name=kname,
        mlp=p.mlp,
        sanitize=sanitize,
        bounds_check=bounds_check,
    )
    return dst, stats


def _bucket(shape: Tuple[int, int],
            pad: Tuple[int, int]) -> Tuple[int, int]:
    """``shape`` rounded up to the spec's pad multiples."""
    return (shape[0] + (-shape[0]) % pad[0], shape[1] + (-shape[1]) % pad[1])


def _stage_input(image: np.ndarray, tp: TypePair,
                 shape: Tuple[int, ...]) -> np.ndarray:
    """``image`` zero-padded to ``shape`` in the accumulator dtype.

    One zeroed buffer, one copy: the cast input -> accumulator happens in
    the copy, exactly the kernels' load-time conversion, and pad zeros are
    cast-invariant.  An image in a foreign dtype is first brought to the
    pair's input dtype, so it quantises and wraps as the interpreted path
    does.  ``shape`` may carry leading unit axes (a one-image stack).
    """
    if image.dtype != tp.input.np_dtype:
        image = image.astype(tp.input.np_dtype)
    buf = np.zeros(shape, dtype=tp.output.np_dtype)
    h, w = image.shape
    buf[..., :h, :w] = image
    return buf


def _book_call(spec: KernelSpec, run: SatRun) -> SatRun:
    """Book one finished call, once, under the backend that delivered it."""
    count("sat.calls", algorithm=spec.algorithm, backend=run.backend)
    if run.backend != "host":  # the host backend models no time
        observe("sat.modeled_us", run.time_us, algorithm=spec.algorithm)
    return run


class GpusimBackend:
    """Execute a :class:`KernelSpec` on the warp-synchronous simulator."""

    name = "gpusim"

    def run(
        self,
        spec: KernelSpec,
        image: np.ndarray,
        *,
        tp: TypePair,
        device,
        opts: Optional[Mapping] = None,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
    ) -> SatRun:
        return _book_call(spec, self._interpret(
            spec, image, tp=tp, device=device, opts=opts,
            sanitize=sanitize, bounds_check=bounds_check,
        ))

    def _interpret(self, spec: KernelSpec, image: np.ndarray, *, tp, device,
                   opts, sanitize, bounds_check) -> SatRun:
        """The simulator run behind :meth:`run`, booking nothing."""
        dev = get_device(device)
        orig = image.shape
        padded = pad_matrix(image.astype(tp.input.np_dtype, copy=False), *spec.pad)
        tracer = current_tracer()
        with (tracer.span(f"sat:{spec.algorithm}", category="sat",
                          algorithm=spec.algorithm, backend=self.name,
                          device=dev.name, pair=tp.name, shape=orig)
              if tracer is not None else nullcontext()) as sp:
            cur = GlobalArray(padded, "input")
            launches = []
            for p in spec.passes:
                cur, stats = launch_pass(
                    p, cur, acc=tp.output, device=dev, opts=opts,
                    sanitize=sanitize, bounds_check=bounds_check,
                )
                launches.append(stats)
        run = SatRun(
            output=crop(cur.to_host(), orig),
            launches=launches,
            algorithm=spec.algorithm,
            device=dev.name,
            pair=tp.name,
        )
        if sp is not None:
            sp.attrs["modeled_us"] = run.time_us
        return run


class HostBackend:
    """Execute a :class:`KernelSpec` with pure NumPy (no simulator).

    Each pass runs its declared ``host`` semantics function over the same
    padded/accumulator-typed array flow the kernels see, so outputs match
    the gpusim backend (bit-exactly for integer accumulators, within
    summation-order tolerance for floats).  There are no launches and no
    modeled time: the returned run has ``time_us is None``.
    """

    name = "host"

    def run(
        self,
        spec: KernelSpec,
        image: np.ndarray,
        *,
        tp: TypePair,
        device="host",
        opts: Optional[Mapping] = None,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
    ) -> SatRun:
        orig = image.shape
        cur = _stage_input(image, tp, _bucket(orig, spec.pad))
        tracer = current_tracer()
        with (tracer.span(f"sat:{spec.algorithm}", category="sat",
                          algorithm=spec.algorithm, backend=self.name,
                          pair=tp.name, shape=orig)
              if tracer is not None else nullcontext()):
            for p in spec.passes:
                with (tracer.span(p.name, category="pass.host")
                      if tracer is not None else nullcontext()):
                    cur = p.host(cur)
        return _book_call(spec, SatRun(
            output=np.ascontiguousarray(crop(cur, orig)),
            launches=[],
            algorithm=spec.algorithm,
            device=getattr(device, "name", str(device)),
            pair=tp.name,
            backend="host",
        ))


def ensure_compiled(plan, spec: KernelSpec, tp: TypePair,
                    opts: Optional[Mapping] = None) -> bool:
    """Lower ``plan`` into its compiled program if not already done.

    Returns whether ``plan.compiled`` is available afterwards.  A
    deterministic :class:`~repro.compile.lower.CompileError` pins the
    plan's attempt budget so the bucket stays on the interpreted path;
    compile outcomes are booked as ``compile.miss`` (a fresh successful
    lowering) or through :func:`book_compile_fallback` (lowering refused).
    """
    if plan.compiled is not None:
        return True
    if not plan.recorded or plan.compile_attempts >= plan.MAX_COMPILE_ATTEMPTS:
        return False
    from ..compile.lower import CompileError, compile_plan

    tracer = current_tracer()
    plan.compile_attempts += 1
    try:
        with (tracer.span(f"compile:{spec.algorithm}", category="compile",
                          algorithm=spec.algorithm, pair=tp.name,
                          bucket=plan.key.bucket)
              if tracer is not None else nullcontext()):
            plan.compiled = compile_plan(spec, plan.launch_plans, tp, opts)
    except CompileError as e:
        plan.compile_attempts = plan.MAX_COMPILE_ATTEMPTS
        book_compile_fallback(spec.algorithm, e)
        return False
    count("compile.miss", algorithm=spec.algorithm)
    return True


def book_compile_fallback(algorithm: str, reason: Exception) -> None:
    """Book a refused lowering or a program that raised: the
    ``compile.fallback`` count plus its warning-level trace event."""
    count("compile.fallback", algorithm=algorithm)
    tracer = current_tracer()
    if tracer is not None:
        tracer.event("compile.fallback", category="compile",
                     level="warning", algorithm=algorithm,
                     reason=str(reason))


class CompiledBackend:
    """Execute a :class:`KernelSpec` through compiled launch plans.

    Plans live in the default engine's :class:`~repro.engine.plan.
    LaunchPlanCache`, so single ``sat()`` calls and ``sat_batch()``
    share warm programs.  The lifecycle per shape bucket:

    * **cold** — run the fully-accounted simulator, record the launch
      plan, lower it; the returned run carries the real recorded counters
      and timings.
    * **warm** — execute the compiled program (zero interpreter steps);
      counters/timings are clones of the recorded cold launch.
    * **fallback** — sanitize/bounds-check requests, lowering failures
      and execute-time errors all land on the interpreted ``gpusim``
      path (``compile.fallback``); execute-time errors also drop the
      program so the next call may recompile from the recorded plan.
    """

    name = "compiled"

    def run(
        self,
        spec: KernelSpec,
        image: np.ndarray,
        *,
        tp: TypePair,
        device,
        opts: Optional[Mapping] = None,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
    ) -> SatRun:
        if sanitize is None or bounds_check is None:
            res = resolve_execution(sanitize=sanitize,
                                    bounds_check=bounds_check)
            sanitize, bounds_check = res.sanitize, res.bounds_check
        gpusim = _GPUSIM
        if sanitize or bounds_check:
            # Trusted slow modes stay fully interpreted and instrumented.
            return gpusim.run(spec, image, tp=tp, device=device, opts=opts,
                              sanitize=sanitize, bounds_check=bounds_check)
        from ..engine.batch import default_engine
        from ..engine.plan import PlanKey

        dev = get_device(device)
        orig = image.shape
        pass_opts = dict(opts or {})
        bucket = _bucket(orig, spec.pad)
        cache = default_engine().cache
        key = PlanKey.make(
            spec.algorithm, dev.name, tp.name, bucket,
            dict(pass_opts, bounds_check=bounds_check),
        )
        # Warm calls find their plan; only a new bucket builds the spec.
        plan = cache.get(key)
        if plan is None:
            plan = cache.get_or_create(
                key, spec.batch_spec(tp, dev, **pass_opts)
            )
        tracer = current_tracer()

        if not plan.recorded:
            cache.note_miss()
            run0 = gpusim._interpret(spec, image, tp=tp, device=dev,
                                     opts=pass_opts, sanitize=False,
                                     bounds_check=False)
            for lp, s in zip(plan.launch_plans, run0.launches):
                lp.record(replace(s, counters=s.counters.copy()))
            ensure_compiled(plan, spec, tp, pass_opts)
            # The cold run *is* the recorded template; report it under
            # this backend so callers see one consistent executor.
            run0.backend = self.name
            return _book_call(spec, run0)

        cache.note_hit()
        if plan.compiled is None and not ensure_compiled(
                plan, spec, tp, pass_opts):
            return gpusim.run(spec, image, tp=tp, device=dev, opts=pass_opts,
                              sanitize=False, bounds_check=False)
        try:
            with (tracer.span(f"sat:{spec.algorithm}", category="sat",
                              algorithm=spec.algorithm, backend=self.name,
                              device=dev.name, pair=tp.name, shape=orig)
                  if tracer is not None else nullcontext()) as sp:
                out3 = plan.compiled.run(
                    _stage_input(image, tp, (1,) + bucket)
                )
        except Exception as e:
            # Execute-time divergence: drop the program (the recorded plan
            # stays) and rerun interpreted; the next call may recompile.
            plan.compiled = None
            book_compile_fallback(spec.algorithm, e)
            return gpusim.run(spec, image, tp=tp, device=dev, opts=pass_opts,
                              sanitize=False, bounds_check=False)
        run = SatRun(
            output=np.ascontiguousarray(crop(out3[0], orig)),
            launches=[lp.clone_stats() for lp in plan.launch_plans],
            algorithm=spec.algorithm,
            device=dev.name,
            pair=tp.name,
            backend=self.name,
        )
        if sp is not None:
            sp.attrs["modeled_us"] = run.time_us
        count("compile.hit", algorithm=spec.algorithm)
        return _book_call(spec, run)


_GPUSIM = GpusimBackend()

register_backend("gpusim", _GPUSIM)
register_backend("host", HostBackend())
register_backend("compiled", CompiledBackend())
