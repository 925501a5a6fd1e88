"""Compiled-backend lifecycle: cold record → warm replay → fallback.

Covers the plan-state machine the ``compiled`` backend drives through the
shared plan cache: a cold call records and lowers, warm calls execute the
compiled program, lowering refusals pin the bucket to the interpreted
path, execute-time failures drop the program and recompile on the next
call, and the trusted slow modes (sanitizer, bounds checks) never run
over compiled code.
"""

import numpy as np
import pytest

from repro.compile import CompileError, compile_plan
from repro.compile.lower import LoweredPass
from repro.compile.ops import WARP_SCAN_LOWERED
from repro.dtypes import parse_pair
from repro.engine import Engine
from repro.engine.batch import default_engine
from repro.obs import get_metrics, reset_metrics
from repro.sat import brlt_scanrow
from repro.sat.api import PAPER_ALGORITHMS, sat

from ..helpers import make_image


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")
    default_engine().cache.clear()
    reset_metrics()
    yield
    default_engine().cache.clear()


def _plans(cache):
    return list(cache._plans.values())


class TestLifecycle:
    def test_cold_records_and_lowers_then_warm_replays(self):
        img = make_image((64, 48), "8u32s", seed=1)
        m = get_metrics()
        cold = sat(img, pair="8u32s", backend="compiled")
        assert cold.backend == "compiled"
        assert m.counter_total("compile.miss") == 1
        assert m.counter_total("compile.hit") == 0
        (plan,) = _plans(default_engine().cache)
        assert plan.recorded and plan.compiled is not None
        assert plan.compiled.executions == 0

        warm = sat(img, pair="8u32s", backend="compiled")
        assert warm.backend == "compiled"
        assert plan.compiled.executions == 1
        assert m.counter_total("compile.hit") == 1
        assert warm.output.tobytes() == cold.output.tobytes()
        # Warm counters/timings are clones of the recorded cold launch.
        assert warm.time_us == pytest.approx(cold.time_us)
        for a, b in zip(warm.launches, cold.launches):
            assert a.counters.as_dict() == b.counters.as_dict()

    @pytest.mark.parametrize("scan", sorted(WARP_SCAN_LOWERED))
    @pytest.mark.parametrize("pair", ["8u32s", "32f32f", "64f64f"])
    @pytest.mark.parametrize("algo", sorted(PAPER_ALGORITHMS))
    def test_plans_run_transpose_free(self, algo, pair, scan):
        """Every pass scans either physical axis, so no warm program
        materialises a transpose, and it still matches the interpreter
        bit for bit."""
        img = make_image((96, 160), pair, seed=2)
        ref = sat(img, pair=pair, algorithm=algo, scan=scan, backend="gpusim")
        sat(img, pair=pair, algorithm=algo, scan=scan, backend="compiled")
        warm = sat(img, pair=pair, algorithm=algo, scan=scan,
                   backend="compiled")
        (plan,) = _plans(default_engine().cache)
        assert plan.compiled.executions == 1
        assert plan.compiled.transposes == 0
        assert warm.output.tobytes() == ref.output.tobytes()

    def test_pass_without_cols_body_falls_back(self, monkeypatch):
        """A lowering missing one orientation is refused at compile time
        and the call runs interpreted, bit-identical."""
        both_axes = LoweredPass.both_axes

        def rows_only(scan, col_major=False):
            return LoweredPass(rows=both_axes(scan).rows, cols=None,
                               col_major=col_major)

        monkeypatch.setattr(LoweredPass, "both_axes", rows_only)
        img = make_image((64, 96), "32f32f", seed=6)
        ref = sat(img, pair="32f32f", algorithm="brlt_scanrow",
                  backend="gpusim")
        m = get_metrics()
        run = sat(img, pair="32f32f", algorithm="brlt_scanrow",
                  backend="compiled")
        assert m.counter_total("compile.fallback") == 1
        (plan,) = _plans(default_engine().cache)
        assert plan.compiled is None
        with pytest.raises(CompileError, match="both axes"):
            compile_plan(brlt_scanrow.SPEC, plan.launch_plans,
                         parse_pair("32f32f"), {})
        assert run.output.tobytes() == ref.output.tobytes()

    def test_execute_failure_falls_back_and_recompiles(self):
        img = make_image((40, 40), "8u32s", seed=3)
        ref = sat(img, pair="8u32s")
        sat(img, pair="8u32s", backend="compiled")
        (plan,) = _plans(default_engine().cache)

        def boom(stack):
            raise RuntimeError("lowered program diverged")

        for p in plan.compiled.passes:
            p.rows = p.cols = boom
        m = get_metrics()
        out = sat(img, pair="8u32s", backend="compiled")
        assert out.output.tobytes() == ref.output.tobytes()
        assert m.counter_total("compile.fallback") == 1
        assert plan.compiled is None  # program dropped, plan kept

        # The recorded plan is intact: the next call recompiles and runs
        # the fresh program.
        again = sat(img, pair="8u32s", backend="compiled")
        assert plan.compiled is not None
        assert m.counter_total("compile.miss") == 2
        assert again.output.tobytes() == ref.output.tobytes()

    def test_lowering_refusal_pins_interpreted_path(self, monkeypatch):
        from repro.compile import ops

        monkeypatch.delitem(ops.WARP_SCAN_LOWERED, "brent_kung")
        img = make_image((48, 32), "32f32f", seed=4)
        ref = sat(img, pair="32f32f", algorithm="scanrow_brlt",
                  scan="brent_kung")
        m = get_metrics()
        cold = sat(img, pair="32f32f", algorithm="scanrow_brlt",
                   scan="brent_kung", backend="compiled")
        assert m.counter_total("compile.fallback") == 1
        (plan,) = _plans(default_engine().cache)
        assert plan.compiled is None
        assert plan.compile_attempts == plan.MAX_COMPILE_ATTEMPTS

        # Warm calls stay interpreted without re-attempting the lowering.
        warm = sat(img, pair="32f32f", algorithm="scanrow_brlt",
                   scan="brent_kung", backend="compiled")
        assert m.counter_total("compile.fallback") == 1
        assert warm.backend == "gpusim"
        for r in (cold, warm):
            assert r.output.tobytes() == ref.output.tobytes()

    def test_sanitize_delegates_to_interpreter(self):
        img = make_image((33, 31), "8u32s", seed=5)
        run = sat(img, pair="8u32s", backend="compiled", sanitize=True)
        assert run.backend == "gpusim"
        assert all(s.timing.sanitizer is not None for s in run.launches)
        assert _plans(default_engine().cache) == []


class TestBatchLifecycle:
    def test_batch_fallback_replays_interpreted(self):
        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(4)]
        ref = Engine().run_batch(imgs, pair="8u32s")
        eng = Engine()
        eng.run_batch(imgs, pair="8u32s", backend="compiled")
        (plan,) = _plans(eng.cache)

        def boom(stack):
            raise RuntimeError("lowered program diverged")

        for p in plan.compiled.passes:
            p.rows = p.cols = boom
        m = get_metrics()
        got = eng.run_batch(imgs, pair="8u32s", backend="compiled")
        assert m.counter_total("compile.fallback") >= 1
        assert plan.compiled is None
        for r, c in zip(ref.runs, got.runs):
            assert r.output.tobytes() == c.output.tobytes()

        # Recompiled on the next batch; warm images execute compiled.
        again = eng.run_batch(imgs, pair="8u32s", backend="compiled")
        assert plan.compiled is not None and plan.compiled.executions > 0
        for r, c in zip(ref.runs, again.runs):
            assert r.output.tobytes() == c.output.tobytes()

    def test_batch_hits_count_per_image(self):
        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(5)]
        eng = Engine()
        m = get_metrics()
        eng.run_batch(imgs, pair="8u32s", backend="compiled")
        # One cold image records; the other four execute compiled.
        assert m.counter_total("compile.miss") == 1
        assert m.counter_total("compile.hit") == 4
