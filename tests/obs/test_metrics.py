"""MetricsRegistry instruments, labels and stack integration."""

from __future__ import annotations

import json

import pytest

from repro import sat, sat_batch
from repro.engine import Engine, default_engine
from repro.obs import (
    MetricsRegistry,
    Tracer,
    count,
    get_metrics,
    observe,
    recording_timeline,
    reset_metrics,
    tracing,
)

from ..helpers import make_image


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.value("hits") == 5.0
        assert reg.value("misses") is None

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(7)
        assert reg.value("depth") == 7.0

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["sum"] == 15.0
        assert s["min"] == 2.0 and s["max"] == 8.0 and s["mean"] == 5.0
        # Bucketed quantile estimates live alongside the exact moments;
        # they are accurate to one log-bucket width (~19%) and clamped to
        # the observed range.
        assert 2.0 <= s["p50"] <= 8.0
        assert s["p50"] <= s["p95"] <= s["p99"] <= 8.0
        empty = reg.histogram("empty").summary()
        assert empty["count"] == 0 and empty["p99"] == 0.0

    def test_histogram_quantiles_track_exact(self):
        import numpy as np

        from repro.obs.quantiles import GROWTH

        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=3.0, sigma=0.8, size=5000)
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in values:
            h.observe(float(v))
        for q, exact in zip((0.5, 0.95, 0.99),
                            np.percentile(values, [50, 95, 99])):
            est = h.quantile(q)
            # One log-bucket of relative error, by construction.
            assert exact / GROWTH <= est <= exact * GROWTH

    def test_histogram_count_below(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 10.0, 100.0, 1000.0):
            h.observe(v)
        assert h.count_below(0.5) == 0
        assert h.count_below(15.0) == 2
        assert h.count_below(5000.0) == 4

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("calls", algo="a").inc()
        reg.counter("calls", algo="b").inc(2)
        assert reg.value("calls", algo="a") == 1.0
        assert reg.value("calls", algo="b") == 2.0
        assert reg.counter_total("calls") == 3.0

    def test_snapshot_is_json_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", k="v").inc()
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a{k=v}"] == 1.0
        json.dumps(snap)  # JSON-serialisable throughout

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("gpusim.launches").inc()
        reg.counter("engine.batches").inc()
        assert list(reg.snapshot(prefix="gpusim.")) == ["gpusim.launches"]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.value("x") is None


class TestBooking:
    """``count``/``observe`` write the registry, the installed timeline
    and the innermost open span in one call."""

    def test_one_call_feeds_every_view(self):
        reset_metrics()
        tr = Tracer()
        with tracing(tr), tr.span("outer") as outer, \
                recording_timeline() as acc:
            count("t.hits", 2, kind="a")
            with tr.span("inner") as inner:
                count("t.hits", kind="b")
                observe("t.us", 1.5)
            observe("t.us", 0.5)
        m = get_metrics()
        assert m.value("t.hits", kind="a") == 2.0
        assert m.value("t.hits", kind="b") == 1.0
        assert m.histogram("t.us").total == 2.0
        assert acc == {"t.hits": 3.0, "t.us": 2.0}
        assert outer.attrs == {"t.hits": 2, "t.us": 0.5}
        assert inner.attrs == {"t.hits": 1, "t.us": 1.5}

    def test_spans_outside_the_stack_and_disabled_scopes_book_nothing(self):
        tr = Tracer()
        with tracing(tr), tr.span("outer") as outer:
            started = tr.start_span("started")
            with tracing(enabled=False):
                count("t.hidden")
            tr.end_span(started)
        count("t.after")
        assert outer.attrs == {} and started.attrs == {}


class TestStackIntegration:
    @pytest.fixture(autouse=True)
    def _batched_mode(self):
        # Pin sanitize/bounds off: under the sanitized CI profile the
        # engine falls back to per-image execution, which would remove the
        # plan and compile counters these tests assert on.
        from repro.exec.config import ExecutionConfig, execution

        with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
            yield

    def test_sat_increments_launch_and_call_counters(self):
        reset_metrics()
        img = make_image((64, 64), "8u32s", seed=3)
        sat(img, pair="8u32s", algorithm="brlt_scanrow", backend="gpusim")
        m = get_metrics()
        assert m.counter_total("gpusim.launches") == 2.0
        assert m.value("sat.calls", algorithm="brlt_scanrow",
                       backend="gpusim") == 1.0
        h = m.histogram("sat.modeled_us", algorithm="brlt_scanrow")
        assert h.count == 1 and h.total > 0

    def test_cold_compiled_call_books_one_call(self):
        default_engine().cache.clear()
        reset_metrics()
        img = make_image((72, 40), "8u32s", seed=4)
        run = sat(img, pair="8u32s", algorithm="brlt_scanrow",
                  backend="compiled")
        assert run.backend == "compiled"
        m = get_metrics()
        assert m.counter_total("sat.calls") == 1.0
        assert m.value("sat.calls", algorithm="brlt_scanrow",
                       backend="compiled") == 1.0
        assert m.histogram("sat.modeled_us", algorithm="brlt_scanrow").count == 1

    def test_batch_increments_engine_and_replay_counters(self):
        reset_metrics()
        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(6)]
        run = Engine().run_batch(imgs, pair="8u32s", algorithm="brlt_scanrow",
                                 backend="gpusim")
        m = get_metrics()
        assert m.value("engine.batches", algorithm="brlt_scanrow") == 1.0
        assert m.value("engine.images", algorithm="brlt_scanrow") == 6.0
        assert m.value("engine.plan_hits") == float(run.plan_hits)
        assert m.value("engine.plan_misses") == float(run.plan_misses)
        assert m.value("engine.unplanned") == float(run.unplanned)
        # One cold image records the plan; the warm rest run its lowered
        # program, with no interpreted replay.
        assert m.counter_total("compile.hit") == len(imgs) - 1
        assert m.counter_total("gpusim.replays") == 0

    def test_runner_calibration_counters(self):
        from repro.harness import Runner

        reset_metrics()
        r = Runner(calibration=128, validate=False)
        r.measure("brlt_scanrow", "8u32s", "P100", 512)
        m = get_metrics()
        assert m.value("runner.calibrations", algorithm="brlt_scanrow") == 1.0
        assert m.value("runner.projections", algorithm="brlt_scanrow") == 1.0
        assert r.metrics is m
