"""TraceContext capture/propagation and RequestTimeline arithmetic."""

from __future__ import annotations

import threading

import pytest

from repro.obs.context import (
    TIMELINE_COMPONENTS,
    RequestTimeline,
    TraceContext,
    recording_timeline,
)
from repro.obs.metrics import count, get_metrics, observe, reset_metrics
from repro.obs.trace import Tracer


class TestTraceContext:
    def test_capture_without_tracer_is_none(self):
        assert TraceContext.capture(None) is None

    def test_capture_outside_span_allocates_fresh_trace(self):
        tr = Tracer()
        a = TraceContext.capture(tr)
        b = TraceContext.capture(tr)
        assert a.span_id == 0 and b.span_id == 0
        assert a.trace_id != b.trace_id  # concurrent tenants stay distinct

    def test_capture_inside_span_continues_the_trace(self):
        tr = Tracer()
        with tr.span("outer"):
            ctx = TraceContext.capture(tr)
            cur = tr.current_span
            assert ctx.trace_id == cur.trace_id
            assert ctx.span_id == cur.id

    def test_child_rebases_parent_keeps_trace_and_baggage(self):
        ctx = TraceContext.root(tenant="a")
        kid = ctx.child(42)
        assert kid.trace_id == ctx.trace_id
        assert kid.span_id == 42
        assert kid.baggage_dict == {"tenant": "a"}

    def test_baggage_is_sorted_and_stringified(self):
        ctx = TraceContext.root(b=2, a=1)
        assert ctx.baggage == (("a", "1"), ("b", "2"))
        assert ctx.as_dict()["baggage"] == {"a": "1", "b": "2"}

    def test_is_hashable_and_frozen(self):
        ctx = TraceContext.root()
        hash(ctx)
        with pytest.raises(Exception):
            ctx.trace_id = 7

    def test_activate_reparents_spans_on_another_thread(self):
        tr = Tracer()
        with tr.span("client-root"):
            ctx = TraceContext.capture(tr)
        done = threading.Event()

        def worker():
            with tr.activate(ctx):
                with tr.span("worker-side"):
                    pass
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.is_set()
        root = next(s for s in tr.spans if s.name == "client-root")
        child = next(s for s in tr.spans if s.name == "worker-side")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.id


class TestRequestTimeline:
    def test_components_sum_exactly_to_latency(self):
        tl = RequestTimeline.from_marks(
            submitted=1.0, queued=1.001, admitted=1.004, started=1.0045,
            executed=1.0145, completed=1.015,
        )
        assert tl.components_sum_us() == pytest.approx(tl.latency_us,
                                                       rel=1e-12)
        assert tl.latency_us == pytest.approx(15_000.0, rel=1e-6)

    def test_component_order_and_values(self):
        tl = RequestTimeline.from_marks(
            submitted=0.0, queued=0.001, admitted=0.003, started=0.0035,
            executed=0.0135, completed=0.014,
        )
        comps = tl.components()
        assert tuple(comps) == TIMELINE_COMPONENTS
        assert comps["submit_us"] == pytest.approx(1_000.0)
        assert comps["queue_wait_us"] == pytest.approx(2_000.0)
        assert comps["dispatch_wait_us"] == pytest.approx(500.0)
        assert comps["execute_us"] == pytest.approx(10_000.0)
        assert comps["finish_us"] == pytest.approx(500.0)

    def test_as_dict_round_trips_annotations(self):
        tl = RequestTimeline.from_marks(
            submitted=0.0, queued=0.0, admitted=0.0, started=0.0,
            executed=0.001, completed=0.001, batch_size=4,
            batch_reason="deadline", annotations={"modeled_kernel_us": 12.5},
        )
        d = tl.as_dict()
        assert d["batch_size"] == 4
        assert d["batch_reason"] == "deadline"
        assert d["annotations"] == {"modeled_kernel_us": 12.5}
        assert all(name in d for name in TIMELINE_COMPONENTS)


class TestTimelineAccumulator:
    """The timeline sink of :func:`repro.obs.metrics.count` / ``observe``."""

    def test_noop_when_not_recording(self):
        reset_metrics()
        count("x.y")  # no timeline installed: only the registry sees it
        observe("x.us", 1.0)
        assert get_metrics().value("x.y") == 1.0
        assert get_metrics().histogram("x.us").count == 1

    def test_records_into_installed_accumulator(self):
        with recording_timeline() as acc:
            observe("engine.modeled_kernel_us", 10.0, algorithm="a")
            observe("engine.modeled_kernel_us", 2.5, algorithm="b")
            count("engine.plan_hits", 3)
        # Summed over labels, keyed by metric name.
        assert acc == {"engine.modeled_kernel_us": 12.5,
                       "engine.plan_hits": 3.0}

    def test_nested_scopes_restore_outer(self):
        with recording_timeline() as outer:
            count("a")
            with recording_timeline() as inner:
                count("a", 5)
            count("a")
        assert outer == {"a": 2.0}
        assert inner == {"a": 5.0}

    def test_accumulator_is_thread_local(self):
        # ContextVars do not leak across thread spawns: a recording scope
        # on one thread must not capture another thread's bookings.
        def other():
            count("x", 99)

        with recording_timeline() as acc:
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert acc == {}
