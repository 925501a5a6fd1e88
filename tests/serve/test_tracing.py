"""Distributed tracing through the serving stack.

The tentpole acceptance criteria for request-scoped observability:

* tracing must observe, never perturb — traced and untraced serving are
  bit-identical under every CI execution profile, including an 8-thread
  concurrent hammer;
* every span tree is complete: no span left open, no parent id that does
  not resolve, and worker-side engine spans re-rooted under the
  originating request's trace;
* coalesced requests share one ``serve.batch`` span that records every
  member as a span link;
* every response's :class:`RequestTimeline` sums to its measured wall
  latency within 1%;
* the live bucketed latency quantiles agree with exact percentiles of
  the same responses within one log-bucket width.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exec.config import PROFILES, execution
from repro.obs import Tracer, get_metrics, reset_metrics, tracing
from repro.obs.quantiles import GROWTH, percentiles
from repro.sat.api import sat
from repro.serve import SatRequest, SatService

RNG = np.random.default_rng(7)
N_CLIENTS = 8
PER_CLIENT = 6


def _images():
    return [
        RNG.integers(0, 255, size=(64, 64), dtype=np.uint8),
        RNG.integers(0, 255, size=(61, 59), dtype=np.uint8),  # same bucket
        RNG.random((64, 64), dtype=np.float32),
    ]


def _hammer(svc, imgs, n_clients=N_CLIENTS, per_client=PER_CLIENT):
    """Closed-loop load from ``n_clients`` threads; returns responses in
    (client, request) order."""
    results = {}
    errors = []
    lock = threading.Lock()
    gate = threading.Event()

    def client(cid):
        gate.wait()
        for j in range(per_client):
            i = cid * per_client + j
            try:
                r = svc.request(SatRequest(imgs[i % len(imgs)]), timeout=60)
            except Exception as exc:  # pragma: no cover - fails the test
                with lock:
                    errors.append(exc)
                continue
            with lock:
                results[i] = r

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    gate.set()
    for t in threads:
        t.join()
    assert not errors, errors
    return [results[i] for i in sorted(results)]


class TestNonPerturbation:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_traced_equals_untraced_under_every_profile(self, profile):
        """8 concurrent clients, traced vs untraced: bit-identical."""
        imgs = _images()
        with execution(PROFILES[profile]):
            reset_metrics()
            with SatService(workers=3, max_delay_s=0.005) as svc:
                plain = _hammer(svc, imgs)
            reset_metrics()
            tracer = Tracer()
            with SatService(workers=3, max_delay_s=0.005,
                            tracer=tracer) as svc:
                traced = _hammer(svc, imgs)
        assert len(tracer.spans) > 0
        assert len(plain) == len(traced) == N_CLIENTS * PER_CLIENT
        for a, b in zip(plain, traced):
            np.testing.assert_array_equal(a.result, b.result)

    def test_untraced_requests_record_no_spans(self):
        reset_metrics()
        imgs = _images()
        with SatService(workers=2, max_delay_s=0.005) as svc:
            resp = svc.request(SatRequest(imgs[0]), timeout=60)
        assert resp.trace_id == 0
        # The timeline is always-on telemetry, tracing or not.
        assert resp.timeline is not None


class TestSpanTrees:
    @pytest.fixture
    def traced_run(self):
        reset_metrics()
        tracer = Tracer()
        imgs = _images()
        with SatService(workers=3, max_delay_s=0.005, tracer=tracer) as svc:
            responses = _hammer(svc, imgs)
        return tracer, responses

    def test_every_span_closed_and_parented(self, traced_run):
        tracer, _ = traced_run
        open_spans = [s.name for s in tracer.spans if s.t1_ns == 0]
        assert open_spans == []
        ids = {s.id for s in tracer.spans}
        orphans = [s.name for s in tracer.spans
                   if s.parent_id is not None and s.parent_id not in ids]
        assert orphans == []

    def test_one_request_span_per_request_with_its_trace(self, traced_run):
        tracer, responses = traced_run
        req_spans = [s for s in tracer.spans if s.name == "serve.request"]
        assert len(req_spans) == len(responses)
        # Bare client threads: every request is its own trace.
        assert len({s.trace_id for s in req_spans}) == len(req_spans)
        assert ({r.trace_id for r in responses}
                == {s.trace_id for s in req_spans})

    def test_engine_spans_nest_under_request_traces(self, traced_run):
        tracer, responses = traced_run
        req_traces = {s.trace_id for s in tracer.spans
                      if s.name == "serve.request"}
        worker_side = [s for s in tracer.spans
                       if s.name not in ("serve.request",)]
        assert worker_side, "worker-side spans missing"
        # Everything recorded during execution belongs to some request's
        # trace — the cross-thread propagation criterion.
        for s in worker_side:
            assert s.trace_id in req_traces, (s.name, s.trace_id)

    def test_batch_span_links_cover_coalesced_requests(self, traced_run):
        tracer, responses = traced_run
        batch_spans = [s for s in tracer.spans if s.name == "serve.batch"]
        assert batch_spans
        linked_traces = {l["trace_id"] for b in batch_spans for l in b.links}
        for r in responses:
            if r.coalesced:
                assert r.trace_id in linked_traces
        # Link counts match the admitted batch sizes.
        for b in batch_spans:
            assert len(b.links) == b.attrs["batch_size"]

    def test_client_side_span_continues_into_the_service(self):
        """A request submitted inside an open client span joins that
        trace instead of allocating a fresh one."""
        reset_metrics()
        tracer = Tracer()
        imgs = _images()
        with SatService(workers=2, max_delay_s=0.005, tracer=tracer) as svc:
            with tracing(tracer):
                with tracer.span("client.op") as root:
                    resp = svc.request(SatRequest(imgs[0]), timeout=60)
        assert resp.trace_id == root.trace_id
        req = next(s for s in tracer.spans if s.name == "serve.request")
        assert req.parent_id == root.id


class TestTimelines:
    def test_components_sum_to_latency_within_1pct(self):
        reset_metrics()
        imgs = _images()
        with SatService(workers=3, max_delay_s=0.005) as svc:
            responses = _hammer(svc, imgs)
        for r in responses:
            tl = r.timeline
            assert tl is not None
            assert tl.components_sum_us() == pytest.approx(
                tl.latency_us, rel=0.01)
            assert tl.latency_us == pytest.approx(r.latency_us, rel=1e-9)
            assert tl.batch_size == r.batch_size
            # No stage may run backwards.
            for name, v in tl.components().items():
                assert v >= 0.0, (name, v)

    def test_annotations_carry_engine_attribution(self):
        reset_metrics()
        imgs = _images()
        with SatService(workers=2, max_delay_s=0.005) as svc:
            responses = _hammer(svc, imgs, n_clients=4, per_client=4)
        annotated = [r for r in responses
                     if "engine.modeled_kernel_us" in r.timeline.annotations]
        assert annotated, "no response carried modeled kernel attribution"
        for r in annotated:
            assert r.timeline.annotations["engine.modeled_kernel_us"] > 0.0


    def test_warm_host_requests_are_unplanned(self):
        """A host-backend request never looks up a launch plan: its
        timeline counts it as unplanned, never as a plan miss."""
        img = RNG.integers(0, 255, size=(64, 64), dtype=np.uint8)
        with SatService(workers=1, max_delay_s=0.0) as svc:
            for _ in range(2):  # the second request is warm
                r = svc.request(SatRequest(img, config={"backend": "host"}),
                                timeout=60)
                ann = r.timeline.annotations
                assert ann["engine.unplanned"] == 1.0
                assert ann.get("engine.plan_misses", 0.0) == 0.0
                assert ann.get("engine.plan_hits", 0.0) == 0.0


class TestQuantileAgreement:
    def test_stats_quantiles_match_responses_within_one_bucket(self):
        reset_metrics()
        imgs = _images()
        with SatService(workers=3, max_delay_s=0.005) as svc:
            responses = _hammer(svc, imgs)
            quant = svc.stats()["latency_quantiles"]["request_latency_us"]
        exact = percentiles([r.latency_us for r in responses])
        for p in ("p50", "p95", "p99"):
            assert (exact[p] / (GROWTH * 1.05)
                    <= quant[p]
                    <= exact[p] * GROWTH * 1.05), (p, exact[p], quant[p])
