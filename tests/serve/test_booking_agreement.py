"""``/metrics``, the request timeline and the trace tell one story.

Every fact the stack books while a request executes goes through one
:func:`repro.obs.count` / :func:`repro.obs.observe` call, so for every
metric name booked in a batch's execute window three figures must be
equal: the registry delta, ``timeline.annotations[name]`` and the sum of
``attrs[name]`` over the batch's worker spans.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.obs import Tracer, get_metrics, recording_timeline, tracing
from repro.sat.api import sat
from repro.serve import SatRequest, SatService

ALG = "brlt_scanrow"
#: Pinned so the compiled case runs its lowered program under every CI
#: profile (the sanitized profile would delegate it to the interpreter).
UNSANITIZED = {"sanitize": False, "bounds_check": False}


def _image(shape=(64, 64), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 255, size=shape, dtype=np.uint8)


def _booked():
    """Registry totals per metric name: counters and histogram sums,
    summed over labels (the timeline's key space)."""
    counters, _, histograms = get_metrics().instruments()
    out = defaultdict(float)
    for (name, _), c in counters.items():
        out[name] += c.value
    for (name, _), h in histograms.items():
        out[name] += h.total
    return out


def _subtree(tracer, root):
    kids = defaultdict(list)
    for s in tracer.spans:
        kids[s.parent_id].append(s)
    out, todo = [root], [root.id]
    while todo:
        for s in kids[todo.pop()]:
            out.append(s)
            todo.append(s.id)
    return out


def _assert_agree(before, after, annotations, spans):
    assert annotations, "nothing was booked in the execute window"
    for name, booked in annotations.items():
        delta = after[name] - before[name]
        in_spans = sum(s.attrs.get(name, 0) for s in spans)
        assert delta == pytest.approx(booked, rel=1e-9, abs=1e-12), name
        assert in_spans == pytest.approx(booked, rel=1e-9, abs=1e-12), name
    # ...and no span saw a booking the timeline missed.
    in_spans = {k for s in spans for k in s.attrs if k in after}
    assert in_spans <= set(annotations), in_spans - set(annotations)


def _serve_case(svc, tracer, requests):
    before = _booked()
    futures = [svc.submit(r) for r in requests]
    responses = [f.result(timeout=60) for f in futures]
    after = _booked()
    ids = {r.request_id for r in requests}
    (bspan,) = [s for s in tracer.spans if s.name == "serve.batch"
                and ids & set(s.attrs["request_ids"])]
    assert set(bspan.attrs["request_ids"]) == ids
    ann = responses[0].timeline.annotations
    assert all(r.timeline.annotations == ann for r in responses)
    _assert_agree(before, after, ann, _subtree(tracer, bspan))
    return responses


CASES = {
    "solo": dict(n=1, config=None),
    "coalesced": dict(n=3, config=None),
    "gpusim": dict(n=1, config=dict(UNSANITIZED, backend="gpusim")),
    "compiled": dict(n=1, config=dict(UNSANITIZED, backend="compiled")),
    "host": dict(n=1, config={"backend": "host"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_served_batches_agree_across_views(case):
    n, config = CASES[case]["n"], CASES[case]["config"]
    tracer = Tracer()
    with SatService(workers=1, max_delay_s=0.5, max_batch=n,
                    tracer=tracer) as svc:
        for rnd in range(2):  # cold, then warm
            reqs = [SatRequest(_image(seed=rnd * n + i), algorithm=ALG,
                               config=config) for i in range(n)]
            responses = _serve_case(svc, tracer, reqs)
            assert [r.batch_size for r in responses] == [n] * n
    ann = responses[0].timeline.annotations
    assert ann["engine.images"] == n
    if case == "compiled":
        assert ann["compile.hit"] == n


def _traced_call(**kwargs):
    tracer = Tracer()
    before = _booked()
    with tracing(tracer), tracer.span("client.op"), \
            recording_timeline() as acc:
        run = sat(algorithm=ALG, pair="8u32s", **UNSANITIZED, **kwargs)
    _assert_agree(before, _booked(), acc, tracer.spans)
    return run, acc


def test_sharded_call_agrees_across_views(monkeypatch):
    """Serving never shards, so the sharded path is checked on a direct
    ``sat()`` under the same three sinks."""
    monkeypatch.setenv("REPRO_SHARD_THRESHOLD", str(64 * 64))
    monkeypatch.setenv("REPRO_SHARD_TILE", "64x64")
    monkeypatch.setenv("REPRO_SHARD_DEVICES", "2xP100")
    img = _image((150, 200), seed=9)
    _traced_call(image=img, backend="compiled")
    run, acc = _traced_call(image=img, backend="compiled")
    n_tiles = run.report["n_tiles"]
    assert acc["shard.runs"] == 1 and acc["shard.tiles"] == n_tiles
    assert acc["compile.hit"] == n_tiles
    assert acc["shard.kernel_us"] > 0


def test_warm_compiled_call_books_its_hit_into_the_timeline():
    img = _image((48, 80), seed=3)
    _traced_call(image=img, backend="compiled")
    _, acc = _traced_call(image=img, backend="compiled")
    assert acc["compile.hit"] == 1
    assert acc["sat.calls"] == 1
