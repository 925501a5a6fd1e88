"""BatchRun.to_dict(): the stable JSON metric view and its round trip."""

from __future__ import annotations

import json

import pytest

from repro.engine import Engine
from repro.engine.batch import BatchRun

from ..helpers import make_image

#: Keys benchmarks/bench_batch.py and repro.obs.regress rely on — part of
#: the BENCH_batch.json history format, so removals are breaking changes.
STABLE_KEYS = {
    "algorithm", "device", "pair", "n_images", "wall_s",
    "modeled_batched_s", "modeled_sequential_s",
    "plan_hits", "plan_misses", "unplanned", "plan_hit_rate",
    "images_per_s_modeled", "wall_images_per_s",
    "effective_gbps", "speedup_vs_sequential",
    "buckets", "sector_bytes",
}


@pytest.fixture(scope="module")
def batch_run():
    imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(6)]
    return Engine().run_batch(imgs, pair="8u32s", algorithm="brlt_scanrow")


def test_to_dict_has_the_stable_keys(batch_run):
    d = batch_run.to_dict()
    assert set(d) == STABLE_KEYS


def test_to_dict_is_json_serialisable(batch_run):
    text = json.dumps(batch_run.to_dict())
    assert json.loads(text) == batch_run.to_dict()


def test_to_dict_values_match_properties(batch_run):
    d = batch_run.to_dict()
    assert d["n_images"] == batch_run.n_images == 6
    assert d["plan_hit_rate"] == pytest.approx(batch_run.plan_hit_rate)
    assert d["images_per_s_modeled"] == pytest.approx(batch_run.images_per_s)
    assert d["effective_gbps"] == pytest.approx(batch_run.effective_gbps)
    assert d["speedup_vs_sequential"] == pytest.approx(
        batch_run.speedup_vs_sequential
    )
    # Bucket layout depends on the profile (sanitized falls back to
    # per-image buckets); the metric view must reflect it either way.
    assert all(shape == [64, 64] for shape, _ in d["buckets"])
    assert sum(n for _, n in d["buckets"]) == 6


def test_json_round_trip_preserves_metrics(batch_run):
    d = json.loads(json.dumps(batch_run.to_dict()))
    back = BatchRun.metrics_from_dict(d)
    assert back.algorithm == batch_run.algorithm
    assert back.pair == batch_run.pair
    assert back.device == batch_run.device
    assert back.plan_hits == batch_run.plan_hits
    assert back.plan_misses == batch_run.plan_misses
    assert back.unplanned == batch_run.unplanned
    assert back.plan_hit_rate == pytest.approx(batch_run.plan_hit_rate)
    assert back.modeled_batched_s == pytest.approx(batch_run.modeled_batched_s)
    assert back.speedup_vs_sequential == pytest.approx(
        batch_run.speedup_vs_sequential
    )
    assert back.buckets == batch_run.buckets
    # The metric view carries no per-image runs by design, so the
    # run-derived gauges (n_images, images_per_s, effective_gbps) reset.
    assert back.runs == [] and back.n_images == 0


def test_round_trip_of_the_round_trip_is_stable(batch_run):
    d1 = batch_run.to_dict()
    back = BatchRun.metrics_from_dict(json.loads(json.dumps(d1)))
    d2 = back.to_dict()
    # Gauges derived from the (absent) runs differ; every stored metric
    # survives unchanged.
    for key in STABLE_KEYS - {"n_images", "effective_gbps",
                              "images_per_s_modeled", "wall_images_per_s"}:
        assert d2[key] == d1[key], key
