"""Mid-process env and config changes take effect on the warm path.

A warm ``sat()`` resolves its execution config once and hands the result
down, and the sharder memoises its derived threshold on the raw strings of
the env vars it depends on.  Neither may hide a change made between two
warm calls on the same bucket: each must apply to the very next call.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.exec.config import (ExecutionConfig, execution,
                               resolve_execution, resolved_execution,
                               set_default_config)
from repro.exec.registry import get_sharder
from repro.sat.api import sat
from repro.sat.naive import sat_reference
from repro.shard import ShardConfig, ShardRun

SHAPE = (256, 256)
ALGORITHMS = ("brlt_scanrow", "auto")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Start every test from the built-in defaults, whatever profile the
    suite runs under."""
    for name in list(os.environ):
        if name.startswith(("REPRO_EXEC_", "REPRO_GPUSIM_", "REPRO_SHARD_",
                            "REPRO_PLAN_AUTOTUNE")):
            monkeypatch.delenv(name)


@pytest.fixture
def img():
    return np.random.default_rng(3).integers(0, 256, SHAPE, dtype=np.uint8)


def warm(img, algorithm, **kw):
    """Two calls on the bucket, so the next one is warm everywhere
    (plan cache, compiled program, planner memo)."""
    for _ in range(2):
        run = sat(img, pair="8u32s", algorithm=algorithm, **kw)
    return run


def call(img, algorithm, **kw):
    run = sat(img, pair="8u32s", algorithm=algorithm, **kw)
    np.testing.assert_array_equal(run.output, sat_reference(img, "8u32s"))
    return run


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_lowering_shard_threshold_shards_the_next_call(monkeypatch, img,
                                                       algorithm):
    assert not isinstance(warm(img, algorithm, backend="compiled"), ShardRun)
    monkeypatch.setenv("REPRO_SHARD_THRESHOLD", str(SHAPE[0] * SHAPE[1] - 1))
    monkeypatch.setenv("REPRO_SHARD_TILE", "64x64")
    assert isinstance(call(img, algorithm, backend="compiled"), ShardRun)
    monkeypatch.delenv("REPRO_SHARD_THRESHOLD")
    monkeypatch.delenv("REPRO_SHARD_TILE")
    assert not isinstance(call(img, algorithm, backend="compiled"), ShardRun)


@pytest.mark.parametrize("var,value", [
    ("REPRO_SHARD_DEVICES", "4xP100"),
    ("REPRO_SHARD_TILE", "512x512"),
    ("REPRO_SHARD_STREAMS", "3"),
])
def test_derived_threshold_follows_its_env_vars(monkeypatch, var, value):
    sharder = get_sharder()
    before = sharder.threshold_elems()
    assert before == ShardConfig.from_env().threshold_elems
    monkeypatch.setenv(var, value)
    after = sharder.threshold_elems()
    assert after == ShardConfig.from_env().threshold_elems != before
    monkeypatch.delenv(var)
    assert sharder.threshold_elems() == before


def test_derived_threshold_change_reaches_sat(monkeypatch, img):
    """A device set and tile small enough to bring the derived threshold
    below 256^2 make the next warm call shard."""
    assert not isinstance(warm(img, "brlt_scanrow", backend="compiled"),
                          ShardRun)
    monkeypatch.setenv("REPRO_SHARD_TILE", "64x64")  # 2 x 2 x 64^2 < 256^2
    assert isinstance(call(img, "brlt_scanrow", backend="compiled"),
                      ShardRun)
    monkeypatch.setenv("REPRO_SHARD_DEVICES", "8xP100")  # 8 x 2 x 64^2
    assert not isinstance(call(img, "brlt_scanrow", backend="compiled"),
                          ShardRun)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("var,value,backend", [
    ("REPRO_EXEC_BACKEND", "host", "host"),
    ("REPRO_EXEC_BACKEND", "compiled", "compiled"),
    ("REPRO_EXEC_PROFILE", "compiled", "compiled"),
])
def test_backend_env_switches_the_next_call(monkeypatch, img, algorithm,
                                            var, value, backend):
    assert warm(img, algorithm).backend == "gpusim"
    monkeypatch.setenv(var, value)
    assert call(img, algorithm).backend == backend
    monkeypatch.delenv(var)
    assert call(img, algorithm).backend == "gpusim"


def _sanitized(run) -> bool:
    return bool(run.launches) and all(
        s.timing.sanitizer is not None for s in run.launches)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("var,value", [
    ("REPRO_EXEC_PROFILE", "sanitized"),
    ("REPRO_GPUSIM_SANITIZE", "1"),
])
def test_sanitize_env_applies_to_the_next_warm_compiled_call(
        monkeypatch, img, algorithm, var, value):
    assert not _sanitized(warm(img, algorithm, backend="compiled"))
    monkeypatch.setenv(var, value)
    assert _sanitized(call(img, algorithm, backend="compiled"))
    monkeypatch.delenv(var)
    assert not _sanitized(call(img, algorithm, backend="compiled"))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_execution_context_switches_the_next_call(img, algorithm):
    assert warm(img, algorithm).backend == "gpusim"
    with execution(backend="host"):
        assert call(img, algorithm).backend == "host"
        with execution(backend="compiled"):
            assert call(img, algorithm).backend == "compiled"
    with execution(sanitize=True):
        assert _sanitized(call(img, algorithm, backend="compiled"))
    assert call(img, algorithm).backend == "gpusim"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_set_default_config_switches_the_next_call(img, algorithm):
    assert warm(img, algorithm).backend == "gpusim"
    previous = set_default_config(backend="host")
    try:
        assert call(img, algorithm).backend == "host"
        set_default_config(sanitize=True, backend="compiled")
        assert _sanitized(call(img, algorithm))
    finally:
        set_default_config(previous)
    assert call(img, algorithm).backend == "gpusim"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["gpusim", "host", "compiled"])
def test_one_resolution_per_call(monkeypatch, algorithm, backend):
    """``sat()`` resolves its config once and every layer below reuses it."""
    small = np.random.default_rng(4).integers(0, 256, (64, 64),
                                              dtype=np.uint8)
    warm(small, algorithm, backend=backend)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return resolve_execution(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, "resolve_execution", None)
                is resolve_execution):
            monkeypatch.setattr(mod, "resolve_execution", counting)
    for n in range(1, 4):
        call(small, algorithm, backend=backend)
        assert len(calls) == n


def test_resolved_execution_skips_only_full_configs(monkeypatch):
    full = resolve_execution()
    assert resolved_execution(full) is full
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "host")
    # A full per-call config outranks the environment in every field.
    assert resolved_execution(full) is full
    assert resolved_execution(full, backend="compiled").backend == "compiled"
    partial = ExecutionConfig(sanitize=False)
    assert resolved_execution(partial) == resolve_execution(partial)
    assert resolved_execution(partial).backend == "host"
    assert resolved_execution().backend == "host"
