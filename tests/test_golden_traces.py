"""Golden-trace regression: pinned cost-model snapshots per algorithm.

For each cell — 128x128 32f32f, 1024x1024 32f32f (the calibration size)
and 160x224 in 8u32s (sub-word bank model) and 64f64f (sector straddling,
two-phase smem accounting) — every launch's ``CostCounters`` and
``KernelTiming`` must match the JSON snapshot under ``tests/golden/``
**exactly**, and the output's bytes must hash to the digest pinned in
``tests/golden/output_sha256.json``.  The simulator is deterministic, so
any drift is a real change to the cost model or the kernels and must be
reviewed, not absorbed.

The 1024x1024 and 160x224 cells and the sanitizer reports were recorded
from the per-register kernel bodies the SAT kernels once had next to
their register-bank bodies (both bodies agreed on every byte); they now
stand in for that cross-check.

To regenerate after an intentional model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then inspect the diff of ``tests/golden/*.json`` in review.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.sat.api import PAPER_ALGORITHMS

from .helpers import make_image

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = GOLDEN_DIR / "output_sha256.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: The original cell; its files and test ids carry no shape/pair suffix.
BASE_CELL = ((128, 128), "32f32f")
CELLS = [
    BASE_CELL,
    ((1024, 1024), "32f32f"),
    ((160, 224), "8u32s"),
    ((160, 224), "64f64f"),
]


def cell_stem(algo: str, shape, pair: str) -> str:
    stem = f"{algo}_{shape[0]}x{shape[1]}"
    return stem if (shape, pair) == BASE_CELL else f"{stem}_{pair}"


def output_digest(out: np.ndarray) -> str:
    out = np.ascontiguousarray(out)
    h = hashlib.sha256()
    h.update(f"{out.dtype.str}{out.shape}".encode())
    h.update(out.tobytes())
    return h.hexdigest()


def run_cell(algo: str, shape=BASE_CELL[0], pair: str = BASE_CELL[1]):
    img = make_image(shape, pair, seed=0)
    return PAPER_ALGORITHMS[algo](img, pair=pair)


def trace_of(run) -> list:
    trace = []
    for s in run.launches:
        timing = dataclasses.asdict(s.timing)
        timing.pop("sanitizer")  # debug-only attachment, not cost state
        trace.append({
            "name": s.name,
            "grid": s.grid,
            "block": s.block,
            "regs_per_thread": s.regs_per_thread,
            "smem_per_block": s.smem_per_block,
            "counters": s.counters.as_dict(),
            "timing": timing,
        })
    # JSON round-trip normalises tuples to lists so the comparison with
    # the loaded snapshot is structural, not type-sensitive.
    return json.loads(json.dumps(trace))


def current_trace(algo: str) -> list:
    return trace_of(run_cell(algo))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("algo,shape,pair", [
    pytest.param(algo, shape, pair,
                 id=algo if (shape, pair) == BASE_CELL
                 else f"{algo}-{shape[0]}x{shape[1]}-{pair}")
    for shape, pair in CELLS
    for algo in sorted(PAPER_ALGORITHMS)
])
def test_trace_matches_golden(algo, shape, pair):
    stem = cell_stem(algo, shape, pair)
    path = GOLDEN_DIR / f"{stem}.json"
    run = run_cell(algo, shape, pair)
    got = trace_of(run)
    digest = output_digest(run.output)
    if REGEN:
        _write_json(path, got)
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        _write_json(DIGESTS, {**digests, stem: digest})
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden trace {path}; run with REPRO_REGEN_GOLDEN=1 to create"
    )
    want = json.loads(path.read_text())
    assert got == want, (
        f"cost trace for {stem} drifted from {path.name}; if the change is "
        f"intentional, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
    )
    assert digest == json.loads(DIGESTS.read_text())[stem], (
        f"output bytes of {stem} drifted from {DIGESTS.name}"
    )


def test_sanitizer_reports_match_golden():
    """Element-granular sanitizer counts of every launch, pinned."""
    path = GOLDEN_DIR / "sanitizer_reports_128x160.json"
    img = make_image((128, 160), "32f32f")
    got = {
        algo: [dataclasses.asdict(s.timing.sanitizer)
               for s in PAPER_ALGORITHMS[algo](img, pair="32f32f",
                                               sanitize=True).launches]
        for algo in sorted(PAPER_ALGORITHMS)
    }
    if REGEN:
        _write_json(path, got)
        pytest.skip(f"regenerated {path.name}")
    assert got == json.loads(path.read_text())


def test_trace_is_deterministic():
    a = current_trace("brlt_scanrow")
    b = current_trace("brlt_scanrow")
    assert a == b
