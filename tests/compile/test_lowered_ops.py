"""Property tests for the lowered scan bodies of :mod:`repro.compile.ops`.

The lowered programs scan in place.  They must stay bit-identical to the
gpusim interpreter — compared as integer bit patterns, so ``-0.0`` and
NaN payloads count — on adversarial float chunks, both branches of the
integer column scan must agree, and no body may write to memory its
caller still owns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.compile import ops
from repro.compile.lower import CompiledPass, CompiledPlan
from repro.dtypes import parse_pair
from repro.exec.backends import launch_pass
from repro.gpusim.device import P100
from repro.gpusim.global_mem import GlobalArray
from repro.gpusim.launch import launch_kernel
from repro.sat import brlt_scanrow, scan_row_column, scanrow_brlt
from repro.sat.api import PAPER_ALGORITHMS, sat, sat_batch
from repro.scan import WARP_SCANS

SCANS = sorted(ops.WARP_SCAN_LOWERED)
FLOAT_PAIRS = ("32f32f", "64f64f")
_BITS = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}

#: Special-value densities: none, sparse, dense, every element.
DENSITIES = (0.0, 0.05, 0.3, 1.0)


def _specials(dtype) -> np.ndarray:
    fi = np.finfo(dtype)
    sub = fi.smallest_subnormal
    vals = [-0.0, 0.0, sub, -sub, fi.tiny / 2, -fi.tiny / 2, np.inf, -np.inf,
            fi.max, -fi.max, 1.0, -1.0]
    return np.array(vals + [np.nan, -np.nan], dtype=dtype)


def adversarial(seed: int, shape, dtype, density: float) -> np.ndarray:
    """Mixed magnitudes (2^-40..2^40, both signs) with a ``density``
    share of ``-0.0``, subnormals, ±inf, ±max and ±NaN."""
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(shape)
         * 2.0 ** rng.integers(-40, 41, shape)).astype(dtype)
    mask = rng.random(shape) < density
    x[mask] = rng.choice(_specials(dtype), int(mask.sum()))
    return x


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    u = _BITS[got.dtype]
    diff = np.argwhere(got.view(u) != want.view(u))
    assert diff.size == 0, (
        f"{len(diff)} elements differ, first at {tuple(diff[0])}: "
        f"{got[tuple(diff[0])]!r} vs {want[tuple(diff[0])]!r}")


chunks = dict(seed=st.integers(0, 2**32 - 1),
              pair=st.sampled_from(FLOAT_PAIRS),
              density=st.sampled_from(DENSITIES))


# -- warp scans against the interpreter -------------------------------------

def interpreted_warp_scan(name: str, x: np.ndarray) -> np.ndarray:
    """Every row of ``x`` scanned by one simulated warp."""
    src = GlobalArray(x.copy(), "in")
    dst = GlobalArray.empty(x.shape, x.dtype, "out")
    scan = WARP_SCANS[name]

    def kernel(ctx, s, d):
        row, lane = ctx.block_idx("x"), ctx.lane_id()
        d.store(ctx, row, lane, value=scan(ctx, s.load(ctx, row, lane), 32))

    launch_kernel(kernel, device=P100, grid=x.shape[0], block=32,
                  regs_per_thread=16, args=(src, dst), sanitize=False,
                  bounds_check=False)
    return dst.to_host()


@pytest.mark.parametrize("name", SCANS)
@given(rows=st.integers(1, 24), **chunks)
@example(rows=3, seed=0, pair="32f32f", density=1.0)
@example(rows=3, seed=1, pair="64f64f", density=0.3)
def test_warp_scan_bit_identical(name, rows, seed, pair, density):
    """Lanes run down axis -2 in both orientations: a row chunk as
    ``(..., 32, 1)``, a column slab as ``(32, C)``."""
    dtype = parse_pair(pair).output.np_dtype
    x = adversarial(seed, (rows, 32), dtype, density)
    want = interpreted_warp_scan(name, x)
    scan = ops.WARP_SCAN_LOWERED[name]
    got = x.copy()
    assert scan(got[..., None]).base is got  # in place
    assert_bits_equal(got, want)
    got = x.T.copy()
    assert scan(got) is got
    assert_bits_equal(got.T, want)


# -- whole lowered passes against the interpreter ---------------------------

#: (spec, pass index, opts): every pass body the float pairs lower to.
#: ScanRow-BRLT and BRLT-ScanRow run ``chunked_row_scan`` (warp-scan and
#: serial chunks), ScanRow runs ``carry_through_row_scan``, ScanColumn
#: runs ``chunked_row_scan`` with serial chunks; each pass has one row
#: and one column body, both the same program down axis -2.
PASSES = (
    [(brlt_scanrow.SPEC, 0, {})]
    + [(scanrow_brlt.SPEC, 0, {"scan": s}) for s in SCANS]
    + [(scan_row_column.SPEC, 0, {"scan": s}) for s in SCANS]
    + [(scan_row_column.SPEC, 1, {})]
)


def _pass_id(case):
    spec, i, opts = case
    return f"{spec.passes[i].name}-{opts.get('scan', 'serial')}"


@pytest.mark.parametrize("case", PASSES, ids=[_pass_id(c) for c in PASSES])
@given(height=st.sampled_from([32, 64]),
       width=st.sampled_from([32, 96, 544, 1056]), **chunks)
@example(height=32, width=1056, seed=2, pair="32f32f", density=0.05)
@example(height=32, width=544, seed=3, pair="64f64f", density=0.3)
def test_pass_body_bit_identical(case, height, width, seed, pair, density):
    """One lowered pass (strip carries included: 544 and 1056 columns span
    two strips of the double and float launches) against the same pass on
    the interpreter, ±NaN payloads included."""
    spec, i, opts = case
    p = spec.passes[i]
    tp = parse_pair(pair)
    x = adversarial(seed, (height, width), tp.output.np_dtype, density)
    dst, stats = launch_pass(p, GlobalArray(x.copy(), "in"), acc=tp.output,
                             device=P100, opts=opts, sanitize=False,
                             bounds_check=False)
    low = p.lower(stats, tp, opts)
    program = CompiledPlan(spec.algorithm, tp.name, [CompiledPass(
        p.name, low.rows, low.cols, low.col_major, p.transposed)])
    assert_bits_equal(program.run(x[None].copy())[0], dst.to_host())


@pytest.mark.parametrize("case", PASSES, ids=[_pass_id(c) for c in PASSES])
@given(length=st.sampled_from([32, 96, 544, 1056]),
       across=st.sampled_from([32, 64]), **chunks)
@example(length=1056, across=32, seed=2, pair="32f32f", density=0.05)
@example(length=544, across=64, seed=3, pair="64f64f", density=0.3)
def test_both_axis_bodies_bit_identical(case, length, across, seed, pair,
                                        density):
    """Both bodies of one pass against the interpreter: the body of the
    pass's own scan axis on the image, the other body on the physically
    transposed image (so a row pass scans down columns 544 and 1056
    long, two strips of the double and float launches)."""
    spec, i, opts = case
    p = spec.passes[i]
    tp = parse_pair(pair)
    shape = (length, across) if p.name == "ScanColumn" else (across, length)
    x = adversarial(seed, shape, tp.output.np_dtype, density)
    dst, stats = launch_pass(p, GlobalArray(x.copy(), "in"), acc=tp.output,
                             device=P100, opts=opts, sanitize=False,
                             bounds_check=False)
    low = p.lower(stats, tp, opts)
    # The pass's result before any transposed store.
    want = dst.to_host().T if p.transposed else dst.to_host()
    own, other = (low.cols, low.rows) if low.col_major else (low.rows,
                                                             low.cols)
    assert_bits_equal(own(x[None].copy())[0], want)
    assert_bits_equal(other(x.T[None].copy())[0], want.T)


# -- the integer column scan ------------------------------------------------

@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("height", [1, 31, 32, 257])
@pytest.mark.parametrize("width", [1, 33, 200, 700])
@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
def test_int_col_scan_branches_agree(monkeypatch, depth, height, width,
                                     dtype):
    """The strided accumulate and the row loop give the same bits, with
    wrap-around (values near the dtype's limits overflow every column)."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(depth * 1000 + height + width)
    x = rng.integers(info.max // 2, info.max, (depth, height, width),
                     dtype=dtype, endpoint=True)
    want = np.cumsum(x, axis=-2, dtype=dtype)
    monkeypatch.setattr(ops, "COL_SCAN_LOOP_SLAB", 0)        # always loop
    loop = ops.int_col_scan(x.copy())
    monkeypatch.setattr(ops, "COL_SCAN_LOOP_SLAB", 1 << 62)  # never loop
    acc = ops.int_col_scan(x.copy())
    np.testing.assert_array_equal(loop, want)
    np.testing.assert_array_equal(acc, want)
    assert loop.dtype == acc.dtype == np.dtype(dtype)


# -- nothing the caller still owns is written -------------------------------

@pytest.mark.parametrize("name", SCANS + ["serial"])
@pytest.mark.parametrize("pair", FLOAT_PAIRS)
def test_warp_scan_writes_only_its_chunk(name, pair):
    """Row chunks (``(..., 32, 1)`` views) and column slabs (``(..., 32,
    C)`` views) of a bigger buffer alike."""
    scan = (ops.serial_chunk_scan if name == "serial"
            else ops.WARP_SCAN_LOWERED[name])
    dtype = parse_pair(pair).output.np_dtype
    for shape, view, rest in (
            ((6, 3, 32), np.s_[:, 1, :, None], np.s_[:, ::2]),
            ((2, 3, 32, 6), np.s_[:, 1], np.s_[:, ::2])):
        big = adversarial(5, shape, dtype, 0.3)
        before = big.copy()
        want = scan(big[view].copy())
        got = scan(big[view])
        assert_bits_equal(got, want)
        assert_bits_equal(big[view], want)  # in place, through the view
        assert_bits_equal(big[rest], before[rest])


@pytest.mark.parametrize("pair", FLOAT_PAIRS)
@pytest.mark.parametrize("shape", [(1, 32, 32), (3, 32, 64), (2, 32, 512)])
def test_serial_chunk_scan_forms_agree(monkeypatch, pair, shape):
    """The lane accumulate and the lane loop give the same bits."""
    x = adversarial(7, shape, parse_pair(pair).output.np_dtype, 0.3)
    monkeypatch.setattr(ops, "SERIAL_LOOP_SLAB", 0)        # always loop
    loop = ops.serial_chunk_scan(x.copy())
    monkeypatch.setattr(ops, "SERIAL_LOOP_SLAB", 1 << 62)  # never loop
    assert_bits_equal(loop, ops.serial_chunk_scan(x.copy()))


SPECS = {"brlt_scanrow": brlt_scanrow.SPEC,
         "scanrow_brlt": scanrow_brlt.SPEC,
         "scan_row_column": scan_row_column.SPEC}


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("pass_index", [0, 1])
@pytest.mark.parametrize("pair", ["32f32f", "64f64f", "8u32s"])
@pytest.mark.parametrize("algo", sorted(SPECS))
def test_pass_body_writes_only_its_stack(algo, pair, pass_index, layout):
    """A body may overwrite the stack it is handed (the executing layers
    hand it a private one) but nothing next to it, and what it returns is
    that stack or fresh memory.  Covers the row and column bodies of
    every pass, float and integer."""
    p = SPECS[algo].passes[pass_index]
    tp = parse_pair(pair)
    _, stats = launch_pass(
        p, GlobalArray(np.ones((64, 96), tp.input.np_dtype), "in"),
        acc=tp.output, device=P100, sanitize=False, bounds_check=False)
    low = p.lower(stats, tp, {})
    dtype = tp.output.np_dtype
    for body in (b for b in (low.rows, low.cols) if b is not None):
        if layout == "contiguous":  # the middle image of three
            big = np.arange(3 * 64 * 96, dtype=dtype).reshape(3, 64, 96)
            region = (slice(1, 2), slice(None), slice(None))
        else:  # a window of a wider, taller buffer
            big = np.arange(2 * 96 * 160, dtype=dtype).reshape(2, 96, 160)
            region = (slice(None), slice(0, 64), slice(0, 96))
        big %= 251
        before = big.copy()
        stack = big[region]
        out = body(stack)
        outside = np.ones(big.shape, bool)
        outside[region] = False
        np.testing.assert_array_equal(big[outside], before[outside])
        assert (not np.shares_memory(out, big)
                or np.shares_memory(out, stack))


@pytest.mark.parametrize("algo", sorted(PAPER_ALGORITHMS))
@pytest.mark.parametrize("pair", ["8u32s", "32s32s", "32f32f", "64f64f"])
@pytest.mark.parametrize("backend", ["compiled", "host"])
def test_sat_never_writes_the_callers_image(monkeypatch, algo, pair,
                                            backend):
    """Warm calls stage into a private buffer even when the image is
    already in the accumulator dtype and bucket-aligned."""
    monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")
    tp = parse_pair(pair)
    rng = np.random.default_rng(11)
    img = (rng.random((64, 96)) * 100).astype(tp.input.np_dtype)
    before = img.copy()
    for _ in range(2):  # cold, then warm
        run = sat(img, pair=pair, algorithm=algo, backend=backend)
        assert not np.shares_memory(run.output, img)
    batch = sat_batch(np.stack([img, img]), pair=pair, algorithm=algo,
                      backend=backend)
    np.testing.assert_array_equal(img, before)
    for r in batch.runs:
        np.testing.assert_array_equal(r.output, run.output)
