"""Lowered building blocks: whole-grid NumPy forms of the kernel phases.

Bit-identity is the contract.  Every helper here reproduces the exact
addition *association* of the simulated kernels — which additions happen,
in which order, with which operands — so float outputs match the
interpreter bit for bit (integer outputs match trivially).  The
load-bearing details, matched one-to-one against the kernel bodies:

* Inner chunk scans run within independent 32-element chunks: the serial
  scan is ``np.add.accumulate`` (defined sequentially, identical to the
  register loop of Alg. 2); the parallel warp scans are emulated stage by
  stage, in place: each stage adds the shuffled operand to exactly the
  lanes the kernels' predicates enable (``-0.0``, which changes no value,
  to the rest), in the kernels' ``data + val`` operand order.
* The cross-warp fix-up (Fig. 3c) is a *serial left-associated* walk over
  per-chunk totals — not one big ``cumsum`` over the row, which would
  associate float additions differently.
* Zero additions are real: the kernels add a literal ``+0.0`` offset to
  warp 0 / strip 0 (``offs = offs + carry`` with ``carry = const(0)``,
  then ``bank + offs``), which flushes ``-0.0`` data to ``+0.0``.  The
  lowered programs perform the same adds instead of skipping them.
* The transposed store goes through :func:`transpose_scatter`: the
  destination index lattice is proven injective with the same
  affine-lattice machinery the address tapes use, then written as one
  strided-view copy; a cached fancy-index scatter is the fallback.

Integer accumulators are exempt from all of the association rules:
wrapping integer addition is associative and commutative, so *any*
summation order is bit-identical.  :func:`int_row_scan` and
:func:`int_col_scan` exploit that — plain whole-axis scans, no chunking —
and implement both physical axes so integer plans run transpose-free
under the executor's layout propagation
(:class:`~repro.compile.lower.CompiledPlan`).

In-place contract: every scan here may overwrite the array it is given —
the warp scans, :func:`serial_chunk_scan` and the integer scans always
do; the float row programs do when the array is contiguous and scan a
private copy otherwise — and returns the result, which may alias that
array.  The array must therefore be private to the call: a pass body owns
the stack :meth:`~repro.compile.lower.CompiledPlan.run` hands it, and the
warp scans own the chunk views their pass body passes in.  Nothing here
writes to any other array.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..gpusim.replay import _affine_view, _injective
from ..obs.metrics import get_metrics

__all__ = [
    "WARP_SCAN_LOWERED",
    "is_integer_acc",
    "int_row_scan",
    "int_col_scan",
    "serial_chunk_scan",
    "chunked_row_scan",
    "carry_through_row_scan",
    "transpose_scatter",
]


def is_integer_acc(dtype) -> bool:
    """Whether ``dtype`` is an integer accumulator (association-free)."""
    return np.issubdtype(np.dtype(dtype), np.integer)


def int_row_scan(x: np.ndarray) -> np.ndarray:
    """Whole-row inclusive scan along the last axis, in place.

    Only valid for integer accumulators: modular addition is associative,
    so one sequential accumulate is bit-identical to the kernels'
    chunk/offset/carry decomposition regardless of ``wpb``.  The dtype is
    pinned — accumulate would otherwise widen sub-platform ints.
    """
    return np.add.accumulate(x, axis=-1, dtype=x.dtype, out=x)


#: Row-slab size (elements of ``x[..., h, :]``) from which
#: :func:`int_col_scan` switches from one strided accumulate to the
#: row-at-a-time loop.
COL_SCAN_LOOP_SLAB = 512


def int_col_scan(x: np.ndarray) -> np.ndarray:
    """Whole-column inclusive scan down axis -2 of a stack, in place.

    Two equivalent forms, chosen by the stack's shape alone.  When a row
    slab ``x[..., h, :]`` holds fewer than :data:`COL_SCAN_LOOP_SLAB`
    elements (e.g. one image up to 511 wide), a single
    ``np.add.accumulate(axis=-2)`` is fastest: the per-row Python step
    would dominate.  From about 512-wide slabs (a 512² image, or a stack
    of four 128² ones) the strided accumulate loses to a row-at-a-time
    running sum, whose every step adds one whole contiguous slab (1024²
    int32: 2.0 ms against 10.8 ms on an Intel Xeon vCPU with AVX-512).
    Integer-only, like :func:`int_row_scan`, so both forms are
    bit-identical.
    """
    if x.shape[-2] and x.size // x.shape[-2] < COL_SCAN_LOOP_SLAB:
        return np.add.accumulate(x, axis=-2, dtype=x.dtype, out=x)
    for h in range(1, x.shape[-2]):
        np.add(x[..., h, :], x[..., h - 1, :], out=x[..., h, :])
    return x


def _add_in_place(dst: np.ndarray, val: np.ndarray) -> None:
    """``dst = dst + val``, in the kernels' ``data + val`` operand order."""
    np.add(dst, val, out=dst)


# The warp scans add a whole ``(..., 32)`` chunk at once: active lanes get
# their shuffled operand, idle lanes ``-0.0``, the one addend that leaves
# every value (``-0.0`` and NaN payloads included) unchanged.  Adding into
# the active lane slices alone is not enough: NumPy's loops do not keep
# the operand order for every slice length, so where both operands are
# NaN the result's payload could differ from the interpreter's whole-warp
# ``data + val``.  Whole 32-lane rows run the same loop as the interpreter.
_IDLE = -0.0


def _idle_like(x: np.ndarray) -> np.ndarray:
    """A C-contiguous all-idle scratch chunk shaped like ``x``."""
    return np.full(x.shape, _IDLE, dtype=x.dtype)


def _lane_add(x: np.ndarray, v: np.ndarray, dst, src) -> None:
    """One predicated warp-scan stage, in place: lanes ``dst`` add lanes
    ``src``.  ``v`` is an all-idle scratch chunk and is left that way."""
    v[..., dst] = x[..., src]
    _add_in_place(x, v)
    v[..., dst] = _IDLE


def kogge_stone_lowered(x: np.ndarray) -> np.ndarray:
    """Alg. 3 in place: stages ``i = 1..16``, lanes ``>= i`` add the
    value ``i`` lanes below."""
    v = np.empty(x.shape, dtype=x.dtype)
    i = 1
    while i < 32:
        v[..., :i] = _IDLE
        v[..., i:] = x[..., :-i]
        _add_in_place(x, v)
        i *= 2
    return x


def ladner_fischer_lowered(x: np.ndarray) -> np.ndarray:
    """Alg. 4 in place: stage ``i`` adds lane ``i-1`` of every
    ``2i``-wide segment to the segment's upper half."""
    v = _idle_like(x)
    i = 1
    while i < 32:
        shape = x.shape[:-1] + (32 // (2 * i), 2 * i)
        # ``v`` is C-contiguous, so its reshape is a view; ``x`` is only
        # read through its reshape.
        vseg = v.reshape(shape)
        vseg[..., i:] = x.reshape(shape)[..., i - 1:i]
        _add_in_place(x, v)
        vseg[..., i:] = _IDLE
        i *= 2
    return x


def brent_kung_lowered(x: np.ndarray) -> np.ndarray:
    """Brent-Kung in place: power-of-two up-sweep (lanes ``k*2d + 2d-1``
    add the lane ``d`` below), then the inclusive down-sweep (lanes
    ``k*2d + d-1``, ``k >= 1``, likewise)."""
    v = _idle_like(x)
    d = 1
    while d < 32:
        _lane_add(x, v, slice(2 * d - 1, None, 2 * d),
                  slice(d - 1, None, 2 * d))
        d *= 2
    d = 8
    while d >= 1:
        _lane_add(x, v, slice(3 * d - 1, None, 2 * d),
                  slice(2 * d - 1, 32 - d, 2 * d))
        d //= 2
    return x


def han_carlson_lowered(x: np.ndarray) -> np.ndarray:
    """Han-Carlson in place: odd lanes absorb their left neighbour,
    Kogge-Stone runs over the odd lanes, even lanes ``>= 2`` fix up."""
    v = _idle_like(x)
    _lane_add(x, v, slice(1, None, 2), slice(0, None, 2))
    d = 2
    while d < 32:
        _lane_add(x, v, slice(d + 1, None, 2), slice(1, 32 - d, 2))
        d *= 2
    _lane_add(x, v, slice(2, None, 2), slice(1, 31, 2))
    return x


def serial_chunk_scan(x: np.ndarray) -> np.ndarray:
    """Alg. 2 in place on a ``(..., 32)`` chunk: ``np.add.accumulate`` is
    defined sequentially, bit-identical to the interpreter's
    register-bank scan.  The dtype is pinned — accumulate would otherwise
    widen sub-platform ints."""
    return np.add.accumulate(x, axis=-1, dtype=x.dtype, out=x)


#: Lane-wise warp-scan emulators on ``(..., 32)`` arrays, keyed by the
#: same names as :data:`repro.scan.WARP_SCANS`.
WARP_SCAN_LOWERED: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "kogge_stone": kogge_stone_lowered,
    "ladner_fischer": ladner_fischer_lowered,
    "brent_kung": brent_kung_lowered,
    "han_carlson": han_carlson_lowered,
}


def chunked_row_scan(x: np.ndarray, wpb: int,
                     inner: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The tile-scan + Fig.-3c offsets + strip-carry program along the
    last axis (BRLT-ScanRow / ScanRow-BRLT / ScanColumn structure).

    ``x`` is ``(..., W)`` in the accumulator dtype with ``W % 32 == 0``;
    ``wpb`` is the recorded warps-per-block (the strip width in 32-wide
    chunks); ``inner`` scans each independent ``(..., 32)`` chunk in
    place.  Every leading axis is an independent row — bands and batch
    stacking vectorise for free because blocks along the grid-parallel
    axis never communicate.  Scans ``x`` in place when it is contiguous
    (a private copy otherwise) and returns the result.
    """
    lead = x.shape[:-1]
    nc = x.shape[-1] // 32
    s = inner(np.ascontiguousarray(x).reshape(lead + (nc, 32)))
    totals = s[..., 31]
    # Strip walk: offsets are the serial left-associated prefix of the
    # chunk totals within each strip; the first chunk's offset is a
    # literal +0.0; `off + carry` and the final `data + off` are real
    # additions even when zero (they flush -0.0 exactly as the kernels).
    offterm = np.empty_like(totals)
    carry = np.zeros(lead, dtype=x.dtype)
    for k0 in range(0, nc, wpb):
        m = min(wpb, nc - k0)
        inc = np.add.accumulate(totals[..., k0:k0 + m], axis=-1, dtype=x.dtype)
        off = np.empty(lead + (m,), dtype=x.dtype)
        off[..., 0] = 0
        off[..., 1:] = inc[..., : m - 1]
        offterm[..., k0:k0 + m] = off + carry[..., None]
        carry = carry + inc[..., m - 1]
    _add_in_place(s, offterm[..., None])
    return s.reshape(x.shape)


def carry_through_row_scan(x: np.ndarray,
                           scan: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The ScanRow (Sec. IV-C1) program along the last axis.

    Unlike the strip kernels, the carry is injected into lane 0 *before*
    the warp scan and propagates through it, so chunks are inherently
    sequential; each chunk is still one vectorised whole-grid scan, run in
    place on a chunk-major scratch copy.  The lane-0 add happens for
    chunk 0 too (``carry = const(0)``).  Writes the result into ``x`` when
    it is contiguous (a private copy otherwise) and returns it.
    """
    lead = x.shape[:-1]
    nc = x.shape[-1] // 32
    t = np.ascontiguousarray(x).reshape(lead + (nc, 32))
    # Chunk-major private copy: every chunk scan runs on contiguous rows.
    chunks = np.ascontiguousarray(np.moveaxis(t, -2, 0))
    carry = np.zeros(lead, dtype=x.dtype)
    for chunk in chunks:
        _add_in_place(chunk[..., 0], carry)
        scan(chunk)
        # A view: this chunk is final, later chunks only read it.
        carry = chunk[..., 31]
    np.copyto(t, np.moveaxis(chunks, 0, -2))
    return t.reshape(x.shape)


# Cached fancy-index scatters for non-injective (or non-affine) lattices,
# keyed by stack shape.  Bounded: transposed stores only ever produce one
# lattice per (depth, bucket), and buckets are already LRU-bounded by the
# plan cache.
_SCATTER_INDEX_CACHE: Dict[tuple, np.ndarray] = {}
_SCATTER_CACHE_MAX = 16


def transpose_scatter(res: np.ndarray) -> np.ndarray:
    """Per-image transposed store of a ``(D, H, W)`` stack -> ``(D, W, H)``.

    The destination index of source element ``(d, r, c)`` is the affine
    lattice ``d*W*H + c*H + r``.  When :func:`~repro.gpusim.replay.
    _injective` proves the lattice injective (write order cannot matter),
    the store is a single strided-view copy — the same fast path the
    address tapes use; otherwise the resolved index array is cached and
    the store becomes one fancy-index scatter.
    """
    d_, h, w = res.shape
    dst = np.empty((d_, w, h), dtype=res.dtype)
    desc = (0, (d_, h, w), (w * h, 1, h))
    if _injective(desc):
        np.copyto(_affine_view(dst.reshape(-1), desc), res)
        get_metrics().counter("compile.scatter", kind="affine").inc()
        return dst
    key = (d_, h, w)
    idx = _SCATTER_INDEX_CACHE.get(key)
    if idx is None:
        if len(_SCATTER_INDEX_CACHE) >= _SCATTER_CACHE_MAX:
            _SCATTER_INDEX_CACHE.pop(next(iter(_SCATTER_INDEX_CACHE)))
        d_i = np.arange(d_)[:, None, None] * (w * h)
        r_i = np.arange(h)[None, :, None]
        c_i = np.arange(w)[None, None, :] * h
        idx = _SCATTER_INDEX_CACHE[key] = (d_i + r_i + c_i).reshape(-1)
    dst.reshape(-1)[idx] = res.reshape(-1)
    get_metrics().counter("compile.scatter", kind="cached").inc()
    return dst
