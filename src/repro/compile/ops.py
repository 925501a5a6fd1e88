"""Lowered building blocks: whole-grid NumPy forms of the kernel phases.

Bit-identity is the contract.  Every helper here reproduces the exact
addition *association* of the simulated kernels — which additions happen,
in which order, with which operands — so float outputs match the
interpreter bit for bit (integer outputs match trivially).  The
load-bearing details, matched one-to-one against the kernel bodies:

* Inner chunk scans run within independent 32-element chunks: the serial
  scan is a sequential accumulate (identical to the register loop of
  Alg. 2); the parallel warp scans are emulated stage by stage, in
  place: each stage adds the shuffled operand to exactly the lanes the
  kernels' predicates enable (``-0.0``, which changes no value, to the
  rest), in the kernels' ``data + val`` operand order.
* The cross-warp fix-up (Fig. 3c) is a *serial left-associated* walk over
  per-chunk totals — not one big ``cumsum`` over the row, which would
  associate float additions differently.
* Zero additions are real: the kernels add a literal ``+0.0`` offset to
  warp 0 / strip 0 (``offs = offs + carry`` with ``carry = const(0)``,
  then ``bank + offs``), which flushes ``-0.0`` data to ``+0.0``.  The
  lowered programs perform the same adds instead of skipping them.
* Transposed stores are never materialised: the float programs scan
  down axis -2 of a ``(..., L, C)`` view with the warp lanes on that axis,
  so one function serves both memory orientations — a row scan hands it
  ``stack[..., None]``, a column scan the stack itself — and
  :class:`~repro.compile.lower.CompiledPlan` runs whichever orientation
  the pending per-image transpose calls for.

Integer accumulators are exempt from all of the association rules:
wrapping integer addition is associative and commutative, so *any*
summation order is bit-identical.  :func:`int_row_scan` and
:func:`int_col_scan` exploit that — plain whole-axis scans, no chunking.

In-place contract: every scan here may overwrite the array it is given —
the warp scans, :func:`serial_chunk_scan` and the integer scans always
do; the float pass programs do when the array is contiguous and scan a
private copy otherwise — and returns the result, which may alias that
array.  The array must therefore be private to the call: a pass body owns
the stack :meth:`~repro.compile.lower.CompiledPlan.run` hands it, and the
warp scans own the chunk views their pass body passes in.  Nothing here
writes to any other array.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = [
    "WARP_SCAN_LOWERED",
    "is_integer_acc",
    "int_row_scan",
    "int_col_scan",
    "serial_chunk_scan",
    "chunked_row_scan",
    "carry_through_row_scan",
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


# The warp scans add a whole chunk stack at once: active lanes get their
# shuffled operand, idle lanes ``-0.0``, the one addend that leaves every
# value (``-0.0`` and NaN payloads included) unchanged.  Adding into the
# active lane slices alone is not enough: NumPy's loops do not keep the
# operand order for every slice length, so where both operands are NaN
# the result's payload could differ from the interpreter's whole-warp
# ``data + val``.  Whole chunks run the same loop as the interpreter.
_IDLE = -0.0


def _idle_like(x: np.ndarray) -> np.ndarray:
    """A C-contiguous all-idle scratch chunk shaped like ``x``."""
    return np.full(x.shape, _IDLE, dtype=x.dtype)


def _lanes(x: np.ndarray) -> np.ndarray:
    """A ``(..., 32, C)`` chunk array as one ``(n, 32, C)`` view, so the
    scans index lanes as cheaply as a row chunk's last axis.  A copy
    would silently lose the in-place result, so it is refused."""
    x3 = x.reshape(-1, 32, x.shape[-1])
    if (x3.base is not (x if x.base is None else x.base)
            and not np.may_share_memory(x3, x)):
        raise ValueError("warp-scan chunks must merge into one lane view")
    return x3


def _lane_add(x: np.ndarray, v: np.ndarray, dst, src) -> None:
    """One predicated warp-scan stage, in place: lanes ``dst`` add lanes
    ``src``.  ``v`` is an all-idle scratch chunk and is left that way."""
    v[:, dst] = x[:, src]
    _add_in_place(x, v)
    v[:, dst] = _IDLE


def kogge_stone_lowered(x: np.ndarray) -> np.ndarray:
    """Alg. 3 in place: stages ``i = 1..16``, lanes ``>= i`` add the
    value ``i`` lanes below."""
    x3 = _lanes(x)
    v = np.empty(x3.shape, dtype=x.dtype)
    i = 1
    while i < 32:
        v[:, :i] = _IDLE
        v[:, i:] = x3[:, :-i]
        _add_in_place(x3, v)
        i *= 2
    return x


def ladner_fischer_lowered(x: np.ndarray) -> np.ndarray:
    """Alg. 4 in place: stage ``i`` adds lane ``i-1`` of every
    ``2i``-wide segment to the segment's upper half."""
    x3 = _lanes(x)
    v = _idle_like(x3)
    i = 1
    while i < 32:
        shape = (x3.shape[0], 32 // (2 * i), 2 * i, x3.shape[2])
        # ``v`` is C-contiguous, so its reshape is a view; ``x`` is only
        # read through its reshape.
        vseg = v.reshape(shape)
        vseg[:, :, i:] = x3.reshape(shape)[:, :, i - 1:i]
        _add_in_place(x3, v)
        vseg[:, :, i:] = _IDLE
        i *= 2
    return x


def brent_kung_lowered(x: np.ndarray) -> np.ndarray:
    """Brent-Kung in place: power-of-two up-sweep (lanes ``k*2d + 2d-1``
    add the lane ``d`` below), then the inclusive down-sweep (lanes
    ``k*2d + d-1``, ``k >= 1``, likewise)."""
    x3 = _lanes(x)
    v = _idle_like(x3)
    d = 1
    while d < 32:
        _lane_add(x3, v, slice(2 * d - 1, None, 2 * d),
                  slice(d - 1, None, 2 * d))
        d *= 2
    d = 8
    while d >= 1:
        _lane_add(x3, v, slice(3 * d - 1, None, 2 * d),
                  slice(2 * d - 1, 32 - d, 2 * d))
        d //= 2
    return x


def han_carlson_lowered(x: np.ndarray) -> np.ndarray:
    """Han-Carlson in place: odd lanes absorb their left neighbour,
    Kogge-Stone runs over the odd lanes, even lanes ``>= 2`` fix up."""
    x3 = _lanes(x)
    v = _idle_like(x3)
    _lane_add(x3, v, slice(1, None, 2), slice(0, None, 2))
    d = 2
    while d < 32:
        _lane_add(x3, v, slice(d + 1, None, 2), slice(1, 32 - d, 2))
        d *= 2
    _lane_add(x3, v, slice(2, None, 2), slice(1, 31, 2))
    return x


#: Lane-slab size (elements of ``x[..., lane, :]``) from which
#: :func:`serial_chunk_scan` runs its lane loop.
SERIAL_LOOP_SLAB = 1024


def serial_chunk_scan(x: np.ndarray) -> np.ndarray:
    """Alg. 2 in place on a ``(..., 32, C)`` chunk, down the lanes.

    Two bit-identical forms of the interpreter's sequential
    ``acc[l-1] + x[l]`` register-bank scan, chosen by the chunk's shape
    alone, as :func:`int_col_scan` chooses.  One
    ``np.add.accumulate(axis=-2)`` suits row chunks (``C == 1``) and
    small slabs.  Slabs of at least :data:`SERIAL_LOOP_SLAB` elements in
    whole 32-wide rows (column chunks of a 256² image, or bigger) run a
    31-step lane loop whose every add covers one whole slab (1024²
    float32: 1.2 ms against 6.3 ms on an Intel Xeon vCPU with AVX-512).
    Whole rows matter: NumPy's add loops keep the ``acc + x`` operand
    order, and with it the NaN payloads, on full SIMD vectors, but not
    always in their remainder path.  The dtype is pinned — accumulate
    would otherwise widen sub-platform ints.
    """
    if x.shape[-1] % 32 or x.size < 32 * SERIAL_LOOP_SLAB:
        return np.add.accumulate(x, axis=-2, dtype=x.dtype, out=x)
    for lane in range(1, 32):
        np.add(x[..., lane - 1, :], x[..., lane, :], out=x[..., lane, :])
    return x


#: Lane-wise warp-scan emulators on ``(..., 32, C)`` chunks (lanes on axis
#: -2), keyed by the same names as :data:`repro.scan.WARP_SCANS`.
WARP_SCAN_LOWERED: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "kogge_stone": kogge_stone_lowered,
    "ladner_fischer": ladner_fischer_lowered,
    "brent_kung": brent_kung_lowered,
    "han_carlson": han_carlson_lowered,
}


def chunked_row_scan(x: np.ndarray, wpb: int,
                     inner: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The tile-scan + Fig.-3c offsets + strip-carry program down axis -2
    (BRLT-ScanRow / ScanRow-BRLT / ScanColumn structure).

    ``x`` is ``(..., L, C)`` in the accumulator dtype with ``L % 32 ==
    0``; ``wpb`` is the recorded warps-per-block (the strip width in
    32-long chunks); ``inner`` scans each independent ``(..., 32, C)``
    chunk in place down its lanes.  Every other axis is independent —
    bands, columns and batch stacking vectorise for free because blocks
    along the grid-parallel axis never communicate — so a row scan passes
    ``stack[..., None]`` and a column scan the stack itself.  Scans ``x``
    in place when it is contiguous (a private copy otherwise) and returns
    the result.
    """
    lead, (n, c) = x.shape[:-2], x.shape[-2:]
    nc = n // 32
    s = inner(np.ascontiguousarray(x).reshape(lead + (nc, 32, c)))
    totals = s[..., 31, :]
    # Strip walk: offsets are the serial left-associated prefix of the
    # chunk totals within each strip; the first chunk's offset is a
    # literal +0.0; `off + carry` and the final `data + off` are real
    # additions even when zero (they flush -0.0 exactly as the kernels).
    offterm = np.empty_like(totals)
    carry = np.zeros(lead + (c,), dtype=x.dtype)
    for k0 in range(0, nc, wpb):
        m = min(wpb, nc - k0)
        inc = np.add.accumulate(totals[..., k0:k0 + m, :], axis=-2,
                                dtype=x.dtype)
        off = offterm[..., k0:k0 + m, :]
        off[..., 0, :] = 0
        off[..., 1:, :] = inc[..., : m - 1, :]
        _add_in_place(off, carry[..., None, :])
        carry = carry + inc[..., m - 1, :]
    _add_in_place(s, offterm[..., None, :])
    return s.reshape(x.shape)


def carry_through_row_scan(x: np.ndarray,
                           scan: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The ScanRow (Sec. IV-C1) program down axis -2 of ``(..., L, C)``.

    Unlike the strip kernels, the carry is injected into lane 0 *before*
    the warp scan and propagates through it, so chunks are inherently
    sequential; each chunk is still one vectorised whole-grid scan, run in
    place on a chunk-major scratch copy (``x`` itself when it already is
    chunk-major, e.g. one image scanned down its columns).  The lane-0 add
    happens for chunk 0 too (``carry = const(0)``).  Writes the result
    into ``x`` when it is contiguous (a private copy otherwise) and
    returns it.
    """
    lead, (n, c) = x.shape[:-2], x.shape[-2:]
    t = np.ascontiguousarray(x).reshape(lead + (n // 32, 32, c))
    # Chunk-major: every chunk scan runs on one contiguous block.  (An
    # explicit transpose: ``np.moveaxis`` costs several microseconds.)
    k = len(lead)
    major = (k,) + tuple(range(k)) + (k + 1, k + 2)
    chunks = np.ascontiguousarray(t.transpose(major))
    carry = np.zeros(lead + (c,), dtype=x.dtype)
    for chunk in chunks:
        _add_in_place(chunk[..., 0, :], carry)
        scan(chunk)
        # A view: this chunk is final, later chunks only read it.
        carry = chunk[..., 31, :]
    if not np.may_share_memory(chunks, t):
        np.copyto(t.transpose(major), chunks)
    return t.reshape(x.shape)
