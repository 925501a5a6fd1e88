"""The benchmark's workloads: seeded inputs, set-up, measured loops, gate.

Each workload is built in three steps, so that the timed set-up covers the
program only:

1. ``__init__(seed)`` makes every input from the seed with NumPy alone
   (``repro`` is not imported yet);
2. ``setup(repro)`` is the program's set-up from a fresh process: planner
   calibration, a cold record and compile of every bucket the workload
   uses and, for ``bulk_large``, the service start;
3. ``references()`` computes what every op must return, for the
   correctness gate; it is not timed.

Both workloads run a fixed list of ops in a closed loop
(:func:`closed_loop`), pass after pass.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PAPER_KERNELS = ("brlt_scanrow", "scanrow_brlt", "scan_row_column")
_INT_PAIR, _FLOAT_PAIR = "8u32s", "32f32f"


def _image(rng, shape, pair):
    if pair == _INT_PAIR:
        return rng.integers(0, 256, shape, dtype=np.uint8)
    return rng.random(shape, dtype=np.float32)


def _trimmed(rng, shape, reach: int, cross_last: bool = False):
    """``shape`` with each side trimmed by up to ``reach`` pixels without
    leaving its 32-pixel padding bucket, so the seed changes pixels and
    exact sizes but not the kernels' work.  With ``cross_last`` the last
    side instead moves by up to ``reach`` either way and may change bucket:
    the modeled total then differs a little between seeds."""
    sides = [int(s - rng.integers(0, min(reach, (s - 1) % 32) + 1))
             for s in shape]
    if cross_last:
        sides[-1] = int(shape[-1] + rng.integers(-reach, reach + 1))
    return tuple(sides)


def _trusted(repro, img, pair, algorithm, backend):
    """The output a call must reproduce bit for bit.

    Integer pairs, and float pairs on ``host``, match the NumPy reference
    exactly; float pairs elsewhere sum in kernel order, so they must match
    the same call on the trusted ``gpusim`` interpreter instead.
    """
    if pair == _INT_PAIR or backend == "host":
        return repro.sat_reference(img, pair)
    return repro.sat(img, pair=pair, algorithm=algorithm,
                     backend="gpusim").output


def _runs_of(result) -> list:
    """The per-image ``SatRun`` objects of a ``sat()``/``sat_batch`` result."""
    return list(result.runs) if hasattr(result, "runs") else [result]


def _outputs_of(result) -> list:
    return [r.output for r in _runs_of(result)]


# -- the correctness gate ---------------------------------------------------

class Gate:
    """Counts attempted and failed ops; compares outside any timed region.

    ``corrupt`` deliberately damages that many outputs before comparison;
    the self-test uses it to prove a wrong output counts as a failure.
    """

    def __init__(self, corrupt: int = 0):
        self.attempted = 0
        self.failed = 0
        self.first_errors: List[str] = []
        self._corrupt = corrupt
        self._lock = threading.Lock()

    def check(self, label: str, outputs, expected) -> bool:
        with self._lock:
            if self._corrupt:
                self._corrupt -= 1
                outputs = [np.array(o, copy=True) for o in outputs]
                outputs[0].flat[0] += 1
        ok = len(outputs) == len(expected) and all(
            o.shape == e.shape and o.dtype == e.dtype
            and np.array_equal(o, e)
            for o, e in zip(outputs, expected)
        )
        self._count(ok, f"{label}: wrong output")
        return ok

    def fail(self, label: str, why: str) -> None:
        self._count(False, f"{label}: {why}")

    def _count(self, ok: bool, why: str) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.first_errors) < 5:
                    self.first_errors.append(why)


# -- the closed loop --------------------------------------------------------

@dataclass
class Op:
    """One public call into the program with its inputs and expectations."""

    label: str
    call: Callable[[], object]
    #: Computes what ``call`` must return, one array per output.
    reference: Callable[[], List[np.ndarray]]
    #: ``(image, pair)`` of every input, for megapixels and the floor.
    inputs: List[Tuple[np.ndarray, str]]
    #: ``hot``: served from a cached launch plan (compiled program or
    #: recorded replay); ``cold``: no plan (host backend, interpreter).
    klass: str
    #: The arrays a result holds, in ``reference`` order.
    outputs: Callable[[object], list] = _outputs_of
    #: The ``SatRun`` objects the exact modeled figures are summed over.
    modeled_runs: Callable[[object], list] = _runs_of
    expected: Optional[List[np.ndarray]] = None

    @property
    def mpix(self) -> float:
        return sum(img.size for img, _ in self.inputs) / 1e6


@dataclass
class LoopResult:
    """Per-op samples of one closed-loop phase (whole passes only)."""

    wall_ns: np.ndarray
    passes: int
    n_ops: int
    #: Modeled-figure ``SatRun`` lists of the first pass, one per op.
    first_pass: List[list] = field(default_factory=list)

    @property
    def op_index(self) -> np.ndarray:
        return np.tile(np.arange(self.n_ops), self.passes)

    def pass_walls_ns(self) -> np.ndarray:
        return self.wall_ns.reshape(self.passes, self.n_ops).sum(axis=1)


def closed_loop(ops: List[Op], seconds: float, gate: Gate) -> LoopResult:
    """Call ``ops`` back to back, pass after pass, for ``seconds``.

    Only the call itself is timed; the gate runs after it.  The loop stops
    at the first pass boundary past the deadline, so every phase covers
    whole passes of the same op list.
    """
    walls: List[int] = []
    first_pass: List[list] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for op in ops:
            t0 = time.perf_counter_ns()
            try:
                result = op.call()
            except Exception as exc:  # an exception is a failed op
                walls.append(time.perf_counter_ns() - t0)
                gate.fail(op.label, f"{type(exc).__name__}: {exc}")
                if passes == 0:
                    first_pass.append([])
                continue
            walls.append(time.perf_counter_ns() - t0)
            gate.check(op.label, op.outputs(result), op.expected)
            if passes == 0:
                first_pass.append(op.modeled_runs(result))
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return LoopResult(np.asarray(walls, dtype=np.int64), passes, len(ops),
                      first_pass)


class ClosedLoopWorkload:
    """Shared set-up, reference and measuring logic."""

    name = ""
    ops: List[Op]

    def setup(self, repro) -> None:
        self.ops = self.build_ops(repro)
        for op in self.ops:  # cold record + compile of every bucket
            op.call()

    def references(self) -> None:
        for op in self.ops:
            op.expected = op.reference()

    def floor_inputs(self):
        for op in self.ops:
            yield from op.inputs

    def measure(self, seconds: float, gate: Gate) -> LoopResult:
        return closed_loop(self.ops, seconds, gate)

    def close(self) -> None:
        pass


# -- call_small -------------------------------------------------------------

class CallSmall(ClosedLoopWorkload):
    """One thread calls ``repro.sat()`` back to back on small images."""

    name = "call_small"
    #: 16 base shapes from 17x320 to 256^2: rectangles, and sides that are
    #: not multiples of 32.  Each runs on both pairs and both backends.
    BASE_SHAPES = ((17, 320), (32, 32), (48, 200), (64, 64), (96, 96),
                   (100, 150), (128, 128), (128, 96), (160, 160), (150, 250),
                   (192, 192), (200, 120), (224, 224), (240, 256), (256, 256),
                   (250, 180))
    VARIANTS = ((_INT_PAIR, "host"), (_INT_PAIR, "compiled"),
                (_FLOAT_PAIR, "host"), (_FLOAT_PAIR, "compiled"))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.specs = []
        for b, base in enumerate(self.BASE_SHAPES):
            for v, (pair, backend) in enumerate(self.VARIANTS):
                # Half the calls let the planner choose ("auto"); the
                # rest pin each of the paper's kernels in turn.
                algorithm = ("auto" if (b + v) % 2 == 0
                             else PAPER_KERNELS[(b + v) // 2 % 3])
                shape = _trimmed(rng, base, 6, cross_last=b == 0)
                self.specs.append(dict(
                    image=_image(rng, shape, pair), pair=pair,
                    backend=backend, algorithm=algorithm))
        # The seed also sets the call order.
        order = rng.permutation(len(self.specs))
        self.specs = [self.specs[i] for i in order]

    def build_ops(self, repro) -> List[Op]:
        def op(img, pair, algorithm, backend):
            # ``repro.sat`` is looked up on every call, so a traced phase
            # goes through the ledger's wrapper.
            return Op(
                label=f"sat {img.shape} {pair} {algorithm} {backend}",
                call=lambda: repro.sat(img, pair=pair, algorithm=algorithm,
                                       backend=backend),
                reference=lambda: [_trusted(repro, img, pair, algorithm,
                                            backend)],
                inputs=[(img, pair)],
                klass="hot" if backend == "compiled" else "cold")

        return [op(s["image"], s["pair"], s["algorithm"], s["backend"])
                for s in self.specs]


# -- bulk_large -------------------------------------------------------------

#: Request kinds per template class, with their counts in one burst.  Box
#: filters ride only on the hot shape: on the larger cold shapes their
#: host-side finish takes up to 8 ms.
BURST_KINDS = {"hot": (("sat", 4), ("rect_sum", 2), ("box_filter", 2)),
               "cold": (("sat", 1), ("rect_sum", 1))}
BOX_RADIUS = 2


@dataclass
class Template:
    """One request input with its class and config."""

    image: np.ndarray
    pair: str
    algorithm: str
    backend: str
    klass: str
    rects: np.ndarray
    config: object = None


class ServeBurst:
    """A ``SatService`` given one burst of requests per round.

    The burst is submitted at once and awaited: the batcher coalesces the
    hot shape into stacked launches, the pool runs the batches on two
    workers, and every response carries its ``RequestTimeline``.
    """

    #: Every service setting, pinned and recorded.
    SERVICE = dict(workers=2, max_delay_s=0.002, max_batch=8,
                   max_stack_bytes=64 << 20, device="P100")
    #: The cold class: eight shapes and pairs, three on ``host``.
    COLD = (((96, 96), _INT_PAIR, "scan_row_column", "compiled"),
            ((160, 200), _FLOAT_PAIR, "auto", "compiled"),
            ((192, 192), _INT_PAIR, "brlt_scanrow", "host"),
            ((256, 256), _INT_PAIR, "auto", "compiled"),
            ((200, 120), _FLOAT_PAIR, "auto", "host"),
            ((224, 224), _INT_PAIR, "scanrow_brlt", "compiled"),
            ((64, 300), _INT_PAIR, "brlt_scanrow", "host"),
            ((250, 250), _FLOAT_PAIR, "scan_row_column", "compiled"))

    def __init__(self, rng):
        self.templates: List[Template] = []
        for _ in range(4):  # the hot class: one coalescing 128^2 shape
            self._template(rng, (128, 128), _INT_PAIR, "brlt_scanrow",
                           "compiled", "hot")
        for base, pair, algorithm, backend in self.COLD:
            self._template(rng, _trimmed(rng, base, 8), pair, algorithm,
                           backend, "cold")
        plan = [(i, kind) for i, t in enumerate(self.templates)
                for kind, count in BURST_KINDS[t.klass] for _ in range(count)]
        self.plan = [plan[j] for j in rng.permutation(len(plan))]
        self.service = None
        #: Responses of every burst while set to a list (the traced run).
        self.log: Optional[list] = None

    def _template(self, rng, shape, pair, algorithm, backend, klass):
        h, w = shape
        ys = np.sort(rng.integers(0, h, (16, 2)), axis=1)
        xs = np.sort(rng.integers(0, w, (16, 2)), axis=1)
        rects = np.stack([ys[:, 0], xs[:, 0], ys[:, 1], xs[:, 1]], axis=1)
        self.templates.append(Template(_image(rng, shape, pair), pair,
                                       algorithm, backend, klass, rects))

    def start(self, repro) -> None:
        from repro.exec import ExecutionConfig
        from repro.serve import SatService

        self.repro = repro
        for t in self.templates:
            t.config = ExecutionConfig(backend=t.backend)
        self.service = SatService(**self.SERVICE)
        for t in self.templates:  # cold record + compile of every bucket
            for kind, _ in BURST_KINDS[t.klass]:
                self.service.request(self.request(t, kind))

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def request(self, t: Template, kind: str):
        from repro.serve import BoxFilterRequest, RectSumRequest, SatRequest

        common = dict(image=t.image, pair=t.pair, algorithm=t.algorithm,
                      config=t.config)
        if kind == "rect_sum":
            return RectSumRequest(rects=t.rects, **common)
        if kind == "box_filter":
            return BoxFilterRequest(radius=BOX_RADIUS, **common)
        return SatRequest(**common)

    def call(self) -> list:
        futures = [self.service.submit(self.request(self.templates[i], kind))
                   for i, kind in self.plan]
        responses = self.wait(futures)
        if self.log is not None:
            self.log.append(responses)
        return responses

    @staticmethod
    def wait(futures) -> list:
        return [f.result(timeout=60) for f in futures]

    def reference(self) -> List[np.ndarray]:
        """Serial ``sat()`` of each template (itself gated against the
        trusted output), then the public ``rect_sums``/``box_filter``."""
        repro = self.repro
        self.serial_runs = []
        expected: Dict[Tuple[int, str], np.ndarray] = {}
        for i, t in enumerate(self.templates):
            run = repro.sat(t.image, pair=t.pair, algorithm=t.algorithm,
                            backend=t.backend)
            self.serial_runs.append(run)
            table = run.output
            if not np.array_equal(table, _trusted(repro, t.image, t.pair,
                                                  t.algorithm, t.backend)):
                raise AssertionError(
                    f"serial sat() of a {t.image.shape} {t.pair} {t.backend} "
                    f"template differs from the trusted output")
            r = t.rects
            expected[i, "sat"] = table
            expected[i, "rect_sum"] = repro.rect_sums(
                table, r[:, 0], r[:, 1], r[:, 2], r[:, 3])
            expected[i, "box_filter"] = repro.box_filter(table, BOX_RADIUS)
        return [expected[key] for key in self.plan]

    def op(self) -> Op:
        return Op(
            label=f"serve burst of {len(self.plan)} requests",
            call=self.call, reference=self.reference, klass="hot",
            inputs=[(self.templates[i].image, self.templates[i].pair)
                    for i, _ in self.plan],
            outputs=lambda responses: [r.result for r in responses],
            # The modeled figures of a burst are those of serial sat()
            # over its templates: coalescing changes wall time only.
            modeled_runs=lambda responses: list(self.serial_runs))


class BulkLarge(ClosedLoopWorkload):
    """One thread runs a fixed round of large batched, cold, sharded and
    served ops."""

    name = "bulk_large"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        # The seed sets the compiled batch depth to 63 or 64 images, so
        # the modeled total differs a little between seeds.
        depth = 64 - int(rng.integers(0, 2))
        self.batch_compiled = _image(rng, (depth, 512, 512), _INT_PAIR)
        self.batch_gpusim = _image(rng, (4, 512, 512), _INT_PAIR)
        self.cold = [_image(rng, (512, 512), _INT_PAIR) for _ in PAPER_KERNELS]
        self.host_1k = _image(rng, (1024, 1024), _FLOAT_PAIR)
        self.compiled_1k = _image(rng, (1024, 1024), _FLOAT_PAIR)
        self.big = _image(rng, (4096, 4096), _INT_PAIR)
        self.serve = ServeBurst(rng)

    def setup(self, repro) -> None:
        self.serve.start(repro)
        super().setup(repro)

    def close(self) -> None:
        self.serve.close()

    def build_ops(self, repro) -> List[Op]:
        def op(label, klass, images, pair, call, reference=None):
            return Op(label=label, call=call, klass=klass,
                      inputs=[(im, pair) for im in images],
                      reference=reference or (lambda: [
                          repro.sat_reference(im, pair) for im in images]))

        def sat_call(img, pair, algorithm, backend):
            return lambda: repro.sat(img, pair=pair, algorithm=algorithm,
                                     backend=backend)

        bc, bg = self.batch_compiled, self.batch_gpusim
        ops = [
            op(f"sat_batch {bc.shape} compiled", "hot", list(bc), _INT_PAIR,
               lambda: repro.sat_batch(bc, pair=_INT_PAIR,
                                       algorithm="brlt_scanrow",
                                       backend="compiled")),
            op(f"sat_batch {bg.shape} gpusim", "hot", list(bg), _INT_PAIR,
               lambda: repro.sat_batch(bg, pair=_INT_PAIR,
                                       algorithm="scanrow_brlt",
                                       backend="gpusim")),
        ]
        for kernel, img in zip(PAPER_KERNELS, self.cold):
            ops.append(op(f"sat 512^2 gpusim {kernel}", "cold", [img],
                          _INT_PAIR, sat_call(img, _INT_PAIR, kernel,
                                              "gpusim")))
        h1, c1, big = self.host_1k, self.compiled_1k, self.big
        ops += [
            op("sat 1024^2 host", "cold", [h1], _FLOAT_PAIR,
               sat_call(h1, _FLOAT_PAIR, "brlt_scanrow", "host")),
            op("sat 1024^2 compiled", "hot", [c1], _FLOAT_PAIR,
               sat_call(c1, _FLOAT_PAIR, "scan_row_column", "compiled"),
               lambda: [_trusted(repro, c1, _FLOAT_PAIR, "scan_row_column",
                                 "compiled")]),
            # Above the sharder's threshold: sat() shards transparently.
            op("sat 4096^2 compiled sharded", "hot", [big], _INT_PAIR,
               sat_call(big, _INT_PAIR, "brlt_scanrow", "compiled")),
            self.serve.op(),
        ]
        return ops
