"""KNN: k-nearest neighbours by euclidean distance (paper §V-A).

Tunable variables
-----------------
``train``   the training-point matrix (by far the largest array;
            neighbour *ranking* is robust to coarse quantization, which
            is why the paper finds KNN living almost entirely in binary8),
``values``  per-point regression targets,
``query``   the query point,
``dist``    the squared-distance accumulator array.

Output: the k-NN regression estimate (mean target of the k nearest,
k a power of two so the mean is exact), followed by the k euclidean
distances.  The estimate degrades gracefully under quantization (a
neighbour swap between nearly-equidistant points barely moves it),
while the appended distances give the tuner a smooth error signal at
tight targets.  The distance accumulation over the training matrix is
the vectorizable region; the top-k selection is comparison/bookkeeping
work, and the final square roots run on the sequential binary32 unit
(with casts in and out when ``dist`` is narrower).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core import BINARY32, FPFormat, quantize_array
from repro.core.ops import binary_array
from repro.hardware import KernelBuilder, Program
from repro.tuning import VarSpec

from .base import (
    Lockstep,
    TransprecisionApp,
    accumulate,
    ensure_fmt,
    lane_blocks,
    lanes_for,
    partition_range,
    reduce_lanes,
    wider,
)
from .data import knn_inputs

__all__ = ["KnnApp"]


class KnnApp(TransprecisionApp):
    """k-nearest neighbours of one query point."""

    name = "knn"
    partitionable = True

    def variables(self):
        n, d = self.scale.knn_points, self.scale.knn_dims
        return [
            VarSpec("train", n * d, "training points"),
            VarSpec("values", n, "regression targets"),
            VarSpec("query", d, "query point"),
            VarSpec("dist", n, "squared-distance accumulators"),
        ]

    # ------------------------------------------------------------------
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        lock = Lockstep(self, bindings)
        train_fmt = lock.formats("train")
        values_fmt = lock.formats("values")
        query_fmt = lock.formats("query")
        dist_fmt = lock.formats("dist")
        region = lock.wider(lock.wider(train_fmt, query_fmt), dist_fmt)
        n, k = self.scale.knn_points, self.scale.knn_k

        train_np, values_np, query_np = knn_inputs(self.scale, input_id)
        vector = lock.packs(region)
        t = lock.per_row(train_np, train_fmt)
        t = lock.cast(t, train_fmt, region, vector)
        q = lock.per_row(query_np[None], query_fmt)  # broadcast over points
        q = lock.cast(q, query_fmt, region, vector)
        diff = lock.op("sub", t, q, region, vector)
        squares = lock.op("mul", diff, diff, region, vector)
        dist = lock.cast(lock.sum(squares, region, vector), region, dist_fmt)

        # Top-k selection: comparisons only (no slice arithmetic).  The
        # hardware runs n*k compare-and-keep steps; record them so Fig. 5
        # style statistics see the comparison traffic.
        lock.count(dist_fmt, "cmp", n * k)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]

        # Regression estimate: mean target of the winners (when k is a
        # power of two, 1/k is exact in every format).
        values = lock.per_row(values_np, values_fmt)
        winners = np.take_along_axis(values, order, axis=1)
        estimate = lock.op(
            "mul", lock.sum(winners, values_fmt)[:, None],
            lock.const(1.0 / k, values_fmt), values_fmt,
        )

        # Euclidean roots of the winners: the platform's sequential sqrt
        # is binary32, so narrower accumulators cast up first.  (With the
        # binary64 reference binding the root stays in binary64: this
        # path defines the exact output.)
        root_fmt = lock.wider(dist_fmt, BINARY32)
        nearest = np.take_along_axis(dist, order, axis=1)
        roots = lock.sqrt(lock.cast(nearest, dist_fmt, root_fmt), root_fmt)
        return list(np.concatenate([estimate, roots], axis=1))

    # ------------------------------------------------------------------
    def build_program(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> Program:
        return self._build_part(
            binding, input_id, vectorize, 0, 1, self.name
        )

    def _partition_many(
        self,
        n_cores: int,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
    ) -> list[Program]:
        """Chunk the training points: every core accumulates squared
        distances for its chunk; core 0 additionally runs the top-k
        selection, estimate and roots over the full distance array.

        The cluster's shared L1 makes the other cores' distance chunks
        visible to core 0's merge; core 0's ``dist`` array starts out
        holding every distance (:meth:`kernel_distances`), so its
        selection ranks exactly the values a serial run ranks, and its
        data-dependent instruction stream is the unpartitioned
        kernel's.
        """
        n = self.scale.knn_points
        programs = []
        for core in range(n_cores):
            lo, hi = partition_range(n, n_cores, core)
            name = f"{self.name}.c{core}"
            programs.append(
                self._build_part(
                    binding, input_id, vectorize, core, n_cores, name
                )
                if core == 0 or hi > lo
                else Program(name, [], {})  # no points left: idle
            )
        return programs

    def kernel_distances(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> np.ndarray:
        """The squared distances the kernel stores in ``dist``, for all
        training points at once, rounded in the kernel's order.

        Train and query round to their storage formats and then to the
        region format.  The columns split into :func:`lane_blocks`, and
        their squared differences add up as the kernel's
        :func:`accumulate` adds them: the first packed block starts
        per-lane partial sums and later blocks of its width add into
        them; a narrower block's lanes reduce left to right and, like a
        single column, add into a scalar accumulator that starts at
        zero.  The scalar accumulator adds the partial sums' reduction
        last, and the sum rounds to ``dist``'s format.
        """
        train_np, _, query_np = knn_inputs(self.scale, input_id)
        train_fmt = self._fmt(binding, "train")
        query_fmt = self._fmt(binding, "query")
        dist_fmt = self._fmt(binding, "dist")
        region = wider(wider(train_fmt, query_fmt), dist_fmt)
        lanes = lanes_for(region) if vectorize else 1

        train = quantize_array(quantize_array(train_np, train_fmt), region)
        query = quantize_array(quantize_array(query_np, query_fmt), region)
        diff = binary_array("sub", train, query, region)
        sq = binary_array("mul", diff, diff, region)

        def reduce(block):
            red = block[:, 0]
            for lane in range(1, block.shape[1]):
                red = binary_array("add", red, block[:, lane], region)
            return red

        acc = np.zeros(len(sq))
        vacc = None
        for col, width in lane_blocks(sq.shape[1], lanes):
            block = sq[:, col:col + width]
            if width == 1 or (vacc is not None and width != vacc.shape[1]):
                acc = binary_array("add", acc, reduce(block), region)
            elif vacc is None:
                vacc = block
            else:
                vacc = binary_array("add", vacc, block, region)
        if vacc is not None:
            acc = binary_array("add", acc, reduce(vacc), region)
        return quantize_array(acc, dist_fmt)

    def _build_part(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
        core: int,
        n_cores: int,
        name: str,
    ) -> Program:
        train_np, values_np, query_np = knn_inputs(self.scale, input_id)
        train_fmt = self._fmt(binding, "train")
        values_fmt = self._fmt(binding, "values")
        query_fmt = self._fmt(binding, "query")
        dist_fmt = self._fmt(binding, "dist")
        region = wider(wider(train_fmt, query_fmt), dist_fmt)
        lanes = lanes_for(region) if vectorize else 1

        n, d = self.scale.knn_points, self.scale.knn_dims
        k = self.scale.knn_k

        b = KernelBuilder(name)
        train = b.alloc("train", train_np.reshape(-1), train_fmt)
        values = b.alloc("values", values_np, values_fmt)
        query = b.alloc("query", query_np, query_fmt)
        # Core 0 sees every core's distances through the shared L1, and
        # ranks them: its array starts out holding them all.
        if core == 0:
            dists = self.kernel_distances(binding, input_id, vectorize)
            dist = b.alloc("dist", dists, dist_fmt)
        else:
            dist = b.zeros("dist", n, dist_fmt)
        out = b.zeros("out", 1 + k, BINARY32)

        # Hoist the query into registers (loaded and converted once).
        # A block is never wider than the region packs, so each
        # converts in one instruction.
        blocks = lane_blocks(d, lanes)
        query_regs = [
            ensure_fmt(b, b.load(query, col, lanes=width), query_fmt, region)
            for col, width in blocks
        ]

        lo, hi = partition_range(n, n_cores, core)
        zero = b.fconst(0.0, region)
        for i0 in b.sweep(hi - lo):
            i = lo + i0
            acc = zero
            vacc = None
            for (col, width), qreg in zip(blocks, query_regs):
                t = b.load(train, i * d + col, lanes=width)
                t = ensure_fmt(b, t, train_fmt, region)
                diff = b.fp("sub", region, t, qreg)
                sq = b.fp("mul", region, diff, diff)
                acc, vacc = accumulate(b, region, acc, vacc, sq)
            if vacc is not None:
                red = reduce_lanes(b, vacc, region)
                acc = b.fp("add", region, acc, red)
            result = ensure_fmt(b, acc, region, dist_fmt)
            b.store(dist, i, result)

        if core != 0:
            # Distance chunk only: selection and merge run on core 0.
            return b.program()

        # Top-k selection: insertion into a k-entry best list (value and
        # index).  Each candidate pays one load and up to k compares;
        # inserts pay ALU shift bookkeeping.
        best: list[tuple[float, int]] = []
        for i in b.loop(n, soft=True):
            cand = b.load(dist, i)
            value = float(dists[i])
            for slot in range(k):
                if slot < len(best):
                    limit = b.fconst(best[slot][0], dist_fmt)
                    cmp = b.fp("cmp", dist_fmt, cand, limit)
                    improves = value < best[slot][0]
                    b.branch(not improves, cmp)
                    if improves:
                        best.insert(slot, (value, i))
                        best = best[:k]
                        b.alu(0)  # shift bookkeeping
                        break
                else:
                    best.append((value, i))
                    b.alu(0)
                    break

        # Regression estimate: gather the winners' targets and average
        # (1/k is exact: k is a power of two).
        acc = b.fconst(0.0, values_fmt)
        for slot in b.loop(k, soft=True):
            target = b.load(values, best[slot][1])
            acc = b.fp("add", values_fmt, acc, target)
        inv_k = b.fconst(1.0 / k, values_fmt)
        estimate = b.fp("mul", values_fmt, acc, inv_k)
        b.store(out, 0, ensure_fmt(b, estimate, values_fmt, BINARY32))

        # Euclidean roots of the winners on the sequential binary32 unit.
        for slot in b.loop(k, soft=True):
            v = b.fconst(best[slot][0], dist_fmt)
            v32 = ensure_fmt(b, v, dist_fmt, BINARY32)
            root = b.fsqrt(BINARY32, v32)
            b.store(out, 1 + slot, root)
        return b.program()
