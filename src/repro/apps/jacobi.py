"""JACOBI: Jacobi relaxation on a 2D heat grid (paper §V-A).

Tunable variables
-----------------
``grid``    the evolving temperature field (boundary ring included).
            Errors feed back through every sweep, so this variable
            resists narrowing -- the paper finds JACOBI almost entirely
            outside the narrow formats and reports essentially no cycle
            or energy gain (Fig. 6/7: ~100%/97%).
``source``  the per-cell heat injection, read once per sweep: additive
            and small, it tolerates coarse quantization.

The stencil sweeps are *not* vectorizable in the off-the-shelf code
(paper Fig. 5 shows no vectorial operations for JACOBI): the strided
neighbour accesses defeat the compiler's SIMD packing.  The app
therefore never tags a vector region and its kernel is always scalar.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core import FPFormat
from repro.hardware import KernelBuilder, Program
from repro.tuning import VarSpec

from .base import (
    Lockstep,
    TransprecisionApp,
    ensure_fmt,
    partition_range,
    wider,
)
from .data import jacobi_inputs

__all__ = ["JacobiApp"]


class JacobiApp(TransprecisionApp):
    """Jacobi iterations with fixed boundary and heat source."""

    name = "jacobi"
    partitionable = True

    def variables(self):
        n = self.scale.jacobi_n + 2
        return [
            VarSpec("grid", n * n, "temperature field"),
            VarSpec("source", n * n, "heat source"),
        ]

    # ------------------------------------------------------------------
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        lock = Lockstep(self, bindings)
        grid_fmt = lock.formats("grid")
        src_fmt = lock.formats("source")
        region = lock.wider(grid_fmt, src_fmt)

        grid_np, source_np = jacobi_inputs(self.scale, input_id)
        grid = lock.per_row(grid_np, grid_fmt)
        source = lock.per_row(source_np, src_fmt)
        quarter = lock.const(0.25, region)[:, :, None]  # exact in every format
        inner = self.scale.jacobi_n
        # The kernel casts the unchanging source every sweep: convert it
        # once and count each sweep's cast.
        s = lock.convert(source, src_fmt, region)

        for _ in range(self.scale.jacobi_iters):
            g = lock.cast(grid, grid_fmt, region)
            lock.count_cast(src_fmt, region, source[0].size)
            vert = lock.op("add", g[:, :-2, 1:-1], g[:, 2:, 1:-1], region)
            horiz = lock.op("add", g[:, 1:-1, :-2], g[:, 1:-1, 2:], region)
            interior = lock.op(
                "mul", lock.op("add", vert, horiz, region), quarter, region
            )
            interior = lock.op("add", interior, s[:, 1:-1, 1:-1], region)
            interior = lock.cast(interior, region, grid_fmt)
            # Convergence monitoring, as real solvers do every sweep:
            # the residual is the largest cell update.
            lock.count(grid_fmt, "sub", inner * inner)
            lock.count(grid_fmt, "max", inner * inner - 1)
            grid[:, 1:-1, 1:-1] = interior
        return list(grid[:, 1:-1, 1:-1].reshape(lock.rows, -1))

    # ------------------------------------------------------------------
    def build_program(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> Program:
        return self._build_rows(
            binding, input_id, 0, self.scale.jacobi_n, self.name
        )

    def _partition_many(
        self,
        n_cores: int,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
    ) -> list[Program]:
        """Chunk the grid rows: core ``i`` sweeps its row band every
        iteration (synchronization-free model; see the base class).
        Cores with an empty band idle (empty stream) rather than
        spinning through the iteration loop's machinery.
        """
        programs = []
        for core in range(n_cores):
            lo, hi = partition_range(self.scale.jacobi_n, n_cores, core)
            name = f"{self.name}.c{core}"
            programs.append(
                self._build_rows(binding, input_id, lo, hi, name)
                if hi > lo
                else Program(name, [], {})
            )
        return programs

    def _build_rows(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int,
        row_lo: int,
        row_hi: int,
        name: str,
    ) -> Program:
        grid_np, source_np = jacobi_inputs(self.scale, input_id)
        grid_fmt = self._fmt(binding, "grid")
        src_fmt = self._fmt(binding, "source")
        region = wider(grid_fmt, src_fmt)

        n = self.scale.jacobi_n + 2
        inner = self.scale.jacobi_n

        b = KernelBuilder(name)
        # Ping-pong pair: real stencil codes swap buffer pointers instead
        # of copying the field back every sweep.
        grid_a = b.alloc("grid", grid_np.reshape(-1), grid_fmt)
        grid_b = b.alloc("grid_pong", grid_np.reshape(-1), grid_fmt)
        source = b.alloc("source", source_np.reshape(-1), src_fmt)
        out = b.zeros("out", inner * inner, grid_fmt)

        quarter = b.fconst(0.25, region)
        src_buf, dst_buf = grid_a, grid_b
        for _ in b.loop(self.scale.jacobi_iters, soft=True):
            # Every cell of a sweep reads the source buffer and writes
            # the other one: the row x cell nest has independent
            # iterations, so it is built once for all of them.
            for r0 in b.sweep(row_hi - row_lo):
                r = row_lo + r0
                for c in b.sweep(inner):  # falls back to a soft loop
                    rr, cc = r + 1, c + 1
                    up = b.load(src_buf, (rr - 1) * n + cc)
                    down = b.load(src_buf, (rr + 1) * n + cc)
                    left = b.load(src_buf, rr * n + (cc - 1))
                    right = b.load(src_buf, rr * n + (cc + 1))
                    up = ensure_fmt(b, up, grid_fmt, region)
                    down = ensure_fmt(b, down, grid_fmt, region)
                    left = ensure_fmt(b, left, grid_fmt, region)
                    right = ensure_fmt(b, right, grid_fmt, region)
                    vertical = b.fp("add", region, up, down)
                    horizontal = b.fp("add", region, left, right)
                    total = b.fp("add", region, vertical, horizontal)
                    scaled = b.fp("mul", region, total, quarter)
                    s = b.load(source, rr * n + cc)
                    s = ensure_fmt(b, s, src_fmt, region)
                    cell_r = b.fp("add", region, scaled, s)
                    cell = ensure_fmt(b, cell_r, region, grid_fmt)
                    b.store(dst_buf, rr * n + cc, cell)
                    # Convergence monitoring: residual = max |update|.
                    old = b.load(src_buf, rr * n + cc)
                    old = ensure_fmt(b, old, grid_fmt, region)
                    upd = b.fp("sub", region, cell_r, old)
                    b.fp("cmp", region, upd, quarter)
                    b.alu(0)  # running-max bookkeeping
            src_buf, dst_buf = dst_buf, src_buf  # pointer swap: free
        # Emit this band of the interior as the program output.
        for r0 in b.sweep(row_hi - row_lo):
            r = row_lo + r0
            for c in b.sweep(inner):
                v = b.load(src_buf, (r + 1) * n + (c + 1))
                b.store(out, r * inner + c, v)
        return b.program()
