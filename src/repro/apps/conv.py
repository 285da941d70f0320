"""CONV: 5x5 convolution kernel (paper §V-A).

Tunable variables
-----------------
``image``   the input image (large array; quantizes aggressively),
``kernel``  the 25 filter taps (need more precision: they set the
            output's accuracy),
``out``     the convolved image.

The multiply-accumulate loops are the vectorizable region: all loads,
products and accumulations run packed when the region's common format is
narrower than 32 bits.
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
    accumulate,
    ensure_fmt,
    lane_blocks,
    lanes_for,
    partition_range,
    reduce_lanes,
    wider,
)
from .data import conv_inputs

__all__ = ["ConvApp"]


class ConvApp(TransprecisionApp):
    """5x5 convolution over a square image (valid region)."""

    name = "conv"
    partitionable = True

    def variables(self):
        n = self.scale.conv_size
        k = self.scale.conv_kernel
        out_n = n - k + 1
        return [
            VarSpec("image", n * n, "input image"),
            VarSpec("kernel", k * k, "filter taps"),
            VarSpec("out", out_n * out_n, "convolved output"),
        ]

    # ------------------------------------------------------------------
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        lock = Lockstep(self, bindings)
        img_fmt = lock.formats("image")
        ker_fmt = lock.formats("kernel")
        out_fmt = lock.formats("out")
        region = lock.wider(lock.wider(img_fmt, ker_fmt), out_fmt)

        image_np, kernel_np = conv_inputs(self.scale, input_id)
        image = lock.per_row(image_np, img_fmt)
        # The compiler hoists the 25 taps out of the pixel loops: one cast
        # per tap, not per use.
        taps = lock.cast(lock.per_row(kernel_np, ker_fmt), ker_fmt, region)

        k = self.scale.conv_kernel
        out_n = self.scale.conv_size - k + 1
        vector = lock.packs(region)
        # Each tap casts its window of the image: convert the image once,
        # slice it per tap and count each window's cast.
        image = lock.convert(image, img_fmt, region)
        acc = np.zeros((lock.rows, out_n, out_n))
        for dr in range(k):
            for dc in range(k):
                window = image[:, dr : dr + out_n, dc : dc + out_n]
                lock.count_cast(img_fmt, region, out_n * out_n, vector)
                tap = taps[:, dr, dc, None, None]
                prod = lock.op("mul", window, tap, region, vector)
                acc = lock.op("add", acc, prod, region, vector)
        return list(lock.cast(acc, region, out_fmt).reshape(lock.rows, -1))

    # ------------------------------------------------------------------
    def build_program(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> Program:
        out_n = self.scale.conv_size - self.scale.conv_kernel + 1
        return self._build_rows(
            binding, input_id, vectorize, 0, out_n, self.name
        )

    def _partition_many(
        self,
        n_cores: int,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
    ) -> list[Program]:
        """Chunk the output rows: core ``i`` convolves its row band.

        Cores whose band is empty (more cores than output rows) get an
        empty stream -- they idle instead of re-running the tap-hoist
        prologue for no work.
        """
        out_n = self.scale.conv_size - self.scale.conv_kernel + 1
        programs = []
        for core in range(n_cores):
            lo, hi = partition_range(out_n, n_cores, core)
            name = f"{self.name}.c{core}"
            programs.append(
                self._build_rows(binding, input_id, vectorize, lo, hi, name)
                if hi > lo
                else Program(name, [], {})
            )
        return programs

    def _build_rows(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
        row_lo: int,
        row_hi: int,
        name: str,
    ) -> Program:
        image_np, kernel_np = conv_inputs(self.scale, input_id)
        img_fmt = self._fmt(binding, "image")
        ker_fmt = self._fmt(binding, "kernel")
        out_fmt = self._fmt(binding, "out")
        region = wider(wider(img_fmt, ker_fmt), out_fmt)
        lanes = lanes_for(region) if vectorize else 1

        k = self.scale.conv_kernel
        n = self.scale.conv_size
        out_n = n - k + 1

        b = KernelBuilder(name)
        img = b.alloc("image", image_np.reshape(-1), img_fmt)
        ker = b.alloc("kernel", kernel_np.reshape(-1), ker_fmt)
        out = b.zeros("out", out_n * out_n, out_fmt)

        # Hoisted filter taps: loaded once, converted once, kept in regs
        # (a block never outgrows the region's packing, so each converts
        # in one instruction).
        blocks = lane_blocks(k, lanes)
        tap_regs = [
            [
                ensure_fmt(
                    b, b.load(ker, row * k + col, lanes=width), ker_fmt,
                    region,
                )
                for col, width in blocks
            ]
            for row in range(k)
        ]

        zero = b.fconst(0.0, region)
        for r0 in b.sweep(row_hi - row_lo):
            r = row_lo + r0
            for c in b.sweep(out_n):
                acc = zero
                vacc = None
                for dr in range(k):
                    for (col, width), tap in zip(blocks, tap_regs[dr]):
                        pix = b.load(img, (r + dr) * n + (c + col),
                                     lanes=width)
                        pix = ensure_fmt(b, pix, img_fmt, region)
                        prod = b.fp("mul", region, pix, tap)
                        acc, vacc = accumulate(b, region, acc, vacc, prod)
                if vacc is not None:
                    red = reduce_lanes(b, vacc, region)
                    acc = b.fp("add", region, acc, red)
                result = ensure_fmt(b, acc, region, out_fmt)
                b.store(out, r * out_n + c, result)
        return b.program()
