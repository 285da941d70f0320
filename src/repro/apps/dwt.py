"""DWT: multi-level Daubechies-2 discrete wavelet transform (paper §V-A).

Tunable variables
-----------------
``signal``   the input signal / per-level approximation storage,
``lowpass``  the 4 scaling-filter taps,
``highpass`` the 4 wavelet-filter taps,
``coeffs``   the output coefficient storage (approximation at the last
             level followed by the detail bands).

Each level convolves the current approximation with both 4-tap filters
at stride 2 (periodic extension).  The 4-tap multiply-accumulate over
contiguous samples is the vectorizable region.
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
    lanes_for,
    partition_range,
    reduce_lanes,
    vcast,
    wider,
)
from .data import dwt_inputs

__all__ = ["DwtApp"]

TAPS = 4

#: The Daubechies-2 scaling (lowpass) and wavelet (highpass) filters.
_DB2_LO = np.array(
    [
        (1 + np.sqrt(3)) / (4 * np.sqrt(2)),
        (3 + np.sqrt(3)) / (4 * np.sqrt(2)),
        (3 - np.sqrt(3)) / (4 * np.sqrt(2)),
        (1 - np.sqrt(3)) / (4 * np.sqrt(2)),
    ]
)
_DB2_HI = np.array([_DB2_LO[3], -_DB2_LO[2], _DB2_LO[1], -_DB2_LO[0]])


class DwtApp(TransprecisionApp):
    """Multi-level 1D db2 wavelet decomposition."""

    name = "dwt"
    partitionable = True

    def variables(self):
        n = self.scale.dwt_length
        return [
            VarSpec("signal", n, "input signal and approximations"),
            VarSpec("lowpass", TAPS, "scaling filter taps"),
            VarSpec("highpass", TAPS, "wavelet filter taps"),
            VarSpec("coeffs", n, "output coefficients"),
        ]

    # ------------------------------------------------------------------
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        lock = Lockstep(self, bindings)
        sig_fmt = lock.formats("signal")
        lo_fmt = lock.formats("lowpass")
        hi_fmt = lock.formats("highpass")
        out_fmt = lock.formats("coeffs")
        region = lock.wider(
            lock.wider(sig_fmt, out_fmt), lock.wider(lo_fmt, hi_fmt)
        )
        # Filter taps are hoisted: one conversion each.
        lo_r = lock.cast(lock.per_row(_DB2_LO, lo_fmt), lo_fmt, region)
        hi_r = lock.cast(lock.per_row(_DB2_HI, hi_fmt), hi_fmt, region)

        approx = lock.per_row(dwt_inputs(self.scale, input_id), sig_fmt)
        vector = lock.packs(region)
        pieces: list[np.ndarray] = []
        for _ in range(self.scale.dwt_levels):
            n = approx.shape[1]
            half = n // 2
            a = lock.cast(approx, sig_fmt, region, vector)
            lo_acc = hi_acc = np.zeros((lock.rows, half))
            for t in range(TAPS):
                window = a[:, (2 * np.arange(half) + t) % n]
                lp = lock.op("mul", window, lo_r[:, t:t + 1], region, vector)
                lo_acc = lock.op("add", lo_acc, lp, region, vector)
                hp = lock.op("mul", window, hi_r[:, t:t + 1], region, vector)
                hi_acc = lock.op("add", hi_acc, hp, region, vector)
            pieces.append(lock.cast(hi_acc, region, out_fmt))
            approx = lock.cast(lo_acc, region, sig_fmt)

        final = lock.cast(approx, sig_fmt, out_fmt)
        return list(np.concatenate([final] + pieces[::-1], axis=1))

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
        """Chunk every level's output samples: core ``i`` filters its
        slice of each level (synchronization-free model; see the base
        class).  A core empty at the first (largest) level is empty at
        every deeper one too: it idles with an empty stream instead of
        re-running the tap-hoist prologue.
        """
        first_half = self.scale.dwt_length // 2
        programs = []
        for core in range(n_cores):
            name = f"{self.name}.c{core}"
            lo, hi = partition_range(first_half, n_cores, core)
            programs.append(
                self._build_part(
                    binding, input_id, vectorize, core, n_cores, name
                )
                if hi > lo
                else Program(name, [], {})
            )
        return programs

    def _build_part(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
        core: int,
        n_cores: int,
        name: str,
    ) -> Program:
        signal_np = dwt_inputs(self.scale, input_id)
        sig_fmt = self._fmt(binding, "signal")
        lo_fmt = self._fmt(binding, "lowpass")
        hi_fmt = self._fmt(binding, "highpass")
        out_fmt = self._fmt(binding, "coeffs")
        region = wider(wider(sig_fmt, out_fmt), wider(lo_fmt, hi_fmt))
        lanes = lanes_for(region) if vectorize else 1

        n0 = self.scale.dwt_length
        levels = self.scale.dwt_levels

        b = KernelBuilder(name)
        signal = b.alloc("signal", signal_np, sig_fmt)
        lowpass = b.alloc("lowpass", _DB2_LO, lo_fmt)
        highpass = b.alloc("highpass", _DB2_HI, hi_fmt)
        coeffs = b.zeros("coeffs", n0, out_fmt)
        # Ping-pong buffer for the next approximation level.
        scratch = b.zeros("scratch", n0 // 2, sig_fmt)

        # Hoist the 4 taps of each filter (vector loads when possible).
        def hoist(arr, fmt):
            regs: list[tuple] = []
            t = 0
            while t < TAPS:
                width = min(lanes, TAPS - t)
                if width > 1:
                    v = b.load(arr, t, lanes=width)
                    regs.extend(
                        (r, width) for r in vcast(b, v, fmt, region)
                    )
                else:
                    v = b.load(arr, t)
                    regs.append((ensure_fmt(b, v, fmt, region), 1))
                t += width
            return regs

        lo_regs = hoist(lowpass, lo_fmt)
        hi_regs = hoist(highpass, hi_fmt)

        current = signal
        current_n = n0
        out_cursor = n0  # details fill from the back
        for level in range(levels):
            half = current_n // 2
            out_cursor -= half
            lo, hi = partition_range(half, n_cores, core)
            for i0 in b.loop(hi - lo):
                i = lo + i0
                base = 2 * i
                wrap = base + TAPS > current_n
                lo_acc = None
                hi_acc = None
                if not wrap and lanes >= 2:
                    pos = 0
                    for (lreg, width), (hreg, _) in zip(lo_regs, hi_regs):
                        vwin = b.load(current, base + pos, lanes=width)
                        parts = vcast(b, vwin, sig_fmt, region)
                        for part in parts:
                            lp = b.fp("mul", region, part, lreg)
                            hp = b.fp("mul", region, part, hreg)
                            lo_acc = (
                                lp if lo_acc is None
                                else b.fp("add", region, lo_acc, lp)
                            )
                            hi_acc = (
                                hp if hi_acc is None
                                else b.fp("add", region, hi_acc, hp)
                            )
                        pos += width
                    lo_s = reduce_lanes(b, lo_acc, region)
                    hi_s = reduce_lanes(b, hi_acc, region)
                else:
                    # Scalar path (or boundary wrap-around).
                    flat_lo = _flatten_taps(b, lo_regs, region)
                    flat_hi = _flatten_taps(b, hi_regs, region)
                    lo_s = b.fconst(0.0, region)
                    hi_s = b.fconst(0.0, region)
                    for t in range(TAPS):
                        s = b.load(current, (base + t) % current_n)
                        s = ensure_fmt(b, s, sig_fmt, region)
                        lp = b.fp("mul", region, s, flat_lo[t])
                        lo_s = b.fp("add", region, lo_s, lp)
                        hp = b.fp("mul", region, s, flat_hi[t])
                        hi_s = b.fp("add", region, hi_s, hp)
                det = ensure_fmt(b, hi_s, region, out_fmt)
                b.store(coeffs, out_cursor + i, det)
                app_val = ensure_fmt(b, lo_s, region, sig_fmt)
                b.store(scratch, i, app_val)
            # Copy the new approximation back (load+store per element).
            for i0 in b.loop(hi - lo):
                i = lo + i0
                v = b.load(scratch, i)
                b.store(current, i, v)
            current_n = half
        # Final approximation into the front of the output.
        lo, hi = partition_range(current_n, n_cores, core)
        for i0 in b.loop(hi - lo):
            i = lo + i0
            v = b.load(current, i)
            v = ensure_fmt(b, v, sig_fmt, out_fmt)
            b.store(coeffs, i, v)
        return b.program()


def _flatten_taps(b, regs, region):
    """Expand hoisted (possibly packed) tap registers to 4 scalars."""
    flat = []
    for reg, width in regs:
        if width == 1:
            flat.append(reg)
        else:
            for lane in range(width):
                flat.append(b.select_lanes(reg, lane, 1))
    return flat
