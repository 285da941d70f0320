"""Bring your own kernel: tune a FIR filter you define yourself.

Shows the full application contract: a numeric form for the tuner and a
kernel (mini-ISA) form for the virtual platform, in ~100 lines.  The
numeric form runs several candidate bindings at once, one row each of a
leading axis (``Lockstep``); the tuner hands it the candidates it knows
are independent.  Anything implementing this pair plugs into the same
Fig. 2 flow as the six paper applications.

Run with::

    python examples/custom_app.py
"""

import numpy as np

from repro.apps.base import (
    Lockstep,
    TransprecisionApp,
    ensure_fmt,
    lanes_for,
    reduce_lanes,
    vcast,
    wider,
)
from repro.flow import TransprecisionFlow
from repro.hardware import KernelBuilder
from repro.tuning import V2, VarSpec

TAPS = 8
LENGTH = 256


class FirApp(TransprecisionApp):
    """8-tap FIR filter over a noisy sensor trace."""

    name = "fir"
    num_inputs = 2

    def variables(self):
        return [
            VarSpec("signal", LENGTH, "input samples"),
            VarSpec("taps", TAPS, "filter coefficients"),
            VarSpec("out", LENGTH - TAPS + 1, "filtered output"),
        ]

    def _inputs(self, input_id):
        rng = np.random.default_rng(42 + input_id)
        t = np.linspace(0, 1, LENGTH)
        signal = np.sin(2 * np.pi * 5 * t) + 0.1 * rng.normal(size=LENGTH)
        taps = np.blackman(TAPS)
        taps /= taps.sum()
        return signal, taps

    # -- numeric form ---------------------------------------------------
    def run_numeric_batch(self, bindings, input_id=0):
        lock = Lockstep(self, bindings)
        sig_fmt = lock.formats("signal")
        tap_fmt = lock.formats("taps")
        out_fmt = lock.formats("out")
        region = lock.wider(lock.wider(sig_fmt, tap_fmt), out_fmt)

        # Inputs round to each row's storage format.
        signal_np, taps_np = self._inputs(input_id)
        signal = lock.per_row(signal_np, sig_fmt)
        taps_r = lock.cast(lock.per_row(taps_np, tap_fmt), tap_fmt, region)
        n_out = LENGTH - TAPS + 1

        # The filter loop is vectorizable: rows whose region packs
        # count its work as vector work.
        vector = lock.packs(region)
        sig_r = lock.cast(signal, sig_fmt, region, vector)
        acc = np.zeros((lock.rows, n_out))
        for t in range(TAPS):
            window = sig_r[:, t : t + n_out]
            prod = lock.op("mul", window, taps_r[:, t : t + 1], region, vector)
            acc = lock.op("add", acc, prod, region, vector)
        return list(lock.cast(acc, region, out_fmt))

    # -- kernel form ----------------------------------------------------
    def build_program(self, binding, input_id=0, vectorize=True):
        signal_np, taps_np = self._inputs(input_id)
        sig_fmt = binding["signal"]
        tap_fmt = binding["taps"]
        out_fmt = binding["out"]
        region = wider(wider(sig_fmt, tap_fmt), out_fmt)
        lanes = lanes_for(region) if vectorize else 1
        n_out = LENGTH - TAPS + 1

        b = KernelBuilder(self.name)
        signal = b.alloc("signal", signal_np, sig_fmt)
        taps = b.alloc("taps", taps_np, tap_fmt)
        out = b.zeros("out", n_out, out_fmt)

        tap_regs = []
        t = 0
        while t < TAPS:
            width = min(lanes, TAPS - t)
            if width > 1:
                v = b.load(taps, t, lanes=width)
                tap_regs += [
                    (r, width) for r in vcast(b, v, tap_fmt, region)
                ]
            else:
                v = b.load(taps, t)
                tap_regs.append((ensure_fmt(b, v, tap_fmt, region), 1))
            t += width

        for i in b.loop(n_out):
            acc = b.fconst(0.0, region)
            vacc, pos = None, 0
            for treg, width in tap_regs:
                if width > 1:
                    vs = b.load(signal, i + pos, lanes=width)
                    part = vcast(b, vs, sig_fmt, region)[0]
                    prod = b.fp("mul", region, part, treg)
                    if vacc is None:
                        vacc = prod
                    else:
                        vacc = b.fp("add", region, vacc, prod)
                else:
                    s = b.load(signal, i + pos)
                    s = ensure_fmt(b, s, sig_fmt, region)
                    prod = b.fp("mul", region, s, treg)
                    acc = b.fp("add", region, acc, prod)
                pos += width
            if vacc is not None:
                acc = b.fp("add", region, acc,
                           reduce_lanes(b, vacc, region))
            b.store(out, i, ensure_fmt(b, acc, region, out_fmt))
        return b.program()


def main() -> None:
    app = FirApp("small")
    print("Custom FIR app through the full transprecision flow:\n")
    for precision in (1e-1, 1e-2, 1e-3):
        flow = TransprecisionFlow(app, V2, precision, cache_dir=None)
        result = flow.run()
        binding = {k: v.name for k, v in result.binding.items()}
        print(f"precision {precision:g}: {binding}")
        print(f"  cycles {result.cycles_ratio:.2f}x   "
              f"memory {result.memory_ratio:.2f}x   "
              f"energy {result.energy_ratio:.2f}x vs binary32\n")


if __name__ == "__main__":
    main()
