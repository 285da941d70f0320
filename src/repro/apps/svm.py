"""SVM: prediction stage of a polynomial-kernel SVM (paper §V-A).

Tunable variables
-----------------
``support``  support-vector matrix (largest array; like KNN's training
             set it tolerates very coarse quantization),
``alpha``    dual coefficients per class,
``bias``     per-class bias,
``inputs``   the query batch,
``scores``   decision scores (the program output).

Two vectorizable regions dominate the run time: the ``query x support``
dot products over the feature dimension, and the kernel-weighted
accumulation over support vectors.  This is why the paper measures ~60%
of SVM's FP operations as vectorizable and the largest memory-access
reduction (48%) of the suite.

The polynomial kernel ``(gamma * <s, q> + coef0)^3`` uses only ADD/MUL,
so the whole prediction maps onto the transprecision slices.

The numeric form runs every query at once, on the axis after the
candidate axis: the dot products are one ``(m, s, d)`` product summed
over features, the class scores one ``(m, s, c)`` product summed over
support vectors.  Each query still casts its own copy of the support
vectors, coefficients and biases, so counts match a loop over queries,
which is kept as the oracle (``tests/oracles.py``): output bytes and
``Stats`` payloads must be equal.
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
    reduce_lanes,
    wider,
)
from .data import svm_inputs

__all__ = ["SvmApp"]

GAMMA = 0.5
COEF0 = 1.0


class SvmApp(TransprecisionApp):
    """Multi-class polynomial-kernel SVM prediction."""

    name = "svm"

    def variables(self):
        s, d = self.scale.svm_vectors, self.scale.svm_dims
        c, m = self.scale.svm_classes, self.scale.svm_queries
        return [
            VarSpec("support", s * d, "support vectors"),
            VarSpec("alpha", s * c, "dual coefficients"),
            VarSpec("bias", c, "per-class bias"),
            VarSpec("inputs", m * d, "query batch"),
            VarSpec("kvals", s, "kernel-value accumulators"),
            VarSpec("scores", m * c, "decision scores"),
        ]

    # ------------------------------------------------------------------
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        lock = Lockstep(self, bindings)
        sv_fmt = lock.formats("support")
        al_fmt = lock.formats("alpha")
        bi_fmt = lock.formats("bias")
        in_fmt = lock.formats("inputs")
        kv_fmt = lock.formats("kvals")
        sc_fmt = lock.formats("scores")
        dot_region = lock.wider(lock.wider(sv_fmt, in_fmt), kv_fmt)
        acc_region = lock.wider(lock.wider(al_fmt, sc_fmt), kv_fmt)

        s, m = self.scale.svm_vectors, self.scale.svm_queries
        support_np, alpha_np, bias_np, queries_np = svm_inputs(
            self.scale, input_id
        )

        # All m queries ride the axis after the candidate axis.  Casts
        # happen per scan, matching the kernel form: narrow operands are
        # converted as they stream out of memory, so each query casts
        # its own copy of the support vectors, coefficients and biases.
        def per_query(values, fmt, region):
            stored = lock.per_row(values, fmt)[:, None]
            copies = np.broadcast_to(stored, (lock.rows, m) + values.shape)
            return lock.cast(copies, fmt, region)

        sv_r = per_query(support_np, sv_fmt, dot_region)
        al_r = per_query(alpha_np, al_fmt, acc_region)
        bi_r = per_query(bias_np, bi_fmt, acc_region)
        query = lock.cast(lock.per_row(queries_np, in_fmt), in_fmt, dot_region)

        vector = lock.packs(dot_region)
        dots = lock.op("mul", sv_r, query[:, :, None], dot_region, vector)
        k = lock.sum(dots, dot_region, vector).reshape(lock.rows, m * s)
        # Polynomial kernel: evaluated where the dots live, then
        # stored through the kvals accumulator format.
        k = lock.op("mul", k, lock.const(GAMMA, dot_region), dot_region)
        k = lock.op("add", k, lock.const(COEF0, dot_region), dot_region)
        k = lock.op("mul", lock.op("mul", k, k, dot_region), k, dot_region)
        k = lock.cast(lock.cast(k, dot_region, kv_fmt), kv_fmt, acc_region)

        vector = lock.packs(acc_region)
        k = k.reshape(lock.rows, m, s, 1)
        terms = lock.op("mul", al_r, k, acc_region, vector)
        sc = lock.sum(terms.swapaxes(2, 3), acc_region, vector)
        sc = lock.op("add", sc, bi_r, acc_region)
        return list(lock.cast(sc, acc_region, sc_fmt).reshape(lock.rows, -1))

    # ------------------------------------------------------------------
    def build_program(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> Program:
        support_np, alpha_np, bias_np, queries_np = svm_inputs(
            self.scale, input_id
        )
        sv_fmt = self._fmt(binding, "support")
        al_fmt = self._fmt(binding, "alpha")
        bi_fmt = self._fmt(binding, "bias")
        in_fmt = self._fmt(binding, "inputs")
        kv_fmt = self._fmt(binding, "kvals")
        sc_fmt = self._fmt(binding, "scores")

        dot_region = wider(wider(sv_fmt, in_fmt), kv_fmt)
        acc_region = wider(wider(al_fmt, sc_fmt), kv_fmt)
        dot_lanes = lanes_for(dot_region) if vectorize else 1
        acc_lanes = lanes_for(acc_region) if vectorize else 1

        s, d = self.scale.svm_vectors, self.scale.svm_dims
        c, m = self.scale.svm_classes, self.scale.svm_queries

        b = KernelBuilder(self.name)
        support = b.alloc("support", support_np.reshape(-1), sv_fmt)
        alpha = b.alloc("alpha", alpha_np.reshape(-1), al_fmt)
        bias = b.alloc("bias", bias_np, bi_fmt)
        inputs = b.alloc("inputs", queries_np.reshape(-1), in_fmt)
        kvals = b.zeros("kvals", s, kv_fmt)
        scores = b.zeros("scores", m * c, sc_fmt)

        gamma = b.fconst(GAMMA, dot_region)
        coef0 = b.fconst(COEF0, dot_region)
        zero_dot = b.fconst(0.0, dot_region)
        zero_acc = b.fconst(0.0, acc_region)

        dot_blocks = lane_blocks(d, dot_lanes)
        for q in b.loop(m, soft=True):
            # Hoist the query into registers for the support-vector scan
            # (a block never outgrows the region's packing, so each
            # converts in one instruction).
            qregs = [
                ensure_fmt(
                    b, b.load(inputs, q * d + col, lanes=width), in_fmt,
                    dot_region,
                )
                for col, width in dot_blocks
            ]

            # Dot products + polynomial kernel per support vector.
            for i in b.sweep(s):
                acc = zero_dot
                vacc = None
                for (col, width), qreg in zip(dot_blocks, qregs):
                    sv = b.load(support, i * d + col, lanes=width)
                    sv = ensure_fmt(b, sv, sv_fmt, dot_region)
                    prod = b.fp("mul", dot_region, sv, qreg)
                    acc, vacc = accumulate(b, dot_region, acc, vacc, prod)
                if vacc is not None:
                    red = reduce_lanes(b, vacc, dot_region)
                    acc = b.fp("add", dot_region, acc, red)
                kv = b.fp("mul", dot_region, acc, gamma)
                kv = b.fp("add", dot_region, kv, coef0)
                kv2 = b.fp("mul", dot_region, kv, kv)
                kv3 = b.fp("mul", dot_region, kv2, kv)
                b.store(kvals, i, ensure_fmt(b, kv3, dot_region, kv_fmt))

            # Score accumulation: sum_s alpha[s, cls] * k[s], each
            # class on its own.
            for cls in b.sweep(c, soft=True):
                acc = zero_acc
                vacc = None
                for i, width in lane_blocks(s, acc_lanes):
                    vk = b.load(kvals, i, lanes=width)
                    vk = ensure_fmt(b, vk, kv_fmt, acc_region)
                    # alpha is laid out (s, c): class column is strided,
                    # so alpha loads stay scalar and get packed.
                    aregs = [
                        ensure_fmt(
                            b, b.load(alpha, (i + off) * c + cls), al_fmt,
                            acc_region,
                        )
                        for off in range(width)
                    ]
                    ar = b.pack(*aregs) if width > 1 else aregs[0]
                    prod = b.fp("mul", acc_region, vk, ar)
                    acc, vacc = accumulate(b, acc_region, acc, vacc, prod)
                if vacc is not None:
                    red = reduce_lanes(b, vacc, acc_region)
                    acc = b.fp("add", acc_region, acc, red)
                br = b.load(bias, cls)
                br = ensure_fmt(b, br, bi_fmt, acc_region)
                acc = b.fp("add", acc_region, acc, br)
                result = ensure_fmt(b, acc, acc_region, sc_fmt)
                b.store(scores, q * c + cls, result)
        return b.program()
