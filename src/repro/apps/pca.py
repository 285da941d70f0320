"""PCA: principal component analysis (paper §V-A).

Pipeline: column means -> centering -> covariance -> leading
eigenvectors by power iteration with deflation -> projection.

Tunable variables
-----------------
``data``    samples (also holds the centered samples),
``mean``    column means,
``cov``     covariance matrix (the eigen-solver's working storage),
``eigvec``  eigenvector storage,
``proj``    the projected output.

PCA is the paper's cautionary tale: its core math resists narrowing
(the covariance/eigen stages stay in binary32), the stages have
different best formats, and the seams between them inject casts --
enough that the tuned program can cost *more* energy than the binary32
baseline (Fig. 7: 107-108% for the tighter targets).  Off-the-shelf
code only auto-vectorizes the elementwise centering; the
``manual_vectorize`` flag additionally packs the covariance, matvec and
projection dot products (the Fig. 7 labels 1-3 experiment).

Division and square root (normalisation) run on the sequential binary32
unit, with casts in and out when the eigenvector storage is narrower.

The numeric form batches the work that does not depend on itself: all
d(d+1)/2 covariance cells are one ``(cells, n)`` product, one row-wise
tree sum and one scaling, and each deflation is one outer product.
Every element is rounded, counted and cast exactly as in a loop over
cells and rows; the power iteration stays sequential.  That loop form is
kept as the oracle (``tests/oracles.py``), and the batched form must
match its output bytes and ``Stats`` payload.

Like every app's, the form is written over a leading candidate axis
(:class:`Lockstep`): each region's format, cast and vector flag is
resolved per row, and a cast that only some rows need is an exact no-op
on the others.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core import BINARY32, FPFormat
from repro.hardware import KernelBuilder, Program
from repro.tuning import VarSpec

from .base import (
    Lockstep,
    TransprecisionApp,
    ensure_fmt,
    lanes_for,
    reduce_lanes,
    vcast,
    wider,
)
from .data import pca_inputs

__all__ = ["PcaApp"]

COMPONENTS = 2


class PcaApp(TransprecisionApp):
    """Projection onto the two leading principal components."""

    name = "pca"

    def __init__(self, scale="small", manual_vectorize: bool = False) -> None:
        super().__init__(scale)
        self.manual_vectorize = manual_vectorize

    def variables(self):
        n, d = self.scale.pca_samples, self.scale.pca_dims
        return [
            VarSpec("data", n * d, "samples / centered samples"),
            VarSpec("mean", d, "column means"),
            VarSpec("cov", d * d, "covariance working matrix"),
            VarSpec("eigvec", d * COMPONENTS, "eigenvector storage"),
            VarSpec("proj", n * COMPONENTS, "projected output"),
        ]

    # ------------------------------------------------------------------
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        lock = Lockstep(self, bindings)
        rows = lock.rows
        data_fmt = lock.formats("data")
        mean_fmt = lock.formats("mean")
        cov_fmt = lock.formats("cov")
        eig_fmt = lock.formats("eigvec")
        proj_fmt = lock.formats("proj")

        n, d = self.scale.pca_samples, self.scale.pca_dims
        inv_n = 1.0 / n
        manual = self.manual_vectorize

        x = lock.per_row(pca_inputs(self.scale, input_id), data_fmt)

        # --- column means -------------------------------------------------
        mean_region = lock.wider(data_fmt, mean_fmt)
        xr = lock.cast(x, data_fmt, mean_region)
        mean = lock.op(
            "mul", lock.sum(xr.swapaxes(1, 2), mean_region),
            lock.const(inv_n, mean_region), mean_region,
        )
        mean_s = lock.cast(mean, mean_region, mean_fmt)

        # --- centering (compiler-vectorizable elementwise loop) -----------
        # It runs in the means' region.
        vector = lock.packs(mean_region)
        a = lock.cast(x, data_fmt, mean_region, vector)
        m = lock.cast(mean_s, mean_fmt, mean_region, vector)
        diff = lock.op("sub", a, m[:, None, :], mean_region, vector)
        centered = lock.cast(diff, mean_region, data_fmt, vector)

        # --- covariance: every upper-triangle cell at once ----------------
        # Row r of the gathered operands holds columns iu[r] and ju[r];
        # one product, one tree sum and one scaling compute all
        # d(d+1)/2 cells, each rounded exactly as a lone cell would.
        cov_region = lock.wider(data_fmt, cov_fmt)
        vector = lock.packs(cov_region, manual)
        iu, ju = np.triu_indices(d)
        columns = centered.swapaxes(1, 2)
        ci = lock.cast(columns, data_fmt, cov_region)[:, iu]
        cj = lock.cast(columns[:, ju], data_fmt, cov_region)
        products = lock.op("mul", ci, cj, cov_region, vector)
        value = lock.op(
            "mul", lock.sum(products, cov_region, vector),
            lock.const(inv_n, cov_region), cov_region, vector,
        )
        stored = lock.cast(value, cov_region, cov_fmt)
        cov = np.zeros((rows, d, d))
        cov[:, iu, ju] = stored
        cov[:, ju, iu] = stored

        # --- power iteration with deflation --------------------------------
        eig_region = lock.wider(cov_fmt, eig_fmt)
        vector_eig = lock.packs(eig_region, manual)
        proj_region = lock.wider(data_fmt, eig_fmt)
        vector_proj = lock.packs(proj_region, manual)
        # Normalisation runs on the sequential binary32 unit.
        sqrt_fmt = lock.wider(eig_region, BINARY32)
        one = lock.const(1.0, sqrt_fmt)

        def matvec(c, v):
            # Each matvec casts cov, which changes only at deflation:
            # ``c`` is converted once per component, the cast counted here.
            lock.count_cast(cov_fmt, eig_region, d * d, vector_eig)
            vv = lock.cast(v, eig_fmt, eig_region, vector_eig)
            products = lock.op("mul", c, vv[:, None, :], eig_region,
                               vector_eig)
            return lock.sum(products, eig_region, vector_eig)

        proj_out = np.zeros((rows, n, COMPONENTS))
        start = 1.0 / float(np.sqrt(d))
        for comp in range(COMPONENTS):
            c = lock.convert(cov, cov_fmt, eig_region)
            v = lock.per_row(np.full(d, start), eig_fmt)
            for _ in range(self.scale.pca_iters):
                w = matvec(c, v)
                squares = lock.op("mul", w, w, eig_region, vector_eig)
                norm2 = lock.sum(squares, eig_region, vector_eig)[:, None]
                norm = lock.sqrt(lock.cast(norm2, eig_region, sqrt_fmt),
                                 sqrt_fmt)
                inv = lock.op("div", one, norm, sqrt_fmt)
                w32 = lock.cast(w, eig_region, sqrt_fmt)
                v = lock.cast(lock.op("mul", w32, inv, sqrt_fmt),
                              sqrt_fmt, eig_fmt)

            # Rayleigh quotient and deflation.
            w = matvec(c, v)
            vr = lock.cast(v, eig_fmt, eig_region)
            lam = lock.sum(lock.op("mul", vr, w, eig_region), eig_region)
            lam_c = lock.cast(lam[:, None, None], eig_region, cov_fmt)
            # Deflation as one outer product: cell (i, j) is
            # (v[j] * v[i]) * lambda, rounded after each product.
            outer = lock.op("mul", vr[:, None, :], vr[:, :, None],
                            eig_region)
            # The literal lambda is rounded to the region, uncounted.
            lam_r = lock.convert(lam_c, cov_fmt, eig_region)
            correction = lock.op("mul", outer, lam_r, eig_region)
            correction = lock.cast(correction, eig_region, cov_fmt)
            cov = lock.op("sub", cov, correction, cov_fmt)

            # Projection of every sample onto the component.
            c = lock.cast(centered, data_fmt, proj_region, vector_proj)
            vv = lock.cast(v, eig_fmt, proj_region, vector_proj)
            products = lock.op("mul", c, vv[:, None, :], proj_region,
                               vector_proj)
            p = lock.sum(products, proj_region, vector_proj)
            proj_out[:, :, comp] = lock.cast(p, proj_region, proj_fmt)
        return list(proj_out.reshape(rows, -1))

    # ------------------------------------------------------------------
    def build_program(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> Program:
        data_np = pca_inputs(self.scale, input_id)
        data_fmt = self._fmt(binding, "data")
        mean_fmt = self._fmt(binding, "mean")
        cov_fmt = self._fmt(binding, "cov")
        eig_fmt = self._fmt(binding, "eigvec")
        proj_fmt = self._fmt(binding, "proj")

        n, d = self.scale.pca_samples, self.scale.pca_dims
        inv_n = 1.0 / n
        manual = self.manual_vectorize and vectorize

        b = KernelBuilder(self.name)
        data = b.alloc("data", data_np.reshape(-1), data_fmt)
        mean = b.zeros("mean", d, mean_fmt)
        cov = b.zeros("cov", d * d, cov_fmt)
        eig = b.zeros("eigvec", d * COMPONENTS, eig_fmt)
        proj = b.zeros("proj", n * COMPONENTS, proj_fmt)
        wbuf = b.zeros("w", d, eig_fmt)

        mean_region = wider(data_fmt, mean_fmt)
        inv_n_mean = b.fconst(inv_n, mean_region)
        for j in b.loop(d, soft=True):
            acc = b.fconst(0.0, mean_region)
            for i in b.loop(n):
                v = b.load(data, i * d + j)
                v = ensure_fmt(b, v, data_fmt, mean_region)
                acc = b.fp("add", mean_region, acc, v)
            m = b.fp("mul", mean_region, acc, inv_n_mean)
            b.store(mean, j, ensure_fmt(b, m, mean_region, mean_fmt))

        # Centering: elementwise, auto-vectorizable.
        center_region = wider(data_fmt, mean_fmt)
        c_lanes = lanes_for(center_region) if vectorize else 1
        for i in b.loop(n, soft=True):
            col = 0
            while col < d:
                width = min(c_lanes, d - col)
                if width > 1:
                    vx = b.load(data, i * d + col, lanes=width)
                    vm = b.load(mean, col, lanes=width)
                    px = vcast(b, vx, data_fmt, center_region)[0]
                    pm = vcast(b, vm, mean_fmt, center_region)[0]
                    diff = b.fp("sub", center_region, px, pm)
                    res = vcast(b, diff, center_region, data_fmt)[0]
                    b.store(data, i * d + col, res)
                else:
                    sx = b.load(data, i * d + col)
                    sm = b.load(mean, col)
                    sx = ensure_fmt(b, sx, data_fmt, center_region)
                    sm = ensure_fmt(b, sm, mean_fmt, center_region)
                    diff = b.fp("sub", center_region, sx, sm)
                    res = ensure_fmt(b, diff, center_region, data_fmt)
                    b.store(data, i * d + col, res)
                col += width

        # Covariance (upper triangle + mirror).
        cov_region = wider(data_fmt, cov_fmt)
        v_cov = manual and lanes_for(cov_region) > 1
        inv_n_cov = b.fconst(inv_n, cov_region)
        for i in range(d):
            for j in range(i, d):
                acc = self._dot_columns(
                    b, data, data, n, d, i, j, data_fmt, data_fmt,
                    cov_region, v_cov,
                )
                cell = b.fp("mul", cov_region, acc, inv_n_cov)
                cell = ensure_fmt(b, cell, cov_region, cov_fmt)
                b.store(cov, i * d + j, cell)
                if i != j:
                    b.store(cov, j * d + i, cell)

        # Power iteration with deflation.
        eig_region = wider(cov_fmt, eig_fmt)
        v_eig = manual and lanes_for(eig_region) > 1
        sqrt_fmt = BINARY32
        start = 1.0 / float(np.sqrt(d))
        for comp in range(COMPONENTS):
            init = b.fconst(start, eig_fmt)
            for j in b.loop(d, soft=True):
                b.store(eig, comp * d + j, init)
            for _ in b.loop(self.scale.pca_iters, soft=True):
                self._matvec(b, cov, eig, wbuf, d, comp, cov_fmt, eig_fmt,
                             eig_region, v_eig)
                # norm^2 = w . w
                acc = b.fconst(0.0, eig_region)
                for j in b.loop(d):
                    wj = b.load(wbuf, j)
                    wj = ensure_fmt(b, wj, eig_fmt, eig_region)
                    sq = b.fp("mul", eig_region, wj, wj)
                    acc = b.fp("add", eig_region, acc, sq)
                acc32 = ensure_fmt(b, acc, eig_region, sqrt_fmt)
                norm = b.fsqrt(sqrt_fmt, acc32)
                one = b.fconst(1.0, sqrt_fmt)
                inv = b.fdiv(sqrt_fmt, one, norm)
                for j in b.loop(d):
                    wj = b.load(wbuf, j)
                    wj32 = ensure_fmt(b, wj, eig_fmt, sqrt_fmt)
                    scaled = b.fp("mul", sqrt_fmt, wj32, inv)
                    b.store(
                        eig, comp * d + j,
                        ensure_fmt(b, scaled, sqrt_fmt, eig_fmt),
                    )

            # Rayleigh quotient.
            self._matvec(b, cov, eig, wbuf, d, comp, cov_fmt, eig_fmt,
                         eig_region, v_eig)
            lam = b.fconst(0.0, eig_region)
            for j in b.loop(d, soft=True):
                vj = b.load(eig, comp * d + j)
                vj = ensure_fmt(b, vj, eig_fmt, eig_region)
                wj = b.load(wbuf, j)
                wj = ensure_fmt(b, wj, eig_fmt, eig_region)
                prod = b.fp("mul", eig_region, vj, wj)
                lam = b.fp("add", eig_region, lam, prod)
            lam_c = ensure_fmt(b, lam, eig_region, cov_region)
            # Deflation: cov -= lambda * v v^T.
            for i in b.loop(d, soft=True):
                vi = b.load(eig, comp * d + i)
                vi = ensure_fmt(b, vi, eig_fmt, cov_region)
                vil = b.fp("mul", cov_region, vi, lam_c)
                for j in b.loop(d):
                    vj = b.load(eig, comp * d + j)
                    vj = ensure_fmt(b, vj, eig_fmt, cov_region)
                    corr = b.fp("mul", cov_region, vil, vj)
                    cell = b.load(cov, i * d + j)
                    cell = ensure_fmt(b, cell, cov_fmt, cov_region)
                    cell = b.fp("sub", cov_region, cell, corr)
                    b.store(cov, i * d + j,
                            ensure_fmt(b, cell, cov_region, cov_fmt))

            # Projection.
            proj_region = wider(data_fmt, eig_fmt)
            v_proj = manual and lanes_for(proj_region) > 1
            for i in b.loop(n, soft=True):
                acc = self._dot_row_vec(
                    b, data, eig, i, comp, n, d, data_fmt, eig_fmt,
                    proj_region, v_proj,
                )
                b.store(
                    proj, i * COMPONENTS + comp,
                    ensure_fmt(b, acc, proj_region, proj_fmt),
                )
        return b.program()

    # ------------------------------------------------------------------
    def _dot_columns(self, b, arr_a, arr_b, n, d, col_a, col_b,
                     fmt_a, fmt_b, region, vector):
        """Column-column dot product: strided loads, scalar or packed."""
        acc = b.fconst(0.0, region)
        if not vector:
            for s in b.loop(n):
                va = b.load(arr_a, s * d + col_a)
                va = ensure_fmt(b, va, fmt_a, region)
                vb = b.load(arr_b, s * d + col_b)
                vb = ensure_fmt(b, vb, fmt_b, region)
                prod = b.fp("mul", region, va, vb)
                acc = b.fp("add", region, acc, prod)
            return acc
        # Manual vectorization packs strided column elements with ALU
        # shuffles (gather), then runs packed MACs.
        lanes = lanes_for(region)
        vacc = None
        s = 0
        while s < n:
            width = min(lanes, n - s)
            if width > 1:
                ra, rb = [], []
                for off in range(width):
                    ea = b.load(arr_a, (s + off) * d + col_a)
                    ra.append(ensure_fmt(b, ea, fmt_a, region))
                    eb = b.load(arr_b, (s + off) * d + col_b)
                    rb.append(ensure_fmt(b, eb, fmt_b, region))
                pa = b.pack(*ra)
                pb = b.pack(*rb)
                prod = b.fp("mul", region, pa, pb)
                if vacc is None:
                    vacc = prod
                elif width == vacc.lanes:
                    vacc = b.fp("add", region, vacc, prod)
                else:
                    acc = b.fp("add", region, acc,
                               reduce_lanes(b, prod, region))
            else:
                ea = b.load(arr_a, s * d + col_a)
                ea = ensure_fmt(b, ea, fmt_a, region)
                eb = b.load(arr_b, s * d + col_b)
                eb = ensure_fmt(b, eb, fmt_b, region)
                prod = b.fp("mul", region, ea, eb)
                acc = b.fp("add", region, acc, prod)
            s += width
        if vacc is not None:
            acc = b.fp("add", region, acc, reduce_lanes(b, vacc, region))
        return acc

    def _matvec(self, b, cov, eig, wbuf, d, comp, cov_fmt, eig_fmt,
                region, vector):
        """w = cov . v, row by row."""
        lanes = lanes_for(region) if vector else 1
        for i in b.loop(d, soft=True):
            acc = b.fconst(0.0, region)
            vacc = None
            j = 0
            while j < d:
                width = min(lanes, d - j)
                if width > 1:
                    vc = b.load(cov, i * d + j, lanes=width)
                    pc = vcast(b, vc, cov_fmt, region)[0]
                    ve = b.load(eig, comp * d + j, lanes=width)
                    pe = vcast(b, ve, eig_fmt, region)[0]
                    prod = b.fp("mul", region, pc, pe)
                    if vacc is None:
                        vacc = prod
                    elif width == vacc.lanes:
                        vacc = b.fp("add", region, vacc, prod)
                    else:
                        acc = b.fp("add", region, acc,
                                   reduce_lanes(b, prod, region))
                else:
                    sc = b.load(cov, i * d + j)
                    sc = ensure_fmt(b, sc, cov_fmt, region)
                    se = b.load(eig, comp * d + j)
                    se = ensure_fmt(b, se, eig_fmt, region)
                    prod = b.fp("mul", region, sc, se)
                    acc = b.fp("add", region, acc, prod)
                j += width
            if vacc is not None:
                acc = b.fp("add", region, acc,
                           reduce_lanes(b, vacc, region))
            b.store(wbuf, i, ensure_fmt(b, acc, region, eig_fmt))

    def _dot_row_vec(self, b, data, eig, row, comp, n, d,
                     data_fmt, eig_fmt, region, vector):
        """Contiguous row x eigenvector dot product."""
        lanes = lanes_for(region) if vector else 1
        acc = b.fconst(0.0, region)
        vacc = None
        j = 0
        while j < d:
            width = min(lanes, d - j)
            if width > 1:
                vx = b.load(data, row * d + j, lanes=width)
                px = vcast(b, vx, data_fmt, region)[0]
                ve = b.load(eig, comp * d + j, lanes=width)
                pe = vcast(b, ve, eig_fmt, region)[0]
                prod = b.fp("mul", region, px, pe)
                if vacc is None:
                    vacc = prod
                elif width == vacc.lanes:
                    vacc = b.fp("add", region, vacc, prod)
                else:
                    acc = b.fp("add", region, acc,
                               reduce_lanes(b, prod, region))
            else:
                sx = b.load(data, row * d + j)
                sx = ensure_fmt(b, sx, data_fmt, region)
                se = b.load(eig, comp * d + j)
                se = ensure_fmt(b, se, eig_fmt, region)
                prod = b.fp("mul", region, sx, se)
                acc = b.fp("add", region, acc, prod)
            j += width
        if vacc is not None:
            acc = b.fp("add", region, acc, reduce_lanes(b, vacc, region))
        return acc
