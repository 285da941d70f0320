"""Pure numpy float64 implementations of the six kernels.

They are an independent check of the apps, written without
:class:`~repro.apps.base.Lockstep` or the kernel builder:
``tests/apps/test_correctness.py`` requires each app's numeric form under
the all-binary64 binding to reproduce them, and its binary32 kernel to
match them to binary32 accuracy.  They are not what the tuner measures
SQNR against: that is the numeric form itself under
:func:`~repro.tuning.baseline_binding`, with every variable in binary64
(:meth:`~repro.apps.base.TransprecisionApp.reference`).
"""

from __future__ import annotations

import numpy as np

from repro.apps.dwt import _DB2_HI, _DB2_LO

__all__ = [
    "jacobi_reference",
    "knn_reference",
    "pca_reference",
    "dwt_reference",
    "svm_reference",
    "conv_reference",
]


def jacobi_reference(
    grid: np.ndarray, source: np.ndarray, iterations: int
) -> np.ndarray:
    """Jacobi relaxation on a 2D heat grid with a fixed boundary ring."""
    g = grid.astype(np.float64).copy()
    for _ in range(iterations):
        interior = 0.25 * (
            g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
        ) + source[1:-1, 1:-1]
        new = g.copy()
        new[1:-1, 1:-1] = interior
        g = new
    return g[1:-1, 1:-1].reshape(-1)


def knn_reference(
    train: np.ndarray, values: np.ndarray, query: np.ndarray, k: int
) -> np.ndarray:
    """k-NN regression estimate, then the k nearest euclidean distances."""
    d2 = np.sum((train - query) ** 2, axis=1)
    order = np.argsort(d2, kind="stable")[:k]
    estimate = np.sum(values[order]) * (1.0 / k)
    return np.concatenate([[estimate], np.sqrt(d2[order])])


def pca_reference(data: np.ndarray, components: int, iterations: int
                  ) -> np.ndarray:
    """Projection onto the leading principal components.

    Uses the same deterministic power iteration with deflation as the
    emulated implementation (fixed iteration count, deterministic start
    vector), so that the only differences under test are numerical.
    """
    x = data.astype(np.float64)
    n = x.shape[0]
    mean = np.sum(x, axis=0) / n
    centered = x - mean
    cov = centered.T @ centered / n

    out = np.empty((n, components))
    work = cov.copy()
    d = cov.shape[0]
    for comp in range(components):
        v = np.ones(d) / np.sqrt(d)
        for _ in range(iterations):
            w = work @ v
            norm = np.sqrt(np.sum(w * w))
            v = w / norm
        lam = v @ (work @ v)
        out[:, comp] = centered @ v
        work = work - lam * np.outer(v, v)
    return out.reshape(-1)


def dwt_reference(signal: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level Daubechies-2 DWT (periodic extension).

    Output layout: ``[approx_L, detail_L, detail_L-1, ..., detail_1]``.
    """
    approx = signal.astype(np.float64)
    details: list[np.ndarray] = []
    for _ in range(levels):
        n = len(approx)
        half = n // 2
        lo = np.empty(half)
        hi = np.empty(half)
        for i in range(half):
            acc_lo = 0.0
            acc_hi = 0.0
            for t in range(4):
                s = approx[(2 * i + t) % n]
                acc_lo += _DB2_LO[t] * s
                acc_hi += _DB2_HI[t] * s
            lo[i] = acc_lo
            hi[i] = acc_hi
        details.append(hi)
        approx = lo
    return np.concatenate([approx] + list(reversed(details)))


def svm_reference(
    support: np.ndarray,
    alpha: np.ndarray,
    bias: np.ndarray,
    queries: np.ndarray,
    gamma: float = 0.5,
    coef0: float = 1.0,
) -> np.ndarray:
    """Polynomial-kernel (degree 3) SVM decision scores, per query/class."""
    kernel = (gamma * (queries @ support.T) + coef0) ** 3  # (m, s)
    scores = kernel @ alpha + bias  # (m, c)
    return scores.reshape(-1)


def conv_reference(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-region 2D convolution (correlation orientation)."""
    n = image.shape[0]
    k = kernel.shape[0]
    out_n = n - k + 1
    out = np.zeros((out_n, out_n))
    for r in range(out_n):
        for c in range(out_n):
            out[r, c] = np.sum(image[r : r + k, c : c + k] * kernel)
    return out.reshape(-1)
