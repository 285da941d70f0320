"""repro: reproduction of "A Transprecision Floating-Point Platform for
Ultra-Low Power Computing" (Tagliavini et al., DATE 2018).

Subpackages
-----------
``repro.core``
    FlexFloat emulation: formats (one per array, or one per row of a
    candidate axis), bit-exact quantization, operation/cast statistics,
    and the pluggable arithmetic backends (exact ``reference`` oracle,
    fused ``fast`` numpy kernels) behind the :mod:`repro.core.ops`
    dispatch layer.
``repro.session``
    The :class:`Session` facade: one object owning the backend, the
    statistics scope, the tuning cache and the virtual platform.
    Construct one and pass it down (flow, analysis drivers, CLI
    ``--backend``), or use it as a context manager:

    >>> from repro import Session
    >>> with Session(backend="fast") as s, s.collect() as stats:
    ...     pass  # emulated arithmetic here runs on the fast backend
``repro.tuning``
    Precision tuning: SQNR metric, DistributedSearch reimplementation
    and the other strategies, precision-to-format mapping (type systems
    V1/V2).
``repro.hardware``
    Transprecision FPU model (slices, SIMD, latency, energy) and a
    PULPino-like virtual platform (mini-ISA, in-order pipeline, memory).
``repro.cluster``
    Multi-core cluster simulator: per-core pipeline replay against
    shared FPU instances (round-robin arbitration, contention stalls,
    strong-scaling speedup/efficiency).
``repro.apps``
    The six evaluation kernels (JACOBI, KNN, PCA, DWT, SVM, CONV) in both
    numeric (emulated, over a candidate axis of bindings) and kernel
    (ISA program) form.
``repro.flow``
    The five-step transprecision programming flow of Fig. 2.
``repro.analysis``
    Drivers regenerating Table I and Figures 4-7 plus the motivation
    experiment and the headline-claims summary.
"""

__version__ = "1.1.0"

from . import core
from .session import Session, get_session, use_session

__all__ = [
    "core",
    "Session",
    "get_session",
    "use_session",
    "__version__",
]
