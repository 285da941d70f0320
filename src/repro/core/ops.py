"""The op-dispatch layer: one door between emulated arithmetic and backends.

Every array quantization, arithmetic operation, cast and reduction
performed by the numeric forms goes to the
:class:`~repro.core.backend.Backend` of the current execution context
(see :mod:`repro.core.context`), through these functions or through
:func:`active_backend`, which the lockstep forms
(:class:`repro.apps.base.Lockstep`) call once per run.  Swapping the
backend -- per session or via :func:`repro.core.context.use_backend` --
therefore retargets the whole platform at once, with no call-site
changes.  Work that rounds nothing (indexing, reshapes, negation,
min/max) acts on the float64 payload directly.

The functions take a :class:`~repro.core.formats.FormatRows` in place of
a format, rounding each row of the leading axis to its own format (a
batch of candidate bindings in lockstep).  One-value rounding and the
bit-pattern casts do not dispatch: they are the exact reference
functions of :mod:`repro.core.quantize`.
"""

from __future__ import annotations

import numpy as np

from .backend import Backend, Format
from .context import current_context

__all__ = [
    "active_backend",
    "quantize_array",
    "binary_array",
    "unary_array",
    "tree_sum",
]


def active_backend() -> Backend:
    """The backend arithmetic currently dispatches to."""
    return current_context().backend


def quantize_array(values, fmt: Format) -> np.ndarray:
    """Round every element of ``values`` to ``fmt``; a new float64 array."""
    return current_context().backend.quantize_array(values, fmt)


def binary_array(op: str, a, b, fmt: Format) -> np.ndarray:
    """One elementwise array operation, sanitized to ``fmt``."""
    return current_context().backend.binary_array(op, a, b, fmt)


def unary_array(op: str, values, fmt: Format) -> np.ndarray:
    """One auxiliary (sqrt/exp/log) array function, sanitized."""
    return current_context().backend.unary_array(op, values, fmt)


def tree_sum(work: np.ndarray, fmt: Format) -> np.ndarray:
    """Balanced-tree reduction of the last axis, sanitized per level."""
    return current_context().backend.tree_sum(work, fmt)
