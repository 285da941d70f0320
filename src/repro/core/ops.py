"""The op-dispatch layer: one door between emulated arithmetic and backends.

Every quantization, arithmetic operation, cast and reduction performed
by the numeric forms goes to the :class:`~repro.core.backend.Backend` of
the current execution context (see :mod:`repro.core.context`), through
these functions or through :func:`active_backend`, which the lockstep
forms (:class:`repro.apps.base.Lockstep`) call once per run.  Swapping the
backend -- per session or via :func:`repro.core.context.use_backend` --
therefore retargets the whole platform at once, with no call-site
changes.  Work that rounds nothing (indexing, reshapes, negation,
min/max) acts on the float64 payload directly.

The array functions take a :class:`~repro.core.formats.FormatRows` in
place of a format, rounding each row of the leading axis to its own
format (a batch of candidate bindings in lockstep).

The module also provides the public ``quantize``/``encode``/``decode``
functions re-exported by :mod:`repro.core`; under the default session
they are bit-identical to the reference implementations in
:mod:`repro.core.quantize` (and every backend is *required* to stay
bit-identical, so in practice they always are).
"""

from __future__ import annotations

import numpy as np

from .backend import Backend, Format
from .context import current_context
from .formats import FPFormat

__all__ = [
    "active_backend",
    "quantize",
    "quantize_array",
    "encode",
    "decode",
    "encode_array",
    "decode_array",
    "is_exact",
    "binary_scalar",
    "binary_array",
    "unary_array",
    "tree_sum",
]


def active_backend() -> Backend:
    """The backend arithmetic currently dispatches to."""
    return current_context().backend


# ----------------------------------------------------------------------
# Quantization and bit-pattern casts
# ----------------------------------------------------------------------
def quantize(x: float, fmt: FPFormat) -> float:
    """Round ``x`` to the nearest value representable in ``fmt``."""
    if type(x) is not float:
        x = float(x)
    return current_context().backend.quantize(x, fmt)


def quantize_array(values, fmt: Format) -> np.ndarray:
    """Vectorized :func:`quantize` over a float64 numpy array."""
    return current_context().backend.quantize_array(values, fmt)


def encode(x: float, fmt: FPFormat) -> int:
    """Pack a value into the ``fmt.bits``-wide integer bit pattern."""
    return current_context().backend.encode(x, fmt)


def decode(pattern: int, fmt: FPFormat) -> float:
    """Unpack a ``fmt.bits``-wide integer bit pattern into a double."""
    return current_context().backend.decode(pattern, fmt)


def encode_array(values, fmt: FPFormat) -> np.ndarray:
    """Vectorized :func:`encode`; returns a uint64 array of patterns."""
    return current_context().backend.encode_array(values, fmt)


def decode_array(patterns, fmt: FPFormat) -> np.ndarray:
    """Vectorized :func:`decode`; returns a float64 array."""
    return current_context().backend.decode_array(patterns, fmt)


def is_exact(x: float, fmt: FPFormat) -> bool:
    """True when ``x`` is already exactly representable in ``fmt``."""
    return quantize(x, fmt) == x or x != x


# ----------------------------------------------------------------------
# Arithmetic and reductions
# ----------------------------------------------------------------------
def binary_scalar(op: str, a: float, b: float, fmt: FPFormat) -> float:
    """One scalar operation on raw doubles, sanitized to ``fmt``."""
    return current_context().backend.binary(op, a, b, fmt)


def binary_array(op: str, a, b, fmt: Format) -> np.ndarray:
    """One elementwise array operation, sanitized to ``fmt``."""
    return current_context().backend.binary_array(op, a, b, fmt)


def unary_array(op: str, values, fmt: Format) -> np.ndarray:
    """One auxiliary (sqrt/exp/log) array function, sanitized."""
    return current_context().backend.unary_array(op, values, fmt)


def tree_sum(work: np.ndarray, fmt: Format) -> np.ndarray:
    """Balanced-tree reduction of the last axis, sanitized per level."""
    return current_context().backend.tree_sum(work, fmt)

