"""FlexFloat core: formats, bit-exact quantization, statistics, backends.

The public surface of the emulation library (paper §III-A): values are
float64 arrays kept sanitized to an arbitrary ``(e, m)`` format, one
format per array or one per row of a candidate axis (:class:`FormatRows`):

>>> from repro.core import BINARY16ALT, quantize
>>> quantize(3.14159, BINARY16ALT)
3.140625

Array arithmetic executes on a pluggable :class:`Backend` (see
:mod:`repro.core.backend`): the exact ``reference`` engine by default, or
the ``fast`` precomputed-constant numpy engine -- selected per session
(:class:`repro.session.Session`) or temporarily via :func:`use_backend`.
``quantize_array`` dispatches to the active backend; the one-value
``quantize``/``encode``/``decode``/``is_exact`` exported here are the
exact reference functions of :mod:`repro.core.quantize`.
"""

from .backend import (
    Backend,
    FastNumpyBackend,
    ReferenceBackend,
    available_backends,
    resolve_backend,
)
from .context import ExecutionContext, use_backend
from .formats import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    STANDARD_FORMATS,
    FormatRows,
    FPFormat,
    format_by_name,
)
from .ops import active_backend, quantize_array
from .quantize import decode, encode, is_exact, quantize
from .stats import (
    Stats,
    collect,
    collecting,
    in_vectorizable_region,
    record_cast,
    record_op,
    vectorizable,
)

__all__ = [
    "FPFormat",
    "FormatRows",
    "BINARY8",
    "BINARY16",
    "BINARY16ALT",
    "BINARY32",
    "BINARY64",
    "STANDARD_FORMATS",
    "format_by_name",
    "quantize",
    "quantize_array",
    "encode",
    "decode",
    "is_exact",
    "Stats",
    "collect",
    "collecting",
    "vectorizable",
    "in_vectorizable_region",
    "record_op",
    "record_cast",
    "Backend",
    "ReferenceBackend",
    "FastNumpyBackend",
    "resolve_backend",
    "available_backends",
    "active_backend",
    "use_backend",
    "ExecutionContext",
]
