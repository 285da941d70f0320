"""Pluggable arithmetic backends (the platform's "execution engines").

The paper's platform is explicitly multi-level: the same program runs on
the FlexFloat *emulation* library while tuning and on the *native*
transprecision FPU afterwards.  This module gives the reproduction the
matching seam: every array operation, cast and reduction the numeric
forms perform is routed through a :class:`Backend`, and backends are
swappable per session (see :mod:`repro.session`) or temporarily via
:func:`repro.core.context.use_backend`.  Backends are array-only: each
rounding covers a whole array, and the one-value ``quantize``/
``encode``/``decode`` of :mod:`repro.core` are the exact scalars of
:mod:`repro.core.quantize`.

Two backends ship:

* :class:`ReferenceBackend` -- the reference numpy vectorization of
  :mod:`repro.core.quantize`.  This is the semantics oracle; every other
  backend must match it bit for bit.
* :class:`FastNumpyBackend` -- the production path.  Per-format
  quantization constants are precomputed once and cached, binary16 /
  binary32 sanitization uses the hardware's own correctly-rounding
  ``float16``/``float32`` conversions, and all other formats go through
  a short scale--round--unscale kernel (both are IEEE 754
  round-to-nearest-even, so results stay bit-identical to the
  reference; the randomized cross-checks in ``tests/core/test_backend``
  enforce this).  Arithmetic fuses the operation with quantize-on-write,
  so each emulated array op costs its operator plus two numpy passes for
  binary16/32 and ten for every other format, instead of the
  reference's ~25.

Every array method also takes a :class:`~repro.core.formats.FormatRows`
in place of a format: row ``r`` of the leading axis rounds to its own
format, so candidate bindings run in lockstep, one row each (see
:meth:`repro.apps.TransprecisionApp.run_numeric_batch`).  The base
class applies each row's format to its own row, which keeps
``reference`` the oracle; ``fast`` broadcasts per-row columns of the
format constants through its generic kernel, in one pass for all rows.

Backends are stateless apart from caches, so :func:`resolve_backend`
hands out one shared instance per name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Union

import numpy as np

from . import quantize as _reference
from .formats import FormatRows, FPFormat

__all__ = [
    "Backend",
    "ReferenceBackend",
    "FastNumpyBackend",
    "resolve_backend",
    "available_backends",
]


#: What every array method accepts as a format.
Format = Union[FPFormat, FormatRows]


def _ieee_divide(a, b) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


#: Vectorized implementations of the binary operators.
ARRAY_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _ieee_divide,
}

#: Vectorized auxiliary (softfloat) functions.
UNARY_ARRAY_OPS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
}


class Backend(ABC):
    """One arithmetic engine: array quantization, arithmetic, casts,
    reductions.

    Subclasses must provide :meth:`quantize_array`; everything else has
    a default implementation expressed in terms of it, so a backend only
    overrides what it can genuinely accelerate.
    """

    #: The name :func:`resolve_backend` and session specs know the
    #: backend by; subclasses must override.
    name: str

    @abstractmethod
    def quantize_array(self, values, fmt: Format) -> np.ndarray:
        """Round every element of ``values`` to the nearest value
        representable in ``fmt``; returns a new float64 array.

        With a :class:`FormatRows`, each row of the leading axis rounds
        to its own format; :meth:`quantize_rows` does that row by row.
        """

    def quantize_rows(self, values, rows: FormatRows) -> np.ndarray:
        """Round each row of the leading axis to its own format, one
        single-format :meth:`quantize_array` call per row (one call in
        all when the rows share a format)."""
        a = np.asarray(values, dtype=np.float64)
        _check_rows(a, rows)
        if rows.count(rows[0]) == len(rows):
            return self.quantize_array(a, rows[0])
        out = np.empty_like(a)
        for r, fmt in enumerate(rows):
            out[r:r + 1] = self.quantize_array(a[r:r + 1], fmt)
        return out

    def binary_array(self, op: str, a, b, fmt: Format) -> np.ndarray:
        """Fused elementwise operator + quantize-on-write."""
        with np.errstate(invalid="ignore", over="ignore"):
            # IEEE specials (inf - inf, 0 * inf, ...) are intended
            # emulation results, not numerical accidents.
            raw = ARRAY_OPS[op](a, b)
        return self.quantize_array(raw, fmt)

    def unary_array(self, op: str, values, fmt: Format) -> np.ndarray:
        """Vectorized auxiliary function (sqrt/exp/log) + sanitization."""
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            raw = UNARY_ARRAY_OPS[op](values)
        return self.quantize_array(raw, fmt)

    def tree_sum(self, work: np.ndarray, fmt: Format) -> np.ndarray:
        """Balanced-tree reduction of the last axis, sanitized per level.

        ``work`` is a float64 array of shape ``(..., n)``, ``n >= 1``,
        whose elements are already representable in ``fmt``; returns
        the sums, of shape ``(...)``, quantizing after every addition
        level (the rounding pattern of a vectorized/unrolled hardware
        accumulator).  The levels share one :meth:`_adder` and one
        errstate.
        """
        if work.shape[-1] > 1:
            add = self._adder(work, fmt)
            with np.errstate(all="ignore"):
                while work.shape[-1] > 1:
                    if work.shape[-1] % 2:
                        carry = work[..., -1:]
                        pairs = work[..., :-1]
                    else:
                        carry = None
                        pairs = work
                    summed = add(pairs[..., 0::2], pairs[..., 1::2])
                    work = (
                        summed
                        if carry is None
                        else np.concatenate([summed, carry], axis=-1)
                    )
        return work[..., 0]

    def _adder(self, work: np.ndarray, fmt: Format):
        """``add(a, b)``, rounded to ``fmt``, for every level of one
        :meth:`tree_sum` over ``work``; called under an errstate that
        ignores everything.  A backend resolves its per-call set-up
        here, once per reduction."""
        return partial(self.binary_array, "add", fmt=fmt)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


class ReferenceBackend(Backend):
    """The seed library's reference numpy quantizer.

    Arrays go through :func:`repro.core.quantize.quantize_array`, the
    straight-line int64 translation of the exact bit-integer scalar
    :func:`repro.core.quantize.quantize` (the two are property-tested
    against each other).  Slow but obviously correct -- the oracle every
    other backend is cross-checked against.
    """

    name = "reference"

    def quantize_array(self, values, fmt: Format) -> np.ndarray:
        if type(fmt) is FormatRows:
            return self.quantize_rows(values, fmt)
        return _reference.quantize_array(values, fmt)


class _FormatParams:
    """Precomputed quantization constants for one format."""

    __slots__ = ("kind", "shift", "neg_qmin", "max_value")

    def __init__(self, fmt: FPFormat) -> None:
        if fmt.exp_bits == 11 and fmt.man_bits == 52:
            self.kind = "identity"  # binary64 is the backing type
        elif fmt.exp_bits == 5 and fmt.man_bits == 10:
            self.kind = "half"  # native float16 conversion is exact RNE
        elif fmt.exp_bits == 8 and fmt.man_bits == 23:
            self.kind = "single"  # native float32 conversion is exact RNE
        else:
            self.kind = "generic"
        #: frexp's exponent minus ``shift`` is the quantum exponent.
        self.shift = fmt.man_bits + 1
        #: Minus the quantum exponent floor: below emin the spacing is
        #: pinned to the subnormal quantum 2**(emin - man_bits).
        self.neg_qmin = fmt.man_bits - fmt.emin
        self.max_value = fmt.max_value


class _Columns:
    """The generic-kernel constants of a mixed :class:`FormatRows`:
    ``shift``, ``neg_qmin`` and ``max_value`` are columns over the
    leading axis, shaped to broadcast against one array rank."""

    __slots__ = ("shift", "neg_qmin", "max_value")
    kind = "generic"

    def __init__(self, params: list[_FormatParams], ndim: int) -> None:
        shape = (-1,) + (1,) * (ndim - 1)
        self.shift = np.array(
            [p.shift for p in params], dtype=np.int32
        ).reshape(shape)
        self.neg_qmin = np.array(
            [p.neg_qmin for p in params], dtype=np.int32
        ).reshape(shape)
        self.max_value = np.array([p.max_value for p in params]).reshape(shape)


_FLOAT64 = np.dtype(np.float64)


def _float64(raw) -> np.ndarray:
    """An operator's result as float64: integer (or float32) operands
    give one of their own type, converted as ``quantize_array``
    converts its input."""
    return raw if raw.dtype is _FLOAT64 else raw.astype(np.float64)


def _check_rows(a: np.ndarray, rows: FormatRows) -> None:
    if not a.ndim or a.shape[0] != len(rows):
        raise ValueError(
            f"{len(rows)} row formats for an array of shape {a.shape}"
        )


#: FormatRows objects the fast backend's identity-keyed cache tracks
#: before starting over (lockstep runs reuse interned FormatRows).
_ID_CACHE_SIZE = 256


class FastNumpyBackend(Backend):
    """Precomputed-constant, fused-kernel backend.

    The array methods are rebuilt for speed:

    * per-format constants (``man_bits + 1``, ``man_bits - emin``,
      ``max_value``, kernel kind) are computed once and cached in a
      ``fmt -> params`` table;
    * binary16/binary32 use the CPU's own float16/float32 converters,
      which are IEEE correctly-rounding (one rounding, RNE) and
      therefore bit-identical to the reference quantizer;
    * every other format uses a scale--``rint``--unscale kernel in
      frexp's own int32 exponents: with ``q = max(exp(x), emin) -
      man_bits`` the value ``x * 2**-q`` is an exact power-of-two
      scaling, ``rint`` performs the one round-to-nearest-even, and
      scaling back is exact because the rounded integer, at most
      ``2**(man_bits + 1)``, is a double.  Overflow beyond
      ``maxfinite`` is then mapped to infinity exactly where IEEE 754
      demands (``>= maxfinite + ulp/2`` rounds up to ``2**(emax+1)``);
    * :meth:`binary_array` fuses the operator with quantize-on-write:
      the raw result buffer is consumed in place instead of being
      re-walked by a separate sanitization pass, and :meth:`tree_sum`
      resolves its constants and enters its errstate once for all its
      levels;
    * a :class:`FormatRows` runs the generic kernel once for every row,
      with ``man_bits + 1``, ``man_bits - emin`` and ``max_value`` as
      per-row int32/float64 columns.  That kernel is exact
      round-to-nearest-even for every format, binary16/32/64 included;
      rows that all share one format take that format's own kernel.
      The params are cached per FormatRows object and array rank.
    """

    name = "fast"

    def __init__(self) -> None:
        self._params: dict[FPFormat, _FormatParams] = {}
        #: (id(rows), rank) -> (rows, params); holding ``rows`` keeps its
        #: id from being reused while the entry lives.
        self._rows: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    def params_for(self, fmt: FPFormat) -> _FormatParams:
        """The cached ``fmt -> quantization constants`` table entry."""
        try:
            return self._params[fmt]
        except KeyError:
            params = self._params[fmt] = _FormatParams(fmt)
            return params

    def _params_for_array(self, fmt: Format, a: np.ndarray):
        """The params that round ``a``: one format's, or those of a
        FormatRows for ``a``'s rank -- the shared format's own when
        every row has it, else per-row columns."""
        if type(fmt) is not FormatRows:
            return self.params_for(fmt)
        _check_rows(a, fmt)
        entry = self._rows.get((id(fmt), a.ndim))
        if entry is None:
            if len(self._rows) >= _ID_CACHE_SIZE:
                self._rows.clear()
            params = [self.params_for(f) for f in fmt]
            first = params[0]
            if any(p is not first for p in params):
                first = _Columns(params, a.ndim)
            entry = self._rows[id(fmt), a.ndim] = (fmt, first)
        return entry[1]

    # -- array: fast kernels -------------------------------------------
    # IEEE specials (saturation to inf, inf - inf, 0 * inf, ...) are
    # intended emulation results: each method runs its operator and the
    # sanitization under one errstate, applied as a decorator so that no
    # errstate object is built per call.
    @np.errstate(all="ignore")
    def quantize_array(self, values, fmt: Format) -> np.ndarray:
        a = np.asarray(values, dtype=np.float64)
        return self._sanitize(a, self._params_for_array(fmt, a), owned=False)

    @np.errstate(all="ignore")
    def binary_array(self, op: str, a, b, fmt: Format) -> np.ndarray:
        raw = _float64(ARRAY_OPS[op](a, b))  # fresh: safe to consume
        return self._sanitize(
            raw, self._params_for_array(fmt, raw), owned=True
        )

    @np.errstate(all="ignore")
    def unary_array(self, op: str, values, fmt: Format) -> np.ndarray:
        raw = _float64(UNARY_ARRAY_OPS[op](values))
        return self._sanitize(
            raw, self._params_for_array(fmt, raw), owned=True
        )

    def _adder(self, work: np.ndarray, fmt: Format):
        params, sanitize = self._params_for_array(fmt, work), self._sanitize
        return lambda a, b: sanitize(_float64(np.add(a, b)), params, True)

    # ------------------------------------------------------------------
    def _sanitize(self, a: np.ndarray, p, owned: bool) -> np.ndarray:
        """Quantize ``a`` in the fewest possible numpy passes.

        ``owned`` marks buffers this backend just produced (fused ops),
        which may be returned or clobbered without copying.  Callers
        hold an errstate that ignores overflow and invalid operations.
        """
        if a.ndim == 0:
            # Ufuncs collapse 0-d arrays to scalars, which breaks the
            # out= passes below; route through a one-element view.
            return self._sanitize(a.reshape(1), p, owned).reshape(())
        if p.kind == "identity":
            return a if owned else a.copy()
        if p.kind == "half":
            return a.astype(np.float16).astype(np.float64)
        if p.kind == "single":
            return a.astype(np.float32).astype(np.float64)

        # Generic kernel, in frexp's int32 exponents.  frexp gives
        # e = exp(x) + 1; the quantum exponent is q = max(e - shift,
        # qmin), clamped below emin so subnormal spacing takes over,
        # and -q = min(shift - e, -qmin).  Non-finite values ride
        # through every step unchanged (frexp gives them e = 0, and
        # ldexp/rint are identities on them).  ``shift``, ``neg_qmin``
        # and ``max_value`` are scalars for one format and broadcasting
        # columns for a FormatRows.
        _, e = np.frexp(a)
        np.subtract(p.shift, e, out=e)
        np.minimum(e, p.neg_qmin, out=e)
        scaled = np.ldexp(a, e, out=a if owned else None)
        np.rint(scaled, out=scaled)
        np.negative(e, out=e)
        np.ldexp(scaled, e, out=scaled)
        # Round-to-nearest overflows to infinity exactly when the
        # rounded magnitude exceeds the largest finite value.
        # (count_nonzero is one C call; ``over.any()`` goes through
        # Python and costs more on the tuner's small arrays.)
        over = np.abs(scaled) > p.max_value
        if np.count_nonzero(over):
            scaled[over] = np.copysign(np.inf, scaled[over])
        return scaled


# ----------------------------------------------------------------------
# The shipped backends, by name: one shared instance each.
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Backend] = {
    "reference": ReferenceBackend(),
    "fast": FastNumpyBackend(),
}


def available_backends() -> tuple[str, ...]:
    """The backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(spec: "Backend | str | None" = None) -> Backend:
    """Turn a backend name (or instance, or None) into a Backend.

    ``None`` resolves to the reference backend; a name resolves to that
    backend's one shared instance.
    """
    if spec is None:
        spec = "reference"
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        try:
            return _BACKENDS[spec]
        except KeyError:
            known = ", ".join(available_backends())
            raise KeyError(
                f"unknown backend {spec!r}; known backends: {known}"
            ) from None
    raise TypeError(f"cannot resolve a backend from {spec!r}")
