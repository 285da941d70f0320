"""The centered-interval abstract domain and its Backend implementation.

Representation
--------------
An abstract array is a float64 ndarray with one trailing *pair* axis of
length 2: ``[..., 0]`` holds the **center** and ``[..., 1]`` a
non-negative **radius**, with the invariant that the value the concrete
program would compute satisfies ``|v - center| <= radius`` (element by
element).  An abstract scalar is :class:`AbstractScalar`, wrapping one
such ``(2,)`` pair.

A center/radius form is chosen over ``[lo, hi]`` because it survives the
emulation types' shape plumbing unchanged: tree reductions move and
reshape *leading* axes only, and summing center-rows and radius-rows
separately is exactly the right transfer function for addition.

Centers follow the exact binary64 trajectory and every quantization
site grows the radius by the worst rounding error any format of the
*family* (the standard formats by default) could introduce.  The
resulting interval hull per storage site soundly covers the value under
**any** family binding.

Soundness slack: radius arithmetic itself runs in float64 and rounds;
every bound is therefore inflated by ``_SLACK`` (a relative 2**-30),
which dominates the handful of float64 roundings per transfer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.backend import Backend, register_backend
from repro.core.formats import BINARY64, STANDARD_FORMATS, FPFormat

__all__ = ["AbstractScalar", "AnalysisLog", "AbstractBackend", "DEFAULT_FAMILY"]

#: Formats a radius must cover (binary64 adds no rounding beyond the
#: float64 carrier and is subsumed).
DEFAULT_FAMILY = tuple(f for f in STANDARD_FORMATS if f != BINARY64)

#: Relative inflation absorbing float64 rounding in the radius arithmetic.
_SLACK = 1.0 + 2.0 ** -30


class AnalysisLog:
    """Everything one abstract run records: per-site stats and flags."""

    __slots__ = (
        "sites",
        "scalar_collapses",
        "array_collapses",
        "collapsed",
        "array_collapse_open",
        "collapse_lo",
        "collapse_hi",
        "div_by_zero",
        "cancellations",
        "saturations",
    )

    def __init__(self) -> None:
        #: fmt.name -> _SiteStats
        self.sites: dict[str, _SiteStats] = {}
        self.scalar_collapses = 0
        self.array_collapses = 0
        #: True once a collapse *tainted* the analysis: a scalar collapse
        #: (its value steers control or arithmetic), or an array collapse
        #: followed by concrete data re-entering the emulated world.
        self.collapsed = False
        #: An array collapse happened; purely *trailing* escapes (program
        #: outputs handed to numpy, never fed back) do not taint, but any
        #: later concrete re-entry must (see note_concrete_store).
        self.array_collapse_open = False
        #: Hull over every collapsed (escaping) value -- covers program
        #: outputs even when they were never stored through a named site.
        self.collapse_lo = math.inf
        self.collapse_hi = -math.inf
        #: fmt names whose region divided by an interval containing zero.
        self.div_by_zero: set[str] = set()
        #: fmt names whose region saw catastrophic cancellation.
        self.cancellations: set[str] = set()
        #: (site fmt name, family format name) pairs that may saturate.
        self.saturations: set[tuple[str, str]] = set()

    def site(self, name: str) -> "_SiteStats":
        try:
            return self.sites[name]
        except KeyError:
            stats = self.sites[name] = _SiteStats()
            return stats

    def _grow_collapse_hull(self, c: np.ndarray, r: np.ndarray) -> None:
        if c.size == 0:
            return
        if np.isnan(c).any() or np.isnan(r).any():
            self.collapse_lo, self.collapse_hi = -math.inf, math.inf
            return
        with np.errstate(invalid="ignore"):
            self.collapse_lo = min(self.collapse_lo, float(np.min(c - r)))
            self.collapse_hi = max(self.collapse_hi, float(np.max(c + r)))

    def note_scalar_collapse(self, pair=None) -> None:
        self.scalar_collapses += 1
        self.collapsed = True
        if pair is not None:
            p = np.asarray(pair, dtype=np.float64).reshape(2)
            self._grow_collapse_hull(p[0:1], p[1:2])

    def note_array_collapse(self, c=None, r=None) -> None:
        self.array_collapses += 1
        self.array_collapse_open = True
        if c is not None and r is not None:
            self._grow_collapse_hull(np.atleast_1d(c), np.atleast_1d(r))

    def note_concrete_store(
        self, scalar: bool, logical_size: int, nonzero: bool
    ) -> None:
        """Concrete data entered the emulated world (ctor/literal).

        After an array collapse this is where escaped values could sneak
        back in, so it taints -- except for data that cannot carry any
        binding-dependent information: size-1 array coercions (literal
        scalar operands like ``x * 0.25``) and all-zero buffers (fresh
        accumulators; zero is exactly representable in every format).
        """
        if not self.array_collapse_open or not nonzero:
            return
        if scalar or logical_size > 1:
            self.collapsed = True


class _SiteStats:
    """Online hull/magnitude accumulators for one storage region."""

    __slots__ = (
        "lo",
        "hi",
        "max_guaranteed_mag",
        "input_lo",
        "input_hi",
        "input_max_mag",
        "count",
    )

    def __init__(self) -> None:
        self.lo = math.inf
        self.hi = -math.inf
        #: max over elements of max(0, |center| - radius): a magnitude
        #: some stored element is *guaranteed* to reach.
        self.max_guaranteed_mag = 0.0
        #: Hull/magnitude of exact (radius == 0, pre-collapse) raw
        #: inputs -- binding-independent by construction.
        self.input_lo = math.inf
        self.input_hi = -math.inf
        self.input_max_mag = 0.0
        self.count = 0

    def update(self, c: np.ndarray, r: np.ndarray, raw_inputs: bool) -> None:
        if c.size == 0:
            return
        self.count += 1
        with np.errstate(invalid="ignore"):
            lo = c - r
            hi = c + r
        # NaN centers denote unknown values: widen to the full line.
        if np.isnan(c).any() or np.isnan(r).any():
            self.lo, self.hi = -math.inf, math.inf
        else:
            self.lo = min(self.lo, float(np.min(lo)))
            self.hi = max(self.hi, float(np.max(hi)))
            sure = np.abs(c) - r
            finite = np.isfinite(c) & np.isfinite(r)
            if finite.any():
                self.max_guaranteed_mag = max(
                    self.max_guaranteed_mag,
                    float(np.max(np.where(finite, sure, 0.0))),
                )
        if raw_inputs and np.isfinite(c).all():
            self.input_lo = min(self.input_lo, float(np.min(c)))
            self.input_hi = max(self.input_hi, float(np.max(c)))
            self.input_max_mag = max(
                self.input_max_mag, float(np.max(np.abs(c)))
            )


class AbstractScalar:
    """One abstract value: a ``(2,)`` center/radius pair.

    Implements exactly the dunders :class:`repro.core.FlexFloat` and
    numpy exercise on a backing payload.  Conversions that force a
    single concrete value out of the interval (``float``, ``int``,
    ``bool``, comparisons) return the center and record a *collapse*
    on the owning log -- the analysis then knows its result is no
    longer exact.
    """

    #: Marker consumed by :func:`repro.core.ops.quantize` so abstract
    #: payloads are not coerced through ``float()`` at the dispatch door.
    _abstract_payload_ = True

    __slots__ = ("pair", "_log")

    def __init__(self, pair, log: "AnalysisLog | None") -> None:
        self.pair = np.asarray(pair, dtype=np.float64).reshape(2)
        self._log = log

    @property
    def center(self) -> float:
        return float(self.pair[0])

    @property
    def radius(self) -> float:
        return float(self.pair[1])

    @property
    def interval(self) -> tuple[float, float]:
        c, r = self.center, self.radius
        return (c - r, c + r)

    # -- numpy interop: the raw pair, so pair-array slots accept it ----
    def __array__(self, dtype=None, copy=None):
        return np.array(self.pair, dtype=dtype or np.float64)

    # -- collapsing conversions ----------------------------------------
    def _collapse(self) -> float:
        if self._log is not None:
            self._log.note_scalar_collapse(self.pair)
        return self.center

    def __float__(self) -> float:
        return self._collapse()

    def __int__(self) -> int:
        return int(self._collapse())

    def __bool__(self) -> bool:
        return bool(self._collapse())

    # -- sign ops (exact on intervals; no collapse) --------------------
    def __neg__(self) -> "AbstractScalar":
        return AbstractScalar((-self.pair[0], self.pair[1]), self._log)

    def __abs__(self) -> "AbstractScalar":
        # | |v| - |c| | <= |v - c| <= r  (reverse triangle inequality).
        return AbstractScalar((abs(self.pair[0]), self.pair[1]), self._log)

    # -- comparisons: center-based, each one is a collapse -------------
    def _cmp_operand(self, other):
        if isinstance(other, AbstractScalar):
            return other._collapse()
        if isinstance(other, (int, float)):
            return float(other)
        return None

    def __eq__(self, other):
        rhs = self._cmp_operand(other)
        if rhs is None:
            return NotImplemented
        return self._collapse() == rhs

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other):
        rhs = self._cmp_operand(other)
        if rhs is None:
            return NotImplemented
        return self._collapse() < rhs

    def __le__(self, other):
        rhs = self._cmp_operand(other)
        if rhs is None:
            return NotImplemented
        return self._collapse() <= rhs

    def __gt__(self, other):
        rhs = self._cmp_operand(other)
        if rhs is None:
            return NotImplemented
        return self._collapse() > rhs

    def __ge__(self, other):
        rhs = self._cmp_operand(other)
        if rhs is None:
            return NotImplemented
        return self._collapse() >= rhs

    def __hash__(self) -> int:
        return hash((float(self.pair[0]), float(self.pair[1])))

    def __repr__(self) -> str:
        lo, hi = self.interval
        return f"AbstractScalar([{lo!r}, {hi!r}])"


def _split(x) -> tuple[np.ndarray, np.ndarray]:
    """Center/radius channels of a pair payload (array or scalar)."""
    if isinstance(x, AbstractScalar):
        return x.pair[0:1].reshape(()), x.pair[1:2].reshape(())
    a = np.asarray(x, dtype=np.float64)
    return a[..., 0], a[..., 1]


def _join(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.stack(np.broadcast_arrays(c, r), axis=-1)


class AbstractBackend(Backend):
    """Centered-interval abstract interpretation behind the ops seam.

    Parameters
    ----------
    family:
        The formats a radius must cover (defaults to the standard
        formats).
    log:
        The :class:`AnalysisLog` to record into (optional).
    """

    name = "static"
    payload_trailing_dims = 1  # the center/radius pair axis

    def __init__(
        self,
        family: "tuple[FPFormat, ...] | None" = None,
        log: "AnalysisLog | None" = None,
    ) -> None:
        self.family = DEFAULT_FAMILY if family is None else tuple(family)
        self.log = log

    # ==================================================================
    # Rounding-error bounds
    # ==================================================================
    @staticmethod
    def _format_bound(mag: np.ndarray, fmt: FPFormat) -> np.ndarray:
        """Upper bound on ``|quantize_fmt(v) - v|`` for ``|v| <= mag``.

        ``frexp`` gives ``mag < 2**e``; the half-ulp of any value below
        ``2**e`` is at most ``2**(max(e - 1, emin) - man_bits - 1)``
        (subnormal spacing pins the exponent at ``emin``).  Where the
        magnitude may reach past ``max_value`` the value may round to
        infinity, so the bound is infinite.
        """
        mag = np.asarray(mag, dtype=np.float64)
        _, e = np.frexp(mag)
        exp = np.maximum(e.astype(np.int64) - 1, fmt.emin)
        bound = np.ldexp(1.0, exp - fmt.man_bits - 1)
        bound = np.where(mag == 0.0, 0.0, bound)
        bound = np.where(
            np.isfinite(mag) & (mag <= fmt.max_value), bound, np.inf
        )
        return bound

    def _site_bound(self, mag: np.ndarray, fmt: FPFormat) -> np.ndarray:
        """One quantization step's radius growth.

        The worst rounding over the family, with saturation carved out
        into per-format flags (see ``_note_saturations``) so a narrow
        family member does not blow every hull to infinity.
        """
        bound = np.zeros_like(np.asarray(mag, dtype=np.float64))
        for f in self.family:
            b = self._format_bound(mag, f)
            bound = np.maximum(bound, np.where(np.isfinite(b), b, 0.0))
        bound = np.where(np.isfinite(mag), bound, np.inf)
        return bound

    def _note_saturations(self, mag: np.ndarray, fmt: FPFormat) -> None:
        if self.log is None:
            return
        mx = float(np.max(mag)) if np.asarray(mag).size else 0.0
        if not math.isfinite(mx):
            mx = math.inf
        for f in self.family:
            if mx > f.max_value:
                self.log.saturations.add((fmt.name, f.name))

    # ==================================================================
    # Transfer functions
    # ==================================================================
    def _storage(
        self, c: np.ndarray, r: np.ndarray, fmt: FPFormat, raw: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """One explicit quantization (ctor / cast / literal / setitem)."""
        with np.errstate(invalid="ignore", over="ignore"):
            mag = np.abs(c) + r
        self._note_saturations(mag, fmt)
        new_c = np.array(c, dtype=np.float64, copy=True)
        new_r = (r + self._site_bound(mag, fmt)) * _SLACK
        new_r = np.where(np.isnan(new_r) | np.isnan(new_c), np.inf, new_r)
        if self.log is not None:
            exact_inputs = (
                raw
                and not self.log.collapsed
                and not self.log.array_collapse_open
            )
            self.log.site(fmt.name).update(
                np.atleast_1d(new_c), np.atleast_1d(new_r), exact_inputs
            )
        return new_c, new_r

    def _op(
        self, op: str, a, b, fmt: FPFormat
    ) -> tuple[np.ndarray, np.ndarray]:
        """One arithmetic op: interval propagation + the op's rounding."""
        ca, ra = _split(a)
        cb, rb = _split(b)
        with np.errstate(
            invalid="ignore", over="ignore", divide="ignore"
        ):
            if op == "add":
                c = ca + cb
                r = ra + rb
            elif op == "sub":
                c = ca - cb
                r = ra + rb
            elif op == "mul":
                c = ca * cb
                r = (np.abs(ca) + ra) * rb + np.abs(cb) * ra
            elif op == "div":
                c = np.divide(ca, cb)
                den_sure = np.abs(cb) - rb
                r = np.where(
                    den_sure > 0.0,
                    np.divide(ra + np.abs(c) * rb, den_sure),
                    np.inf,
                )
                if self.log is not None and np.any(den_sure <= 0.0):
                    self.log.div_by_zero.add(fmt.name)
            else:  # pragma: no cover - the op table is closed
                raise KeyError(op)
            if op in ("add", "sub") and self.log is not None:
                # Catastrophic cancellation: the result is guaranteed
                # orders of magnitude below both operands.
                big = np.maximum(np.abs(ca), np.abs(cb))
                lost = (
                    np.isfinite(big)
                    & (big > 0.0)
                    & ((np.abs(c) + r) < big * 2.0 ** -10)
                )
                if np.any(lost):
                    self.log.cancellations.add(fmt.name)
            mag = np.abs(c) + r
        self._note_saturations(mag, fmt)
        r = (r + self._site_bound(mag, fmt)) * _SLACK
        r = np.where(np.isnan(r) | np.isnan(c), np.inf, r)
        return np.asarray(c, dtype=np.float64), r

    def _unary(
        self, op: str, values, fmt: FPFormat
    ) -> tuple[np.ndarray, np.ndarray]:
        c, r = _split(values)
        with np.errstate(
            invalid="ignore", over="ignore", divide="ignore"
        ):
            lo = c - r
            hi = c + r
            if op == "sqrt":
                new_c = np.sqrt(c)
                prop = np.where(
                    lo > 0.0,
                    r / (2.0 * np.sqrt(lo)),
                    np.where(hi >= 0.0, np.sqrt(np.maximum(hi, 0.0)), np.inf),
                )
            elif op == "exp":
                new_c = np.exp(c)
                prop = np.exp(hi) - new_c
            elif op == "log":
                new_c = np.log(c)
                prop = np.where(
                    lo > 0.0,
                    np.maximum(new_c - np.log(lo), np.log(hi) - new_c),
                    np.inf,
                )
            else:  # pragma: no cover - the op table is closed
                raise KeyError(op)
            mag = np.abs(new_c) + prop
        self._note_saturations(mag, fmt)
        new_r = (prop + self._site_bound(mag, fmt)) * _SLACK
        new_r = np.where(np.isnan(new_r) | np.isnan(new_c), np.inf, new_r)
        return np.asarray(new_c, dtype=np.float64), new_r

    # ==================================================================
    # Backend protocol: scalar path
    # ==================================================================
    def quantize(self, x, fmt: FPFormat) -> AbstractScalar:
        if isinstance(x, AbstractScalar):
            c, r = x.pair[0], x.pair[1]
            raw = False
        else:
            c, r = float(x), 0.0
            raw = True
            if self.log is not None:
                self.log.note_concrete_store(
                    scalar=True, logical_size=1, nonzero=c != 0.0
                )
        new_c, new_r = self._storage(
            np.float64(c), np.float64(r), fmt, raw=raw
        )
        return AbstractScalar((float(new_c), float(new_r)), self.log)

    def binary(self, op: str, a, b, fmt: FPFormat) -> AbstractScalar:
        pa = a if isinstance(a, AbstractScalar) else AbstractScalar(
            (float(a), 0.0), self.log
        )
        pb = b if isinstance(b, AbstractScalar) else AbstractScalar(
            (float(b), 0.0), self.log
        )
        c, r = self._op(op, pa, pb, fmt)
        return AbstractScalar((float(c), float(r)), self.log)

    def encode(self, x, fmt: FPFormat) -> int:
        if isinstance(x, AbstractScalar):
            x = x.center  # repr/debug path; not a collapse event
        return super().encode(x, fmt)

    def collapse(self, value, fmt: FPFormat) -> float:
        if isinstance(value, AbstractScalar):
            return value._collapse()
        return float(value)

    # ==================================================================
    # Backend protocol: array path
    # ==================================================================
    def quantize_array(self, values, fmt: FPFormat) -> np.ndarray:
        # By call-path discipline this door only ever receives *concrete*
        # float64 data (constructors, literal coercions, setitem);
        # already-abstract payloads come through cast_array instead.
        c = np.asarray(values, dtype=np.float64)
        if self.log is not None:
            self.log.note_concrete_store(
                scalar=False,
                logical_size=int(c.size),
                nonzero=bool(np.any(c)),
            )
        new_c, new_r = self._storage(
            c, np.zeros_like(c), fmt, raw=True
        )
        return _join(new_c, new_r)

    def cast_array(self, values, fmt: FPFormat) -> np.ndarray:
        c, r = _split(values)
        new_c, new_r = self._storage(c, r, fmt, raw=False)
        return _join(new_c, new_r)

    def binary_array(self, op: str, a, b, fmt: FPFormat) -> np.ndarray:
        c, r = self._op(op, a, b, fmt)
        return _join(c, r)

    def unary_array(self, op: str, values, fmt: FPFormat) -> np.ndarray:
        c, r = self._unary(op, values, fmt)
        return _join(c, r)

    def tree_sum(self, work: np.ndarray, fmt: FPFormat) -> np.ndarray:
        raise RuntimeError(
            "AbstractBackend reductions go through sum_reduce; a pair "
            "payload must never reach the generic tree_sum"
        )

    # ==================================================================
    # Structural hooks
    # ==================================================================
    def item_payload(self, picked, fmt: FPFormat):
        if (
            isinstance(picked, np.ndarray)
            and picked.ndim == 1
            and picked.shape[0] == 2
        ):
            # The pair axis always trails, so a (2,) pick is exactly a
            # scalar pick of the logical array.
            return AbstractScalar(picked.copy(), self.log)
        return None

    def collapse_array(self, data: np.ndarray, fmt: FPFormat) -> np.ndarray:
        c, r = _split(data)
        if self.log is not None:
            self.log.note_array_collapse(c, r)
        return np.array(c, dtype=np.float64, copy=True)

    def neg_array(self, data: np.ndarray, fmt: FPFormat) -> np.ndarray:
        c, r = _split(data)
        return _join(-c, r)

    def array_minmax(self, data: np.ndarray, fmt: FPFormat, kind: str):
        c, r = _split(data)
        with np.errstate(invalid="ignore"):
            lo = c - r
            hi = c + r
        pick = np.min if kind == "min" else np.max
        lo_b, hi_b = float(pick(lo)), float(pick(hi))
        if math.isfinite(lo_b) and math.isfinite(hi_b):
            center = 0.5 * (lo_b + hi_b)
            radius = (hi_b - center) * _SLACK
        else:
            center = lo_b if math.isfinite(lo_b) else hi_b
            if not math.isfinite(center):
                center = 0.0
            radius = math.inf
        return AbstractScalar((center, radius), self.log)

    def sum_reduce(self, data: np.ndarray, axis, fmt: FPFormat):
        if axis is None:
            c = data[..., 0].reshape(1, -1)
            r = data[..., 1].reshape(1, -1)
            lead = None
        else:
            if axis < 0:
                axis += data.ndim - 1
            moved = np.moveaxis(data, axis, -2)
            lead = moved.shape[:-2]
            n = moved.shape[-2]
            c = moved[..., 0].reshape(-1, n)
            r = moved[..., 1].reshape(-1, n)
        n = c.shape[1]
        n_adds = max(n - 1, 0) * c.shape[0]
        if n == 0:
            c = np.zeros((c.shape[0], 1))
            r = np.zeros((c.shape[0], 1))
        while c.shape[1] > 1:
            if c.shape[1] % 2:
                c_carry, r_carry = c[:, -1:], r[:, -1:]
                c_pairs, r_pairs = c[:, :-1], r[:, :-1]
            else:
                c_carry = r_carry = None
                c_pairs, r_pairs = c, r
            level_c, level_r = self._op(
                "add",
                _join(c_pairs[:, 0::2], r_pairs[:, 0::2]),
                _join(c_pairs[:, 1::2], r_pairs[:, 1::2]),
                fmt,
            )
            if c_carry is None:
                c, r = level_c, level_r
            else:
                c = np.concatenate([level_c, c_carry], axis=1)
                r = np.concatenate([level_r, r_carry], axis=1)
        if lead is None:
            payload = AbstractScalar((float(c[0, 0]), float(r[0, 0])), self.log)
        else:
            payload = np.ascontiguousarray(
                _join(c[:, 0].reshape(lead), r[:, 0].reshape(lead))
            )
        return payload, n_adds


register_backend(AbstractBackend)
