"""Precision-bits to floating-point-format mapping (paper §III-A).

DistributedSearch tunes only *precision* (significant bits); it knows
nothing about dynamic range.  The paper closes the gap with a fixed map
from precision intervals to exponent widths:

* ``(0, 3] -> 5``  exponent bits  (binary8: mirrors binary16's range),
* ``(0, 11] -> 5`` exponent bits  (binary16),
* ``(0, 8] -> 8``  exponent bits  (binary16alt: mirrors binary32's range),

and evaluates two type systems:

* **V1** = {binary8, binary16, binary32}
* **V2** = V1 + {binary16alt}

During the search, a candidate precision ``p`` for a variable is realised
as the format ``(exp_bits(p), p - 1)``; a variable whose values exceed
that dynamic range fails the SQNR constraint (conversion saturates) and
the search is pushed to the next precision interval.  This reproduces the
paper's observation that variables cluster at interval boundaries
(columns 4 and 9 of Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FPFormat,
)

__all__ = [
    "TypeSystem",
    "V1",
    "V2",
    "V2_NO8",
    "MAX_PRECISION_BITS",
    "register_type_system",
    "type_system",
    "type_system_names",
]

#: Precision bits of binary32, the widest type on the target platform.
MAX_PRECISION_BITS = 24


@dataclass(frozen=True)
class TypeSystem:
    """A named list of (max precision bits, storage format) intervals.

    Intervals are tried in order; a tuned precision ``p`` belongs to the
    first interval with ``p <= max_p``.  The last interval must cover
    :data:`MAX_PRECISION_BITS`.
    """

    name: str
    intervals: tuple[tuple[int, FPFormat], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError(f"type system {self.name} is empty")
        if self.intervals[-1][0] < MAX_PRECISION_BITS:
            raise ValueError(
                f"type system {self.name} does not cover "
                f"{MAX_PRECISION_BITS} precision bits"
            )
        previous = 0
        for max_p, fmt in self.intervals:
            if max_p <= previous:
                raise ValueError(
                    f"intervals of {self.name} must be strictly increasing"
                )
            if fmt.precision < max_p:
                raise ValueError(
                    f"{fmt} cannot hold {max_p} precision bits"
                )
            previous = max_p

    @property
    def formats(self) -> tuple[FPFormat, ...]:
        """The storage formats of this type system, narrowest first."""
        return tuple(fmt for _, fmt in self.intervals)

    def storage_format(self, precision_bits: int) -> FPFormat:
        """The standard format that stores a variable tuned to ``p`` bits."""
        if precision_bits < 1:
            raise ValueError(f"precision bits must be >= 1, got {precision_bits}")
        for max_p, fmt in self.intervals:
            if precision_bits <= max_p:
                return fmt
        raise ValueError(
            f"precision {precision_bits} exceeds "
            f"{self.name}'s maximum of {self.intervals[-1][0]} bits"
        )

    def search_format(self, precision_bits: int) -> FPFormat:
        """The format used to *evaluate* a candidate precision ``p``.

        Exponent width comes from the interval map (this is where dynamic
        range enters the search); the mantissa is exactly ``p - 1`` bits,
        so the tuner observes the precision it asked for, not the storage
        format's.
        """
        storage = self.storage_format(precision_bits)
        return FPFormat(storage.exp_bits, precision_bits - 1)

    def boundaries(self) -> tuple[int, ...]:
        """Upper precision boundaries of the intervals, e.g. (3, 8, 11, 24)."""
        return tuple(max_p for max_p, _ in self.intervals)

    # ------------------------------------------------------------------
    # Serialization (runner worker bootstrap)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able description; :meth:`from_payload` rebuilds an equal
        system.  Lets the experiment runner ship custom type systems to
        worker processes whose registries only hold the built-ins."""
        return {
            "name": self.name,
            "intervals": [
                [max_p, fmt.to_payload()] for max_p, fmt in self.intervals
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TypeSystem":
        return cls(
            payload["name"],
            tuple(
                (int(max_p), FPFormat.from_payload(fmt))
                for max_p, fmt in payload["intervals"]
            ),
        )


#: Type system V1: binary8, binary16, binary32 (paper Table I).
V1 = TypeSystem(
    "V1",
    (
        (3, BINARY8),
        (11, BINARY16),
        (MAX_PRECISION_BITS, BINARY32),
    ),
)

#: Type system V2: V1 plus binary16alt (paper Table I and Figs. 4-7).
V2 = TypeSystem(
    "V2",
    (
        (3, BINARY8),
        (8, BINARY16ALT),
        (11, BINARY16),
        (MAX_PRECISION_BITS, BINARY32),
    ),
)

#: V2 without binary8 (the ablation drivers' type system): the
#: narrowest interval folds into binary16alt.  Defined here rather than
#: in the ablation driver so the registry below can resolve it in
#: runner worker processes that never import the analysis layer.
V2_NO8 = TypeSystem(
    "V2no8",
    (
        (8, BINARY16ALT),
        (11, BINARY16),
        (MAX_PRECISION_BITS, BINARY32),
    ),
)


# ----------------------------------------------------------------------
# Registry: resolve a type system from its name
# ----------------------------------------------------------------------
# The experiment runner ships jobs across process boundaries as plain
# strings; workers turn the type-system *name* back into the object
# through this registry.  Lookup is case-insensitive (CLI friendliness).
_REGISTRY: dict[str, TypeSystem] = {}


def register_type_system(ts: TypeSystem) -> TypeSystem:
    """Make a type system resolvable by name (idempotent for equal ones).

    Registering a *different* system under an existing name is refused:
    silently swapping what ``"V2"`` means would poison every store entry
    keyed by that name.
    """
    key = ts.name.upper()
    existing = _REGISTRY.get(key)
    if existing is not None and existing != ts:
        raise ValueError(
            f"type system name {ts.name!r} already registered "
            "with different intervals"
        )
    _REGISTRY[key] = ts
    return ts


def type_system(name: "str | TypeSystem") -> TypeSystem:
    """Resolve a registered type system by name (passes instances through)."""
    if isinstance(name, TypeSystem):
        return name
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(ts.name for ts in _REGISTRY.values()))
        raise KeyError(
            f"unknown type system {name!r} (known: {known})"
        ) from None


def type_system_names() -> tuple[str, ...]:
    """Registered names, in registration order."""
    return tuple(ts.name for ts in _REGISTRY.values())


for _ts in (V1, V2, V2_NO8):
    register_type_system(_ts)
del _ts
