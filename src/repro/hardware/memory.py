"""Data-memory access accounting (Fig. 6's left-hand bars).

The paper reports *memory accesses* normalized to the binary32 baseline,
highlighting vectorial accesses: a packed load of two binary16 (or four
binary8) operands is a single 32-bit TCDM access, which is where the
memory-side savings of the narrow formats come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MemoryStats"]


@dataclass
class MemoryStats:
    """Access counters for one program replay."""

    loads: int = 0
    stores: int = 0
    vector_accesses: int = 0
    bytes_moved: int = 0
    #: Accesses by the element width in bits (vector accesses count once
    #: under their element width).
    by_element_bits: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.loads + self.stores

    @property
    def scalar_accesses(self) -> int:
        return self.total - self.vector_accesses

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; :meth:`from_payload` restores an equal object."""
        return {
            "loads": self.loads,
            "stores": self.stores,
            "vector_accesses": self.vector_accesses,
            "bytes_moved": self.bytes_moved,
            # JSON keys are strings; decode turns them back into ints.
            "by_element_bits": {
                str(k): v for k, v in self.by_element_bits.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MemoryStats":
        return cls(
            loads=int(payload["loads"]),
            stores=int(payload["stores"]),
            vector_accesses=int(payload["vector_accesses"]),
            bytes_moved=int(payload["bytes_moved"]),
            by_element_bits={
                int(k): int(v)
                for k, v in payload["by_element_bits"].items()
            },
        )
