"""In-order pipeline timing model (the PULPino virtual platform's core).

A dynamic instruction stream replays through a single-issue in-order
pipeline with register scoreboarding
(:func:`repro.hardware.columnar.simulate_timing_columns`):

* one instruction issues per cycle, when its sources are ready;
* ALU results forward (no stall between dependent ALU instructions);
* loads have one cycle of load-use latency;
* FP arithmetic latency comes from the transprecision FPU model
  (2 cycles for 32/16-bit formats, 1 cycle for binary8 and casts);
* sequential div/sqrt block the FPU until completion (not pipelined);
* taken branches pay a pipeline bubble.

The replay reports a :class:`Timing`: total cycles, stall cycles, and a
cycle attribution by class (vector FP, cast, memory, other) used by the
Fig. 6 driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Timing"]


@dataclass
class Timing:
    """Cycle-level outcome of a program replay."""

    cycles: int = 0
    instructions: int = 0
    stall_cycles: int = 0
    #: Issue+stall cycles attributed per class: "fp_scalar", "fp_vector",
    #: "cast", "mem", "branch", "other".
    cycles_by_class: dict[str, int] = field(default_factory=dict)

    def add_class_cycles(self, cls: str, n: int) -> None:
        self.cycles_by_class[cls] = self.cycles_by_class.get(cls, 0) + n

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; :meth:`from_payload` restores an equal object."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "cycles_by_class": dict(self.cycles_by_class),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Timing":
        return cls(
            cycles=int(payload["cycles"]),
            instructions=int(payload["instructions"]),
            stall_cycles=int(payload["stall_cycles"]),
            cycles_by_class={
                str(k): int(v)
                for k, v in payload["cycles_by_class"].items()
            },
        )
