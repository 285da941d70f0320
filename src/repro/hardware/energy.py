"""Platform energy model (core + memories + FPU).

**Substitution note (see DESIGN.md):** the paper measures energy on a
post-layout UMC 65nm design; this model replaces those measurements with
per-event constants chosen so that

* the binary32 baseline reproduces the paper's motivation numbers
  (intro: ~30% of core+memory energy in FP operations and ~20% in moving
  FP operands between data memory and registers, fleet average), and
* the FPU per-op ratios follow :mod:`repro.hardware.fpu.energy`.

Every instruction pays an issue cost (core logic + instruction memory);
loads/stores additionally pay a data-memory port access; FP and cast
instructions additionally pay the FPU slice energy; stall cycles pay an
idle cost.

Attribution (the split used by the motivation experiment and Fig. 7)
is by *datapath*: the **FP ops** category holds the FPU slice/conversion
energy, **Memory ops** holds the data-memory port energy, and
**Other ops** holds everything the core itself burns -- fetch, decode,
issue of every instruction (FP ones included), integer work and stall
cycles.  This matches the paper's framing, where FP computation is 30%
and FP operand movement 20% of the core + data-memory energy, with the
remaining half in the core's general activity.

The split itself is a gather over a program's columns
(:func:`repro.hardware.columnar.energy_split_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyBreakdown", "EnergyModel", "DEFAULT_ENERGY_MODEL"]


@dataclass
class EnergyBreakdown:
    """Energy per Fig. 7 category, in pJ."""

    fp_pj: float = 0.0
    mem_pj: float = 0.0
    other_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return self.fp_pj + self.mem_pj + self.other_pj

    def fractions(self) -> dict[str, float]:
        total = self.total_pj
        if total == 0.0:
            return {"fp": 0.0, "mem": 0.0, "other": 0.0}
        return {
            "fp": self.fp_pj / total,
            "mem": self.mem_pj / total,
            "other": self.other_pj / total,
        }

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; floats round-trip bit-exactly through json."""
        return {
            "fp_pj": self.fp_pj,
            "mem_pj": self.mem_pj,
            "other_pj": self.other_pj,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EnergyBreakdown":
        return cls(
            fp_pj=float(payload["fp_pj"]),
            mem_pj=float(payload["mem_pj"]),
            other_pj=float(payload["other_pj"]),
        )


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy constants, picojoules.

    Attributes
    ----------
    issue_pj:
        Core logic plus instruction-memory fetch per issued instruction.
    stall_pj:
        Idle pipeline cycle (clock tree and leakage of the stalled core).
    dmem_access_pj:
        One data-memory (TCDM) port access; the port is 32 bits wide, so
        the cost is per access, not per byte -- which is exactly why
        packing two 16-bit or four 8-bit operands into one access saves
        energy (paper §IV).
    """

    issue_pj: float = 10.0
    stall_pj: float = 3.0
    dmem_access_pj: float = 12.5


#: The calibrated default model used by all experiment drivers.
DEFAULT_ENERGY_MODEL = EnergyModel()
