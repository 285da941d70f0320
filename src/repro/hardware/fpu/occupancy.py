"""Occupancy state of one FPU instance (the structural-hazard model).

The single-core pipeline model and the multi-core cluster arbiter share
the same two structural facts about the transprecision FPU:

* **sequential block** -- div/sqrt iterate in the unit; nothing else can
  issue to it until they complete (the ``fpu_busy_until`` hazard the
  single-core model always had);
* **issue port** -- the unit accepts one new operation per cycle.  A
  single core can never violate this (it issues at most one instruction
  per cycle anyway), which is why the single-core model never had to
  track it; it becomes *the* contended resource once several cores share
  one FPU instance.

:class:`FpuOccupancy` holds both.  The cluster engine
(:mod:`repro.cluster.engine`) drives one instance per FPU that two or
more active cores share: a parked FP instruction's candidate issue
cycle is :meth:`FpuOccupancy.earliest_issue` of its own-earliest cycle,
and round-robin arbitration picks among the cores whose candidate is
the smallest.  Every other replay -- a single core, and any FPU group
with at most one active core -- goes through
:func:`repro.hardware.columnar.simulate_timing_columns`, which keeps
only the sequential block, as one busy-until integer, because a lone
core can never contend for its own issue port.
"""

from __future__ import annotations

__all__ = ["FpuOccupancy"]


class FpuOccupancy:
    """Busy state of one FPU instance.

    Attributes
    ----------
    busy_until:
        First cycle at which the unit is free of a sequential (div/sqrt)
        operation; pipelined arithmetic never sets it.
    port_busy_until:
        First cycle at which the issue port accepts a new operation
        (the cycle after the last accepted issue).
    """

    __slots__ = ("busy_until", "port_busy_until")

    def __init__(self) -> None:
        self.busy_until = 0
        self.port_busy_until = 0

    def earliest_issue(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which an FP op can issue here."""
        earliest = cycle
        if self.busy_until > earliest:
            earliest = self.busy_until
        if self.port_busy_until > earliest:
            earliest = self.port_busy_until
        return earliest

    def note_issue_flagged(
        self, sequential: bool, issue: int, latency: int
    ) -> None:
        """Record an accepted FP issue at cycle ``issue``.

        Sequential (div/sqrt) operations block the whole unit for their
        latency; every operation occupies the issue port for its issue
        cycle.  The caller decides ``sequential`` -- the columnar engine
        flags div/sqrt once, during lowering.
        """
        self.port_busy_until = issue + 1
        if sequential:
            self.busy_until = issue + latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FpuOccupancy(busy_until={self.busy_until}, "
            f"port_busy_until={self.port_busy_until})"
        )
