"""Multi-core replay with shared-FPU arbitration.

Each core replays its own lowered stream
(:class:`~repro.hardware.columnar.ProgramColumns`) under exactly the
single-core pipeline rules of
:func:`repro.hardware.columnar.simulate_timing_columns` -- same
scoreboarding, same latencies, same cycle accounting -- with one
addition: FP arithmetic must also win its *shared* FPU instance.  Every
FPU is one :class:`~repro.hardware.fpu.FpuOccupancy`:

* the issue port accepts one FP operation per cycle, and
* a sequential div/sqrt blocks the whole instance until completion --
  now visibly stalling the *other* cores wired to it.

When several cores request the same FPU in the same cycle, a per-cycle
interleaved round-robin arbiter grants one: priority starts at core
``cycle mod group_size`` within the FPU's core group and rotates every
cycle, so no core can be starved and equal streams see (to within the
one-cycle granularity of a single issue port) equal contention.

Cycles a core loses to arbitration -- waiting on an FPU that its *own*
instructions left free -- are accounted per core as ``contention``, on
top of the ordinary data/structural stalls that land in its
:class:`~repro.hardware.Timing` exactly as on a single core.

A one-core cluster has a private FPU, never contends, and produces a
:class:`Timing` bit-identical to the single-core replay by construction
(and by regression test).
"""

from __future__ import annotations

from repro.hardware.columnar import (
    CLASS_NAMES,
    ProgramColumns,
    finalize_class_cycles,
)
from repro.hardware.cpu import Timing
from repro.hardware.fpu.occupancy import FpuOccupancy

from .config import ClusterConfig

__all__ = ["CoreResult", "simulate_cluster_timing"]


class CoreResult:
    """Timing of one core plus its arbitration losses."""

    __slots__ = ("timing", "contention_stalls")

    def __init__(self, timing: Timing, contention_stalls: int) -> None:
        self.timing = timing
        self.contention_stalls = contention_stalls


class _ColumnarCore:
    """Replay state of one core over pre-lowered columns.

    Walks the primitive lists a
    :class:`~repro.hardware.columnar.ProgramColumns` prepares
    (pre-gathered latencies, hazard-pruned source tuples -- see
    :meth:`ProgramColumns.prepared`; the pruning bound holds per core
    because arbitration losses only grow a core's accumulated delay).
    The core's *private* FPU shadow reduces to one busy integer: its
    own issue port can never bind (the issue cursor always advances
    past it), so only the div/sqrt block needs tracking.  The shared
    instances keep full :class:`FpuOccupancy` semantics.
    """

    __slots__ = (
        "core_id",
        "columns",
        "n",
        "pc",
        "cycle",
        "ready",
        "last_writeback",
        "timing",
        "own_busy",
        "contention_stalls",
        "_own_earliest",
        "lat_l",
        "srcs_eff",
        "flag_l",
        "fp_l",
        "dst_l",
        "cons_l",
        "cls_l",
        "cls_stall",
    )

    def __init__(
        self,
        core_id: int,
        columns: ProgramColumns,
        override: dict[str, int] | None,
    ) -> None:
        self.core_id = core_id
        self.columns = columns
        self.n = columns.n
        self.lat_l, self.srcs_eff, self.flag_l = columns.prepared(override)
        self.fp_l = (columns.fp_flag > 0).tolist()
        self.dst_l = columns.dst_list
        self.cons_l = columns.consumed.tolist()
        self.cls_l = columns.cls_id.tolist()
        self.pc = 0
        self.cycle = 0  # next free issue slot
        self.ready = [0] * columns.n_regs
        self.last_writeback = 0
        self.timing = Timing(instructions=columns.n)
        self.own_busy = 0  # this core's div/sqrt shadow
        self.contention_stalls = 0
        self._own_earliest: int | None = None
        self.cls_stall = [0] * len(CLASS_NAMES)

    @property
    def done(self) -> bool:
        return self.pc >= self.n

    @property
    def next_is_fp(self) -> bool:
        return self.fp_l[self.pc]

    def own_earliest(self) -> int:
        """Earliest issue cycle under this core's private hazards only."""
        if self._own_earliest is None:
            pc = self.pc
            earliest = self.cycle
            ready = self.ready
            for src in self.srcs_eff[pc]:
                when = ready[src]
                if when > earliest:
                    earliest = when
            if self.flag_l[pc] and self.own_busy > earliest:
                earliest = self.own_busy
            self._own_earliest = earliest
        return self._own_earliest

    def issue(self, t: int, shared_fpu: FpuOccupancy | None) -> None:
        """Issue the next instruction at cycle ``t`` (>= own_earliest)."""
        pc = self.pc
        stall = t - self.cycle
        self.contention_stalls += t - self.own_earliest()
        latency = self.lat_l[pc]
        dst = self.dst_l[pc]
        if dst >= 0:
            done = t + latency
            self.ready[dst] = done
            if done > self.last_writeback:
                self.last_writeback = done
        if self.fp_l[pc]:
            sequential = self.flag_l[pc] == 2
            shared_fpu.note_issue_flagged(sequential, t, latency)
            if sequential:
                self.own_busy = t + latency
        self.cycle = t + self.cons_l[pc]
        if stall:
            self.timing.stall_cycles += stall
            self.cls_stall[self.cls_l[pc]] += stall
        self.pc += 1
        self._own_earliest = None

    def finish(self) -> None:
        self.timing.cycles = max(self.cycle, self.last_writeback)
        if self.n:
            self.timing.cycles_by_class = finalize_class_cycles(
                self.columns, self.cls_stall
            )


def simulate_cluster_timing(
    columns: list[ProgramColumns],
    config: ClusterConfig,
    fp_latency_override: dict[str, int] | None = None,
) -> list[CoreResult]:
    """Replay one lowered stream per core against the shared FPUs.

    ``columns`` must hold exactly ``config.n_cores`` entries (empty
    streams are fine: an idle core finishes at cycle 0).  Returns one
    :class:`CoreResult` per core, in core order.
    """
    if len(columns) != config.n_cores:
        raise ValueError(
            f"{config.n_cores}-core cluster needs {config.n_cores} "
            f"streams, got {len(columns)}"
        )
    cores = [
        _ColumnarCore(i, cols, fp_latency_override)
        for i, cols in enumerate(columns)
    ]
    fpus = [FpuOccupancy() for _ in range(config.n_fpus)]
    active = [core for core in cores if not core.done]

    while active:
        # The next cycle at which anything can happen: every core's
        # earliest issue under both its own hazards and its shared
        # FPU's current occupancy.  Skipping straight there is safe --
        # no occupancy state changes on cycles where nothing issues.
        t: int | None = None
        candidates: list[int] = []
        for core in active:
            earliest = core.own_earliest()
            if core.next_is_fp:
                earliest = fpus[config.fpu_of(core.core_id)].earliest_issue(
                    earliest
                )
            candidates.append(earliest)
            if t is None or earliest < t:
                t = earliest

        # Non-FP instructions don't share anything: all issue at t.
        # FP requesters are granted one per FPU by interleaved
        # round-robin; losers retry next cycle (the winner's port
        # occupancy pushes their candidate past t automatically).
        requesters: dict[int, list[_ColumnarCore]] = {}
        for core, earliest in zip(active, candidates):
            if earliest != t:
                continue
            if core.next_is_fp:
                requesters.setdefault(
                    config.fpu_of(core.core_id), []
                ).append(core)
            else:
                core.issue(t, None)

        for fpu_id, group in requesters.items():
            fpu_cores = config.cores_of(fpu_id)
            start = fpu_cores[t % len(fpu_cores)]
            granted = min(
                group,
                key=lambda c: (c.core_id - start) % len(fpu_cores),
            )
            granted.issue(t, fpus[fpu_id])

        active = [core for core in cores if not core.done]

    for core in cores:
        core.finish()
    return [
        CoreResult(core.timing, core.contention_stalls) for core in cores
    ]
