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

Cores wired to different FPUs share nothing, so each FPU group
(``config.cores_of(f)``) replays on its own:

* A group with at most one non-empty stream cannot contend (the
  issue-port argument of :func:`simulate_timing_columns`): its core
  replays through the single-core pass with zero contention.  That is
  every 1:1 topology, and it makes a one-core cluster bit-identical to
  the single-core replay by construction.
* In a shared group only FP instructions touch shared state.  Each core
  is a coroutine that *runs ahead* through its non-FP instructions,
  issuing each at its own earliest cycle, and parks at its next FP
  instruction with that instruction's own-earliest cycle.  It walks
  the expanded stream: a stored sweep's template once per iteration,
  with iteration 0's register ids, which replay exactly as the later
  iterations' would (see :func:`simulate_timing_columns`).  The group
  loop then arbitrates FP issues only: a parked instruction's
  candidate is :meth:`FpuOccupancy.earliest_issue` of its own-earliest
  cycle, the grant goes out at the smallest candidate ``t`` by the
  round robin above, and the winner issues and runs ahead again.
  ``t`` never decreases, so every candidate sees the FPU state a
  cycle-stepped loop over all cores would show it -- the per-``Instr``
  oracle in ``tests/oracles.py`` is exactly that loop, and gates this
  one.
"""

from __future__ import annotations

from itertools import chain
from typing import Generator

from repro.hardware.columnar import (
    CLASS_NAMES,
    ProgramColumns,
    finalize_class_cycles,
    simulate_timing_columns,
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


#: A finished core's parked cycle: later than any real cycle.
_DONE = 1 << 62


def _run_ahead(
    columns: ProgramColumns,
    override: dict[str, int] | None,
    fpu: FpuOccupancy,
) -> Generator[int, int, CoreResult]:
    """Replay one core of a shared FPU group, parking at FP issues.

    The single-core loop body, with the FPU taken out: every non-FP
    instruction issues at its own earliest cycle (nothing it touches is
    shared).  At an FP instruction the core yields that instruction's
    own-earliest cycle -- its sources and its own div/sqrt shadow -- and
    is sent the cycle the arbiter grants it on ``fpu``.  Returns the
    core's :class:`CoreResult` when the stream ends.
    """
    ready = [0] * columns.n_regs
    cls_stall = [0] * len(CLASS_NAMES)
    cycle = 0  # next free issue slot
    own_busy = 0  # this core's div/sqrt shadow
    last_wb = 0
    stalls = 0
    contention = 0

    per_row = (
        columns.srcs_list,
        columns.dst_list,
        columns.latencies(override),
        columns.fp_flag.tolist(),
        columns.consumed.tolist(),
        columns.cls_id.tolist(),
    )
    # Each segment's slices are cut once and zipped again per repeat:
    # the repeats share the rows' objects.
    segments = [
        ([rows[a:b] for rows in per_row], repeats)
        for a, b, repeats in columns.segments
    ]
    for srcs, dst, latv, flag, consv, clsv in chain.from_iterable(
        zip(*part) for part, repeats in segments for _ in range(repeats)
    ):
        earliest = cycle
        for src in srcs:
            when = ready[src]
            if when > earliest:
                earliest = when
        if flag:
            if own_busy > earliest:
                earliest = own_busy
            granted = yield earliest
            contention += granted - earliest
            earliest = granted
            fpu.note_issue_flagged(flag == 2, earliest, latv)
            if flag == 2:
                own_busy = earliest + latv
        if dst >= 0:
            done = earliest + latv
            ready[dst] = done
            if done > last_wb:
                last_wb = done
        if earliest > cycle:
            stall = earliest - cycle
            stalls += stall
            cls_stall[clsv] += stall
        cycle = earliest + consv

    timing = Timing(
        cycles=max(cycle, last_wb),
        instructions=columns.n,
        stall_cycles=stalls,
    )
    if columns.n:
        timing.cycles_by_class = finalize_class_cycles(columns, cls_stall)
    return CoreResult(timing, contention)


def _replay_shared(
    group: list[ProgramColumns], override: dict[str, int] | None
) -> list[CoreResult]:
    """Replay the cores of one FPU group, arbitrating FP issues only."""
    fpu = FpuOccupancy()
    cores = [_run_ahead(cols, override, fpu) for cols in group]
    size = len(cores)
    results: list[CoreResult | None] = [None] * size
    # parked[k]: own-earliest cycle of core k's next FP instruction.
    parked = [_DONE] * size
    for k in range(size):
        try:
            parked[k] = cores[k].send(None)
        except StopIteration as end:
            results[k] = end.value
    while True:
        first = min(parked)
        if first == _DONE:
            return results
        # earliest_issue is max(own, occupancy), so the smallest
        # candidate is that of the smallest own-earliest cycle, and a
        # core's candidate equals it exactly when its own cycle is no
        # later.  Priority rotates from core t mod size.
        t = fpu.earliest_issue(first)
        k = t % size
        while parked[k] > t:
            k = (k + 1) % size
        try:
            parked[k] = cores[k].send(t)
        except StopIteration as end:
            parked[k] = _DONE
            results[k] = end.value


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
    results: list[CoreResult] = []
    for fpu in range(config.n_fpus):
        group = [columns[core] for core in config.cores_of(fpu)]
        if sum(1 for cols in group if cols.n) > 1:
            results += _replay_shared(group, fp_latency_override)
        else:
            results += [
                CoreResult(
                    simulate_timing_columns(cols, fp_latency_override), 0
                )
                for cols in group
            ]
    return results
