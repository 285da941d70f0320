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
  its span tree without expanding it: a stored sweep's template once
  per iteration, with iteration 0's register ids, which replay exactly
  as the later iterations' would (see :func:`simulate_timing_columns`).
  The group loop then arbitrates FP issues only: a parked
  instruction's candidate is :meth:`FpuOccupancy.earliest_issue` of
  its own-earliest cycle, the grant goes out at the smallest candidate
  ``t`` by the round robin above, and the winner issues and runs ahead
  again.  ``t`` never decreases, so every candidate sees the FPU state
  a cycle-stepped loop over all cores would show it -- the
  per-``Instr`` oracle in ``tests/oracles.py`` is exactly that loop,
  and gates this one.

A shared group also replays from its steady state.  The *leader* (the
group's first core with a non-empty stream) stops at the start of every
iteration of every span it runs through, at any level (a soft span's
last iteration aside), while every other core is parked at an FP
instruction or done.  There the group's *joint state* is taken
relative to the leader's issue cursor ``C``: ``C mod group_size`` (the
arbiter's round-robin start); the FPU's ``max(busy_until,
port_busy_until) - C`` when it is later than some core's next possible
request (it binds no one otherwise); and, per active core, its place
-- every span around it with its iteration, but for the span at the
leader's level (its innermost, if it is not that deep), and its stored
row -- its ``cycle - C`` and parked own-earliest cycle ``- C``,
``(busy - cycle)+``, ``(last write-back - cycle)+`` and ``(ready -
cycle)+`` of each register live at its row (:meth:`_Core.live`).
Nothing else reaches the group's future while every core stays inside
its span at that level.  When the leader meets, at a boundary of the
same span instance, the state it met ``P`` iterations earlier, every
core has since run a whole number of iterations of its span at that
level (the leader ``P``, another core as many as arbitration let it)
and is back at the same place, and every later period repeats this one
exactly, shifted by the leader's cursor advance ``D``.  So the group
adds ``m`` periods at once, ``m`` the fewest whole periods any active
core has room for before its span's last iteration (a soft span's
last-but-one: its last one ends in the stored exception): iteration
indices move by ``m`` periods; cycles, parked cycles, the FPU's
horizons, live ready times and a busy or last write-back still ahead of
its core's cycle move by ``m * D``; stalls, per-class stalls and
contention add ``m`` times their per-period deltas.  Otherwise the
group steps on as before.  An inner-level skip is exact, so states
recorded at outer boundaries stay valid across it; the records of span
instances the leader has left are dropped.
"""

from __future__ import annotations

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
    """Timing of one core plus its arbitration losses, and the replay's
    traffic: the rows it stepped (``stepped_rows``; the expanded rows
    it timed are ``timing.instructions``) and, on the leader of a shared
    group, the group's joint-state ``skips`` (0 on every other core)."""

    __slots__ = ("timing", "contention_stalls", "stepped_rows", "skips")

    def __init__(
        self,
        timing: Timing,
        contention_stalls: int,
        stepped_rows: int = 0,
        skips: int = 0,
    ) -> None:
        self.timing = timing
        self.contention_stalls = contention_stalls
        self.stepped_rows = stepped_rows
        self.skips = skips


#: A finished core's parked cycle: later than any real cycle.
_DONE = 1 << 62
#: What the engine sends a parked core instead of a grant: report your
#: state, or apply the shift in ``_Core.shift`` (which the leader is
#: also sent at a span iteration it starts).
_QUERY = -1
_SHIFT = -2


class _Core:
    """What the engine reads and shifts of one core of a shared group.

    ``ready`` and ``cls_stall`` are the core's own lists; ``frames``
    holds ``[span, iteration]`` per span the core is inside, outermost
    first, which its walk reads back after every step; ``shift`` is the
    ``(cycles, stalls, contention)`` a :data:`_SHIFT` adds.
    """

    __slots__ = ("columns", "ready", "cls_stall", "frames", "shift")

    def __init__(self, columns: ProgramColumns) -> None:
        self.columns = columns
        self.ready = [0] * columns.n_regs
        self.cls_stall = [0] * len(CLASS_NAMES)
        self.frames: list[list] = []
        self.shift = (0, 0, 0)

    def place(self, level: int) -> tuple:
        """Where the core is, but for its iteration of the span at
        ``level`` (its innermost, if it is not that deep): each other
        span around it and its iteration, and that span."""
        place = []
        for at, (span, k) in enumerate(self.frames):
            place.append(span)
            if at != level:
                place.append(k)
        return tuple(place)

    def live(self, row: int) -> tuple[int, ...]:
        """The registers whose ready time can still matter at stored
        ``row`` of the current outermost span: those written earlier
        in the template and read at ``row`` or later, and those any
        enclosing span reads from before it.  Computed in one pass per
        template, memoized on the columns."""
        top = self.frames[0][0]
        table = self.columns._live.get(top)
        if table is None:
            table = self.columns._live[top] = _liveness(self.columns, top)
        return table[row - top.row0]

    def shifted(self, cycle, busy, last_wb, stalls, contention) -> tuple:
        """A core's cycle, div/sqrt shadow, last write-back, stalls and
        contention after :attr:`shift`: the shadow and the write-back
        move only while ahead of the cycle."""
        by, more_stalls, more_contention = self.shift
        return (
            cycle + by,
            busy + by if busy > cycle else busy,
            last_wb + by if last_wb > cycle else last_wb,
            stalls + more_stalls,
            contention + more_contention,
        )

    def room(self, level: int) -> int:
        """Iterations the core may still skip of its span at ``level``:
        up to its last one, a soft span's last-but-one."""
        span, k = self.frames[level]
        return span.trips - 1 - (not span.hw) - k


def _liveness(columns: ProgramColumns, top) -> list[tuple[int, ...]]:
    """Per stored row of ``top`` (template, children, exceptions), the
    registers live there (:meth:`_Core.live`)."""
    row0, end = top.row0, top.end
    dst = columns.dst_list
    srcs = columns.srcs_list
    last_read = {}
    for r in range(row0, end):
        for s in srcs[r]:
            last_read[s] = r
    # Registers written at row w and read after it are live on rows
    # w + 1 .. last read; each span's outer registers on all its rows.
    starts: dict[int, list[int]] = {}
    for w in range(row0, end):
        reg = dst[w]
        if reg >= 0 and last_read.get(reg, -1) > w:
            starts.setdefault(w + 1, []).append(reg)
    spans = [(top, ())]
    outer_at = [()] * (end - row0)
    while spans:
        span, around = spans.pop()
        outer = around + span.outer
        for r in range(span.row0, span.end):
            outer_at[r - row0] = outer
        spans.extend((child, outer) for child in span.children)
    table, open_ = [], set()
    for r in range(row0, end):
        open_.update(starts.get(r, ()))
        open_ = {reg for reg in open_ if last_read[reg] >= r}
        table.append(tuple(sorted(open_.union(outer_at[r - row0]))))
    return table


def _walk(columns, lat_l, plans, frames, leader):
    """The row runs ``(a, b, rows)`` of ``columns`` in expanded order,
    each span's template once per iteration; the leader's walk also
    yields the span's frame at the start of each of its iterations but
    a soft span's last.  Iteration indices are read back from
    ``frames``, which the engine may move between two steps."""
    pos = 0
    for span in columns.spans:
        if pos < span.row0:
            yield pos, span.row0, columns.rows(pos, span.row0, lat_l)
        yield from _walk_span(span, plans, frames, leader)
        pos = span.end
    if pos < len(lat_l):
        yield pos, len(lat_l), columns.rows(pos, len(lat_l), lat_l)


def _walk_span(span, plans, frames, leader):
    items, last_items = plans[span]
    frame = [span, 0]
    frames.append(frame)
    final = span.trips - 1
    while frame[1] <= final:
        if leader and frame[1] < final:
            yield frame
        for item in items if span.hw or frame[1] < final else last_items:
            if type(item) is tuple:
                yield item
            else:
                yield from _walk_span(item, plans, frames, leader)
        frame[1] += 1
    frames.pop()


def _run_ahead(
    core: _Core,
    override: dict[str, int] | None,
    fpu: FpuOccupancy,
    leader: bool,
) -> Generator:
    """Replay one core of a shared FPU group, parking at FP issues.

    The single-core loop body, with the FPU taken out: every non-FP
    instruction issues at its own earliest cycle (nothing it touches is
    shared).  At an FP instruction the core yields that instruction's
    own-earliest cycle -- its sources and its own div/sqrt shadow -- and
    is sent the cycle the arbiter grants it on ``fpu``, or a
    :data:`_QUERY` (it yields its state) or a :data:`_SHIFT`.  The
    leader also yields its state at each span iteration it starts, and
    is sent back ``None`` or a :data:`_SHIFT`.  A state is ``(cycle,
    busy, last write-back, stalls, contention, stored row, parked
    own-earliest cycle)``, the last ``None`` at a span iteration.
    Returns the core's :class:`CoreResult` when the stream ends.
    """
    columns = core.columns
    ready, cls_stall = core.ready, core.cls_stall
    cycle = 0  # next free issue slot
    own_busy = 0  # this core's div/sqrt shadow
    last_wb = 0
    stalls = 0
    contention = 0
    stepped = 0

    lat_l = columns.latencies(override)
    walk = _walk(
        columns, lat_l, columns.plans(override), core.frames, leader
    )
    for run in walk:
        if type(run) is list:
            sent = yield (
                cycle, own_busy, last_wb, stalls, contention, run[0].row0,
                None,
            )
            if sent == _SHIFT:
                cycle, own_busy, last_wb, stalls, contention = core.shifted(
                    cycle, own_busy, last_wb, stalls, contention
                )
            continue
        a, b, (srcs_run, *rest) = run
        stepped += b - a
        # The iterator over sources knows how many rows are left.
        left = iter(srcs_run)
        for srcs, dst, latv, flag, consv, clsv in zip(left, *rest):
            earliest = cycle
            for src in srcs:
                when = ready[src]
                if when > earliest:
                    earliest = when
            if flag:
                if own_busy > earliest:
                    earliest = own_busy
                granted = yield earliest
                while granted < 0:
                    if granted == _QUERY:
                        granted = yield (
                            cycle, own_busy, last_wb, stalls, contention,
                            b - 1 - left.__length_hint__(), earliest,
                        )
                    else:
                        earliest += core.shift[0]
                        cycle, own_busy, last_wb, stalls, contention = (
                            core.shifted(
                                cycle, own_busy, last_wb, stalls, contention
                            )
                        )
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
    return CoreResult(timing, contention, stepped)


class _Group:
    """One shared FPU group's replay: the arbiter loop and the joint
    steady state (see the module docstring)."""

    def __init__(
        self, group: list[ProgramColumns], override: dict[str, int] | None
    ) -> None:
        self.fpu = FpuOccupancy()
        self.size = len(group)
        self.cores = [_Core(columns) for columns in group]
        self.leader = next(c for c, cols in enumerate(group) if cols.n)
        self.gens = [
            _run_ahead(core, override, self.fpu, c == self.leader)
            for c, core in enumerate(self.cores)
        ]
        self.results: list[CoreResult | None] = [None] * self.size
        # parked[k]: own-earliest cycle of core k's next FP instruction.
        self.parked = [_DONE] * self.size
        #: Per span level the leader is inside: that span instance and
        #: the joint states met at its iteration starts.
        self.records: list[tuple] = []
        self.skips = 0

    def run(self) -> list[CoreResult]:
        size, parked, fpu = self.size, self.parked, self.fpu
        # Every other core parks before the leader first stops at a
        # span: the joint state needs them all.
        order = [c for c in range(size) if c != self.leader]
        for c in order + [self.leader]:
            self._send(c, None)
        while True:
            first = min(parked)
            if first == _DONE:
                self.results[self.leader].skips = self.skips
                return self.results
            # earliest_issue is max(own, occupancy), so the smallest
            # candidate is that of the smallest own-earliest cycle, and
            # a core's candidate equals it exactly when its own cycle is
            # no later.  Priority rotates from core t mod size.
            t = fpu.earliest_issue(first)
            k = t % size
            while parked[k] > t:
                k = (k + 1) % size
            self._send(k, t)

    def _send(self, c: int, value) -> None:
        """Send core ``c`` its grant (or, first, None) and park it at
        its next FP instruction, taking the joint state at every span
        iteration the leader starts on the way."""
        gen = self.gens[c]
        try:
            got = gen.send(value)
            while type(got) is tuple:
                got = gen.send(self._boundary(got))
            self.parked[c] = got
        except StopIteration as end:
            self.parked[c] = _DONE
            self.results[c] = end.value

    def _boundary(self, mine: tuple):
        """The leader starts a span iteration: take the joint state,
        and skip whole periods when it repeats.  Returns what to send
        the leader: :data:`_SHIFT` after a skip, else None."""
        cores, parked, leader = self.cores, self.parked, self.leader
        frames = cores[leader].frames
        depth = len(frames) - 1
        # Each core's period runs over its span at the leader's level,
        # or over its innermost one when it is not that deep.
        levels = {}
        for c in range(self.size):
            if c == leader or parked[c] != _DONE:
                level = min(depth, len(cores[c].frames) - 1)
                # Every active core needs an iteration to go before the
                # last one a skip may land on; a state taken otherwise
                # cannot come back.
                if level < 0 or cores[c].room(level) < 1:
                    return None
                levels[c] = level
        instance = cores[leader].place(depth)
        records = self.records
        del records[depth + 1:]
        records += [None] * (depth + 1 - len(records))
        if records[depth] is None or records[depth][0] != instance:
            records[depth] = (instance, {})
        seen = records[depth][1]

        C = mine[0]
        infos, state, snap = {}, [C % self.size, None], {}
        threshold = 0
        for c, level in levels.items():
            core = cores[c]
            cycle, busy, last_wb, stalls, contention, row, earliest = (
                mine if c == leader else self.gens[c].send(_QUERY)
            )
            parked_at = None if earliest is None else earliest - C
            if c != leader and parked_at < threshold:
                threshold = parked_at
            live = core.live(row)
            infos[c] = (cycle, live)
            ready = core.ready
            state.append((
                c, core.place(level), row, cycle - C, parked_at,
                busy - cycle if busy > cycle else 0,
                last_wb - cycle if last_wb > cycle else 0,
                *[when - cycle if when > cycle else 0
                  for when in [ready[r] for r in live]],
            ))
            snap[c] = (
                core.frames[level][1], stalls, contention,
                list(core.cls_stall),
            )
        horizon = max(self.fpu.busy_until, self.fpu.port_busy_until) - C
        if horizon > threshold:
            state[1] = horizon
        state = tuple(state)
        before = seen.get(state)
        seen[state] = (C, snap)
        if before is None:
            return None
        C0, snap0 = before
        # Each core ran a whole number of iterations of its span at its
        # level in the period: the leader's P, another core as many as
        # arbitration let it.
        periods = {c: snap[c][0] - snap0[c][0] for c in snap}
        if min(periods.values()) < 1:
            return None
        m = min(cores[c].room(levels[c]) // periods[c] for c in snap)
        if m < 1:
            return None

        by = m * (C - C0)
        for c, (_, stalls, contention, cls_stall) in snap.items():
            _, stalls0, contention0, cls0 = snap0[c]
            core = cores[c]
            cycle, live = infos[c]
            for r in live:
                if core.ready[r] > cycle:
                    core.ready[r] += by
            for j, before_j in enumerate(cls0):
                core.cls_stall[j] += m * (cls_stall[j] - before_j)
            core.frames[levels[c]][1] += m * periods[c]
            core.shift = (
                by, m * (stalls - stalls0), m * (contention - contention0)
            )
            if c != leader:
                parked[c] = self.gens[c].send(_SHIFT)
        self.fpu.busy_until += by
        self.fpu.port_busy_until += by
        self.skips += 1
        return _SHIFT


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
            results += _Group(group, fp_latency_override).run()
        else:
            for cols in group:
                steps: dict = {}
                timing = simulate_timing_columns(
                    cols, fp_latency_override, steps
                )
                results.append(
                    CoreResult(timing, 0, steps.get("stepped_rows", 0))
                )
    return results
