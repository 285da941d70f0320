"""Columnar trace engine: vectorized replay of dynamic streams.

A dynamic stream is emitted straight into column buffers: one flat
int64 row of fixed fields per instruction plus its source-register
tuple (:class:`InstrStream`), written by the kernel builder as it emits
and never held as one Python object per instruction.  Lowering is then
an ``(n, 8)`` numpy view of those rows plus a few vectorized derived
columns (the bitslice idea of Xu & Gregg's vector types, applied to the
simulator itself), and the analytics are array kernels:

* instruction mix, memory accounting and the per-class cycle split are
  ``np.bincount`` tallies over small id spaces;
* result latencies come from a precomputed per-(kind, op, fmt) table
  gathered in one shot;
* the energy split is a pure gather-and-sum -- with the stream-order
  left-fold float accumulation of the per-``Instr`` loop reproduced
  exactly by ``np.cumsum`` (sequential by construction), so the floats
  match bit for bit;
* the scoreboard/FPU-occupancy recurrence -- the only true sequential
  dependence -- stays a loop, but over primitive ints pre-gathered
  from the columns instead of per-``Instr`` attribute walks and
  function calls, with no per-replay preparation beyond the memoized
  latency gather.

A stream stores each repeating sweep once, as a :class:`Span`:
iteration 0's rows (the template) and a trip count, with the repeating
sweeps nested in it stored the same way inside the template (its
children).  Every column holds one entry per *stored* row, and
``weight`` says how many rows of the expanded stream each one stands
for -- the product of the trip counts around it -- so the counters are
weighted tallies of the templates, the energy fold tiles each
template's per-row energies inside its parent's, and the replay steps a
template again for each iteration it steps -- at every level, only
until the pipeline state at an iteration boundary repeats, then it
extrapolates exactly (:func:`simulate_timing_columns`; shared FPU
groups do the same with their joint state, in
:mod:`repro.cluster.engine`).

:class:`Instr` objects exist only on demand: :class:`InstrView` rebuilds
them from the stored rows -- a span's iteration *k* from its template,
register ids shifted -- for disassembly and tests, and
:func:`lower_instrs` appends hand-written ones to a stream, so every
stream lowers the same way.

Bit-identity against the per-``Instr`` reference loops in
``tests/oracles.py`` is a hard gate (``tests/hardware/test_columnar*.py``):
every :class:`Timing`, :class:`EnergyBreakdown`, :class:`MemoryStats`
and :class:`InstructionMix` these kernels produce equals the
reference's, on the full app grid and on seeded randomized streams.

Lowered columns are cached on the :class:`~repro.hardware.Program`
(:meth:`~repro.hardware.Program.columns`), so a program replayed many
times -- the latency ablation, the cluster topology sweep -- pays the
lowering once.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import compress
from typing import NamedTuple

import numpy as np

from .cpu import Timing
from .energy import EnergyBreakdown, EnergyModel
from .fpu.energy import cast_energy_pj, op_energy_pj
from .fpu.ops import (
    SEQUENTIAL_OPS,
    arithmetic_latency,
    cast_latency,
    sequential_latency,
)
from .isa import BRANCH_TAKEN_PENALTY, LOAD_USE_LATENCY, Instr, Kind
from .memory import MemoryStats
from .trace import InstructionMix

__all__ = [
    "CLASS_NAMES",
    "ROW_FIELDS",
    "InstrStream",
    "InstrView",
    "Span",
    "ProgramColumns",
    "lower_stream",
    "lower_instrs",
    "simulate_timing_columns",
    "simulate_program_timing",
    "count_memory_columns",
    "energy_split_columns",
    "instruction_mix_columns",
    "fp_cast_counters_columns",
]

#: Cycle-attribution classes, indexed by the ``cls_id`` column: scalar
#: and vector FP, casts, loads/stores, branches, everything else.
CLASS_NAMES = ("fp_scalar", "fp_vector", "cast", "mem", "branch", "other")

#: The fixed fields of one instruction, in the order a stream row holds
#: them (one int64 each): ``dst`` is -1 for none, ``op_id``/``fmt_id``/
#: ``src_fmt_id`` index the stream's intern tables, ``taken`` is 0 or 1.
ROW_FIELDS = (
    "kind", "dst", "op_id", "fmt_id", "src_fmt_id", "lanes", "width", "taken",
)
ROW = len(ROW_FIELDS)

_KINDS = tuple(Kind)
_K_LOAD = int(Kind.LOAD)
_K_STORE = int(Kind.STORE)
_K_FP = int(Kind.FP)
_K_CAST = int(Kind.CAST)
_K_BRANCH = int(Kind.BRANCH)


class ProgramColumns:
    """One dynamic stream lowered to structure-of-arrays form.

    The fields of an :class:`InstrStream`'s stored rows become parallel
    columns: ``dst`` and ``width`` are views over the row buffer, and
    the kind, op/format ids and lanes that every analytic masks on are
    compact contiguous copies.  ``op`` and ``fmt`` objects are
    referenced by id into the stream's intern tables (``ops`` /
    ``formats``), with id 0 reserved for ``None`` in both.  Two
    plain-Python views (``dst_list`` / ``srcs_list``) feed the fused
    timing pass, which needs per-element access anyway and is faster on
    lists of ints than on numpy scalars.

    ``n`` counts the rows of the expanded stream, the ones a replay
    times; every column has one entry per stored row.  ``spans`` are
    the stream's spans as the replays walk them (:class:`SpanColumns`),
    and ``weight`` is each stored row's total repeat count -- the
    product of the trip counts of the spans around it -- so a weighted
    tally over the stored rows counts the expanded stream.

    Instances are immutable once built and safe to share -- every core
    of a cluster may replay the same one.  The derived tables
    (:meth:`latencies` and :meth:`plans` per override, the energy
    gathers, the shared-group engine's per-template register liveness)
    and the report analytics that depend on the stream alone
    (:meth:`counters`, :meth:`energy_sums`) are memoized here, so a
    re-replay of the same program -- under another latency or FPU
    ratio -- skips them.
    """

    __slots__ = (
        "n",
        "kind",
        "op_id",
        "fmt_id",
        "src_fmt_id",
        "lanes",
        "dst",
        "taken",
        "width",
        "ops",
        "formats",
        "dst_list",
        "srcs_list",
        "n_regs",
        "spans",
        "weight",
        "consumed",
        "cls_id",
        "fp_flag",
        "bits_by_fmt",
        "_lat_cache",
        "_fp_energy",
        "_cast_energy",
        "_counters",
        "_energy_sums",
        "_plans",
        "_live",
    )

    def __init__(self) -> None:  # populated by lower_stream
        self._lat_cache: dict = {}
        self._fp_energy = None
        self._cast_energy = None
        self._counters = None
        self._energy_sums: dict = {}
        self._plans: dict = {}
        self._live: dict = {}

    # ------------------------------------------------------------------
    # Latency table (per fp_latency_override, memoized)
    # ------------------------------------------------------------------
    def latencies(
        self, fp_latency_override: dict[str, int] | None = None
    ) -> list[int]:
        """Per-stored-row result latency as plain ints, memoized per
        latency configuration (one gather from a per-(op, fmt) table)."""
        key = _latency_key(fp_latency_override)
        lat_l = self._lat_cache.get(key)
        if lat_l is None:
            lat_l = self._lat_cache[key] = self._compute_latencies(
                fp_latency_override
            )
        return lat_l

    def rows(self, a: int, b: int, lat_l: list[int]) -> tuple[list, ...]:
        """Stored rows ``a`` to ``b - 1`` as the replays step them: the
        lists ``(srcs, dst, latency, fp_flag, consumed, cls_id)``, which
        a replay zips.  (A list per column, not a tuple per row: a span
        stepped only a few times would pay more to build and collect
        row tuples than to step them.)"""
        return (
            self.srcs_list[a:b], self.dst_list[a:b], lat_l[a:b],
            self.fp_flag[a:b].tolist(), self.consumed[a:b].tolist(),
            self.cls_id[a:b].tolist(),
        )

    def plans(self, fp_latency_override: dict[str, int] | None = None):
        """What one iteration of each span (every level) steps, memoized
        per latency configuration: ``{span: (items, last)}``.  ``items``
        are the template's row runs ``(a, b, rows)`` -- stored rows
        ``a`` to ``b - 1`` and their :meth:`rows` -- and its child
        spans, in stream order; ``last`` is a soft span's last
        iteration, whose final run ends in the stored exception instead
        of the template's branch."""
        key = _latency_key(fp_latency_override)
        plans = self._plans.get(key)
        if plans is None:
            lat_l = self.latencies(fp_latency_override)
            plans = self._plans[key] = {}

            def run(a, b):
                return a, b, self.rows(a, b, lat_l)

            stack = list(self.spans)
            while stack:
                span = stack.pop()
                stack.extend(span.children)
                items, pos = [], span.row0
                for child in span.children:
                    if pos < child.row0:
                        items.append(run(pos, child.row0))
                    items.append(child)
                    pos = child.end
                end = span.row0 + span.rows
                if pos < end:
                    items.append(run(pos, end))
                last = items
                if not span.hw:  # its template ends in a counter step
                    a = items[-1][0]
                    last = items[:-1] + [run(a, end - 1), run(end, end + 1)]
                plans[span] = (items, last)
        return plans

    def _compute_latencies(self, override: dict[str, int] | None):
        lat = np.ones(len(self.kind), dtype=np.int64)
        lat[self.kind == _K_LOAD] = LOAD_USE_LATENCY
        lat[self.kind == _K_CAST] = cast_latency()
        fp_mask = self.kind == _K_FP
        if fp_mask.any():
            n_ops = len(self.ops)
            pair = (
                self.fmt_id[fp_mask].astype(np.int64) * n_ops
                + self.op_id[fp_mask]
            )
            table = np.ones(len(self.formats) * n_ops, dtype=np.int64)
            for p in np.flatnonzero(np.bincount(pair)).tolist():
                fmt = self.formats[p // n_ops]
                op = self.ops[p % n_ops]
                table[p] = _fp_result_latency(op, fmt, override)
            lat[fp_mask] = table[pair]
        return lat.tolist()

    # ------------------------------------------------------------------
    # Energy gather tables (module constants only, memoized)
    # ------------------------------------------------------------------
    def fp_energy_table(self):
        """Per-(fmt_id, op_id) single-lane FP energy, flat-indexed."""
        if self._fp_energy is None:
            n_ops = len(self.ops)
            table = np.zeros(len(self.formats) * n_ops)
            fp_mask = self.kind == _K_FP
            if fp_mask.any():
                pair = (
                    self.fmt_id[fp_mask].astype(np.int64) * n_ops
                    + self.op_id[fp_mask]
                )
                for p in np.flatnonzero(np.bincount(pair)).tolist():
                    table[p] = op_energy_pj(
                        self.formats[p // n_ops], self.ops[p % n_ops], 1
                    )
            table.setflags(write=False)
            self._fp_energy = table
        return self._fp_energy

    def cast_energy_table(self):
        """Per-(src_fmt_id, fmt_id) single-lane cast energy."""
        if self._cast_energy is None:
            n_fmts = len(self.formats)
            table = np.zeros(n_fmts * n_fmts)
            cast_mask = self.kind == _K_CAST
            if cast_mask.any():
                pair = (
                    self.src_fmt_id[cast_mask].astype(np.int64) * n_fmts
                    + self.fmt_id[cast_mask]
                )
                for p in np.flatnonzero(np.bincount(pair)).tolist():
                    table[p] = cast_energy_pj(
                        self.formats[p // n_fmts], self.formats[p % n_fmts]
                    )
            table.setflags(write=False)
            self._cast_energy = table
        return self._cast_energy

    # ------------------------------------------------------------------
    # Report analytics that depend on the stream alone (memoized)
    # ------------------------------------------------------------------
    def counters(self) -> tuple[MemoryStats, Counter, Counter]:
        """The memory counters and the FP-op and cast counters of
        :func:`count_memory_columns` and :func:`fp_cast_counters_columns`.
        Shared between replays: copy before changing them."""
        if self._counters is None:
            fp, casts = fp_cast_counters_columns(self)
            self._counters = (count_memory_columns(self), fp, casts)
        return self._counters

    def energy_sums(self, model: EnergyModel) -> tuple[float, float, float]:
        """``(fp_pj, mem_pj, issue_pj)``: the energy split under
        ``model`` without its stall term, per model."""
        sums = self._energy_sums.get(model)
        if sums is None:
            sums = self._energy_sums[model] = _energy_sums(model, self)
        return sums


def _latency_key(override: dict[str, int] | None):
    return None if not override else tuple(sorted(override.items()))


class SpanColumns:
    """A :class:`Span` as the replays walk it.

    ``row0``/``rows`` are its template's stored rows and ``end`` is one
    past its last stored row; ``outer`` are the registers its
    iterations read but do not write (written before it, and a soft
    loop's counter init); ``children`` are its nested spans, lowered the
    same way.  Hashed by identity: :meth:`ProgramColumns.plans` keys on
    it.
    """

    __slots__ = ("row0", "rows", "end", "trips", "hw", "outer", "children")

    def __init__(self, span: Span, srcs: list, dst_list: list) -> None:
        self.row0, self.rows, self.trips, self.hw = span[:4]
        self.end = span.end
        stop = span.row0 + span.rows
        read = {s for t in srcs[span.row0:stop] for s in t}
        self.outer = tuple(read.difference(dst_list[span.row0:stop]))
        self.children = tuple(
            SpanColumns(child, srcs, dst_list) for child in span.children
        )


def _fp_result_latency(
    op: str | None, fmt, override: dict[str, int] | None
) -> int:
    """FP result latency: div/sqrt iterate, compares take one cycle,
    arithmetic follows the format (or the ablation's override)."""
    if op in SEQUENTIAL_OPS:
        return sequential_latency(op)
    if op == "cmp":
        return 1
    if override and fmt is not None and fmt.name in override:
        return override[fmt.name]
    return arithmetic_latency(fmt)


class Span(NamedTuple):
    """A sweep whose iterations repeat, stored once.

    The stream stores iteration 0's rows -- the template -- from stored
    row ``row0`` on, ``rows`` of them, with iteration 0's register ids:
    the ``regs`` registers from ``reg0`` on.  Iteration *k* emits the
    same rows with every register written inside the iteration shifted
    by ``k * regs``.  A soft loop (``hw`` False) also shifts its
    counter, which each iteration reads from the register just before
    its own (the counter init before iteration 0), and its last
    iteration's branch falls through: that row is stored right after
    the template, the span's one exception.

    ``children`` are the repeating sweeps nested in the template, each
    stored once inside it the same way, with the stored rows and
    register ids of this span's iteration 0 (a child's loop set-up or
    counter init is a row of this template).  ``regs`` is the full
    stride, so a child's later iterations own registers of this
    iteration that no stored row names: in iteration *k* of this span
    and *j* of the child, a register in the child's :meth:`shifted`
    range moves by ``k * regs + j * child.regs``, and one only in this
    span's by ``k * regs``.
    """

    row0: int
    rows: int
    trips: int
    hw: bool
    reg0: int
    regs: int
    children: tuple = ()

    def shifted(self) -> tuple[int, int]:
        """The register ids ``[lo, hi)`` that shift by ``regs`` per
        iteration."""
        return self.reg0 - (not self.hw), self.reg0 + self.regs

    @property
    def end(self) -> int:
        """One past the span's last stored row (a soft span's
        exception)."""
        return self.row0 + self.rows + (not self.hw)

    def iteration_rows(self) -> int:
        """Rows of one iteration of the expanded stream."""
        return self.rows + sum(
            child.expanded_rows() - (child.end - child.row0)
            for child in self.children
        )

    def expanded_rows(self) -> int:
        """Rows the span expands to: a soft span's last iteration ends
        in the exception instead of the template's branch."""
        return self.trips * self.iteration_rows()


class InstrStream:
    """A dynamic stream in emission form: one flat buffer of int64 rows.

    Emitters -- :class:`~repro.hardware.KernelBuilder` as it builds,
    :meth:`append` for hand-written :class:`Instr` streams -- write each
    instruction's fixed fields as one row of :data:`ROW_FIELDS` into
    ``rows`` and its source-register tuple into ``srcs``.  Ops and
    formats are interned into ``ops`` / ``formats`` in first-use order,
    ``fmt`` before ``src_fmt``, with id 0 reserved for ``None``.  Formats
    intern by ``(exp_bits, man_bits, name)``: :class:`FPFormat` equality
    ignores the name, but the report counters key on it.

    ``spans`` lists the outermost sweeps the builder stored once
    (:class:`Span`, each with its nested ones), in stream order; the
    buffer holds each one's template and none of its later iterations.
    So the stream has more rows (``len``, the *expanded* stream the
    kernel executes) than it stores (:attr:`stored`), and ``n_regs`` is
    one past the highest register the expanded stream names.
    Hand-written streams have no spans.

    :func:`lower_stream` turns the stored rows into columns with a
    handful of array operations, and :class:`InstrView` reads the
    expanded stream back as :class:`Instr` objects.
    """

    __slots__ = (
        "rows", "srcs", "ops", "formats", "n_regs", "spans",
        "op_ids", "fmt_ids", "_fmt_keys", "_seen", "_index",
    )

    def __init__(self, instrs: Iterable[Instr] = ()) -> None:
        self.rows = array("q")
        self.srcs: list[tuple[int, ...]] = []
        self.ops: list = [None]
        self.formats: list = [None]
        self.n_regs = 0
        self.spans: list[Span] = []
        #: op -> id, and id(fmt) -> id: the emitters' fast paths.
        self.op_ids: dict = {None: 0}
        self.fmt_ids: dict = {id(None): 0}
        self._fmt_keys: dict = {}
        #: Every format object ``fmt_ids`` has seen, kept alive so its
        #: id is never reused by another format.
        self._seen: list = []
        #: ``(stored, len(spans))``, the expanded start of each of
        #: :meth:`segments`, and the segments, as of that shape.
        self._index = None
        for instr in instrs:
            self.append(instr)

    def __len__(self) -> int:
        """Rows of the expanded stream."""
        return self.stored + sum(
            span.expanded_rows() - (span.end - span.row0)
            for span in self.spans
        )

    @property
    def stored(self) -> int:
        """Rows the buffer holds."""
        return len(self.rows) // ROW

    def op_id(self, op) -> int:
        oid = self.op_ids.get(op)
        if oid is None:
            oid = self.op_ids[op] = len(self.ops)
            self.ops.append(op)
        return oid

    def fmt_id(self, fmt) -> int:
        fid = self.fmt_ids.get(id(fmt))
        if fid is None:
            key = (fmt.exp_bits, fmt.man_bits, fmt.name)
            fid = self._fmt_keys.get(key)
            if fid is None:
                fid = self._fmt_keys[key] = len(self.formats)
                self.formats.append(fmt)
            self.fmt_ids[id(fmt)] = fid
            self._seen.append(fmt)
        return fid

    def append(self, instr: Instr) -> None:
        """Emit one :class:`Instr`."""
        dst = -1 if instr.dst is None else instr.dst
        srcs = tuple(instr.srcs)
        self.rows.extend((
            int(instr.kind), dst, self.op_id(instr.op),
            self.fmt_id(instr.fmt), self.fmt_id(instr.src_fmt),
            instr.lanes, instr.width, int(instr.taken),
        ))
        self.srcs.append(srcs)
        self.n_regs = max(self.n_regs, dst + 1, *(s + 1 for s in srcs))

    def table(self) -> np.ndarray:
        """The stored rows as an ``(n, ROW)`` int64 array (a view, not a
        copy)."""
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, ROW)

    def segments(self) -> list[tuple]:
        """The expanded stream in order, as ``(start, end, repeats, span,
        k, outer)``: stored rows ``start`` to ``end - 1`` run ``repeats``
        times over, as iterations ``k``, ``k + 1``, ... of ``span`` (or
        once, with ``span`` None), inside the iterations ``outer`` of
        the spans around them: ``(lo, hi, shift)`` per enclosing span
        iteration whose registers move.  A span without children
        expands to at most three segments: a hardware span's template
        runs ``trips`` times; a soft span's runs ``trips - 1`` times,
        then once up to its branch, and then comes the stored
        fall-through branch.  A span with children expands iteration by
        iteration, recursively."""
        out: list = []
        _tree_segments(self.spans, 0, self.stored, (), out)
        return out

    def _segment_index(self) -> tuple[list[int], list[tuple], int]:
        """:meth:`segments`, the expanded row each starts at, and the
        expanded row count, cached for the stream's current shape."""
        shape = (self.stored, len(self.spans))
        if self._index is None or self._index[0] != shape:
            segments, starts, pos = self.segments(), [], 0
            for a, b, repeats, *_ in segments:
                starts.append(pos)
                pos += (b - a) * repeats
            self._index = (shape, starts, segments, pos)
        return self._index[1:]

    def without_kind(self, kind: Kind) -> "InstrStream":
        """A copy of the stream with every ``kind`` instruction dropped.

        Rows drop from the stored buffer, templates included, and each
        span is re-based onto the kept rows without expanding: every
        iteration of a span has the same kinds, so each keeps as many
        rows as its template (branches must stay: a soft span ends in
        one).  The copy keeps the register count and shares the intern
        tables, which only ever grow, so ids stay valid in both streams.
        """
        table = self.table()
        keep = table[:, 0] != int(kind)
        out = copy.copy(self)
        out.rows = array("q", table[keep].tobytes())
        out.srcs = list(compress(self.srcs, keep.tolist()))
        kept = np.concatenate(([0], np.cumsum(keep))).tolist()

        def rebase(span: Span) -> Span:
            return span._replace(
                row0=kept[span.row0],
                rows=kept[span.row0 + span.rows] - kept[span.row0],
                children=tuple(map(rebase, span.children)),
            )

        out.spans = [rebase(span) for span in self.spans]
        out._index = None
        return out

    # ------------------------------------------------------------------
    # The expanding view: iteration k rebuilt from its span's template
    # ------------------------------------------------------------------
    def _pieces(self, start: int, stop: int):
        """Expanded rows ``start`` to ``stop - 1`` as ``(rows, srcs)``
        pieces, each with its own iterations' register ids: those in a
        span's :meth:`Span.shifted` range move by ``k * regs`` for its
        iteration ``k``, summed over the spans around the row.  The
        first piece is found by bisection."""
        starts, segments, _ = self._segment_index()
        table = self.table()
        first = max(bisect_right(starts, start) - 1, 0)
        for i in range(first, len(segments)):
            pos = starts[i]
            if pos >= stop:
                return
            a, b, repeats, span, k, outer = segments[i]
            size = b - a
            skip = max(start - pos, 0) // size
            pos += skip * size
            for k in range(k + skip, k + repeats):
                if pos >= stop:
                    return
                lo_row = a + max(start - pos, 0)
                hi_row = b - max(pos + size - stop, 0)
                pos += size
                shifts = outer
                if span is not None and k:
                    shifts = outer + ((*span.shifted(), k * span.regs),)
                yield _shift_rows(
                    table[lo_row:hi_row], self.srcs[lo_row:hi_row], shifts
                )

    def instrs(self, start: int, stop: int):
        """:class:`Instr` objects of expanded rows ``start`` to
        ``stop - 1``, each built as it is read."""
        ops, formats = self.ops, self.formats
        for rows, srcs in self._pieces(start, stop):
            fields = iter(rows.ravel().tolist())
            for row, src in zip(zip(*[fields] * ROW), srcs):
                yield _instr(row, src, ops, formats)

    def expanded(self) -> "InstrStream":
        """A span-free copy with every iteration's rows laid out: what
        the loop form of the same kernel emits.  It shares the intern
        tables."""
        rows, srcs = [self.table()[:0]], []
        for part, src in self._pieces(0, len(self)):
            rows.append(part)
            srcs += src
        out = copy.copy(self)
        out.rows = array("q", np.concatenate(rows).tobytes())
        out.srcs = srcs
        out.spans = []
        out._index = None
        return out

    def __iter__(self):
        return self.instrs(0, len(self))


def _tree_segments(spans, a: int, b: int, outer: tuple, out: list) -> None:
    """Append the segments of stored rows ``a`` to ``b - 1``, which
    hold ``spans``, run once inside the span iterations ``outer``."""
    pos = a
    for span in spans:
        if pos < span.row0:
            out.append((pos, span.row0, 1, None, 0, outer))
        row0, trips, end = span.row0, span.trips, span.row0 + span.rows
        if not span.children:
            if span.hw:
                out.append((row0, end, trips, span, 0, outer))
            else:
                if trips > 1:
                    out.append((row0, end, trips - 1, span, 0, outer))
                out.append((row0, end - 1, 1, span, trips - 1, outer))
                out.append((end, end + 1, 1, span, trips - 1, outer))
        else:
            lo, hi = span.shifted()
            for k in range(trips):
                inner = outer + ((lo, hi, k * span.regs),) if k else outer
                last = not span.hw and k == trips - 1
                _tree_segments(span.children, row0, end - last, inner, out)
                if last:
                    out.append((end, end + 1, 1, None, 0, inner))
        pos = span.end
    if pos < b:
        out.append((pos, b, 1, None, 0, outer))


def _shift_rows(rows: np.ndarray, srcs: list, shifts: tuple):
    """``rows`` and ``srcs`` with every register id in a ``(lo, hi,
    shift)`` range of ``shifts`` moved by that range's shift (nested
    ranges add up)."""
    if not shifts:
        return rows, srcs
    rows = rows.copy()
    dst = rows[:, 1]
    delta = np.zeros(len(dst), dtype=np.int64)
    for lo, hi, shift in shifts:
        delta[(dst >= lo) & (dst < hi)] += shift
    dst += delta

    def move(r: int) -> int:
        moved = r
        for lo, hi, shift in shifts:
            if lo <= r < hi:
                moved += shift
        return moved

    return rows, [tuple([move(r) for r in t]) for t in srcs]


def _instr(row, srcs, ops, formats) -> Instr:
    kind, dst, oid, fid, sfid, lanes, width, taken = row
    return Instr(
        _KINDS[kind], None if dst < 0 else dst, srcs, ops[oid],
        formats[fid], formats[sfid], lanes, width, bool(taken),
    )


class InstrView(Sequence):
    """Read-only :class:`Instr` view of an :class:`InstrStream`'s
    expanded rows.

    ``len`` expands nothing; indexing (negative indices too), slicing
    and iteration build :class:`Instr` objects on demand,
    only for the rows they read -- a span's iteration *k* from its
    template, with iteration *k*'s register ids.  An index finds its
    row by bisection over the stream's cached segment starts.
    """

    __slots__ = ("_stream",)

    def __init__(self, stream: InstrStream) -> None:
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream)

    def __getitem__(self, index):
        n = self._stream._segment_index()[2]
        if isinstance(index, slice):
            picks = range(*index.indices(n))
            if not picks:
                return []
            lo, hi = sorted((picks[0], picks[-1]))
            read = list(self._stream.instrs(lo, hi + 1))
            return [read[i - lo] for i in picks]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("instruction index out of range")
        return next(self._stream.instrs(index, index + 1))

    def __iter__(self):
        return iter(self._stream)


def lower_stream(stream: InstrStream) -> ProgramColumns:
    """Lower an emitted stream into columns: views and compact copies
    of its stored rows plus the derived columns the kernels gather
    from."""
    cols = ProgramColumns()
    rows = stream.table()
    cols.n = len(stream)
    n = len(rows)
    kind, cols.dst, op_id, fmt_id, src_fmt_id, lanes, cols.width, taken = (
        rows.T
    )
    # The columns every analytic masks and gathers on get compact
    # contiguous copies: strided views of the rows cost a full pass
    # over every row's cache line each time.
    cols.kind = kind.astype(np.int16)
    cols.op_id = op_id.astype(np.int32)
    cols.fmt_id = fmt_id.astype(np.int32)
    cols.src_fmt_id = src_fmt_id.astype(np.int32)
    cols.lanes = lanes.copy()
    cols.taken = taken != 0
    ops = cols.ops = tuple(stream.ops)
    formats = cols.formats = tuple(stream.formats)
    cols.dst_list = cols.dst.tolist()
    cols.srcs_list = stream.srcs
    cols.n_regs = stream.n_regs
    cols.spans = [
        SpanColumns(span, stream.srcs, cols.dst_list) for span in stream.spans
    ]
    cols.weight = np.ones(n, dtype=np.int64)
    _weigh(cols.weight, stream.spans, 1)

    # Derived columns the kernels gather from.
    cols.consumed = np.where(
        (cols.kind == _K_BRANCH) & cols.taken, 1 + BRANCH_TAKEN_PENALTY, 1
    )
    is_fp = cols.kind == _K_FP
    cls = np.full(n, CLASS_NAMES.index("other"), dtype=np.int64)
    cls[is_fp & (cols.lanes > 1)] = CLASS_NAMES.index("fp_vector")
    cls[is_fp & (cols.lanes <= 1)] = CLASS_NAMES.index("fp_scalar")
    cls[cols.kind == _K_CAST] = CLASS_NAMES.index("cast")
    cls[(cols.kind == _K_LOAD) | (cols.kind == _K_STORE)] = (
        CLASS_NAMES.index("mem")
    )
    cls[cols.kind == _K_BRANCH] = CLASS_NAMES.index("branch")
    cols.cls_id = cls
    seq_ids = [i for i, op in enumerate(ops) if op in SEQUENTIAL_OPS]
    fp_flag = is_fp.astype(np.int64)
    if seq_ids:
        fp_flag[is_fp & np.isin(cols.op_id, seq_ids)] = 2
    cols.fp_flag = fp_flag
    cols.bits_by_fmt = np.asarray(
        [32 if fmt is None else fmt.bits for fmt in formats], dtype=np.int64
    )
    for arr in (
        cols.kind, cols.op_id, cols.fmt_id, cols.src_fmt_id, cols.lanes,
        cols.dst, cols.taken, cols.width, cols.consumed, cols.cls_id,
        cols.fp_flag, cols.bits_by_fmt, cols.weight,
    ):
        arr.setflags(write=False)
    return cols


def _weigh(weight: np.ndarray, spans, outer: int) -> None:
    """Set the repeat count of every stored row of ``spans``, each run
    ``outer`` times over: a template row runs ``outer * trips`` times,
    a soft span's branch one iteration less and its exception once per
    outer run."""
    for span in spans:
        runs = outer * span.trips
        end = span.row0 + span.rows
        weight[span.row0:end] = runs
        if not span.hw:
            weight[end - 1] = runs - outer
            weight[end] = outer
        _weigh(weight, span.children, runs)


def lower_instrs(instrs: Iterable[Instr]) -> ProgramColumns:
    """Lower a hand-written :class:`Instr` stream into columns."""
    return lower_stream(InstrStream(instrs))


# ----------------------------------------------------------------------
# Timing: the one true sequential dependence, stepped or extrapolated
# ----------------------------------------------------------------------
def simulate_timing_columns(
    columns: ProgramColumns,
    fp_latency_override: dict[str, int] | None = None,
    traffic: dict | None = None,
) -> Timing:
    """Replay lowered columns through the in-order pipeline.

    The scoreboard recurrence (issue cycle of instruction *i* depends on
    the issue cycles of its producers and on the FPU occupancy left by
    earlier instructions) cannot be expressed as a fixed number of array
    ops, so it stays a loop (:func:`_step`) -- but one that only touches
    pre-gathered primitive ints: no ``Instr`` attribute walks, no
    per-instruction latency/classify calls, no dict scoreboard.
    Everything the loop does not need on its sequential path (per-class
    issue cycles) is reduced vectorially afterwards.

    A swept nest is stored once (:class:`Span`, nested sweeps as its
    children) and replayed from its steady state, at every level.  A
    span's iterations emit the same rows up to register ids, and none
    reads a register another one writes (a soft loop's counter aside,
    which cannot stall: the branch ending an iteration reads it first).
    So the replay steps the template again, with iteration 0's register
    ids, for every iteration it steps -- a child span inside it by the
    same rule.  Once the issue cursor ``C`` at an iteration boundary is
    past the ready time of every register the span reads from before
    it, what is left of an iteration's timing is ``(busy - C, last
    write-back - C)``, each clamped at 0.  When two consecutive
    boundaries show the same state, every later iteration adds the same
    cycles, stalls and per-class stalls, and the replay adds them for
    all of them at once.  The last iteration of a soft loop is always
    stepped: its branch falls through, so it ends in the stored
    exception row.  ``traffic``, when given, gets the rows the replay
    walked added under ``"stepped_rows"``.

    The FPU issue port is not tracked at all on a single core: the port
    frees after one cycle (``port_busy_until = issue + 1``) while the
    issue cursor advances by at least one consumed slot past the same
    issue, so the port constraint can never bind for any stream -- only
    the shared FPUs of the cluster engine contend for ports.
    """
    timing = Timing(instructions=columns.n)
    if columns.n == 0:
        return timing

    lat_l = columns.latencies(fp_latency_override)
    plans = columns.plans(fp_latency_override)
    ready = [0] * columns.n_regs
    cls_stall = [0] * len(CLASS_NAMES)
    # cycle, FpuOccupancy.busy_until (div/sqrt block), last write-back,
    # stall cycles, rows stepped
    state = (0, 0, 0, 0, 0)
    pos = 0
    for span in columns.spans:
        state = _step(columns.rows(pos, span.row0, lat_l), span.row0 - pos,
                      ready, cls_stall, state)
        state = _iterate(span, plans, ready, cls_stall, state)
        pos = span.end
    cycle, _, last_wb, stalls, stepped = _step(
        columns.rows(pos, len(lat_l), lat_l), len(lat_l) - pos, ready,
        cls_stall, state,
    )

    timing.stall_cycles = stalls
    timing.cycles = max(cycle, last_wb)
    timing.cycles_by_class = finalize_class_cycles(columns, cls_stall)
    if traffic is not None:
        traffic["stepped_rows"] = traffic.get("stepped_rows", 0) + stepped
    return timing


def _iterate(span, plans, ready, cls_stall, state):
    """Replay every iteration of ``span``: step them until the state at
    an iteration boundary repeats, then add the rest at once (see
    :func:`simulate_timing_columns`)."""
    items, last_items = plans[span]
    need = max([ready[s] for s in span.outer], default=0)
    last = span.trips if span.hw else span.trips - 1
    seen = None
    for k in range(last):
        cycle, busy, last_wb, stalls, stepped = state
        if cycle >= need:
            rel = (max(busy - cycle, 0), max(last_wb - cycle, 0))
            if seen is not None and seen[0] == rel:
                left = last - k
                cycle += left * (cycle - seen[1])
                stalls += left * (stalls - seen[2])
                for c, before in enumerate(seen[3]):
                    cls_stall[c] += left * (cls_stall[c] - before)
                state = (
                    cycle,
                    cycle + rel[0] if rel[0] else busy,
                    cycle + rel[1] if rel[1] else last_wb,
                    stalls,
                    stepped,
                )
                break
            seen = (rel, cycle, stalls, list(cls_stall))
        state = _iteration(items, plans, ready, cls_stall, state)
    if not span.hw:
        # The last iteration, ending in the stored fall-through branch.
        state = _iteration(last_items, plans, ready, cls_stall, state)
    return state


def _iteration(items, plans, ready, cls_stall, state):
    """Replay one iteration of a span: its row runs and child spans."""
    for item in items:
        if type(item) is tuple:
            a, b, rows = item
            state = _step(rows, b - a, ready, cls_stall, state)
        else:
            state = _iterate(item, plans, ready, cls_stall, state)
    return state


def _step(rows, count, ready, cls_stall, state):
    """Replay the ``count`` rows of :meth:`ProgramColumns.rows` lists
    ``rows`` from ``state`` (cycle, busy, last write-back, stalls, rows
    stepped); ``ready`` and ``cls_stall`` update in place, the new
    state is returned."""
    cycle, busy, last_wb, stalls, stepped = state
    for srcs, dst, latv, flag, consv, clsv in zip(*rows):
        earliest = cycle
        for src in srcs:
            when = ready[src]
            if when > earliest:
                earliest = when
        if flag:
            if busy > earliest:
                earliest = busy
            if flag == 2:
                busy = earliest + latv
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
    return cycle, busy, last_wb, stalls, stepped + count


def finalize_class_cycles(
    columns: ProgramColumns, cls_stall: list[int]
) -> dict[str, int]:
    """Issue+stall cycles per class, keyed in first-occurrence order.

    Each class key appears when the first instruction of that class
    issues -- the order a per-instruction tally inserts them in, which
    keeps even the JSON rendering of a :class:`Timing` stable.
    """
    consumed_by_class = np.bincount(
        columns.cls_id, weights=columns.consumed * columns.weight,
        minlength=len(CLASS_NAMES),
    )
    # Every instruction consumes a slot, so a class is present exactly
    # when its consumed total is positive.
    return {
        CLASS_NAMES[cid]: int(consumed_by_class[cid]) + cls_stall[cid]
        for cid in _first_seen(columns.cls_id, consumed_by_class)
    }


def _first_seen(col: np.ndarray, counts: np.ndarray) -> list[int]:
    """The ids with a nonzero count in ``counts`` (a bincount of the
    small non-negative ids in ``col``), in order of first occurrence
    in ``col``."""
    return sorted(
        np.flatnonzero(counts).tolist(),
        key=lambda v: int(np.argmax(col == v)),
    )


def simulate_program_timing(
    program,
    fp_latency_override: dict[str, int] | None = None,
    traffic: dict | None = None,
) -> Timing:
    """Replay a built program (lowered once, cached on the program)."""
    return simulate_timing_columns(
        program.columns(), fp_latency_override, traffic
    )


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------
def count_memory_columns(columns: ProgramColumns) -> MemoryStats:
    """Data-memory access counters of the stream."""
    stats = MemoryStats()
    weight = columns.weight
    is_load = columns.kind == _K_LOAD
    is_store = columns.kind == _K_STORE
    mem = is_load | is_store
    stats.loads = int(weight[is_load].sum())
    stats.stores = int(weight[is_store].sum())
    if stats.loads + stats.stores == 0:
        return stats
    weight = weight[mem]
    stats.vector_accesses = int(weight[columns.lanes[mem] > 1].sum())
    stats.bytes_moved = int((columns.width[mem] * weight).sum())
    bits = columns.bits_by_fmt[columns.fmt_id[mem]]
    counts = np.bincount(bits, weights=weight)
    for b in _first_seen(bits, counts):
        stats.by_element_bits[b] = int(counts[b])
    return stats


# ----------------------------------------------------------------------
# Energy split
# ----------------------------------------------------------------------
def energy_split_columns(
    model: EnergyModel, columns: ProgramColumns, stall_cycles: int
) -> EnergyBreakdown:
    """Total energy of a replayed program, split by datapath.

    FPU slice/conversion energy lands in ``fp``, data-memory port
    energy in ``mem``; the issue cost of *every* instruction plus the
    stall cycles land in ``other`` (the core's own activity).  Only the
    stall term depends on the replay; the rest is
    :meth:`ProgramColumns.energy_sums`, and the stall term is added
    last, as the reference does.
    """
    fp_pj, mem_pj, issue_pj = columns.energy_sums(model)
    return EnergyBreakdown(
        fp_pj=fp_pj,
        mem_pj=mem_pj,
        other_pj=issue_pj + stall_cycles * model.stall_pj,
    )


def _energy_sums(
    model: EnergyModel, columns: ProgramColumns
) -> tuple[float, float, float]:
    """The FP, memory and issue sums of :func:`energy_split_columns`.

    The per-``Instr`` reference (``energy_split`` in
    ``tests/oracles.py``) left-folds ``+=`` per category in stream
    order; float addition is order-sensitive, so each category is
    reduced with ``np.cumsum`` (a strictly sequential running sum) over
    exactly the values the loop adds, in exactly that order: each
    span's iteration, its children tiled inside it, tiled as often as
    it repeats (a template's sum times its trip count would be another
    float).
    """
    breakdown = EnergyBreakdown()
    weight = columns.weight
    is_fp = columns.kind == _K_FP
    is_cast = columns.kind == _K_CAST
    fp_cat = is_fp | is_cast
    if fp_cat.any():
        datapath = np.zeros(len(weight))
        if is_fp.any():
            n_ops = len(columns.ops)
            pair = (
                columns.fmt_id[is_fp].astype(np.int64) * n_ops
                + columns.op_id[is_fp]
            )
            datapath[is_fp] = (
                columns.fp_energy_table()[pair] * columns.lanes[is_fp]
            )
        if is_cast.any():
            n_fmts = len(columns.formats)
            pair = (
                columns.src_fmt_id[is_cast].astype(np.int64) * n_fmts
                + columns.fmt_id[is_cast]
            )
            datapath[is_cast] = (
                columns.cast_energy_table()[pair] * columns.lanes[is_cast]
            )
        in_order = _in_order(datapath, fp_cat, columns.spans, 0, len(weight))
        breakdown.fp_pj = float(np.cumsum(in_order)[-1])
    n_mem = int(
        weight[(columns.kind == _K_LOAD) | (columns.kind == _K_STORE)].sum()
    )
    if n_mem:
        breakdown.mem_pj = float(
            np.cumsum(np.full(n_mem, model.dmem_access_pj))[-1]
        )
    if columns.n:
        breakdown.other_pj = float(
            np.cumsum(np.full(columns.n, model.issue_pj))[-1]
        )
    return breakdown.fp_pj, breakdown.mem_pj, breakdown.other_pj


def _in_order(values, keep, spans, a: int, b: int) -> np.ndarray:
    """``values[keep]`` over stored rows ``a`` to ``b - 1`` (which hold
    ``spans``) in expanded order: each span's iteration tiled ``trips``
    times.  ``keep`` never holds a branch, so a soft span's last
    iteration, which swaps its branch for the exception, keeps the
    same values."""
    parts, pos = [], a
    for span in spans:
        parts.append(values[pos:span.row0][keep[pos:span.row0]])
        once = _in_order(
            values, keep, span.children, span.row0, span.row0 + span.rows
        )
        parts.append(np.tile(once, span.trips))
        pos = span.end
    parts.append(values[pos:b][keep[pos:b]])
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# Instruction mix and report counters
# ----------------------------------------------------------------------
def instruction_mix_columns(columns: ProgramColumns) -> InstructionMix:
    """Instruction mix of the stream, tallied by bincounts."""
    mix = InstructionMix(total=columns.n)
    if columns.n == 0:
        return mix
    weight = columns.weight
    kind_counts = np.bincount(columns.kind, weights=weight,
                              minlength=len(Kind))
    for k in _first_seen(columns.kind, kind_counts):
        mix.by_kind[Kind(k).name] = int(kind_counts[k])
    mix.vector_instrs = int(weight[columns.lanes > 1].sum())
    fp_mask = columns.kind == _K_FP
    if fp_mask.any():
        fids = columns.fmt_id[fp_mask]
        counts = np.bincount(fids, weights=weight[fp_mask])
        for fid in _first_seen(fids, counts):
            mix.fp_by_format[columns.formats[fid].name] += int(counts[fid])
    mix.cast_instrs = int(kind_counts[_K_CAST])
    mix.taken_branches = int(
        weight[(columns.kind == _K_BRANCH) & columns.taken].sum()
    )
    return mix


def fp_cast_counters_columns(
    columns: ProgramColumns,
) -> tuple[Counter, Counter]:
    """The report counters: FP ops by (fmt, op, lanes), casts likewise."""
    fp: Counter = Counter()
    casts: Counter = Counter()
    radix = int(columns.lanes.max()) + 1 if columns.n else 1
    fp_mask = columns.kind == _K_FP
    if fp_mask.any():
        n_ops = len(columns.ops)
        code = (
            columns.fmt_id[fp_mask].astype(np.int64) * n_ops
            + columns.op_id[fp_mask]
        ) * radix + columns.lanes[fp_mask]
        counts = np.bincount(code, weights=columns.weight[fp_mask])
        for value in np.flatnonzero(counts).tolist():
            count = int(counts[value])
            pair, lanes = divmod(value, radix)
            fmt_id, op_id = divmod(pair, n_ops)
            key = (columns.formats[fmt_id].name, columns.ops[op_id], lanes)
            fp[key] += count
    cast_mask = columns.kind == _K_CAST
    if cast_mask.any():
        n_fmts = len(columns.formats)
        code = (
            columns.src_fmt_id[cast_mask].astype(np.int64) * n_fmts
            + columns.fmt_id[cast_mask]
        ) * radix + columns.lanes[cast_mask]
        counts = np.bincount(code, weights=columns.weight[cast_mask])
        for value in np.flatnonzero(counts).tolist():
            count = int(counts[value])
            pair, lanes = divmod(value, radix)
            src_id, dst_id = divmod(pair, n_fmts)
            src = columns.formats[src_id]
            dst = columns.formats[dst_id]
            key = (
                src.name if src is not None else "int32",
                dst.name if dst is not None else "int32",
                lanes,
            )
            casts[key] += count
    return fp, casts
