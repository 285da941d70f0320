"""Columnar trace engine: vectorized replay of dynamic streams.

A ``list[Instr]`` walked one Python object at a time costs a full
interpreted pass per analytic (timing, energy, memory, instruction mix,
report counters).  This module lowers a built program **once** into
numpy column arrays (the bitslice idea of Xu & Gregg's vector types,
applied to the simulator itself) and implements the analytics as array
kernels:

* instruction mix, memory accounting and the per-class cycle split are
  ``np.bincount``/``np.unique`` reductions;
* result latencies come from a precomputed per-(kind, op, fmt) table
  gathered in one shot;
* the energy split is a pure gather-and-sum -- with the stream-order
  left-fold float accumulation of the per-``Instr`` loop reproduced
  exactly by ``np.cumsum`` (sequential by construction), so the floats
  match bit for bit;
* the scoreboard/FPU-occupancy recurrence -- the only true sequential
  dependence -- stays one fused pass, but over primitive ints
  pre-gathered from the columns instead of per-``Instr`` attribute
  walks and function calls.  The pass reads the lowered views as they
  are, with no per-replay preparation beyond the memoized latency
  gather: every replay is exactly one pass over the stream.

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

from collections import Counter

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
    "ProgramColumns",
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

_K_LOAD = int(Kind.LOAD)
_K_STORE = int(Kind.STORE)
_K_FP = int(Kind.FP)
_K_CAST = int(Kind.CAST)
_K_BRANCH = int(Kind.BRANCH)


class ProgramColumns:
    """One dynamic stream lowered to structure-of-arrays form.

    The per-instruction fields of :class:`~repro.hardware.isa.Instr`
    become parallel numpy arrays; ``op`` and ``fmt`` objects are
    interned into small per-stream tables (``ops`` / ``formats``) and
    referenced by id, with id 0 reserved for ``None`` in both.  Two
    plain-Python views (``dst_list`` / ``srcs_list``) feed the fused
    timing pass, which needs per-element access anyway and is faster on
    lists of ints than on numpy scalars.

    Instances are immutable once built and safe to share -- every core
    of a cluster may replay the same one.  The derived tables
    (:meth:`latencies` per override, the energy gathers) are memoized
    here, so a re-replay of the same program skips the gathers.
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
        "consumed",
        "cls_id",
        "fp_flag",
        "bits_by_fmt",
        "_lat_cache",
        "_fp_energy",
        "_cast_energy",
    )

    def __init__(self) -> None:  # populated by lower_instrs
        self._lat_cache: dict = {}
        self._fp_energy = None
        self._cast_energy = None

    # ------------------------------------------------------------------
    # Latency table (per fp_latency_override, memoized)
    # ------------------------------------------------------------------
    def latencies(
        self, fp_latency_override: dict[str, int] | None = None
    ) -> list[int]:
        """Per-instruction result latency as plain ints, memoized per
        latency configuration (one gather from a per-(op, fmt) table)."""
        key = (
            None
            if not fp_latency_override
            else tuple(sorted(fp_latency_override.items()))
        )
        lat_l = self._lat_cache.get(key)
        if lat_l is None:
            lat_l = self._lat_cache[key] = self._compute_latencies(
                fp_latency_override
            )
        return lat_l

    def _compute_latencies(self, override: dict[str, int] | None):
        lat = np.ones(self.n, dtype=np.int64)
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
            for p in np.unique(pair).tolist():
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
                for p in np.unique(pair).tolist():
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
                for p in np.unique(pair).tolist():
                    table[p] = cast_energy_pj(
                        self.formats[p // n_fmts], self.formats[p % n_fmts]
                    )
            table.setflags(write=False)
            self._cast_energy = table
        return self._cast_energy


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


def lower_instrs(instrs: list[Instr]) -> ProgramColumns:
    """Lower a dynamic stream into columns (one pass, done once)."""
    cols = ProgramColumns()
    n = len(instrs)
    kind_l: list[int] = []
    op_l: list[int] = []
    fmt_l: list[int] = []
    sfmt_l: list[int] = []
    lanes_l: list[int] = []
    dst_l: list[int] = []
    srcs_l: list[tuple[int, ...]] = []
    taken_l: list[bool] = []
    width_l: list[int] = []
    op_ids: dict = {None: 0}
    ops: list = [None]
    fmt_ids: dict = {None: 0}
    formats: list = [None]
    max_reg = -1

    for ins in instrs:
        kind_l.append(int(ins.kind))
        op = ins.op
        oid = op_ids.get(op)
        if oid is None:
            oid = op_ids[op] = len(ops)
            ops.append(op)
        op_l.append(oid)
        fmt_l.append(_intern_fmt(ins.fmt, fmt_ids, formats))
        sfmt_l.append(_intern_fmt(ins.src_fmt, fmt_ids, formats))
        lanes_l.append(ins.lanes)
        dst = ins.dst
        dst_l.append(-1 if dst is None else dst)
        if dst is not None and dst > max_reg:
            max_reg = dst
        srcs = tuple(ins.srcs)
        srcs_l.append(srcs)
        for src in srcs:
            if src > max_reg:
                max_reg = src
        taken_l.append(ins.taken)
        width_l.append(ins.width)

    cols.n = n
    cols.kind = np.asarray(kind_l, dtype=np.int16)
    cols.op_id = np.asarray(op_l, dtype=np.int32)
    cols.fmt_id = np.asarray(fmt_l, dtype=np.int32)
    cols.src_fmt_id = np.asarray(sfmt_l, dtype=np.int32)
    cols.lanes = np.asarray(lanes_l, dtype=np.int64)
    cols.dst = np.asarray(dst_l, dtype=np.int64)
    cols.taken = np.asarray(taken_l, dtype=bool)
    cols.width = np.asarray(width_l, dtype=np.int64)
    cols.ops = tuple(ops)
    cols.formats = tuple(formats)
    cols.dst_list = dst_l
    cols.srcs_list = srcs_l
    cols.n_regs = max_reg + 1

    # Derived columns the kernels gather from.
    cols.consumed = np.where(
        (cols.kind == _K_BRANCH) & cols.taken, 1 + BRANCH_TAKEN_PENALTY, 1
    ).astype(np.int64)
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
        cols.fp_flag, cols.bits_by_fmt,
    ):
        arr.setflags(write=False)
    return cols


def _intern_fmt(fmt, fmt_ids: dict, formats: list) -> int:
    if fmt is None:
        return 0
    # Two formats that compare equal may still carry different names
    # (FPFormat.name is compare=False), and the analytics key on the
    # name -- intern by full identity, not by equality.
    key = (fmt.exp_bits, fmt.man_bits, fmt.name)
    fid = fmt_ids.get(key)
    if fid is None:
        fid = fmt_ids[key] = len(formats)
        formats.append(fmt)
    return fid


# ----------------------------------------------------------------------
# Timing: the one true sequential dependence, as a single fused pass
# ----------------------------------------------------------------------
def simulate_timing_columns(
    columns: ProgramColumns,
    fp_latency_override: dict[str, int] | None = None,
) -> Timing:
    """Replay lowered columns through the in-order pipeline.

    The scoreboard recurrence (issue cycle of instruction *i* depends on
    the issue cycles of its producers and on the FPU occupancy left by
    earlier instructions) cannot be expressed as a fixed number of array
    ops, so it stays a loop -- but one that only touches pre-gathered
    primitive ints: no ``Instr`` attribute walks, no per-instruction
    latency/classify calls, no dict scoreboard.  Everything the loop
    does not need on its sequential path (per-class issue cycles) is
    reduced vectorially afterwards.

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
    flag_l = columns.fp_flag.tolist()
    cons_l = columns.consumed.tolist()
    cls_l = columns.cls_id.tolist()

    ready = [0] * columns.n_regs
    cls_stall = [0, 0, 0, 0, 0, 0]
    cycle = 0
    busy = 0  # FpuOccupancy.busy_until (div/sqrt sequential block)
    last_wb = 0
    stalls = 0

    for srcs, dst, latv, flag, consv, clsv in zip(
        columns.srcs_list, columns.dst_list, lat_l, flag_l, cons_l, cls_l
    ):
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

    timing.stall_cycles = stalls
    timing.cycles = max(cycle, last_wb)
    timing.cycles_by_class = finalize_class_cycles(columns, cls_stall)
    return timing


def finalize_class_cycles(
    columns: ProgramColumns, cls_stall: list[int]
) -> dict[str, int]:
    """Issue+stall cycles per class, keyed in first-occurrence order.

    Each class key appears when the first instruction of that class
    issues -- the order a per-instruction tally inserts them in, which
    keeps even the JSON rendering of a :class:`Timing` stable.
    """
    consumed_by_class = np.bincount(
        columns.cls_id, weights=columns.consumed, minlength=len(CLASS_NAMES)
    )
    present, first = np.unique(columns.cls_id, return_index=True)
    out: dict[str, int] = {}
    for idx in np.argsort(first):
        cid = int(present[idx])
        out[CLASS_NAMES[cid]] = int(consumed_by_class[cid]) + cls_stall[cid]
    return out


def simulate_program_timing(
    program, fp_latency_override: dict[str, int] | None = None
) -> Timing:
    """Replay a built program (lowered once, cached on the program)."""
    return simulate_timing_columns(program.columns(), fp_latency_override)


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------
def count_memory_columns(columns: ProgramColumns) -> MemoryStats:
    """Data-memory access counters of the stream."""
    stats = MemoryStats()
    is_load = columns.kind == _K_LOAD
    is_store = columns.kind == _K_STORE
    mem = is_load | is_store
    stats.loads = int(np.count_nonzero(is_load))
    stats.stores = int(np.count_nonzero(is_store))
    if stats.loads + stats.stores == 0:
        return stats
    stats.vector_accesses = int(np.count_nonzero(columns.lanes[mem] > 1))
    stats.bytes_moved = int(columns.width[mem].sum())
    bits = columns.bits_by_fmt[columns.fmt_id[mem]]
    values, first, counts = np.unique(
        bits, return_index=True, return_counts=True
    )
    for idx in np.argsort(first):
        stats.by_element_bits[int(values[idx])] = int(counts[idx])
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
    stall cycles land in ``other`` (the core's own activity).

    The per-``Instr`` reference (``energy_split`` in
    ``tests/oracles.py``) left-folds ``+=`` per category in stream
    order; float addition is order-sensitive, so each category is
    reduced with ``np.cumsum`` (a strictly sequential running sum) over
    exactly the values the loop adds, in exactly that order.
    """
    breakdown = EnergyBreakdown()
    n = columns.n
    is_fp = columns.kind == _K_FP
    is_cast = columns.kind == _K_CAST
    fp_cat = is_fp | is_cast
    if fp_cat.any():
        datapath = np.zeros(n)
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
        breakdown.fp_pj = float(np.cumsum(datapath[fp_cat])[-1])
    n_mem = int(
        np.count_nonzero(
            (columns.kind == _K_LOAD) | (columns.kind == _K_STORE)
        )
    )
    if n_mem:
        breakdown.mem_pj = float(
            np.cumsum(np.full(n_mem, model.dmem_access_pj))[-1]
        )
    if n:
        breakdown.other_pj = float(np.cumsum(np.full(n, model.issue_pj))[-1])
    breakdown.other_pj += stall_cycles * model.stall_pj
    return breakdown


# ----------------------------------------------------------------------
# Instruction mix and report counters
# ----------------------------------------------------------------------
def instruction_mix_columns(columns: ProgramColumns) -> InstructionMix:
    """Instruction mix of the stream, tallied by bincounts."""
    mix = InstructionMix(total=columns.n)
    if columns.n == 0:
        return mix
    kind_counts = np.bincount(columns.kind, minlength=len(Kind))
    present, first = np.unique(columns.kind, return_index=True)
    for idx in np.argsort(first):
        k = int(present[idx])
        mix.by_kind[Kind(k).name] = int(kind_counts[k])
    mix.vector_instrs = int(np.count_nonzero(columns.lanes > 1))
    fp_mask = columns.kind == _K_FP
    if fp_mask.any():
        fids = columns.fmt_id[fp_mask]
        values, first, counts = np.unique(
            fids, return_index=True, return_counts=True
        )
        for idx in np.argsort(first):
            name = columns.formats[int(values[idx])].name
            mix.fp_by_format[name] += int(counts[idx])
    mix.cast_instrs = int(kind_counts[_K_CAST])
    mix.taken_branches = int(
        np.count_nonzero((columns.kind == _K_BRANCH) & columns.taken)
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
        values, counts = np.unique(code, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
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
        values, counts = np.unique(code, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
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
