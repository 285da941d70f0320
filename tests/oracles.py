"""Per-``Instr`` reference loops the shipped replay engine is gated on.

The platform replays every program through the columnar engine
(:mod:`repro.hardware.columnar`) and the cluster's column-walking cores
(:mod:`repro.cluster.engine`).  This module keeps the original loops
over ``list[Instr]`` -- one Python object at a time, each analytic
re-walking the stream -- as the reference those engines must match bit
for bit: every :class:`Timing`, :class:`RunReport`,
:class:`MemoryStats`, :class:`InstructionMix` and :class:`ClusterReport`
payload, down to dict key order.  Nothing in ``src/`` calls into it.

The per-``Instr`` energy rules live here too (:func:`category`,
:func:`datapath_energy_pj`, :func:`instruction_energy_pj`,
:func:`energy_split`): they define the Fig. 7 split the columnar gather
must reproduce for any :class:`EnergyModel`'s constants.

The numeric-forms section keeps every app's numeric form as it was
written on :class:`~tests.flexfloat.FlexFloatArray`, one binding per run
(the FlexFloat scalar and array types live in :mod:`tests.flexfloat`):
pca computing one covariance cell and one deflation row at a time, svm
one query at a time, and conv, dwt, jacobi and knn as they ran before
their forms moved onto the candidate axis (:class:`repro.apps.base.
Lockstep`).  Every row of an app's ``run_numeric_batch`` must return
the same output bytes as its oracle and record the same
:class:`~repro.core.Stats` payload (:data:`NUMERIC_ORACLES`).

The tuning section keeps :class:`SequentialSearch`: the greedy search
evaluating one candidate at a time, before the per-variable bisections
and the repair trials ran in lockstep.  The lockstep search must return
the same :class:`~repro.tuning.TuningResult` payloads, leave the same
session-memo keys and trip a budget at the same evaluation.

The last section is the kernels' value oracle.  The shipped
:class:`~repro.hardware.KernelBuilder` only emits; :class:`ValueBuilder`
emits through it and computes every register's value and every array's
final contents on the way, and :func:`kernel_values` swaps it into the
app modules, so one build yields both the shipped stream and the
kernel's outputs.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.apps import APP_CLASSES
from repro.apps.base import lanes_for, wider
from repro.apps.data import (
    conv_inputs,
    dwt_inputs,
    jacobi_inputs,
    knn_inputs,
    pca_inputs,
    svm_inputs,
)
from repro.apps.dwt import _DB2_HI, _DB2_LO, TAPS
from repro.apps.pca import COMPONENTS
from repro.apps.svm import COEF0, GAMMA
from repro.cluster import (
    FPU_STATIC_PJ_PER_CYCLE,
    ClusterConfig,
    ClusterReport,
    CoreResult,
)
from repro.core import (
    BINARY32,
    quantize,
    quantize_array,
    record_op,
    vectorizable,
)
from repro.core.ops import binary_array
from repro.hardware import (
    BRANCH_TAKEN_PENALTY,
    DEFAULT_ENERGY_MODEL,
    LOAD_USE_LATENCY,
    EnergyBreakdown,
    EnergyModel,
    Instr,
    InstructionMix,
    KernelBuilder,
    Kind,
    MemoryStats,
    Program,
    RunReport,
    Timing,
)
from repro.hardware.fpu import (
    SEQUENTIAL_OPS,
    FpuOccupancy,
    arithmetic_latency,
    cast_energy_pj,
    cast_latency,
    op_energy_pj,
    sequential_latency,
)
from repro.tuning import CastAwareSearch, DistributedSearch, InfeasibleError
from tests.flexfloat import (
    SCALAR_OPS,
    FlexFloat,
    FlexFloatArray,
    fused_multiply_add,
    sqrt,
)

__all__ = [
    "result_latency",
    "classify",
    "simulate_timing",
    "count_memory",
    "category",
    "datapath_energy_pj",
    "instruction_energy_pj",
    "energy_split",
    "assemble_report_legacy",
    "instruction_mix_legacy",
    "simulate_cluster_timing",
    "cluster_report_legacy",
    "pca_numeric_per_cell",
    "svm_numeric_per_query",
    "SequentialSearch",
    "SequentialCastAwareSearch",
    "ValueBuilder",
    "ValueProgram",
    "kernel_values",
]


# ----------------------------------------------------------------------
# Single-core timing
# ----------------------------------------------------------------------
#: Latency by kind for everything but FP, precomputed once: ALU/LI and
#: the control kinds resolve in one cycle, loads carry the load-use
#: latency, casts the conversion-slice latency.
_KIND_LATENCY = tuple(
    LOAD_USE_LATENCY
    if kind == Kind.LOAD
    else (cast_latency() if kind == Kind.CAST else 1)
    for kind in Kind
)

#: FP ops whose latency ignores the format: sequential div/sqrt and the
#: single-cycle comparators.
_FP_OP_LATENCY = {
    "div": sequential_latency("div"),
    "sqrt": sequential_latency("sqrt"),
    "cmp": 1,
}

#: Arithmetic latency per format, filled on first sight.  FPFormat
#: hashes by value (the name is compare=False), so two equal formats
#: share an entry -- exactly the formats ``arithmetic_latency`` treats
#: alike.
_ARITH_LATENCY_CACHE: dict = {}


def result_latency(
    instr: Instr, fp_latency_override: dict[str, int] | None = None
) -> int:
    """Cycles from issue until the destination register is forwardable.

    ``fp_latency_override`` maps format names to arithmetic latencies
    (the latency-sensitivity ablation).
    """
    if instr.kind != Kind.FP:
        return _KIND_LATENCY[instr.kind]
    latency = _FP_OP_LATENCY.get(instr.op)
    if latency is not None:
        return latency
    if fp_latency_override and instr.fmt.name in fp_latency_override:
        return fp_latency_override[instr.fmt.name]
    fmt = instr.fmt
    latency = _ARITH_LATENCY_CACHE.get(fmt)
    if latency is None:
        latency = arithmetic_latency(fmt)
        _ARITH_LATENCY_CACHE[fmt] = latency
    return latency


def classify(instr: Instr) -> str:
    kind = instr.kind
    if kind == Kind.FP:
        return "fp_vector" if instr.lanes > 1 else "fp_scalar"
    if kind == Kind.CAST:
        return "cast"
    if kind in (Kind.LOAD, Kind.STORE):
        return "mem"
    if kind == Kind.BRANCH:
        return "branch"
    return "other"


def simulate_timing(
    instrs: list[Instr],
    fp_latency_override: dict[str, int] | None = None,
) -> Timing:
    """Replay the stream and account cycles.

    ``cycles`` covers issue of the first instruction through completion
    of the last write-back.
    """
    timing = Timing(instructions=len(instrs))
    ready: dict[int, int] = {}
    cycle = 0  # next free issue slot
    fpu = FpuOccupancy()  # this core's private FPU instance
    last_writeback = 0

    for instr in instrs:
        earliest = cycle
        for src in instr.srcs:
            when = ready.get(src, 0)
            if when > earliest:
                earliest = when
        if instr.kind == Kind.FP:
            earliest = fpu.earliest_issue(earliest)

        stall = earliest - cycle
        issue = earliest
        consumed = 1  # the issue slot itself
        if instr.kind == Kind.BRANCH and instr.taken:
            consumed += BRANCH_TAKEN_PENALTY

        latency = result_latency(instr, fp_latency_override)
        if instr.dst is not None:
            done = issue + latency
            ready[instr.dst] = done
            if done > last_writeback:
                last_writeback = done
        if instr.kind == Kind.FP:
            fpu.note_issue_flagged(instr.op in SEQUENTIAL_OPS, issue, latency)

        cycle = issue + consumed
        timing.stall_cycles += stall
        timing.add_class_cycles(classify(instr), stall + consumed)

    timing.cycles = max(cycle, last_writeback)
    return timing


# ----------------------------------------------------------------------
# Memory accounting, energy split, report assembly, instruction mix
# ----------------------------------------------------------------------
def _add_access(stats: MemoryStats, instr: Instr) -> None:
    if instr.kind == Kind.LOAD:
        stats.loads += 1
    elif instr.kind == Kind.STORE:
        stats.stores += 1
    else:
        return
    if instr.lanes > 1:
        stats.vector_accesses += 1
    stats.bytes_moved += instr.width
    bits = 32 if instr.fmt is None else instr.fmt.bits
    stats.by_element_bits[bits] = stats.by_element_bits.get(bits, 0) + 1


def count_memory(instrs: list[Instr]) -> MemoryStats:
    """Tally all memory accesses in a replayed stream."""
    stats = MemoryStats()
    for instr in instrs:
        _add_access(stats, instr)
    return stats


def category(instr: Instr) -> str:
    """Datapath category of an instruction: fp, mem or other."""
    if instr.kind in (Kind.FP, Kind.CAST):
        return "fp"
    if instr.kind in (Kind.LOAD, Kind.STORE):
        return "mem"
    return "other"


def datapath_energy_pj(model: EnergyModel, instr: Instr) -> float:
    """The FPU or memory-port energy of one instruction (0 for ALU)."""
    kind = instr.kind
    if kind in (Kind.LOAD, Kind.STORE):
        return model.dmem_access_pj
    if kind == Kind.FP:
        return op_energy_pj(instr.fmt, instr.op, instr.lanes)
    if kind == Kind.CAST:
        return cast_energy_pj(instr.src_fmt, instr.fmt) * instr.lanes
    return 0.0


def instruction_energy_pj(model: EnergyModel, instr: Instr) -> float:
    """Energy of one instruction, excluding stall cycles."""
    return model.issue_pj + datapath_energy_pj(model, instr)


def energy_split(
    model: EnergyModel, instrs: list[Instr], stall_cycles: int
) -> EnergyBreakdown:
    """Total energy of a replayed stream, split by datapath.

    FPU slice/conversion energy lands in ``fp``, data-memory port
    energy in ``mem``; issue costs of *every* instruction plus stall
    cycles land in ``other`` (the core's own activity).
    """
    breakdown = EnergyBreakdown()
    for instr in instrs:
        cat = category(instr)
        if cat == "fp":
            breakdown.fp_pj += datapath_energy_pj(model, instr)
        elif cat == "mem":
            breakdown.mem_pj += datapath_energy_pj(model, instr)
        breakdown.other_pj += model.issue_pj
    breakdown.other_pj += stall_cycles * model.stall_pj
    return breakdown


def assemble_report_legacy(
    program: Program, timing: Timing, energy_model: EnergyModel
) -> RunReport:
    """The per-``Instr`` report assembly."""
    memory = count_memory(program.instrs)
    energy = energy_split(
        energy_model, program.instrs, timing.stall_cycles
    )

    fp: Counter = Counter()
    casts: Counter = Counter()
    for instr in program.instrs:
        if instr.kind == Kind.FP:
            fp[(instr.fmt.name, instr.op, instr.lanes)] += 1
        elif instr.kind == Kind.CAST:
            src = instr.src_fmt.name if instr.src_fmt else "int32"
            dst = instr.fmt.name if instr.fmt else "int32"
            casts[(src, dst, instr.lanes)] += 1

    return RunReport(
        program=program.name,
        timing=timing,
        memory=memory,
        energy=energy,
        fp_instrs=fp,
        cast_instrs=casts,
    )


def instruction_mix_legacy(program: Program) -> InstructionMix:
    """The per-``Instr`` tally."""
    mix = InstructionMix(total=len(program.instrs))
    for instr in program.instrs:
        mix.by_kind[instr.kind.name] += 1
        if instr.lanes > 1:
            mix.vector_instrs += 1
        if instr.kind == Kind.FP:
            mix.fp_by_format[instr.fmt.name] += 1
        elif instr.kind == Kind.CAST:
            mix.cast_instrs += 1
        elif instr.kind == Kind.BRANCH and instr.taken:
            mix.taken_branches += 1
    return mix


# ----------------------------------------------------------------------
# Cluster: per-Instr cores under the shared-FPU wave loop
# ----------------------------------------------------------------------
class _Core:
    """Replay state of one core (mirrors ``simulate_timing`` exactly)."""

    __slots__ = (
        "core_id",
        "instrs",
        "override",
        "pc",
        "cycle",
        "ready",
        "last_writeback",
        "timing",
        "own_fpu",
        "contention_stalls",
        "_own_earliest",
    )

    def __init__(
        self,
        core_id: int,
        instrs: list[Instr],
        override: dict[str, int] | None,
    ) -> None:
        self.core_id = core_id
        self.instrs = instrs
        self.override = override
        self.pc = 0
        self.cycle = 0  # next free issue slot
        self.ready: dict[int, int] = {}
        self.last_writeback = 0
        self.timing = Timing(instructions=len(instrs))
        #: The hazards this core imposes on *itself* (its div/sqrt
        #: shadow); the gap between this and the shared instance's
        #: availability is, by definition, contention.
        self.own_fpu = FpuOccupancy()
        self.contention_stalls = 0
        self._own_earliest: int | None = None

    @property
    def done(self) -> bool:
        return self.pc >= len(self.instrs)

    @property
    def next_is_fp(self) -> bool:
        return self.instrs[self.pc].kind == Kind.FP

    def own_earliest(self) -> int:
        """Earliest issue cycle under this core's private hazards only."""
        if self._own_earliest is None:
            instr = self.instrs[self.pc]
            earliest = self.cycle
            for src in instr.srcs:
                when = self.ready.get(src, 0)
                if when > earliest:
                    earliest = when
            if instr.kind == Kind.FP:
                earliest = self.own_fpu.earliest_issue(earliest)
            self._own_earliest = earliest
        return self._own_earliest

    def issue(self, t: int, shared_fpu: FpuOccupancy | None) -> None:
        """Issue the next instruction at cycle ``t`` (>= own_earliest)."""
        instr = self.instrs[self.pc]
        stall = t - self.cycle
        self.contention_stalls += t - self.own_earliest()
        consumed = 1  # the issue slot itself
        if instr.kind == Kind.BRANCH and instr.taken:
            consumed += BRANCH_TAKEN_PENALTY

        latency = result_latency(instr, self.override)
        if instr.dst is not None:
            done = t + latency
            self.ready[instr.dst] = done
            if done > self.last_writeback:
                self.last_writeback = done
        if instr.kind == Kind.FP:
            sequential = instr.op in SEQUENTIAL_OPS
            shared_fpu.note_issue_flagged(sequential, t, latency)
            self.own_fpu.note_issue_flagged(sequential, t, latency)

        self.cycle = t + consumed
        self.timing.stall_cycles += stall
        self.timing.add_class_cycles(classify(instr), stall + consumed)
        self.pc += 1
        self._own_earliest = None

    def finish(self) -> None:
        self.timing.cycles = max(self.cycle, self.last_writeback)


def simulate_cluster_timing(
    streams: list[list[Instr]],
    config: ClusterConfig,
    fp_latency_override: dict[str, int] | None = None,
) -> list[CoreResult]:
    """Replay one stream per core against the shared FPU instances."""
    if len(streams) != config.n_cores:
        raise ValueError(
            f"{config.n_cores}-core cluster needs {config.n_cores} "
            f"streams, got {len(streams)}"
        )
    cores = [
        _Core(i, instrs, fp_latency_override)
        for i, instrs in enumerate(streams)
    ]
    fpus = [FpuOccupancy() for _ in range(config.n_fpus)]
    active = [core for core in cores if not core.done]

    while active:
        # The next cycle at which anything can happen: every core's
        # earliest issue under both its own hazards and its shared
        # FPU's current occupancy.
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

        # Non-FP instructions issue at t; FP requesters are granted one
        # per FPU by interleaved round-robin.
        requesters: dict[int, list[_Core]] = {}
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


def cluster_report_legacy(
    programs: list[Program],
    config: ClusterConfig,
    fp_latency_override: dict[str, int] | None = None,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    name: str | None = None,
    serial_cycles: int | None = None,
) -> ClusterReport:
    """``ClusterPlatform.run`` with every replay on the loops above."""
    results = simulate_cluster_timing(
        [list(program.instrs) for program in programs],
        config,
        fp_latency_override,
    )
    reports = [
        assemble_report_legacy(program, result.timing, energy_model)
        for program, result in zip(programs, results)
    ]
    makespan = max((r.cycles for r in reports), default=0)
    if serial_cycles is None and config.n_cores == 1:
        serial_cycles = makespan
    return ClusterReport(
        program=name if name is not None else programs[0].name,
        config=config,
        cores=reports,
        contention_stalls=[r.contention_stalls for r in results],
        serial_cycles=serial_cycles,
        fpu_static_pj=config.n_fpus * makespan * FPU_STATIC_PJ_PER_CYCLE,
    )


# ----------------------------------------------------------------------
# Numeric forms, one covariance cell / deflation row / query at a time
# ----------------------------------------------------------------------
def pca_numeric_per_cell(app, binding, input_id: int = 0) -> np.ndarray:
    """``PcaApp.run_numeric`` with a loop per covariance cell and per
    deflation row."""
    data_np = pca_inputs(app.scale, input_id)
    data_fmt = app._fmt(binding, "data")
    mean_fmt = app._fmt(binding, "mean")
    cov_fmt = app._fmt(binding, "cov")
    eig_fmt = app._fmt(binding, "eigvec")
    proj_fmt = app._fmt(binding, "proj")

    n, d = app.scale.pca_samples, app.scale.pca_dims
    inv_n = 1.0 / n

    x = FlexFloatArray(data_np, data_fmt)

    # --- column means -------------------------------------------------
    mean_region = wider(data_fmt, mean_fmt)
    xr = x if data_fmt == mean_region else x.cast(mean_region)
    mean = xr.sum(axis=0) * inv_n
    mean_s = mean if mean_fmt == mean_region else mean.cast(mean_fmt)

    # --- centering (compiler-vectorizable elementwise loop) -----------
    center_region = wider(data_fmt, mean_fmt)

    def center() -> FlexFloatArray:
        a = x if data_fmt == center_region else x.cast(center_region)
        m = (
            mean_s
            if mean_fmt == center_region
            else mean_s.cast(center_region)
        )
        out = a - m
        return out if data_fmt == center_region else out.cast(data_fmt)

    if lanes_for(center_region) > 1:
        with vectorizable():
            centered = center()
    else:
        centered = center()

    # --- covariance ----------------------------------------------------
    cov_region = wider(data_fmt, cov_fmt)
    vector_cov = app.manual_vectorize and lanes_for(cov_region) > 1

    cov_np = np.zeros((d, d))
    cov_store = FlexFloatArray(cov_np, cov_fmt)
    for i in range(d):
        ci = centered[:, i]
        if data_fmt != cov_region:
            ci = ci.cast(cov_region)
        for j in range(i, d):
            cj = centered[:, j]
            if data_fmt != cov_region:
                cj = cj.cast(cov_region)

            def cell() -> FlexFloat:
                return (ci * cj).sum() * FlexFloat(inv_n, cov_region)

            if vector_cov:
                with vectorizable():
                    value = cell()
            else:
                value = cell()
            stored = (
                value
                if cov_fmt == cov_region
                else value.cast(cov_fmt)
            )
            cov_store[i, j] = stored
            cov_store[j, i] = stored

    # --- power iteration with deflation --------------------------------
    eig_region = wider(cov_fmt, eig_fmt)
    vector_eig = app.manual_vectorize and lanes_for(eig_region) > 1
    proj_region = wider(data_fmt, eig_fmt)
    vector_proj = app.manual_vectorize and lanes_for(proj_region) > 1

    proj_out = np.zeros((n, COMPONENTS))
    start = 1.0 / float(np.sqrt(d))
    for comp in range(COMPONENTS):
        v = FlexFloatArray(np.full(d, start), eig_fmt)
        for _ in range(app.scale.pca_iters):

            def matvec() -> FlexFloatArray:
                c = (
                    cov_store
                    if cov_fmt == eig_region
                    else cov_store.cast(eig_region)
                )
                vv = v if eig_fmt == eig_region else v.cast(eig_region)
                return (c * vv).sum(axis=1)

            if vector_eig:
                with vectorizable():
                    w = matvec()
                    norm2 = (w * w).sum()
            else:
                w = matvec()
                norm2 = (w * w).sum()
            # Normalisation on the sequential binary32 unit.
            sqrt_fmt = wider(eig_region, BINARY32)
            norm2_32 = (
                norm2
                if norm2.fmt == sqrt_fmt
                else norm2.cast(sqrt_fmt)
            )
            norm = sqrt(norm2_32)
            inv = FlexFloat(1.0, sqrt_fmt) / norm
            w32 = w if w.fmt == sqrt_fmt else w.cast(sqrt_fmt)
            scaled = w32 * inv
            v = (
                scaled
                if eig_fmt == sqrt_fmt
                else scaled.cast(eig_fmt)
            )

        # Rayleigh quotient and deflation.
        if vector_eig:
            with vectorizable():
                w = matvec()
        else:
            w = matvec()
        vr = v if eig_fmt == eig_region else v.cast(eig_region)
        lam = (vr * w).sum()
        lam_c = lam if eig_region == cov_fmt else lam.cast(cov_fmt)
        for i in range(d):
            row = cov_store[i, :]
            vi = vr[i]
            correction = vr * float(vi) * float(lam_c)
            correction = (
                correction
                if cov_fmt == eig_region
                else correction.cast(cov_fmt)
            )
            cov_store[i, :] = row - correction

        # Projection of every sample onto the component.
        def project() -> FlexFloatArray:
            c = (
                centered
                if data_fmt == proj_region
                else centered.cast(proj_region)
            )
            vv = v if eig_fmt == proj_region else v.cast(proj_region)
            return (c * vv).sum(axis=1)

        if vector_proj:
            with vectorizable():
                p = project()
        else:
            p = project()
        p_s = p if proj_fmt == proj_region else p.cast(proj_fmt)
        proj_out[:, comp] = p_s.to_numpy()
    return proj_out.reshape(-1)


def svm_numeric_per_query(app, binding, input_id: int = 0) -> np.ndarray:
    """``SvmApp.run_numeric`` with a loop over the queries."""
    support_np, alpha_np, bias_np, queries_np = svm_inputs(
        app.scale, input_id
    )
    sv_fmt = app._fmt(binding, "support")
    al_fmt = app._fmt(binding, "alpha")
    bi_fmt = app._fmt(binding, "bias")
    in_fmt = app._fmt(binding, "inputs")
    kv_fmt = app._fmt(binding, "kvals")
    sc_fmt = app._fmt(binding, "scores")

    dot_region = wider(wider(sv_fmt, in_fmt), kv_fmt)
    acc_region = wider(wider(al_fmt, sc_fmt), kv_fmt)

    support = FlexFloatArray(support_np, sv_fmt)
    alpha = FlexFloatArray(alpha_np, al_fmt)
    bias = FlexFloatArray(bias_np, bi_fmt)
    queries = FlexFloatArray(queries_np, in_fmt)

    m = app.scale.svm_queries
    c = app.scale.svm_classes

    scores = np.zeros((m, c))
    for q in range(m):
        # Casts happen per scan, matching the kernel form: narrow
        # operands are converted as they stream out of memory.
        sv_r = (
            support if sv_fmt == dot_region else support.cast(dot_region)
        )
        al_r = alpha if al_fmt == acc_region else alpha.cast(acc_region)
        bi_r = bias if bi_fmt == acc_region else bias.cast(acc_region)
        query = queries[q]
        if in_fmt != dot_region:
            query = query.cast(dot_region)

        def dots() -> FlexFloatArray:
            return (sv_r * query).sum(axis=1)

        if lanes_for(dot_region) > 1:
            with vectorizable():
                d = dots()
        else:
            d = dots()
        # Polynomial kernel: evaluated where the dots live, then
        # stored through the kvals accumulator format.
        k = d * GAMMA + COEF0
        k = k * k * k
        if dot_region != kv_fmt:
            k = k.cast(kv_fmt)
        if kv_fmt != acc_region:
            k = k.cast(acc_region)

        def accumulate() -> FlexFloatArray:
            return (al_r * k.reshape(-1, 1)).sum(axis=0)

        if lanes_for(acc_region) > 1:
            with vectorizable():
                sc = accumulate()
        else:
            sc = accumulate()
        sc = sc + bi_r
        if sc_fmt != acc_region:
            sc = sc.cast(sc_fmt)
        scores[q] = sc.to_numpy()
    return scores.reshape(-1)


def conv_numeric_flexfloat(app, binding, input_id: int = 0) -> np.ndarray:
    """``ConvApp.run_numeric`` on :class:`FlexFloatArray`."""
    image_np, kernel_np = conv_inputs(app.scale, input_id)
    img_fmt = app._fmt(binding, "image")
    ker_fmt = app._fmt(binding, "kernel")
    out_fmt = app._fmt(binding, "out")
    region = wider(wider(img_fmt, ker_fmt), out_fmt)

    image = FlexFloatArray(image_np, img_fmt)
    kernel = FlexFloatArray(kernel_np, ker_fmt)
    # The compiler hoists the 25 taps out of the pixel loops: one cast
    # per tap, not per use.
    taps = kernel if ker_fmt == region else kernel.cast(region)

    k = app.scale.conv_kernel
    out_n = app.scale.conv_size - k + 1

    def body() -> FlexFloatArray:
        acc = FlexFloatArray(np.zeros((out_n, out_n)), region)
        for dr in range(k):
            for dc in range(k):
                window = image[dr : dr + out_n, dc : dc + out_n]
                if img_fmt != region:
                    window = window.cast(region)
                acc = acc + window * taps[dr, dc]
        return acc

    if lanes_for(region) > 1:
        with vectorizable():
            acc = body()
    else:
        acc = body()
    result = acc if out_fmt == region else acc.cast(out_fmt)
    return result.to_numpy().reshape(-1)


def dwt_numeric_flexfloat(app, binding, input_id: int = 0) -> np.ndarray:
    """``DwtApp.run_numeric`` on :class:`FlexFloatArray`."""
    signal_np = dwt_inputs(app.scale, input_id)
    sig_fmt = app._fmt(binding, "signal")
    lo_fmt = app._fmt(binding, "lowpass")
    hi_fmt = app._fmt(binding, "highpass")
    out_fmt = app._fmt(binding, "coeffs")
    region = wider(
        wider(sig_fmt, out_fmt), wider(lo_fmt, hi_fmt)
    )

    lo = FlexFloatArray(_DB2_LO, lo_fmt)
    hi = FlexFloatArray(_DB2_HI, hi_fmt)
    # Filter taps are hoisted: one conversion each.
    lo_r = lo if lo_fmt == region else lo.cast(region)
    hi_r = hi if hi_fmt == region else hi.cast(region)

    approx = FlexFloatArray(signal_np, sig_fmt)
    pieces: list[np.ndarray] = []
    for _ in range(app.scale.dwt_levels):
        n = len(approx)
        half = n // 2

        def level() -> tuple[FlexFloatArray, FlexFloatArray]:
            a = approx if sig_fmt == region else approx.cast(region)
            lo_acc = FlexFloatArray(np.zeros(half), region)
            hi_acc = FlexFloatArray(np.zeros(half), region)
            for t in range(TAPS):
                idx = (2 * np.arange(half) + t) % n
                window = a.take(idx)
                lo_acc = lo_acc + window * lo_r[t]
                hi_acc = hi_acc + window * hi_r[t]
            return lo_acc, hi_acc

        if lanes_for(region) > 1:
            with vectorizable():
                lo_acc, hi_acc = level()
        else:
            lo_acc, hi_acc = level()

        detail = hi_acc if out_fmt == region else hi_acc.cast(out_fmt)
        pieces.append(detail.to_numpy())
        next_approx = (
            lo_acc if sig_fmt == region else lo_acc.cast(sig_fmt)
        )
        approx = next_approx

    final = approx if out_fmt == sig_fmt else approx.cast(out_fmt)
    ordered = [final.to_numpy()] + list(reversed(pieces))
    return np.concatenate(ordered)


def jacobi_numeric_flexfloat(app, binding, input_id: int = 0) -> np.ndarray:
    """``JacobiApp.run_numeric`` on :class:`FlexFloatArray`."""
    grid_np, source_np = jacobi_inputs(app.scale, input_id)
    grid_fmt = app._fmt(binding, "grid")
    src_fmt = app._fmt(binding, "source")
    region = wider(grid_fmt, src_fmt)

    grid = FlexFloatArray(grid_np, grid_fmt)
    source = FlexFloatArray(source_np, src_fmt)
    quarter = 0.25  # exact in every format

    for _ in range(app.scale.jacobi_iters):
        g = grid if grid_fmt == region else grid.cast(region)
        s = source if src_fmt == region else source.cast(region)
        up = g[:-2, 1:-1]
        down = g[2:, 1:-1]
        left = g[1:-1, :-2]
        right = g[1:-1, 2:]
        interior = ((up + down) + (left + right)) * quarter
        interior = interior + s[1:-1, 1:-1]
        if region != grid_fmt:
            interior = interior.cast(grid_fmt)
        # Convergence monitoring, as real solvers do every sweep:
        # the residual is the largest cell update.
        old_inner = grid[1:-1, 1:-1]
        abs(interior - old_inner).max()
        new = grid.copy()
        new[1:-1, 1:-1] = interior
        grid = new
    inner = grid[1:-1, 1:-1]
    return inner.to_numpy().reshape(-1)


def knn_numeric_flexfloat(app, binding, input_id: int = 0) -> np.ndarray:
    """``KnnApp.run_numeric`` on :class:`FlexFloatArray`."""
    train_np, values_np, query_np = knn_inputs(app.scale, input_id)
    train_fmt = app._fmt(binding, "train")
    values_fmt = app._fmt(binding, "values")
    query_fmt = app._fmt(binding, "query")
    dist_fmt = app._fmt(binding, "dist")
    region = wider(wider(train_fmt, query_fmt), dist_fmt)
    k = app.scale.knn_k

    train = FlexFloatArray(train_np, train_fmt)
    values = FlexFloatArray(values_np, values_fmt)
    query = FlexFloatArray(query_np, query_fmt)

    def body() -> FlexFloatArray:
        t = train if train_fmt == region else train.cast(region)
        q = query if query_fmt == region else query.cast(region)
        diff = t - q  # broadcast over rows
        return (diff * diff).sum(axis=1)

    if lanes_for(region) > 1:
        with vectorizable():
            d2 = body()
    else:
        d2 = body()
    dist = d2 if dist_fmt == region else d2.cast(dist_fmt)

    # Top-k selection: comparisons only (no slice arithmetic).  The
    # hardware runs n*k compare-and-keep steps; record them so Fig. 5
    # style statistics see the comparison traffic.
    record_op(dist_fmt, "cmp", len(dist) * k)
    order = np.argsort(dist.to_numpy(), kind="stable")[:k]

    # Regression estimate: mean target of the winners (k is a power
    # of two, so 1/k is exact in every format).
    estimate = values.take(order).sum() * (1.0 / k)

    # Euclidean roots of the winners: the platform's sequential sqrt
    # is binary32, so narrower accumulators cast up first.  (With the
    # binary64 reference binding the root stays in binary64: this
    # path defines the exact output.)
    root_fmt = wider(dist_fmt, BINARY32)
    roots = []
    for idx in order:
        value = dist[int(idx)]
        as_root = value.cast(root_fmt) if dist_fmt != root_fmt else value
        roots.append(float(sqrt(as_root)))
    return np.concatenate([[float(estimate)], np.asarray(roots)])


#: Each app's one-binding numeric oracle, by app name.
NUMERIC_ORACLES = {
    "jacobi": jacobi_numeric_flexfloat,
    "knn": knn_numeric_flexfloat,
    "pca": pca_numeric_per_cell,
    "dwt": dwt_numeric_flexfloat,
    "svm": svm_numeric_per_query,
    "conv": conv_numeric_flexfloat,
}


# ----------------------------------------------------------------------
# Tuning, one evaluation at a time
# ----------------------------------------------------------------------
class SequentialSearch(DistributedSearch):
    """:class:`DistributedSearch` with phases 2 and 3 evaluating one
    candidate at a time: each variable's bisection runs to its end before
    the next starts, and the repair trials run one by one."""

    def tune_single_input(self, input_id: int = 0) -> dict[str, int]:
        at_max = {name: self._max_p for name in self._names}
        if not self._meets(at_max, input_id):
            raise InfeasibleError(
                f"{self._program.name}: target {self._target:.1f} dB "
                f"unreachable at {self._max_p} precision bits "
                f"(got {self.evaluate(at_max, input_id):.1f} dB)"
            )
        current = {
            name: self._independent_minimum(name, input_id)
            for name in self._names
        }
        while not self._meets(current, input_id):
            self.grant_best_bit(current, input_id)
        return current

    def _independent_minimum(self, name: str, input_id: int) -> int:
        lo, hi = 1, self._max_p
        while lo < hi:
            mid = (lo + hi) // 2
            candidate = {n: self._max_p for n in self._names}
            candidate[name] = mid
            if self._meets(candidate, input_id):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def grant_best_bit(self, current: dict[str, int], input_id: int) -> None:
        base = self.evaluate(current, input_id)
        best_name = None
        best_gain = -math.inf
        for name in self._names:
            if current[name] >= self._max_p:
                continue
            trial = dict(current)
            trial[name] += 1
            gain = self.evaluate(trial, input_id) - base
            if gain > best_gain:
                best_gain = gain
                best_name = name
        if best_name is None:
            raise InfeasibleError(
                f"{self._program.name}: greedy repair exhausted at max "
                f"precision without meeting {self._target:.1f} dB"
            )
        current[best_name] += 1


class SequentialCastAwareSearch(SequentialSearch, CastAwareSearch):
    """:class:`CastAwareSearch` over :class:`SequentialSearch`."""


# ----------------------------------------------------------------------
# Kernel values: the builder that computes what it emits
# ----------------------------------------------------------------------
#: RISC-V ``fcvt.w`` saturation bounds.
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


class ValueProgram(Program):
    """A built program together with its arrays' final contents."""

    def __init__(self, name, instrs, arrays, data) -> None:
        super().__init__(name, instrs, arrays)
        self.data = data

    def output(self, name: str) -> np.ndarray:
        """The final contents of an array (the program's result)."""
        return self.data[name].copy()


class ValueBuilder(KernelBuilder):
    """A :class:`KernelBuilder` that also computes every value it emits.

    Each emit method emits through ``super()``, so the stream is the
    shipped builder's, and then computes the new register's value
    bit-exactly: a float (or a tuple of lane floats) in a loop, with the
    reference scalar quantizer; an array over the open sweeps'
    iterations (with a trailing lane axis when packed) in a sweep, with
    the session backend's array path.  Arrays hold float64 contents,
    rounded to their format on every store; :meth:`program` returns a
    :class:`ValueProgram` that reads them.

    A sweep's body runs once, so its loads read the arrays as they are
    at that point.  That equals the loop's values only if no iteration
    reads what another one writes, so the array path guards the two
    memory rules of a sweep nest: it loads no element it stores, and it
    stores no element twice.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: Register -> its value.
        self.values: dict = {}
        #: Array name -> float64 contents.
        self.data: dict[str, np.ndarray] = {}
        #: Index arrays of the open sweeps, outermost first.
        self._indices: list[np.ndarray] = []
        #: Array name -> (loaded, stored) element masks of the open nest.
        self._access: dict = {}

    def alloc(self, name, values, fmt):
        ref = super().alloc(name, values, fmt)
        flat = np.array(values, dtype=np.float64).reshape(-1)
        self.data[name] = flat if fmt is None else quantize_array(flat, fmt)
        return ref

    def sweep(self, n, soft=False):
        if not self._indices:
            self._access = {}
        for idx in super().sweep(n, soft):
            self._indices.append(idx)
            try:
                yield idx
            finally:
                self._indices.pop()

    def program(self) -> ValueProgram:
        program = super().program()
        return ValueProgram(
            program.name, program.stream, program.arrays, self.data
        )

    # -- registers ------------------------------------------------------
    def _set(self, reg, value):
        self.values[reg] = value
        return reg

    def _value(self, value: np.ndarray, lanes: int):
        """An array-path result as a register value: the array itself
        inside a sweep, else a float or a tuple of ``lanes`` floats."""
        if self._indices:
            return value
        if lanes == 1:
            return float(value)
        return tuple(value.tolist())

    def li(self, value):
        return self._set(super().li(value), value)

    def alu(self, value, *srcs):
        return self._set(super().alu(value, *srcs), value)

    def fconst(self, value, fmt):
        return self._set(
            super().fconst(value, fmt), quantize(float(value), fmt)
        )

    def vconst(self, values, fmt):
        return self._set(
            super().vconst(values, fmt),
            tuple([quantize(float(v), fmt) for v in values]),
        )

    def select_lanes(self, reg, start, count):
        value = self.values[reg]
        if type(value) is tuple:
            value = value[start] if count == 1 else value[start:start + count]
        elif count == 1:
            value = value[..., start]
        else:
            value = value[..., start:start + count]
        return self._set(super().select_lanes(reg, start, count), value)

    def pack(self, *regs):
        if self._indices:
            value = np.stack(np.broadcast_arrays(
                *[_array(self.values[r]) for r in regs]
            ), axis=-1)
        else:
            value = tuple([float(self.values[r]) for r in regs])
        return self._set(super().pack(*regs), value)

    def fp(self, op, fmt, a, b):
        reg = super().fp(op, fmt, a, b)
        x, y = self.values[a], self.values[b]
        if self._indices:
            x, y = _array(x), _array(y)
            if op == "cmp":
                value = np.less(x, y).astype(np.float64)
            else:
                value = binary_array(op, x, y, fmt)
        elif reg.lanes == 1:
            value = _scalar_fp(op, float(x), float(y), fmt)
        else:
            value = tuple([_scalar_fp(op, u, v, fmt) for u, v in zip(x, y)])
        return self._set(reg, value)

    def fma(self, fmt, a, b, c):
        reg = super().fma(fmt, a, b, c)
        fused = np.frompyfunc(
            lambda x, y, z: fused_multiply_add(x, y, z, fmt), 3, 1
        )
        with np.errstate(invalid="ignore", over="ignore"):
            value = fused(*[_array(self.values[r]) for r in (a, b, c)])
        return self._set(
            reg, self._value(np.asarray(value, dtype=np.float64), reg.lanes)
        )

    def fsqrt(self, fmt, a):
        """IEEE 754: the root of -0 is -0 and of a negative number NaN."""
        reg = super().fsqrt(fmt, a)
        x = _array(self.values[a])
        with np.errstate(invalid="ignore"):
            root = np.where(x < 0, math.nan, np.sqrt(x))
        return self._set(reg, self._value(quantize_array(root, fmt), 1))

    def cast(self, reg, src_fmt, dst_fmt):
        """FP->int converts like RISC-V ``fcvt.w``: ties to even in
        range, NaN and large positive values saturate to 2**31 - 1,
        large negative ones to -2**31."""
        new = super().cast(reg, src_fmt, dst_fmt)
        value, lanes = self.values[reg], reg.lanes
        if dst_fmt is None:
            out = self._value(_fcvt_w(_array(value)), lanes)
        elif self._indices:
            out = quantize_array(_array(value), dst_fmt)
        elif lanes == 1:
            out = quantize(float(value), dst_fmt)
        else:
            out = tuple([quantize(float(v), dst_fmt) for v in value])
        return self._set(new, out)

    # -- memory -----------------------------------------------------------
    def load(self, arr, index, lanes=1):
        reg = super().load(arr, index, lanes)
        data = self.data[arr.name]
        if self._indices:
            elems = _elements(index, lanes)
            self._guard(arr, elems, store=False)
            value = data[elems]
        elif lanes == 1:
            value = float(data[index])
        else:
            value = tuple(data[index:index + lanes].tolist())
        return self._set(reg, value)

    def store(self, arr, index, reg):
        super().store(arr, index, reg)
        data, fmt, lanes = self.data[arr.name], arr.fmt, reg.lanes
        value = self.values[reg]
        if self._indices:
            # Every iteration stores, whatever its index depends on.
            elems = _elements(index, lanes)
            grid = np.broadcast_shapes(*[i.shape for i in self._indices])
            grid += (lanes,) if lanes != 1 else ()
            elems = np.broadcast_to(
                elems, np.broadcast_shapes(elems.shape, grid)
            )
            self._guard(arr, elems, store=True)
            values = np.broadcast_to(_array(value), elems.shape)
            if fmt is not None:
                values = quantize_array(values, fmt)
            data[elems] = values
        elif lanes == 1:
            data[index] = value if fmt is None else quantize(float(value), fmt)
        else:
            for offset, v in enumerate(value):
                if fmt is not None:
                    v = quantize(float(v), fmt)
                data[index + offset] = v

    def _guard(self, arr, elems: np.ndarray, store: bool) -> None:
        """The sweep nest's memory rules, on the elements it touches."""
        masks = self._access.get(arr.name)
        if masks is None:
            masks = self._access[arr.name] = (
                np.zeros(len(arr), dtype=bool), np.zeros(len(arr), dtype=bool)
            )
        loaded, stored = masks
        flat = elems.ravel()
        if (loaded if store else stored)[flat].any():
            raise ValueError(
                f"sweep loads an element of {arr.name!r} it stores"
            )
        if not store:
            loaded[flat] = True
            return
        before = np.count_nonzero(stored)
        stored[flat] = True
        if np.count_nonzero(stored) - before != flat.size:
            raise ValueError(f"sweep stores an element of {arr.name!r} twice")


@contextmanager
def kernel_values():
    """Build app kernels with :class:`ValueBuilder`.

    Inside the block every app module's ``KernelBuilder`` is the
    oracle, so each build (``build_program``, ``partition``) returns
    :class:`ValueProgram` objects with the shipped builder's streams and
    the values that go with them.
    """
    modules = {sys.modules[cls.__module__] for cls in APP_CLASSES.values()}
    saved = {module: module.KernelBuilder for module in modules}
    for module in modules:
        module.KernelBuilder = ValueBuilder
    try:
        yield
    finally:
        for module, builder in saved.items():
            module.KernelBuilder = builder


def _array(value) -> np.ndarray:
    """A register value as float64 (tuples become a lane axis)."""
    return np.asarray(value, dtype=np.float64)


def _scalar_fp(op: str, x: float, y: float, fmt) -> float:
    """One lane of :meth:`ValueBuilder.fp` on raw doubles.  A compare
    gives 1 or 0, exact in every format, as on the array path."""
    if op == "cmp":
        return 1.0 if x < y else 0.0
    return quantize(SCALAR_OPS[op](x, y), fmt)


def _elements(index, lanes: int) -> np.ndarray:
    """The element indices an access touches (trailing lane axis when
    packed)."""
    elems = np.asarray(index, dtype=np.int64)
    if lanes != 1:
        elems = elems[..., None] + np.arange(lanes)
    return elems


def _fcvt_w(x: np.ndarray) -> np.ndarray:
    """RISC-V ``fcvt.w``: round to nearest even, saturate, NaN -> max
    (``+ 0.0`` turns rint's -0.0 into the integer 0)."""
    x = np.where(x != x, INT32_MAX, x)
    return np.clip(np.rint(x), INT32_MIN, INT32_MAX) + 0.0
