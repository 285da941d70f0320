"""The virtual platform: timing + memory + energy for one program run.

Equivalent of the paper's PULPino virtual platform runs (§V-A): executes
a built kernel, then reports cycles, memory accesses, FP operation
counts and the Fig. 7 energy split in one :class:`RunReport`.
:meth:`VirtualPlatform.run_app` builds an application's kernel and
replays it once per session, memoizing the report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .columnar import energy_split_columns, simulate_program_timing
from repro.core.context import current_context
from repro.telemetry import span as _span

from .cpu import Timing
from .energy import DEFAULT_ENERGY_MODEL, EnergyBreakdown
from .memory import MemoryStats
from .program import Program

__all__ = ["RunReport", "VirtualPlatform", "assemble_report", "kernel_key"]


@dataclass
class RunReport:
    """Everything the experiment drivers need from one program run."""

    program: str
    timing: Timing
    memory: MemoryStats
    energy: EnergyBreakdown
    #: FP arithmetic instruction counts keyed by (format name, op, lanes).
    fp_instrs: Counter
    #: Cast instruction counts keyed by (src name, dst name, lanes).
    cast_instrs: Counter

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.timing.cycles

    @property
    def instructions(self) -> int:
        return self.timing.instructions

    @property
    def memory_accesses(self) -> int:
        return self.memory.total

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    def fp_operations(self) -> dict[tuple[str, str, bool], int]:
        """Elementwise FP operation counts (lanes expanded), keyed by
        (format, op, vector) -- the quantity plotted in Fig. 5."""
        out: Counter = Counter()
        for (fmt, op, lanes), n in self.fp_instrs.items():
            out[(fmt, op, lanes > 1)] += n * lanes
        return dict(out)

    def total_fp_operations(self) -> int:
        return sum(
            n * lanes for (_, _, lanes), n in self.fp_instrs.items()
        )

    def total_casts(self) -> int:
        return sum(
            n * lanes for (_, _, lanes), n in self.cast_instrs.items()
        )

    def cast_cycles(self) -> int:
        return self.timing.cycles_by_class.get("cast", 0)

    def vector_cycles(self) -> int:
        return self.timing.cycles_by_class.get("fp_vector", 0)

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; :meth:`from_payload` restores an equal report.

        Counter keys are tuples, which JSON cannot express: they are
        flattened to ``[field..., count]`` rows.
        """
        return {
            "program": self.program,
            "timing": self.timing.to_payload(),
            "memory": self.memory.to_payload(),
            "energy": self.energy.to_payload(),
            "fp_instrs": [
                [fmt, op, lanes, n]
                for (fmt, op, lanes), n in sorted(self.fp_instrs.items())
            ],
            "cast_instrs": [
                [src, dst, lanes, n]
                for (src, dst, lanes), n in sorted(self.cast_instrs.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunReport":
        return cls(
            program=payload["program"],
            timing=Timing.from_payload(payload["timing"]),
            memory=MemoryStats.from_payload(payload["memory"]),
            energy=EnergyBreakdown.from_payload(payload["energy"]),
            fp_instrs=Counter(
                {
                    (fmt, op, int(lanes)): int(n)
                    for fmt, op, lanes, n in payload["fp_instrs"]
                }
            ),
            cast_instrs=Counter(
                {
                    (src, dst, int(lanes)): int(n)
                    for src, dst, lanes, n in payload["cast_instrs"]
                }
            ),
        )


def assemble_report(program: Program, timing: Timing) -> RunReport:
    """Build the full report for one replayed program.

    Shared by :class:`VirtualPlatform` and the multi-core
    :class:`repro.cluster.ClusterPlatform` (which times the streams
    itself, contention included, but accounts memory, energy and
    operation counts by exactly the same rules).  Every analytic runs
    over the program's cached columns, with the calibrated
    :data:`~repro.hardware.energy.DEFAULT_ENERGY_MODEL`; all but the
    stall energy are computed once per program
    (:meth:`~repro.hardware.columnar.ProgramColumns.counters`), and each
    report gets its own copies.
    """
    columns = program.columns()
    memory, fp, casts = columns.counters()
    return RunReport(
        program=program.name,
        timing=timing,
        memory=replace(memory, by_element_bits=dict(memory.by_element_bits)),
        energy=energy_split_columns(
            DEFAULT_ENERGY_MODEL, columns, timing.stall_cycles
        ),
        fp_instrs=Counter(fp),
        cast_instrs=Counter(casts),
    )


def kernel_key(app, binding, input_id: int, vectorize: bool) -> tuple:
    """Everything one kernel build depends on, as a session-memo key.

    The current backend, the app (apps compare by value), the input id,
    ``vectorize``, and each variable's ``(name, exp_bits, man_bits,
    format name)``.  Format names are part of it because
    :class:`~repro.core.FPFormat` equality ignores them, while report
    counters and the energy table are keyed by them: an anonymous
    ``FPFormat(8, 23)`` equals ``binary32`` but has no energy entry.
    """
    return (
        current_context().backend,
        app,
        input_id,
        vectorize,
        tuple(
            (name, fmt.exp_bits, fmt.man_bits, fmt.name)
            for name, fmt in sorted(binding.items())
        ),
    )


class VirtualPlatform:
    """Run programs and collect reports.

    Parameters
    ----------
    fp_latency_override:
        Format-name -> arithmetic-latency map (the 16-bit latency
        ablation); None keeps the FPU's own latencies.
    """

    def __init__(
        self, fp_latency_override: dict[str, int] | None = None
    ) -> None:
        self._fp_latency_override = fp_latency_override

    def run(self, program: Program) -> RunReport:
        """Replay a built kernel through timing, memory and energy.

        The ``platform.run`` span records the expanded ``instructions``
        the replay times and the ``stepped_rows`` it walks.
        """
        with _span("platform.run") as sp:
            traffic: dict = {}
            timing = simulate_program_timing(
                program, self._fp_latency_override, traffic
            )
            report = assemble_report(program, timing)
            if sp is not None:
                sp.attrs["program"] = program.name
                sp.attrs["instructions"] = len(program.instrs)
                sp.attrs["stepped_rows"] = traffic.get("stepped_rows", 0)
        return report

    def run_app(
        self, app, binding, input_id: int = 0, vectorize: bool = True
    ) -> RunReport:
        """Build an application's kernel and replay it, once per session.

        Mirrors :meth:`repro.cluster.ClusterPlatform.run_app`.  The
        report is memoized on the current execution context's ``memo``
        under this platform's latency override and :func:`kernel_key`,
        so every later ask for the same kernel in the session -- another
        flow's baseline, a report variant -- is served without a build
        or a replay.  The memo holds reports, never programs: a
        program's instruction stream is far larger than its report, and
        keeping every build of a cold ``repro all --scale small`` alive
        doubles its peak memory.  A build that misses the memo runs in a
        ``flow.build`` span.
        """
        override = self._fp_latency_override
        key = (
            "report",
            None if override is None else tuple(sorted(override.items())),
        ) + kernel_key(app, binding, input_id, vectorize)
        memo = current_context().memo
        if key not in memo:
            with _span("flow.build"):
                program = app.build_program(binding, input_id, vectorize)
            memo[key] = self.run(program)
        return memo[key]
