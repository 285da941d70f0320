"""The cluster virtual platform: N cores, shared FPUs, one report.

:class:`ClusterPlatform` is the multi-core sibling of
:class:`repro.hardware.VirtualPlatform`: it replays one program per core
through :func:`repro.cluster.engine.simulate_cluster_timing` (shared-FPU
arbitration included) and accounts memory, energy and operation counts
for each core by exactly the single-core rules
(:func:`repro.hardware.assemble_report`), so a one-core 1:1 cluster
reproduces ``VirtualPlatform.run`` bit for bit.

**Energy substitution note:** the cluster papers' headline win of FPU
sharing is amortizing the multi-format datapath -- fewer instances
burning static/clock power for the same work.  The per-event
:class:`~repro.hardware.EnergyModel` has no static term (a single-core
platform always has exactly one FPU), so the cluster adds one:
:data:`FPU_STATIC_PJ_PER_CYCLE` per instantiated FPU per cycle of the
cluster's makespan.  Sharing fewer instances across more cores directly
shrinks this term; contention stalls, conversely, stretch the makespan
every instance pays for.  The constant is chosen so that an idle FPU
costs a modest fraction of a core's per-instruction issue energy,
matching the area ratios reported for FPnew-class units.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware import (
    EnergyBreakdown,
    Program,
    RunReport,
    assemble_report,
    simulate_program_timing,
)

from repro.telemetry import span as _span

from .config import ClusterConfig
from .engine import CoreResult, simulate_cluster_timing

__all__ = ["FPU_STATIC_PJ_PER_CYCLE", "ClusterReport", "ClusterPlatform"]

#: Static/clock energy of one instantiated FPU per cycle of cluster
#: makespan (pJ).  See the module docstring for the calibration.
FPU_STATIC_PJ_PER_CYCLE = 1.5


@dataclass
class ClusterReport:
    """Everything the strong-scaling drivers need from one cluster run."""

    program: str
    config: ClusterConfig
    #: One single-core-rules report per core (timing includes the
    #: core's arbitration stalls; energy/memory/ops follow from its
    #: own stream).
    cores: list[RunReport]
    #: Cycles each core lost waiting on an FPU its own instructions
    #: left free (already included in the core timings' stall cycles).
    contention_stalls: list[int]
    #: Single-core replay of the unpartitioned kernel -- the strong-
    #: scaling baseline; None when the caller didn't supply one.
    serial_cycles: int | None
    #: Static energy of the instantiated FPUs over the makespan.
    fpu_static_pj: float

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Cluster makespan: the slowest core."""
        return max((r.cycles for r in self.cores), default=0)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.cores)

    @property
    def total_contention(self) -> int:
        return sum(self.contention_stalls)

    @property
    def energy(self) -> EnergyBreakdown:
        """Cluster energy: every core's split plus the FPU static term."""
        total = EnergyBreakdown()
        for report in self.cores:
            total.fp_pj += report.energy.fp_pj
            total.mem_pj += report.energy.mem_pj
            total.other_pj += report.energy.other_pj
        total.other_pj += self.fpu_static_pj
        return total

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    @property
    def speedup(self) -> float | None:
        """Serial cycles over cluster makespan (None without a baseline)."""
        if self.serial_cycles is None or self.cycles == 0:
            return None
        return self.serial_cycles / self.cycles

    @property
    def efficiency(self) -> float | None:
        """Parallel efficiency: speedup per instantiated core."""
        speedup = self.speedup
        if speedup is None:
            return None
        return speedup / self.config.n_cores

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; :meth:`from_payload` restores an equal report."""
        return {
            "program": self.program,
            "config": self.config.to_payload(),
            "cores": [report.to_payload() for report in self.cores],
            "contention_stalls": list(self.contention_stalls),
            "serial_cycles": self.serial_cycles,
            "fpu_static_pj": self.fpu_static_pj,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ClusterReport":
        serial = payload["serial_cycles"]
        return cls(
            program=payload["program"],
            config=ClusterConfig.from_payload(payload["config"]),
            cores=[
                RunReport.from_payload(core) for core in payload["cores"]
            ],
            contention_stalls=[
                int(n) for n in payload["contention_stalls"]
            ],
            serial_cycles=int(serial) if serial is not None else None,
            fpu_static_pj=float(payload["fpu_static_pj"]),
        )


class ClusterPlatform:
    """Run per-core programs against shared FPU instances.

    Parameters
    ----------
    config:
        Cluster topology (core count, FPU sharing ratio).
    fp_latency_override:
        Format-name -> arithmetic-latency map (the same knob the
        single-core platform exposes for the latency ablation).
    """

    def __init__(
        self,
        config: ClusterConfig,
        fp_latency_override: dict[str, int] | None = None,
    ) -> None:
        self.config = config
        self._fp_latency_override = fp_latency_override

    # ------------------------------------------------------------------
    def run(
        self,
        programs: list[Program],
        name: str | None = None,
        serial_cycles: int | None = None,
    ) -> ClusterReport:
        """Replay one program per core; returns the cluster report.

        ``serial_cycles`` is the single-core replay of the unpartitioned
        kernel (the strong-scaling baseline).  A one-core cluster *is*
        its own baseline, so it defaults to the makespan there -- a
        one-core report always shows speedup exactly 1.0.

        The ``cluster.run`` span records the replay's traffic: the
        expanded ``instructions`` it times, the ``stepped_rows`` it
        walks, the ``fpu_ratio`` and the shared groups' joint-state
        ``skips``.
        """
        if len(programs) != self.config.n_cores:
            raise ValueError(
                f"{self.config.n_cores}-core cluster needs one program "
                f"per core, got {len(programs)}"
            )
        with _span("cluster.run") as sp:
            if sp is not None:
                sp.attrs["cores"] = self.config.n_cores
                sp.attrs["program"] = (
                    name if name is not None else programs[0].name
                )
            results = simulate_cluster_timing(
                [program.columns() for program in programs],
                self.config,
                self._fp_latency_override,
            )
            report = self._report(programs, results, name, serial_cycles)
            if sp is not None:
                sp.attrs["fpu_ratio"] = self.config.fpu_ratio
                sp.attrs["instructions"] = report.instructions
                sp.attrs["stepped_rows"] = sum(
                    r.stepped_rows for r in results
                )
                sp.attrs["skips"] = sum(r.skips for r in results)
            return report

    def _report(
        self,
        programs: list[Program],
        results: list[CoreResult],
        name: str | None,
        serial_cycles: int | None,
    ) -> ClusterReport:
        reports = [
            assemble_report(program, result.timing)
            for program, result in zip(programs, results)
        ]
        makespan = max((r.cycles for r in reports), default=0)
        if serial_cycles is None and self.config.n_cores == 1:
            serial_cycles = makespan
        return ClusterReport(
            program=name if name is not None else programs[0].name,
            config=self.config,
            cores=reports,
            contention_stalls=[r.contention_stalls for r in results],
            serial_cycles=serial_cycles,
            fpu_static_pj=(
                self.config.n_fpus * makespan * FPU_STATIC_PJ_PER_CYCLE
            ),
        )

    def run_app(
        self,
        app,
        binding,
        input_id: int = 0,
        vectorize: bool = True,
        serial_cycles: int | None = None,
    ) -> ClusterReport:
        """Partition an application across the cores and replay it.

        Uses :meth:`repro.apps.TransprecisionApp.partition` for the
        per-core streams.  The strong-scaling baseline is the
        *unpartitioned* kernel on a single core: pass ``serial_cycles``
        when you already have it (a topology sweep re-uses one baseline
        per app/binding), otherwise it is built and timed here (skipped
        for a one-core cluster, which is its own baseline).
        """
        n = self.config.n_cores
        programs = app.partition(n, binding, input_id, vectorize)
        if serial_cycles is None and n > 1:
            serial = app.build_program(binding, input_id, vectorize)
            serial_cycles = simulate_program_timing(
                serial, self._fp_latency_override
            ).cycles
        return self.run(programs, name=app.name, serial_cycles=serial_cycles)
