"""What a job *means*: flow execution and derived report variants.

The runner's unit of work is a :class:`~repro.runner.store.JobSpec`;
this module maps specs to computations:

* ``kind="flow"`` -- the five-step transprecision flow for one
  (app, scale, type system, precision) grid point.
* ``kind="report"`` -- a derived virtual-platform replay.  Variants are
  registered in :data:`REPORT_VARIANTS`; the built-ins cover every
  platform run the analysis drivers perform outside the standard flow,
  which is what lets a warm store satisfy ``repro all`` without a single
  recomputation:

  - ``baseline``    binary32, unvectorized (the motivation driver);
  - ``castless``    the tuned kernel with every cast stripped
    (ablation 1: the cast-aware-tuning upper bound);
  - ``fast16``      the tuned kernel with 16-bit FP latency forced to 1
    (ablation 3);
  - ``pca_manual``  PCA rebuilt with hand-vectorized kernels under the
    same tuned binding (Fig. 7's labels 1-3).

Everything here executes under an explicit :class:`repro.session.Session`
so the computation is identical whether it happens in-process (serial
path) or inside a pool worker bootstrapped via ``Session.from_spec``.
"""

from __future__ import annotations

from typing import Callable

from repro.apps import PcaApp, make_app
from repro.cluster import ClusterConfig, ClusterPlatform, ClusterReport
from repro.flow import FlowResult, TransprecisionFlow
from repro.hardware import (
    Kind,
    Program,
    RunReport,
    VirtualPlatform,
    kernel_key,
)
from repro.session import Session
from repro.telemetry import span as _span
from repro.tuning import type_system

from .store import JobSpec

__all__ = [
    "REPORT_VARIANTS",
    "compute_flow",
    "compute_job",
    "compute_report",
    "compute_cluster",
    "strip_casts",
]

#: Callable that yields the FlowResult a report variant derives from.
FlowLoader = Callable[[str, str, float], FlowResult]


def compute_flow(
    job: JobSpec, session: Session, cache_dir=None
) -> FlowResult:
    """Run the five-step flow for one grid point under ``session``.

    ``cache_dir`` overrides the tuning-cache location (default: the
    session's own).
    """
    app = make_app(job.app, job.scale)
    flow = TransprecisionFlow(
        app,
        type_system(job.type_system),
        job.precision,
        cache_dir=cache_dir if cache_dir is not None else session.cache_dir,
        session=session,
        strategy=job.strategy,
    )
    return flow.run()


# ----------------------------------------------------------------------
# Report variants
# ----------------------------------------------------------------------
def strip_casts(program: Program) -> Program:
    """The program with every conversion instruction removed."""
    return Program(
        program.name, program.stream.without_kind(Kind.CAST), program.arrays
    )


def _baseline(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> RunReport:
    app = make_app(job.app, job.scale)
    with session:
        return session.platform.run_app(
            app, app.baseline_binding(), 0, vectorize=False
        )


def _tuned_program(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> Program:
    """The grid point's tuned kernel, built once per session.

    castless and fast16 both start from this program, so it is memoized
    on the session's memo (under the :func:`kernel_key` of its build)
    for the second of them; the memo lives and dies with the session.
    """
    flow = get_flow(job.app, job.type_system, job.precision)
    app = make_app(job.app, job.scale)
    with session:
        key = ("tuned_program",) + kernel_key(app, flow.binding, 0, True)
        memo = session.context.memo
        if key not in memo:
            with _span("flow.build"):
                memo[key] = app.build_program(
                    flow.binding, 0, vectorize=True
                )
        return memo[key]


def _castless(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> RunReport:
    return session.platform.run(
        strip_casts(_tuned_program(job, session, get_flow))
    )


def _fast16(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> RunReport:
    fast16 = VirtualPlatform(
        fp_latency_override={"binary16": 1, "binary16alt": 1}
    )
    return fast16.run(_tuned_program(job, session, get_flow))


def _pca_manual(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> RunReport:
    flow = get_flow(job.app, job.type_system, job.precision)
    manual = PcaApp(job.scale, manual_vectorize=True)
    with session:
        return session.platform.run_app(
            manual, flow.binding, 0, vectorize=True
        )


#: variant name -> (job, session, flow loader) -> RunReport.
REPORT_VARIANTS: dict[str, Callable[..., RunReport]] = {
    "baseline": _baseline,
    "castless": _castless,
    "fast16": _fast16,
    "pca_manual": _pca_manual,
}


def compute_cluster(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> ClusterReport:
    """Partition the job's tuned kernel across a cluster and replay it.

    The tuned binding comes from the parent flow (same grid point,
    same strategy), and the cluster accounts by the single-core rules,
    so a one-core 1:1 cluster job reproduces the flow's tuned report
    bit for bit.  The flow's tuned report is also the strong-scaling
    baseline: its cycles are the single-core replay of the very kernel
    the cluster partitions.
    """
    flow = get_flow(job.app, job.type_system, job.precision)
    app = make_app(job.app, job.scale)
    platform = ClusterPlatform(ClusterConfig(job.cores, job.fpu_ratio))
    with session, _span("cluster.partition"):
        programs = app.partition(job.cores, flow.binding, 0, vectorize=True)
    return platform.run(
        programs, name=app.name, serial_cycles=flow.tuned_report.cycles
    )


def compute_report(
    job: JobSpec, session: Session, get_flow: FlowLoader
) -> RunReport:
    """Run one report variant (``get_flow`` supplies its parent flow)."""
    try:
        variant = REPORT_VARIANTS[job.variant]
    except KeyError:
        known = ", ".join(sorted(REPORT_VARIANTS))
        raise KeyError(
            f"unknown report variant {job.variant!r} (known: {known})"
        ) from None
    return variant(job, session, get_flow)


def compute_job(
    job: JobSpec,
    session: Session,
    get_flow: "FlowLoader | None" = None,
    cache_dir=None,
):
    """Dispatch any :class:`JobSpec` to its computation.

    The single entry point the serial path, the pool workers, and the
    serial fallback all share, so a job means the same thing no matter
    where it executes.  Derived kinds (report, cluster) need a
    ``get_flow`` loader for their parent flow; flows accept an optional
    ``cache_dir`` override.
    """
    if job.kind == "flow":
        return compute_flow(job, session, cache_dir=cache_dir)
    if get_flow is None:
        raise ValueError(
            f"{job.kind!r} jobs derive from a flow; pass get_flow"
        )
    if job.kind == "cluster":
        return compute_cluster(job, session, get_flow)
    if job.kind == "report":
        return compute_report(job, session, get_flow)
    raise ValueError(f"unknown job kind {job.kind!r}")
