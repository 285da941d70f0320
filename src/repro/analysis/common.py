"""Shared infrastructure for the experiment drivers.

Each driver (table1, fig4-fig7, motivation, summary, ablation) exposes
``compute(config) -> dict`` and ``render(result) -> str``; this module
provides the configuration object, runner-backed flow/report access,
grid prefetching, and the plain-text table/bar rendering they share.

Every experiment executes through the config's
:class:`~repro.runner.ExperimentRunner`: results come from (in order)
the runner's in-memory memo, the persistent on-disk result store, or a
fresh computation -- in-process when ``cfg.jobs <= 1``, across a worker
pool otherwise.  Drivers prefetch their whole grid in one
:func:`prefetch` call, so a ``--jobs N`` run shards the expensive flows
across N processes while the driver code below stays a plain loop over
cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.apps import APP_CLASSES, APP_NAMES
from repro.core.backend import Backend
from repro.flow import FlowResult
from repro.hardware import RunReport
from repro.runner import (
    ExperimentRunner,
    JobSpec,
    RetryPolicy,
    default_store_dir,
)
from repro.session import Session, default_cache_dir
from repro.tuning import V1, V2, TypeSystem
from repro.tuning import type_system as _type_system

__all__ = [
    "ExperimentConfig",
    "flow_result",
    "report_result",
    "cluster_result",
    "prefetch",
    "flow_specs",
    "pca_manual_specs",
    "cluster_apps",
    "cluster_specs",
    "default_grid",
    "type_system_by_name",
    "format_table",
    "bar",
    "PRECISION_LABELS",
    "CLUSTER_PRECISION",
]

#: Precision requirement the cluster strong-scaling driver pins (the
#: ablations' convention: the 1e-1 column of the V2 grid).
CLUSTER_PRECISION = 1e-1

#: Paper-style labels for the three precision requirements.
PRECISION_LABELS = {1e-1: "1e-1", 1e-2: "1e-2", 1e-3: "1e-3"}


@dataclass
class ExperimentConfig:
    """Knobs shared by every driver.

    Every config owns (or is handed) a :class:`repro.session.Session`;
    all flows the drivers run execute under it, so the backend choice,
    the statistics state, the tuning cache and the virtual platform are
    decided in exactly one place.  The config also owns an
    :class:`~repro.runner.ExperimentRunner` (built lazily) through which
    every flow and derived platform report is fetched.

    Equality compares the *knobs* only: the session and the runner are
    execution state derived from the knobs, so two configs with
    identical knobs compare equal even after one has run flows.
    """

    scale: str = "paper"
    cache_dir: Path | None = None
    precisions: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    apps: Sequence[str] = APP_NAMES
    #: Backend name/instance used when constructing the default session;
    #: ignored when an explicit ``session`` is passed.
    backend: Backend | str = "reference"
    #: Tuning-strategy name used when constructing the default session;
    #: like ``backend``, ignored when an explicit ``session`` is passed
    #: (the session's own default then applies).
    strategy: str = "greedy"
    #: Strong-scaling axes the cluster driver sweeps: core counts and
    #: FPU sharing ratios (1 FPU per ``ratio`` cores).
    cores: tuple[int, ...] = (1, 2, 4, 8)
    fpu_ratios: tuple[int, ...] = (1, 2, 4)
    #: Result-store root (default: ``<cache_dir>/store`` when a cache
    #: dir is given, else ``./results/store``).
    store_dir: Path | None = None
    #: Worker processes for grid prefetches; ``<= 1`` stays in-process.
    jobs: int = 1
    #: Seconds one pool job may run before it is abandoned and retried
    #: on a fresh pool (None: no deadline; parallel runs only).
    job_timeout: float | None = None
    #: Transient-failure retries per job (None: the runner's default
    #: :class:`~repro.runner.RetryPolicy`; 0 disables retries).
    retries: int | None = None
    #: When True, a campaign with failed-beyond-retry jobs raises one
    #: aggregate :class:`~repro.runner.CampaignError` at the end.
    strict: bool = False
    session: Session | None = field(default=None, compare=False)
    #: Per-job progress callback forwarded to the runner.
    progress: object = field(default=None, repr=False, compare=False)
    _runner: ExperimentRunner | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The CLI (and any str-typed caller) may pass plain strings.
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
        if self.store_dir is not None:
            self.store_dir = Path(self.store_dir)
        self.jobs = max(1, int(self.jobs))
        # Pin to an immutable copy so a shared mutable sequence cannot
        # leak between configs (and keys/repr stay stable).
        self.apps = tuple(self.apps)
        self.precisions = tuple(self.precisions)
        self.cores = tuple(int(n) for n in self.cores)
        self.fpu_ratios = tuple(int(r) for r in self.fpu_ratios)
        if self.session is None:
            self.session = Session(
                backend=self.backend,
                cache_dir=self.resolved_cache_dir(),
                default_strategy=self.strategy,
            )

    def resolved_cache_dir(self) -> Path:
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        if self.session is not None:
            return self.session.cache_dir
        return default_cache_dir()

    def resolved_store_dir(self) -> Path:
        """Where this config's result store lives.

        An explicit ``store_dir`` wins; otherwise the store nests under
        an explicit tuning-cache dir (keeping tests and ad-hoc runs
        self-contained); otherwise ``./results/store``.
        """
        if self.store_dir is not None:
            return Path(self.store_dir)
        if self.cache_dir is not None:
            return Path(self.cache_dir) / "store"
        return default_store_dir()

    @property
    def runner(self) -> ExperimentRunner:
        """The experiment engine every driver fetches results through."""
        if self._runner is None:
            self._runner = ExperimentRunner(
                session=self.session,
                scale=self.scale,
                store_dir=self.resolved_store_dir(),
                cache_dir=self.resolved_cache_dir(),
                jobs=self.jobs,
                progress=self.progress,
                job_timeout=self.job_timeout,
                retry=(
                    RetryPolicy(max_retries=max(0, int(self.retries)))
                    if self.retries is not None
                    else None
                ),
                strict=self.strict,
            )
        return self._runner


def type_system_by_name(name: str) -> TypeSystem:
    """Resolve a registered type system (V1, V2, V2no8, ...) by name."""
    return _type_system(name)


# ----------------------------------------------------------------------
# Runner-backed result access
# ----------------------------------------------------------------------
def flow_result(
    cfg: ExperimentConfig,
    app_name: str,
    type_system: TypeSystem,
    precision: float,
) -> FlowResult:
    """Run (or fetch) the five-step flow for one configuration.

    A thin view over ``cfg.runner``: the result comes from the runner's
    memo, the persistent store, or a fresh run under ``cfg.session``.
    """
    return cfg.runner.flow(app_name, type_system, precision)


def report_result(
    cfg: ExperimentConfig,
    variant: str,
    app_name: str,
    type_system: "TypeSystem | str | None" = None,
    precision: float = 0.0,
) -> RunReport:
    """A derived platform report (baseline, castless, fast16, ...)."""
    return cfg.runner.report(variant, app_name, type_system, precision)


def flow_specs(
    cfg: ExperimentConfig,
    type_systems: Sequence["TypeSystem | str"],
    precisions: Sequence[float] | None = None,
    apps: Sequence[str] | None = None,
) -> list[JobSpec]:
    """Flow jobs for a (sub)grid of this config."""
    return cfg.runner.grid(
        apps if apps is not None else cfg.apps,
        type_systems,
        precisions if precisions is not None else cfg.precisions,
    )


def prefetch(cfg: ExperimentConfig, specs: Sequence[JobSpec]) -> None:
    """Warm the config's runner for a grid in one (parallel) call.

    With ``cfg.jobs > 1`` the missing jobs shard across a process pool;
    afterwards every :func:`flow_result`/:func:`report_result` the
    driver performs is a memo hit.  With ``jobs <= 1`` this is a no-op
    in spirit: jobs compute lazily exactly as the serial drivers always
    did, so nothing runs twice either way.
    """
    if cfg.jobs > 1:
        cfg.runner.run(specs)


def cluster_result(
    cfg: ExperimentConfig,
    app_name: str,
    cores: int,
    fpu_ratio: int,
):
    """One cluster strong-scaling point (tuned V2 kernel at 1e-1)."""
    return cfg.runner.cluster(
        app_name, V2, CLUSTER_PRECISION, cores, fpu_ratio
    )


def cluster_apps(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The config's apps that carry a data-parallel partition."""
    return tuple(
        app for app in cfg.apps if APP_CLASSES[app].partitionable
    )


def cluster_specs(cfg: ExperimentConfig) -> list[JobSpec]:
    """The cluster driver's grid: parent flows plus every strong-
    scaling point over the config's core counts and sharing ratios.

    One-core points normalize their ratio away inside
    :class:`~repro.runner.JobSpec`, so the dedup below also keeps the
    1-core column single-entry across ratios.
    """
    runner = cfg.runner
    specs: list[JobSpec] = []
    for app in cluster_apps(cfg):
        specs.append(runner.flow_spec(app, V2, CLUSTER_PRECISION))
        for fpu_ratio in cfg.fpu_ratios:
            for cores in cfg.cores:
                specs.append(
                    runner.cluster_spec(
                        app, V2, CLUSTER_PRECISION, cores, fpu_ratio
                    )
                )
    return list(dict.fromkeys(specs))


def pca_manual_specs(cfg: ExperimentConfig) -> list[JobSpec]:
    """Fig. 7's manual-vectorization series: the PCA flows plus the
    hand-vectorized replays, one per precision requirement.

    Shared by fig7, summary, export and :func:`default_grid` so their
    prefetches cannot drift from what ``fig7.compute`` actually fetches.
    """
    runner = cfg.runner
    specs: list[JobSpec] = []
    for precision in cfg.precisions:
        specs.append(runner.flow_spec("pca", V2, precision))
        specs.append(
            runner.report_spec("pca_manual", "pca", V2, precision)
        )
    return specs


def default_grid(cfg: ExperimentConfig) -> list[JobSpec]:
    """Every job ``repro all`` consumes, for store warm-up.

    Covers the V2 grid over the config's apps and precisions (fig4-7),
    the V1 and V2no8 columns at 1e-1 (table1 and the ablations), the
    PCA flows behind Fig. 7's manual-vectorization series, all derived
    platform reports (motivation baselines, ablation castless/fast16,
    PCA manual vectorization), and the cluster strong-scaling grid.
    """
    runner = cfg.runner
    specs: list[JobSpec] = []
    specs += flow_specs(cfg, [V2])
    # table1 and the ablations pin precision 1e-1 regardless of
    # cfg.precisions; V2@1e-1 dedupes when it is already in the grid.
    specs += flow_specs(cfg, [V2, V1, "V2no8"], precisions=(1e-1,))
    specs += pca_manual_specs(cfg)
    specs += [runner.report_spec("baseline", app) for app in cfg.apps]
    for app in cfg.apps:
        specs.append(runner.report_spec("castless", app, V2, 1e-1))
        specs.append(runner.report_spec("fast16", app, V2, 1e-1))
    specs += cluster_specs(cfg)
    return list(dict.fromkeys(specs))


# ----------------------------------------------------------------------
# Plain-text rendering
# ----------------------------------------------------------------------
def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Align a small table for terminal output."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append(
            "  ".join(row[i].rjust(widths[i]) for i in range(len(row)))
        )
    return "\n".join(lines)


def bar(fraction: float, width: int = 24) -> str:
    """A small ASCII bar for normalized quantities."""
    clamped = max(0.0, min(fraction, 1.5))
    filled = int(round(clamped / 1.5 * width))
    return "#" * filled + "." * (width - filled)
