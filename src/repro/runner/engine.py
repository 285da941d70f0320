"""The parallel experiment engine.

:class:`ExperimentRunner` materializes an (app x type-system x
precision) grid as :class:`~repro.runner.store.JobSpec` jobs, executes
the missing ones -- in-process when ``jobs <= 1``, across a
``ProcessPoolExecutor`` otherwise -- and reads/writes the persistent
:class:`~repro.runner.store.ResultStore`, so a second driver (or a
second run) is pure cache hits.

Process-boundary rules:

* a job crosses as a frozen, primitive-field :class:`JobSpec` plus a
  small runner spec (backend name, cache dir, store root/version);
* each worker builds its own :class:`~repro.session.Session` via
  :meth:`Session.from_spec`, so no execution-context state (collectors,
  backend objects, platforms) ever crosses processes;
* results come back as JSON payloads (the same bytes the store holds),
  decoded in the parent -- a parallel run is therefore bit-identical to
  a serial one by construction of the payload round-trip.

Flow jobs run before report jobs (reports derive from flows), so a cold
parallel campaign still computes every flow exactly once.

Fault tolerance (one worker's death is not a campaign's):

* every job gets a bounded number of attempts (:class:`RetryPolicy`)
  with exponential backoff for transient failures (``OSError``/
  ``TimeoutError``, including injected ones);
* a per-job timeout (``job_timeout``) bounds how long a hung worker
  can stall the grid: past the deadline the pool is abandoned, healthy
  in-flight jobs are resubmitted without penalty, and the hung job
  retries on a fresh pool;
* a broken pool (hard worker crash) is rebuilt; after
  :data:`MAX_POOL_BREAKS` breakages the runner degrades to in-process
  serial execution, which still satisfies the full grid (injected
  crash/hang faults are worker-only sites and cannot fire in-process);
* a job that fails beyond its retry budget yields a structured
  :class:`JobFailure` record in the results dict -- or, under
  ``strict=True``, one aggregate :class:`CampaignError` raised after
  the whole grid has been attempted, never mid-flight;
* every attempt/retry/timeout/failure lands in the runner's
  :class:`RunLedger`, surfaced through the progress callback and the
  ``repro run`` summary.

Recovery preserves bit-identical results versus a clean run: retries
recompute from the same deterministic inputs, and the payload
round-trip through the store is unchanged.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro import faults
from repro.cluster import ClusterReport
from repro.flow import FlowResult
from repro.hardware import RunReport
from repro.session import Session
from repro.telemetry import global_registry, profile_scope
from repro.telemetry import trace as _trace
from repro.tuning import (
    TypeSystem,
    register_type_system,
    resolve_strategy,
    type_system,
)

from .jobs import compute_flow, compute_job
from .store import JobSpec, ResultStore

__all__ = [
    "MAX_POOL_BREAKS",
    "ExperimentRunner",
    "RunnerCounters",
    "RetryPolicy",
    "JobFailure",
    "CampaignError",
    "RunLedger",
    "LedgerEvent",
    "build_runner_spec",
    "execute_job",
]

#: Pool rebuilds a campaign tolerates before degrading to in-process
#: serial execution for the rest of the grid.
MAX_POOL_BREAKS = 2

#: Progress callback: (index, total, spec, status, seconds).  ``status``
#: is "memo" (in-memory hit), "hit" (store hit), "run" (computed),
#: "retry" (attempt rescheduled), "timeout" (job deadline fired) or
#: "fail" (retries exhausted; a JobFailure landed in the results).
ProgressFn = Callable[[int, int, JobSpec, str, float], None]


@dataclass
class RunnerCounters:
    """How the runner satisfied its jobs (the cache-hit accounting).

    ``corrupt`` counts store entries quarantined on load -- kept apart
    from cold misses, which a corrupt entry would otherwise silently
    masquerade as on every campaign.  ``retried`` and ``failed`` count
    rescheduled attempts and jobs that exhausted their retry budget.
    """

    memo_hits: int = 0
    store_hits: int = 0
    computed: int = 0
    corrupt: int = 0
    retried: int = 0
    failed: int = 0

    @property
    def total(self) -> int:
        return self.memo_hits + self.store_hits + self.computed

    def summary(self) -> str:
        text = (
            f"memo:{self.memo_hits} store:{self.store_hits} "
            f"run:{self.computed}"
        )
        if self.corrupt or self.retried or self.failed:
            text += (
                f" corrupt:{self.corrupt} retried:{self.retried} "
                f"failed:{self.failed}"
            )
        return text


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures.

    ``transient`` names the exception types worth retrying -- I/O and
    timeout flavours by default; anything else (a ``ValueError`` from a
    bad spec, a ``KeyError`` from an unknown variant) is deterministic
    and fails immediately.  Pool breakage and job timeouts are handled
    structurally by the runner and consume the same ``max_retries``
    budget.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    transient: tuple = (OSError, TimeoutError, ConnectionError)

    def delay(self, attempt: int) -> float:
        return min(
            self.backoff_s * self.backoff_factor ** attempt,
            self.max_backoff_s,
        )

    def retriable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.transient)


@dataclass(frozen=True)
class JobFailure:
    """A job that failed beyond its retry budget (a result, not a raise).

    ``kind`` is ``"error"`` (an exception classified permanent, or
    transient retries exhausted), ``"timeout"`` (every attempt hit the
    job deadline) or ``"crash"`` (the job was in flight across too many
    pool breakages).
    """

    spec: JobSpec
    kind: str
    attempts: int
    error: str = ""

    def describe(self) -> str:
        tail = f": {self.error}" if self.error else ""
        return (
            f"{self.spec.describe()} failed ({self.kind}, "
            f"{self.attempts} attempts){tail}"
        )


class CampaignError(RuntimeError):
    """All of a strict campaign's failures, raised once at the end."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} job(s) failed:"]
        lines += [f"  - {f.describe()}" for f in self.failures]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class LedgerEvent:
    """One journal entry: what happened to which job, when.

    ``trace_id``/``span_id`` correlate the event with the telemetry
    trace that was active when it was recorded (None when telemetry is
    off -- and for every ledger payload written before they existed).
    """

    event: str  #: attempt | retry | timeout | failure | pool_broken |
    #: serial_fallback | corrupt
    job: str = ""
    attempt: int = 0
    detail: str = ""
    trace_id: "str | None" = None
    span_id: "str | None" = None

    def to_payload(self) -> dict:
        return {
            "event": self.event,
            "job": self.job,
            "attempt": self.attempt,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LedgerEvent":
        return cls(
            event=payload["event"],
            job=payload.get("job", ""),
            attempt=payload.get("attempt", 0),
            detail=payload.get("detail", ""),
            trace_id=payload.get("trace_id"),
            span_id=payload.get("span_id"),
        )


@dataclass
class RunLedger:
    """Journal of attempt/retry/timeout/failure events for a runner.

    The ledger is the campaign's flight recorder: the ``repro run``
    summary renders :meth:`summary`, and tests assert on event counts
    to pin recovery behaviour.
    """

    events: list = field(default_factory=list)

    def record(
        self,
        event: str,
        spec: "JobSpec | None" = None,
        attempt: int = 0,
        detail: str = "",
        trace_id: "str | None" = None,
        span_id: "str | None" = None,
    ) -> LedgerEvent:
        if trace_id is None and span_id is None:
            # Stamp the active trace context (both stay None when
            # telemetry is off); an explicit pair -- the server
            # recording from its event loop -- wins.
            trace_id, span_id = _trace.current_ids()
        entry = LedgerEvent(
            event,
            spec.describe() if spec is not None else "",
            attempt,
            detail,
            trace_id,
            span_id,
        )
        self.events.append(entry)
        return entry

    def to_payload(self) -> dict:
        return {"events": [event.to_payload() for event in self.events]}

    @classmethod
    def from_payload(cls, payload: dict) -> "RunLedger":
        return cls(events=[
            LedgerEvent.from_payload(event)
            for event in payload["events"]
        ])

    def count(self, event: str) -> int:
        return sum(1 for e in self.events if e.event == event)

    @property
    def attempts(self) -> int:
        return self.count("attempt")

    @property
    def retries(self) -> int:
        return self.count("retry")

    @property
    def timeouts(self) -> int:
        return self.count("timeout")

    @property
    def failures(self) -> int:
        return self.count("failure")

    @property
    def pool_breaks(self) -> int:
        return self.count("pool_broken")

    def summary(self) -> str:
        parts = [
            f"{self.attempts} attempts",
            f"{self.retries} retries",
            f"{self.timeouts} timeouts",
            f"{self.failures} failures",
        ]
        if self.pool_breaks:
            parts.append(f"{self.pool_breaks} pool rebuilds")
        if self.count("serial_fallback"):
            parts.append("serial fallback")
        corrupt = self.count("corrupt")
        if corrupt:
            parts.append(f"{corrupt} corrupt entries quarantined")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# Worker entry (top-level so it pickles)
# ----------------------------------------------------------------------
def build_runner_spec(
    session: Session,
    cache_dir: "Path | str",
    store: ResultStore,
    jobs: Iterable[JobSpec] = (),
) -> dict:
    """The runner spec :func:`execute_job` bootstraps a worker from.

    The session crosses as its :meth:`Session.spec` with ``cache_dir``
    as the tuning cache, the store as its root and version (the backend
    tag rides in the session spec).  The type systems ``jobs`` name
    ship as full definitions, not just names, so workers started via
    spawn (fresh registries) can resolve custom systems too.
    ``telemetry`` is None when telemetry is off; otherwise it is the
    trace context workers adopt, so a whole grid lands in one trace
    tree.
    """
    session_spec = session.spec()
    session_spec["cache_dir"] = str(cache_dir)
    ts_names = {job.type_system for job in jobs if job.type_system}
    return {
        "session": session_spec,
        "store_root": str(store.root),
        "store_version": store.version,
        "type_systems": [
            type_system(name).to_payload() for name in sorted(ts_names)
        ],
        "telemetry": _trace.propagation_payload(),
    }


def execute_job(runner_spec: dict, job: JobSpec, attempt: int = 0) -> dict:
    """Run one job inside a pool worker; returns a JSON-able summary.

    The worker bootstraps its own session and store from
    ``runner_spec``, re-checks the store (another worker or a concurrent
    campaign may have won the race), computes on a miss, persists
    atomically, and ships the payload back to the parent.

    ``attempt`` is the parent's retry counter for this job; it scopes
    fault-injection decisions (see :mod:`repro.faults`), so an injected
    first-attempt crash deterministically spares the retry.  This is
    also the only site where injected crashes/hangs can fire: the
    parent process and the serial fallback never pass through here.

    When the runner spec carries a telemetry payload, the worker joins
    the campaign's trace: a ``worker.job`` span (parented under the
    campaign root or the server's job span) wraps the body, and the
    sampling profiler attributes its wall time.  The ``worker.job``
    span only exists when the payload crossed a process boundary -- for
    in-process executors (the server's thread pool, the serial path)
    the caller's ``server.job`` / ``runner.job`` span already times the
    same interval, and the duplicate would tax every warm store hit.
    Telemetry never touches the returned payload -- it is the same
    bytes either way.
    """
    telemetry_ctx = runner_spec.get("telemetry")
    crossed = (
        telemetry_ctx is not None
        and telemetry_ctx.get("pid") != os.getpid()
    )
    with _trace.worker_scope(telemetry_ctx):
        with (
            _trace.span("worker.job", job=job.describe(), attempt=attempt)
            if crossed
            else nullcontext()
        ):
            label = job.describe() if _trace.enabled() else ""
            with profile_scope(label=label):
                return _execute_job_body(runner_spec, job, attempt)


def _execute_job_body(
    runner_spec: dict, job: JobSpec, attempt: int = 0
) -> dict:
    start = time.perf_counter()
    # Register the campaign's type systems: a spawn-started worker has a
    # fresh registry holding only the built-ins (idempotent under fork).
    for ts_payload in runner_spec.get("type_systems", []):
        register_type_system(TypeSystem.from_payload(ts_payload))
    session = Session.from_spec(runner_spec["session"])
    token = "-".join(job.key_fields())
    with faults.job_context(attempt):
        faults.maybe_crash(token)
        faults.maybe_hang(token)
        store = ResultStore(
            runner_spec["store_root"],
            backend=runner_spec["session"]["backend"],
            version=runner_spec["store_version"],
        )
        payload = store.load(job)
        if payload is not None:
            return {
                "computed": False,
                "payload": payload,
                "seconds": time.perf_counter() - start,
            }

        def get_flow(app: str, ts: str, precision: float) -> FlowResult:
            flow_spec = JobSpec(
                "flow", app, job.scale, ts, precision,
                strategy=job.strategy,
            )
            flow_payload = store.load(flow_spec)
            if flow_payload is not None:
                return FlowResult.from_payload(flow_payload)
            flow = compute_flow(flow_spec, session)
            store.save(flow_spec, flow.to_payload())
            return flow

        result = compute_job(job, session, get_flow)
        payload = result.to_payload()
        store.save(job, payload)
    return {
        "computed": True,
        "payload": payload,
        "seconds": time.perf_counter() - start,
    }


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Grid materialization + store-backed (possibly parallel) execution.

    Parameters
    ----------
    session:
        The session serial (in-process) jobs execute under; workers get
        equivalent sessions rebuilt from ``session.spec()``.
    scale:
        Problem scale every job of this runner uses.
    store_dir:
        Result-store root (default ``./results/store``).
    cache_dir:
        Tuning-cache directory flows use (default: the session's).
    jobs:
        Worker-process count; ``<= 1`` runs everything in-process.
    progress:
        Optional per-job callback (see :data:`ProgressFn`).
    job_timeout:
        Seconds a single pool job may run before it is abandoned and
        retried on a fresh pool (None: never; parallel runs only --
        in-process execution cannot be preempted).
    retry:
        The :class:`RetryPolicy` bounding re-attempts (default policy
        if None).
    strict:
        When True, :meth:`run` raises a :class:`CampaignError`
        aggregating every :class:`JobFailure` after the whole grid has
        been attempted; when False (default), failures land in the
        results dict as :class:`JobFailure` records.
    """

    def __init__(
        self,
        session: Session | None = None,
        scale: str = "paper",
        store_dir: "Path | str | None" = None,
        cache_dir: "Path | str | None" = None,
        jobs: int = 1,
        progress: ProgressFn | None = None,
        job_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        strict: bool = False,
    ) -> None:
        self.session = session if session is not None else Session()
        self.scale = scale
        #: Strategy jobs default to; per-spec overrides win (see
        #: :meth:`flow_spec`).  Follows the session so a bisection
        #: session drives a bisection campaign without extra plumbing.
        self.default_strategy = self.session.default_strategy
        self.jobs = max(1, int(jobs))
        self.progress = progress
        self.job_timeout = job_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.cache_dir = (
            Path(cache_dir)
            if cache_dir is not None
            else self.session.cache_dir
        )
        self.store = ResultStore(
            store_dir, backend=self.session.backend.name
        )
        self.counters = RunnerCounters()
        self.ledger = RunLedger()
        self._memo: dict[JobSpec, object] = {}
        self._sleep = time.sleep  # injectable for tests
        self._last_attempts = 1  # attempts behind the latest serial raise
        # Registry instruments exist only under telemetry: the disabled
        # hot path registers nothing (asserted by tests).
        self._job_seconds = None
        if _trace.enabled():
            registry = global_registry()
            counters = self.counters
            for name in (
                "memo_hits", "store_hits", "computed",
                "corrupt", "retried", "failed",
            ):
                registry.gauge(
                    f"repro_runner_{name}",
                    fn=lambda n=name, c=counters: getattr(c, n),
                    group="runner",
                    short=name,
                )
            self._job_seconds = registry.histogram(
                "repro_runner_job_seconds",
                group="runner",
                short="job_seconds",
            )

    # ------------------------------------------------------------------
    # Grid materialization
    # ------------------------------------------------------------------
    def flow_spec(
        self,
        app: str,
        ts: "str | TypeSystem",
        precision: float,
        strategy: "str | None" = None,
    ) -> JobSpec:
        return JobSpec(
            "flow", app, self.scale, self._ts_name(ts), float(precision),
            strategy=self._strategy_name(strategy),
        )

    def report_spec(
        self,
        variant: str,
        app: str,
        ts: "str | TypeSystem | None" = None,
        precision: float = 0.0,
        strategy: "str | None" = None,
    ) -> JobSpec:
        ts_name = "" if ts is None else self._ts_name(ts)
        return JobSpec(
            "report", app, self.scale, ts_name, float(precision), variant,
            strategy=self._strategy_name(strategy),
        )

    def cluster_spec(
        self,
        app: str,
        ts: "str | TypeSystem",
        precision: float,
        cores: int,
        fpu_ratio: int = 1,
        strategy: "str | None" = None,
    ) -> JobSpec:
        return JobSpec(
            "cluster", app, self.scale, self._ts_name(ts),
            float(precision), strategy=self._strategy_name(strategy),
            cores=int(cores), fpu_ratio=int(fpu_ratio),
        )

    @staticmethod
    def _ts_name(ts: "str | TypeSystem") -> str:
        """Reduce a type system to its registry name for the job key.

        Jobs cross process boundaries as names, so an instance must be
        resolvable back to *itself*: instances are registered on the
        way in (idempotent), and a name collision with a different
        system raises instead of silently computing with the wrong
        intervals.
        """
        if isinstance(ts, TypeSystem):
            register_type_system(ts)
            return ts.name
        return type_system(ts).name

    def _strategy_name(self, strategy: "str | None") -> str:
        """Reduce a strategy to its registry name for the job key."""
        if strategy is None:
            return self.default_strategy
        return resolve_strategy(strategy).name

    def grid(
        self,
        apps: Sequence[str],
        type_systems: Sequence["str | TypeSystem"],
        precisions: Sequence[float],
        strategy: "str | None" = None,
    ) -> list[JobSpec]:
        """Flow jobs for the full cross product, apps-major order."""
        return [
            self.flow_spec(app, ts, precision, strategy=strategy)
            for app in apps
            for ts in type_systems
            for precision in precisions
        ]

    # ------------------------------------------------------------------
    # Single-result access (the drivers' entry point)
    # ------------------------------------------------------------------
    def flow(
        self,
        app: str,
        ts: "str | TypeSystem",
        precision: float,
        strategy: "str | None" = None,
    ) -> FlowResult:
        """The flow result for one grid point (memo -> store -> compute)."""
        return self._fetch(self.flow_spec(app, ts, precision, strategy))

    def report(
        self,
        variant: str,
        app: str,
        ts: "str | TypeSystem | None" = None,
        precision: float = 0.0,
        strategy: "str | None" = None,
    ) -> RunReport:
        """A derived platform report (memo -> store -> compute)."""
        return self._fetch(
            self.report_spec(variant, app, ts, precision, strategy)
        )

    def cluster(
        self,
        app: str,
        ts: "str | TypeSystem",
        precision: float,
        cores: int,
        fpu_ratio: int = 1,
        strategy: "str | None" = None,
    ) -> ClusterReport:
        """A cluster strong-scaling point (memo -> store -> compute)."""
        return self._fetch(
            self.cluster_spec(app, ts, precision, cores, fpu_ratio, strategy)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, specs: Iterable[JobSpec]) -> dict[JobSpec, object]:
        """Satisfy every job, fanning misses out across the pool.

        Returns spec -> result (:class:`FlowResult`, :class:`RunReport`
        or :class:`~repro.cluster.ClusterReport`).  Hits resolve in the
        parent without touching a worker; with ``jobs <= 1`` misses
        compute in-process, exactly like the serial drivers always did.

        Error isolation: a job that fails beyond its retry budget maps
        to a :class:`JobFailure` record instead of aborting the grid
        mid-flight; under ``strict=True`` one :class:`CampaignError`
        summarizing *all* failures is raised after every job has been
        attempted.
        """
        ordered = list(dict.fromkeys(specs))
        results: dict[JobSpec, object] = {}
        failures: list[JobFailure] = []
        pending: list[JobSpec] = []
        done = 0
        total = len(ordered)

        with _trace.span("runner.run") as root:
            if root is not None:
                root.attrs["jobs"] = total
                root.attrs["workers"] = self.jobs
            for spec in ordered:
                if spec in self._memo:
                    results[spec] = self._memo[spec]
                    self.counters.memo_hits += 1
                    done += 1
                    self._report_progress(done, total, spec, "memo", 0.0)
                    continue
                payload = self._store_load(spec)
                if payload is not None:
                    result = self._decode(spec, payload)
                    self._memo[spec] = result
                    results[spec] = result
                    self.counters.store_hits += 1
                    done += 1
                    self._report_progress(done, total, spec, "hit", 0.0)
                    continue
                pending.append(spec)

            if pending:
                if self.jobs <= 1:
                    done = self._run_serial(
                        pending, results, failures, done, total
                    )
                else:
                    done = self._run_parallel(
                        pending, results, failures, done, total
                    )

            if failures and self.strict:
                raise CampaignError(failures)
        return results

    # ------------------------------------------------------------------
    # Serial execution (jobs <= 1, and the parallel path's fallback)
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: Sequence[JobSpec],
        results: dict,
        failures: list,
        done: int,
        total: int,
    ) -> int:
        for spec in pending:
            done = self._run_one_serial(spec, results, failures, done, total)
        return done

    def _run_one_serial(
        self, spec, results, failures, done: int, total: int
    ) -> int:
        start = time.perf_counter()
        # A report computed earlier in this loop may have pulled its
        # parent flow into the memo; everything else was proved cold
        # above, so skip the redundant store read.
        if spec in self._memo:
            results[spec] = self._memo[spec]
            self.counters.memo_hits += 1
            status = "memo"
        else:
            try:
                results[spec] = self._compute_with_retry(spec)
                status = "run"
            except Exception as exc:  # noqa: BLE001 - isolation point
                failure = JobFailure(
                    spec, "error", self._last_attempts, repr(exc)
                )
                self._record_failure(failure, results, failures)
                status = "fail"
        done += 1
        self._report_progress(
            done, total, spec, status, time.perf_counter() - start
        )
        return done

    def _compute_with_retry(self, spec: JobSpec):
        """In-process compute with transient-failure retries.

        Returns the result; raises the last exception once the retry
        budget is spent or the failure is classified permanent (the
        attempt count lands in ``self._last_attempts`` for the failure
        record).
        """
        attempt = 0
        while True:
            self.ledger.record("attempt", spec, attempt)
            try:
                with _trace.span(
                    "runner.job", job=spec.describe(), attempt=attempt
                ):
                    with faults.job_context(attempt):
                        return self._compute_and_store(spec)
            except Exception as exc:  # noqa: BLE001 - classified below
                if (
                    self.retry.retriable(exc)
                    and attempt < self.retry.max_retries
                ):
                    self.ledger.record("retry", spec, attempt, repr(exc))
                    self.counters.retried += 1
                    self._report_progress(
                        None, None, spec, "retry", 0.0
                    )
                    self._sleep(self.retry.delay(attempt))
                    attempt += 1
                    continue
                self._last_attempts = attempt + 1
                raise

    def _record_failure(
        self, failure: JobFailure, results: dict, failures: list
    ) -> None:
        failures.append(failure)
        results[failure.spec] = failure
        self.counters.failed += 1
        self.ledger.record(
            "failure", failure.spec, failure.attempts - 1,
            f"{failure.kind}: {failure.error}",
        )

    # ------------------------------------------------------------------
    # Parallel execution (pool management, timeouts, recovery)
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        pending: Sequence[JobSpec],
        results: dict,
        failures: list,
        done: int,
        total: int,
    ) -> int:
        runner_spec = build_runner_spec(
            self.session, self.cache_dir, self.store, pending
        )
        # Reports and cluster replays derive from flows: run the flow
        # wave first so derived-job workers find their parent flows
        # already stored.
        waves = (
            [s for s in pending if s.kind == "flow"],
            [s for s in pending if s.kind != "flow"],
        )
        pool: "ProcessPoolExecutor | None" = None
        pool_breaks = 0
        serial_mode = False
        try:
            for wave in waves:
                if not wave:
                    continue
                todo = deque(wave)
                attempts = {spec: 0 for spec in wave}
                inflight: dict = {}  # future -> (spec, deadline)

                while todo or inflight:
                    if serial_mode:
                        # Last resort: the pool kept dying.  In-process
                        # execution cannot host injected crash/hang
                        # faults (worker-only sites), so the grid
                        # always completes here.
                        while todo:
                            done = self._run_one_serial(
                                todo.popleft(), results, failures,
                                done, total,
                            )
                        break

                    workers = min(self.jobs, len(todo) + len(inflight))
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    # Keep in-flight <= workers so a submitted job is
                    # running, which makes its deadline meaningful.
                    submit_broke = False
                    while todo and len(inflight) < workers:
                        spec = todo.popleft()
                        try:
                            future = pool.submit(
                                execute_job, runner_spec, spec,
                                attempts[spec],
                            )
                        except BrokenProcessPool:
                            # The pool died while idle; requeue and let
                            # the breakage path rebuild it.
                            todo.appendleft(spec)
                            submit_broke = True
                            break
                        self.ledger.record("attempt", spec, attempts[spec])
                        deadline = (
                            None
                            if self.job_timeout is None
                            else time.monotonic() + self.job_timeout
                        )
                        inflight[future] = (spec, deadline)

                    if submit_broke or inflight:
                        timeout = (
                            0.0 if submit_broke
                            else self._nearest_deadline(inflight)
                        )
                        finished, _ = wait(
                            inflight, timeout=timeout,
                            return_when=FIRST_COMPLETED,
                        )
                    else:
                        finished = set()

                    broken: list[JobSpec] = []
                    for future in finished:
                        spec, _ = inflight.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            broken.append(spec)
                            continue
                        except Exception as exc:  # noqa: BLE001
                            done = self._handle_worker_error(
                                spec, exc, attempts, todo, results,
                                failures, done, total,
                            )
                            continue
                        result = self._decode(spec, outcome["payload"])
                        self._memo[spec] = result
                        results[spec] = result
                        if outcome["computed"]:
                            self.counters.computed += 1
                            status = "run"
                        else:
                            self.counters.store_hits += 1
                            status = "hit"
                        done += 1
                        self._report_progress(
                            done, total, spec, status, outcome["seconds"]
                        )

                    if broken or submit_broke:
                        pool_breaks += 1
                        self.ledger.record(
                            "pool_broken",
                            detail=f"rebuild {pool_breaks}",
                        )
                        serial_mode = pool_breaks > MAX_POOL_BREAKS
                        if serial_mode:
                            self.ledger.record(
                                "serial_fallback",
                                detail=(
                                    f"{pool_breaks} pool breaks; "
                                    "degrading to in-process execution"
                                ),
                            )
                        pool = self._abandon_pool(pool)
                        # Everything still in flight died with the pool
                        # too; the breakage cannot be attributed to one
                        # job, so every casualty is charged one attempt.
                        broken.extend(spec for spec, _ in inflight.values())
                        inflight.clear()
                        for spec in broken:
                            attempts[spec] += 1
                        done = self._requeue_or_fail(
                            broken, todo, attempts, "crash", results,
                            failures, done, total, exempt=serial_mode,
                        )
                        continue

                    done, abandoned = self._expire_deadlines(
                        pool, todo, attempts, inflight, results,
                        failures, done, total,
                    )
                    if abandoned:
                        pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return done

    @staticmethod
    def _nearest_deadline(inflight: dict) -> "float | None":
        deadlines = [dl for _, dl in inflight.values() if dl is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    @staticmethod
    def _abandon_pool(pool) -> None:
        """Walk away from a broken/hung pool without blocking on it."""
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None

    def _handle_worker_error(
        self, spec, exc, attempts, todo, results, failures, done, total
    ) -> int:
        attempt = attempts[spec]
        if self.retry.retriable(exc) and attempt < self.retry.max_retries:
            self.ledger.record("retry", spec, attempt, repr(exc))
            self.counters.retried += 1
            self._report_progress(None, None, spec, "retry", 0.0)
            self._sleep(self.retry.delay(attempt))
            attempts[spec] += 1
            todo.append(spec)
            return done
        failure = JobFailure(spec, "error", attempt + 1, repr(exc))
        self._record_failure(failure, results, failures)
        done += 1
        self._report_progress(done, total, spec, "fail", 0.0)
        return done

    def _requeue_or_fail(
        self, casualties, todo, attempts, kind, results, failures,
        done, total, exempt: bool = False,
    ) -> int:
        """Requeue fault casualties, failing those whose budget is spent.

        ``exempt=True`` (entering the serial fallback, which always
        completes) requeues unconditionally -- a job repeatedly killed
        by a dying pool has not proven *it* is the problem.
        """
        for spec in casualties:
            if exempt or attempts[spec] <= self.retry.max_retries:
                self.ledger.record("retry", spec, attempts[spec], kind)
                self.counters.retried += 1
                self._report_progress(None, None, spec, "retry", 0.0)
                todo.append(spec)
            else:
                failure = JobFailure(spec, kind, attempts[spec])
                self._record_failure(failure, results, failures)
                done += 1
                self._report_progress(done, total, spec, "fail", 0.0)
        return done

    def _expire_deadlines(
        self, pool, todo, attempts, inflight, results, failures,
        done, total,
    ) -> "tuple[int, bool]":
        """Abandon the pool if any in-flight job blew its deadline.

        Returns ``(done, pool_abandoned)``.  The hung job is charged an
        attempt and retried on a fresh pool; healthy in-flight jobs are
        resubmitted without penalty -- their work is lost with the
        pool, but they did nothing wrong.  (A hung worker cannot be
        interrupted portably, so the whole pool is walked away from;
        the orphaned process exits when its sleep/stall ends.)
        """
        if self.job_timeout is None or not inflight:
            return done, False
        now = time.monotonic()
        expired = [
            (future, spec)
            for future, (spec, deadline) in inflight.items()
            if deadline is not None
            and now >= deadline
            and not future.done()
        ]
        if not expired:
            return done, False
        hung = []
        for future, spec in expired:
            future.cancel()
            del inflight[future]
            attempts[spec] += 1
            self.ledger.record(
                "timeout", spec, attempts[spec] - 1,
                f"exceeded {self.job_timeout:g}s",
            )
            self._report_progress(None, None, spec, "timeout", 0.0)
            hung.append(spec)
        # The pool's workers may all be stuck behind hung jobs: walk
        # away from the whole pool and resubmit the healthy survivors.
        for future, (spec, _) in inflight.items():
            future.cancel()
            todo.append(spec)
        inflight.clear()
        self._abandon_pool(pool)
        done = self._requeue_or_fail(
            hung, todo, attempts, "timeout", results, failures,
            done, total,
        )
        return done, True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _store_load(self, spec: JobSpec):
        """Store probe that books quarantined entries as corruption."""
        before = self.store.corrupt
        payload = self.store.load(spec)
        quarantined = self.store.corrupt - before
        if quarantined:
            self.counters.corrupt += quarantined
            self.ledger.record(
                "corrupt", spec, detail="entry quarantined on load"
            )
        return payload

    def _fetch(self, spec: JobSpec):
        """Memo -> store -> in-process compute for one job."""
        if spec in self._memo:
            self.counters.memo_hits += 1
            return self._memo[spec]
        payload = self._store_load(spec)
        if payload is not None:
            self.counters.store_hits += 1
            result = self._decode(spec, payload)
            self._memo[spec] = result
            return result
        return self._compute_with_retry(spec)

    def _compute_and_store(self, spec: JobSpec):
        """In-process compute for a job known to be cold, then persist."""
        if spec.kind == "flow":
            result = compute_flow(
                spec, self.session, cache_dir=self.cache_dir
            )
        else:
            result = compute_job(
                spec,
                self.session,
                lambda app, ts, precision: self.flow(
                    app, ts, precision, strategy=spec.strategy
                ),
            )
        self.counters.computed += 1
        self.store.save(spec, result.to_payload())
        self._memo[spec] = result
        return result

    @staticmethod
    def _decode(spec: JobSpec, payload: dict):
        if spec.kind == "flow":
            return FlowResult.from_payload(payload)
        if spec.kind == "cluster":
            return ClusterReport.from_payload(payload)
        return RunReport.from_payload(payload)

    def _report_progress(
        self, index, total, spec: JobSpec, status: str, seconds: float
    ) -> None:
        if self._job_seconds is not None and status == "run":
            self._job_seconds.observe(seconds)
        if self.progress is not None:
            self.progress(
                index if index is not None else 0,
                total if total is not None else 0,
                spec, status, seconds,
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExperimentRunner(scale={self.scale!r}, jobs={self.jobs}, "
            f"store={str(self.store.root)!r}, "
            f"counters=[{self.counters.summary()}], "
            f"misses={self.store.misses})"
        )
