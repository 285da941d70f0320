"""Parallel experiment engine: grid runner + persistent result store.

The paper's evaluation is an experiment grid -- applications x type
systems x precision targets, each a five-step flow.  This subsystem
turns that grid into a sharded, resumable, parallel campaign:

>>> from repro.runner import ExperimentRunner
>>> runner = ExperimentRunner(scale="tiny", jobs=4)      # doctest: +SKIP
>>> runner.run(runner.grid(["conv", "knn"], ["V2"], [1e-1, 1e-2]))
...                                                      # doctest: +SKIP

Results persist as JSON under the store (default ``results/store``); a
second driver, a second process, or tomorrow's run replays them as pure
cache hits.  The analysis drivers all route through this engine via
:func:`repro.analysis.common.flow_result`.

The engine is fault-tolerant: per-job timeouts, bounded retries with
backoff (:class:`RetryPolicy`), broken-pool recovery with a serial
fallback, structured :class:`JobFailure` records (or one aggregate
:class:`CampaignError` under ``strict``), checksummed store envelopes
with quarantine + ``fsck``, and a :class:`RunLedger` journaling every
attempt.  :mod:`repro.faults` injects deterministic failures to rehearse
all of it.
"""

from .engine import (
    CampaignError,
    ExperimentRunner,
    JobFailure,
    LedgerEvent,
    RetryPolicy,
    RunLedger,
    RunnerCounters,
    build_runner_spec,
    execute_job,
)
from .jobs import (
    REPORT_VARIANTS,
    compute_cluster,
    compute_flow,
    compute_job,
    compute_report,
    strip_casts,
)
from .store import (
    STORE_VERSION,
    JobSpec,
    ResultStore,
    StoreStats,
    default_store_dir,
    payload_checksum,
    shard_of,
)

__all__ = [
    "ExperimentRunner",
    "RunnerCounters",
    "RetryPolicy",
    "JobFailure",
    "CampaignError",
    "RunLedger",
    "LedgerEvent",
    "build_runner_spec",
    "execute_job",
    "REPORT_VARIANTS",
    "compute_flow",
    "compute_job",
    "compute_report",
    "compute_cluster",
    "strip_casts",
    "JobSpec",
    "ResultStore",
    "StoreStats",
    "STORE_VERSION",
    "default_store_dir",
    "payload_checksum",
    "shard_of",
]
