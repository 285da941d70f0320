"""Recovery invariants of the fault-tolerant experiment engine.

Every test rehearses a failure mode through a deterministic, seeded
:class:`~repro.faults.FaultPlan` and asserts the campaign still
converges -- with results bit-identical to a fault-free run where the
grid completes.
"""

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.flow import FlowResult
from repro.runner import (
    CampaignError,
    ExperimentRunner,
    JobFailure,
    JobSpec,
    RetryPolicy,
)
from repro.runner.engine import MAX_POOL_BREAKS
from repro.session import Session

APPS = ("conv", "knn")
PRECISION = 1e-1


def make_runner(tmp_path, subdir, jobs=1, **kwargs):
    root = tmp_path / subdir
    return ExperimentRunner(
        session=Session(backend="fast", cache_dir=root / "tuning"),
        scale="tiny",
        store_dir=root / "store",
        jobs=jobs,
        **kwargs,
    )


def small_grid(runner):
    return runner.grid(APPS, ["V2"], [PRECISION])


def store_bytes(runner):
    """Relative path -> file bytes for every entry of a runner's store."""
    version_dir = runner.store.version_dir
    return {
        str(path.relative_to(version_dir)): path.read_bytes()
        for path in runner.store.entries()
    }


class TestCrashRecovery:
    def test_crashed_jobs_retry_bit_identical(self, tmp_path):
        clean = make_runner(tmp_path, "clean", jobs=2)
        clean.run(small_grid(clean))

        faulty = make_runner(tmp_path, "faulty", jobs=2)
        # Every job's first attempt dies hard (os._exit in the worker);
        # the retries -- attempt 1 is past crash_attempts -- complete.
        with faults.use_plan(FaultPlan(seed=7, crash_rate=1.0)):
            results = faulty.run(small_grid(faulty))

        assert len(results) == len(small_grid(faulty))
        assert all(isinstance(r, FlowResult) for r in results.values())
        assert faulty.ledger.retries > 0
        assert faulty.ledger.pool_breaks >= 1
        assert faulty.counters.failed == 0
        # The recovered store is byte-for-byte the clean one.
        assert store_bytes(faulty) == store_bytes(clean)

    def test_repeated_breakage_degrades_to_serial(self, tmp_path):
        runner = make_runner(tmp_path, "serial-fb", jobs=2)
        # *Every* pool attempt crashes: the pool can never make
        # progress, so the runner must fall back to in-process
        # execution (where the crash site cannot fire) and still
        # satisfy the full grid.
        plan = FaultPlan(seed=3, crash_rate=1.0, crash_attempts=99)
        with faults.use_plan(plan):
            results = runner.run(small_grid(runner))

        assert runner.ledger.count("serial_fallback") == 1
        assert runner.ledger.pool_breaks == MAX_POOL_BREAKS + 1
        assert len(results) == len(small_grid(runner))
        assert all(isinstance(r, FlowResult) for r in results.values())
        assert runner.counters.failed == 0


class TestHangRecovery:
    def test_timeout_fires_and_wave_completes(self, tmp_path):
        runner = make_runner(
            tmp_path, "hang", jobs=2, job_timeout=0.75
        )
        # First attempts sleep far past the job deadline; the runner
        # abandons the hung pool and the retries complete.
        plan = FaultPlan(seed=5, hang_rate=1.0, hang_seconds=4.0)
        with faults.use_plan(plan):
            results = runner.run(small_grid(runner))

        assert runner.ledger.timeouts >= 1
        assert len(results) == len(small_grid(runner))
        assert all(isinstance(r, FlowResult) for r in results.values())
        assert runner.counters.failed == 0

    def test_exhausted_timeouts_become_failures(self, tmp_path):
        runner = make_runner(
            tmp_path, "hang-fail", jobs=2, job_timeout=0.5,
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        # Hangs on every attempt: the job can never finish, so after
        # the retry budget it must surface as a structured failure --
        # not stall the campaign.
        plan = FaultPlan(
            seed=5, hang_rate=1.0, hang_seconds=4.0, hang_attempts=99
        )
        spec = runner.flow_spec("conv", "V2", PRECISION)
        with faults.use_plan(plan):
            results = runner.run([spec])

        failure = results[spec]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert runner.counters.failed == 1
        assert runner.ledger.timeouts >= 2


class TestTransientIOErrors:
    def test_save_side_error_is_retried(self, tmp_path):
        runner = make_runner(tmp_path, "io")
        runner._sleep = lambda s: None  # no need to back off in tests
        # Attempt 0's store write raises InjectedIOError (an OSError):
        # transient, so the retry recomputes and persists cleanly.
        plan = FaultPlan(seed=2, io_error_rate=1.0)
        spec = runner.flow_spec("conv", "V2", PRECISION)
        with faults.use_plan(plan):
            results = runner.run([spec])

        assert isinstance(results[spec], FlowResult)
        assert runner.counters.retried == 1
        assert runner.ledger.retries == 1
        assert runner.store.contains(spec)

    def test_retries_exhausted_becomes_failure(self, tmp_path):
        runner = make_runner(
            tmp_path, "io-fail",
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        plan = FaultPlan(seed=2, io_error_rate=1.0, io_error_attempts=99)
        spec = runner.flow_spec("conv", "V2", PRECISION)
        with faults.use_plan(plan):
            results = runner.run([spec])

        failure = results[spec]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert "InjectedIOError" in failure.error


class TestErrorIsolation:
    def test_permanent_failure_yields_jobfailure_record(self, tmp_path):
        runner = make_runner(tmp_path, "iso")
        bad = JobSpec("report", "conv", "tiny", variant="no-such-variant")
        good = runner.flow_spec("conv", "V2", PRECISION)
        results = runner.run([good, bad])

        # The bad job is isolated; the good one still completes.
        assert isinstance(results[good], FlowResult)
        failure = results[bad]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert failure.attempts == 1  # KeyError is not transient
        assert runner.counters.failed == 1
        assert runner.ledger.failures == 1

    def test_strict_raises_one_aggregate_error_at_the_end(self, tmp_path):
        runner = make_runner(tmp_path, "strict", strict=True)
        bad = JobSpec("report", "conv", "tiny", variant="no-such-variant")
        good = runner.flow_spec("conv", "V2", PRECISION)
        with pytest.raises(CampaignError) as err:
            runner.run([bad, good])

        # Raised after the whole grid ran: the good job's result is in
        # the store despite the failure.
        assert len(err.value.failures) == 1
        assert err.value.failures[0].spec == bad
        assert runner.store.contains(good)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.3
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)

    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.retriable(OSError("disk"))
        assert policy.retriable(TimeoutError())
        assert not policy.retriable(KeyError("variant"))
        assert not policy.retriable(ValueError("bad spec"))

    def test_zero_retries_fails_immediately(self, tmp_path):
        runner = make_runner(
            tmp_path, "no-retry", retry=RetryPolicy(max_retries=0)
        )
        plan = FaultPlan(seed=2, io_error_rate=1.0)
        spec = runner.flow_spec("conv", "V2", PRECISION)
        with faults.use_plan(plan):
            results = runner.run([spec])
        assert isinstance(results[spec], JobFailure)
        assert runner.counters.retried == 0
