"""End-to-end trace propagation across a real multi-process grid."""

import json

from repro import telemetry
from repro.telemetry import trace as trace_mod
from repro.runner import ExperimentRunner, build_runner_spec
from repro.session import Session
from repro.tuning import V2


def make_runner(tmp_path, jobs=1):
    return ExperimentRunner(
        session=Session(cache_dir=tmp_path / "tuning"),
        scale="tiny",
        store_dir=tmp_path / "store",
        jobs=jobs,
    )


def load_trace(export_dir):
    (path,) = sorted(export_dir.glob("trace-*.ndjson"))
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestGridPropagation:
    def test_two_pool_workers_share_one_trace(self, tmp_path):
        tid = telemetry.enable(export_dir=tmp_path / "telemetry")
        runner = make_runner(tmp_path, jobs=2)
        specs = [
            runner.flow_spec("conv", V2, 1e-1),
            runner.flow_spec("conv", V2, 1e-2),
        ]
        results = runner.run(specs)
        assert len(results) == 2
        telemetry.flush()

        records = load_trace(tmp_path / "telemetry")
        spans = [r for r in records if r["kind"] == "span"]

        # Every span -- parent-side and worker-side -- joins one trace.
        assert {sp["trace_id"] for sp in spans} == {tid}

        roots = [sp for sp in spans if sp["name"] == "runner.run"]
        assert len(roots) == 1
        assert roots[0]["parent_id"] is None
        assert roots[0]["attrs"]["jobs"] == 2

        # One worker.job span per job, all parented directly under the
        # campaign root even though they ran in pool processes.
        jobs = [sp for sp in spans if sp["name"] == "worker.job"]
        assert len(jobs) == 2
        assert {sp["parent_id"] for sp in jobs} == {roots[0]["span_id"]}

        # The trace crosses a process boundary and covers every layer.
        assert len({sp["pid"] for sp in spans}) >= 2
        names = {sp["name"] for sp in spans}
        assert {
            "runner.run", "worker.job", "flow.run", "flow.tune",
            "flow.build", "tuning.solve", "tuning.evaluate", "store.load",
            "store.save",
        } <= names

        # Ledger events recorded during the run carry the trace id.
        attempts = [e for e in runner.ledger.events if e.event == "attempt"]
        assert attempts
        assert {e.trace_id for e in attempts} == {tid}

        # The runner registered its instruments on the global registry.
        registered = telemetry.global_registry().names()
        assert "repro_runner_computed" in registered
        assert "repro_runner_job_seconds" in registered


class TestDerivedJobSpans:
    def test_cluster_and_report_jobs_span_their_builds(self, tmp_path):
        """A cluster job partitions in ``cluster.partition``, a castless
        report builds its tuned kernel in ``flow.build``, and lowering a
        program runs in ``platform.lower`` -- each under its job span."""
        telemetry.enable(export_dir=tmp_path / "telemetry")
        runner = make_runner(tmp_path)
        cluster = runner.cluster_spec("conv", V2, 1e-1, cores=4, fpu_ratio=2)
        castless = runner.report_spec("castless", "conv", V2, 1e-1)
        runner.run([cluster, castless])
        telemetry.flush()

        spans = [
            r for r in load_trace(tmp_path / "telemetry")
            if r["kind"] == "span"
        ]
        names = {sp["name"] for sp in spans}
        assert {
            "runner.job", "cluster.partition", "cluster.run",
            "platform.lower", "platform.run", "flow.build",
        } <= names

        by_id = {sp["span_id"]: sp for sp in spans}

        def job_of(sp):
            while sp is not None and sp["name"] != "runner.job":
                sp = by_id.get(sp["parent_id"])
            return None if sp is None else sp["attrs"]["job"]

        partitions = [sp for sp in spans if sp["name"] == "cluster.partition"]
        assert [job_of(sp) for sp in partitions] == [cluster.describe()]
        assert castless.describe() in {
            job_of(sp) for sp in spans if sp["name"] == "flow.build"
        }
        assert {cluster.describe(), castless.describe()} <= {
            job_of(sp) for sp in spans if sp["name"] == "platform.lower"
        }


class TestTelemetryOff:
    def test_zero_instruments_and_no_propagation(self, tmp_path):
        before = telemetry.global_registry().names()
        runner = make_runner(tmp_path)
        spec = runner.flow_spec("conv", V2, 1e-1)
        runner.run([spec])
        runner.run([spec])  # warm path: memo + store hits

        assert telemetry.global_registry().names() == before
        assert build_runner_spec(
            runner.session, runner.cache_dir, runner.store
        )["telemetry"] is None
        assert telemetry.span("flow.run") is trace_mod._NULL
        assert not list(tmp_path.rglob("trace-*.ndjson"))
        assert all(
            e.trace_id is None and e.span_id is None
            for e in runner.ledger.events
        )
