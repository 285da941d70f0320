"""Server semantics: dedup, revalidation, streaming, drain, identity."""

import json
import threading
import time

from repro.runner import (
    STORE_VERSION,
    ExperimentRunner,
    JobSpec,
    ResultStore,
    RetryPolicy,
    build_runner_spec,
)
from repro.server import BackgroundServer, ServerClient, ServerStats
from repro.session import Session
from repro.util import write_json_atomic

from .conftest import tune_job


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestDedup:
    def test_concurrent_duplicates_compute_exactly_once(
        self, server, worker
    ):
        worker.delay = 1.0
        replies = []
        barrier = threading.Barrier(6)

        def post():
            with ServerClient(server.host, server.port) as client:
                barrier.wait()
                reply = client.post_job(tune_job())
                replies.append((reply.status, reply.source, reply.body))

        threads = [threading.Thread(target=post) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One computation total; every response carries the result.
        assert len(worker.calls) == 1
        assert all(status == 200 for status, _, _ in replies)
        sources = sorted(source for _, source, _ in replies)
        assert sources == ["computed"] + ["deduped"] * 5
        # Identical responses byte for byte -- provenance travels in a
        # header exactly so it cannot perturb the body.
        assert len({body for _, _, body in replies}) == 1
        with ServerClient(server.host, server.port) as client:
            stats = client.stats().json["server"]
        assert stats["computed"] == 1
        assert stats["deduped"] == 5
        assert stats["failed"] == 0

    def test_distinct_jobs_do_not_dedup(self, server, worker):
        with ServerClient(server.host, server.port) as client:
            client.post_job(tune_job(precision=1e-1))
            client.post_job(tune_job(precision=1e-2))
        assert len(worker.calls) == 2

    def test_warm_hit_never_reaches_the_pool(self, server, worker):
        with ServerClient(server.host, server.port) as client:
            first = client.post_job(tune_job())
            second = client.post_job(tune_job())
        assert len(worker.calls) == 1
        assert first.source == "computed"
        assert second.source == "store"
        assert first.body == second.body


class TestRevalidation:
    def test_etag_revalidates_to_304(self, client, worker):
        first = client.post_job(tune_job())
        assert first.status == 200 and first.etag
        revalidated = client.post_job(tune_job(), etag=first.etag)
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == first.etag
        job_id = first.json["id"]
        assert client.get_job(job_id, etag=first.etag).status == 304
        stats = client.stats().json["server"]
        assert stats["not_modified"] == 2

    def test_repeat_gets_are_byte_identical(self, client, worker):
        job_id = client.post_job(tune_job()).json["id"]
        first = client.get_job(job_id)
        second = client.get_job(job_id)
        assert first.status == second.status == 200
        assert first.body == second.body
        assert first.etag == second.etag

    def test_stale_etag_gets_a_fresh_body(self, client, worker):
        first = client.post_job(tune_job())
        response = client.post_job(tune_job(), etag='"deadbeef"')
        assert response.status == 200
        assert response.body == first.body


class TestEvents:
    def test_stream_carries_the_job_ledger(self, server, worker):
        worker.delay = 0.5
        with ServerClient(server.host, server.port) as client:
            accepted = client.post_job(tune_job(), wait=False)
            assert accepted.status == 202
            job_id = accepted.json["id"]
            polled = client.get_job(job_id)
            assert polled.status in (200, 202)
            events = client.events(job_id)  # blocks until the stream ends
        kinds = [event["event"] for event in events]
        assert kinds[0] == "attempt"
        assert kinds[-1] == "end"
        assert events[-1]["status"] == "done"
        with ServerClient(server.host, server.port) as client:
            assert client.get_job(job_id).status == 200

    def test_retries_appear_in_the_stream(self, server, worker):
        worker.fail_attempts = 1
        with ServerClient(server.host, server.port) as client:
            reply = client.post_job(tune_job())
            assert reply.status == 200
            events = client.events(reply.json["id"])
        kinds = [event["event"] for event in events]
        assert "retry" in kinds
        assert [job for job, _ in worker.calls] == [
            JobSpec("flow", "conv", "tiny", "V2", 1e-1)
        ] * 2


class TestFailure:
    def test_exhausted_retries_are_500_and_release_the_claim(
        self, server, worker
    ):
        worker.fail_attempts = 99
        with ServerClient(server.host, server.port) as client:
            reply = client.post_job(tune_job())
            assert reply.status == 500
            assert "error" in reply.json
            stats = client.stats().json["server"]
            assert stats["failed"] == 1
            # The claim is released: the key is not wedged and a later
            # request computes normally.
            worker.fail_attempts = 0
            retried = client.post_job(tune_job())
        assert retried.status == 200
        assert retried.source == "computed"


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(
        self, tmp_path, worker
    ):
        worker.delay = 1.0
        background = BackgroundServer(
            store_dir=tmp_path / "store",
            cache_dir=tmp_path / "cache",
            scale="tiny",
            executor="thread",
            jobs=2,
            retry=RetryPolicy(backoff_s=0.001),
        ).start()
        with ServerClient(background.host, background.port) as client:
            accepted = client.post_job(tune_job(), wait=False)
            assert accepted.status == 202
        assert wait_until(lambda: worker.calls, timeout=5.0)
        background.stop(drain=True)
        # The in-flight job ran to completion and its result persisted.
        store = ResultStore(tmp_path / "store")
        payload = store.load(JobSpec("flow", "conv", "tiny", "V2", 1e-1))
        assert payload is not None
        assert payload["value"] == 42

    def test_submissions_after_shutdown_are_refused(
        self, tmp_path, worker
    ):
        background = BackgroundServer(
            store_dir=tmp_path / "store",
            cache_dir=tmp_path / "cache",
            scale="tiny",
            executor="thread",
        ).start()
        host, port = background.host, background.port
        background.stop()
        try:
            with ServerClient(host, port, timeout=2.0) as client:
                reply = client.post_job(tune_job())
                refused = reply.status in (503,)
        except OSError:
            refused = True  # listener already gone: equally refused
        assert refused


class TestIntrospection:
    def test_metrics_render_server_and_store_counters(
        self, client, worker
    ):
        client.post_job(tune_job())
        client.post_job(tune_job())
        text = client.metrics()
        metrics = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert metrics["repro_server_computed"] == "1"
        assert metrics["repro_server_store_hits"] == "1"
        assert metrics["repro_store_misses"] == "1"
        assert metrics["repro_server_in_flight"] == "0"

    def test_stats_payload_round_trips(self, client, worker):
        client.post_job(tune_job())
        payload = client.stats().json["server"]
        stats = ServerStats.from_payload(payload)
        assert stats.to_payload() == payload
        assert client.health().json == {"ok": True}


class TestRunnerSpec:
    def test_worker_spec_equals_a_campaigns(self, server, worker, tmp_path):
        """A served job bootstraps its worker from the same spec a
        campaign over the same store and tuning cache ships."""
        with ServerClient(server.host, server.port) as client:
            assert client.post_job(tune_job()).status == 200
        (shipped,) = worker.runner_specs
        runner = ExperimentRunner(
            session=Session(cache_dir=tmp_path / "elsewhere"),
            scale="tiny",
            store_dir=tmp_path / "store",
            cache_dir=tmp_path / "cache",
        )
        spec = runner.flow_spec("conv", "V2", 1e-1)
        assert shipped == build_runner_spec(
            runner.session, runner.cache_dir, runner.store, [spec]
        )
        assert shipped["session"]["cache_dir"] == str(tmp_path / "cache")


class TestByteIdentity:
    """Server-computed results equal serial-runner results, byte for
    byte, down to the on-disk store envelope (the real worker, no
    fakes)."""

    def test_server_store_envelope_matches_serial_run(self, tmp_path):
        spec = JobSpec("flow", "conv", "tiny", "V2", 1e-1)
        serial_store = tmp_path / "serial"
        runner = ExperimentRunner(
            session=Session(cache_dir=tmp_path / "cache-a"),
            scale="tiny",
            store_dir=serial_store,
        )
        runner.run([spec])
        served_store = tmp_path / "served"
        with BackgroundServer(
            store_dir=served_store,
            cache_dir=tmp_path / "cache-b",
            scale="tiny",
            executor="thread",
        ) as background:
            with ServerClient(background.host, background.port) as client:
                reply = client.post_job(tune_job())
        assert reply.status == 200 and reply.source == "computed"
        serial_path = ResultStore(serial_store).path(spec)
        served_path = ResultStore(served_store).path(spec)
        assert serial_path.read_bytes() == served_path.read_bytes()
        assert reply.json["payload"] == json.loads(
            serial_path.read_text()
        )["payload"]

    def test_warm_flat_legacy_store_serves_without_recompute(
        self, tmp_path
    ):
        """A pre-shard (v3-layout) store is read through and migrated by
        the server's worker -- nothing recomputed."""
        spec = JobSpec("flow", "conv", "tiny", "V2", 1e-1)
        root = tmp_path / "store"
        legacy = ResultStore(root, version=STORE_VERSION - 1)
        planted = {"planted": True, "value": 7}
        write_json_atomic(
            root / f"v{STORE_VERSION - 1}" / "flow" / legacy.name(spec),
            legacy._envelope(spec, planted),
        )
        with BackgroundServer(
            store_dir=root,
            cache_dir=tmp_path / "cache",
            scale="tiny",
            executor="thread",
        ) as background:
            with ServerClient(background.host, background.port) as client:
                reply = client.post_job(tune_job())
        # Had the server recomputed, the payload would be a real flow
        # result, not the planted marker.
        assert reply.status == 200
        assert reply.source == "store"
        assert reply.json["payload"] == planted
        # And the entry now lives in the sharded layout.
        assert ResultStore(root).path(spec).exists()
