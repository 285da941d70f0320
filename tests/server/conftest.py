"""Fixtures for the job-server tests.

Servers run in-process on a background event-loop thread with a
*thread* executor, so a monkeypatched ``execute_job`` (the
:class:`FakeWorker`) is visible to the server and tests can count
exactly how many computations reached the pool.  Tests that need the
real worker (byte-identity, warm-store migration) simply skip the
``worker`` fixture.
"""

import threading
import time

import pytest

import repro.server.app as server_app
from repro.runner import ResultStore, RetryPolicy
from repro.server import BackgroundServer, ServerClient


class FakeWorker:
    """A stand-in for ``execute_job`` that counts and controls calls.

    Mirrors the real worker's contract: re-check the store, compute on
    a miss, persist, return the outcome dict.  ``delay`` holds the
    "computation" open so dedup windows are wide; ``fail_attempts``
    raises a transient ``OSError`` for the first N attempts of every
    job.
    """

    def __init__(self) -> None:
        self.calls = []
        self.runner_specs = []
        self.delay = 0.0
        self.fail_attempts = 0
        self._lock = threading.Lock()

    def __call__(self, runner_spec, job, attempt=0):
        with self._lock:
            self.calls.append((job, attempt))
            self.runner_specs.append(runner_spec)
        if self.delay:
            time.sleep(self.delay)
        if attempt < self.fail_attempts:
            raise OSError(f"injected transient failure (attempt {attempt})")
        store = ResultStore(
            runner_spec["store_root"],
            backend=runner_spec["session"]["backend"],
            version=runner_spec["store_version"],
        )
        payload = store.load(job)
        if payload is not None:
            return {"computed": False, "payload": payload, "seconds": 0.0}
        payload = {"job": "-".join(job.key_fields()), "value": 42}
        store.save(job, payload)
        return {"computed": True, "payload": payload, "seconds": 0.01}


@pytest.fixture
def worker(monkeypatch):
    fake = FakeWorker()
    monkeypatch.setattr(server_app, "execute_job", fake)
    return fake


@pytest.fixture
def make_server(tmp_path):
    """Factory for in-process servers (thread executor, shared store)."""
    started = []

    def make(**kwargs):
        settings = dict(
            store_dir=tmp_path / "store",
            cache_dir=tmp_path / "cache",
            scale="tiny",
            executor="thread",
            jobs=4,
            retry=RetryPolicy(backoff_s=0.001),
        )
        settings.update(kwargs)
        background = BackgroundServer(**settings).start()
        started.append(background)
        return background

    yield make
    for background in started:
        background.stop()


@pytest.fixture
def server(make_server, worker):
    return make_server()


@pytest.fixture
def client(server):
    with ServerClient(server.host, server.port) as bound:
        yield bound


def tune_job(**overrides) -> dict:
    job = {
        "kind": "tune", "app": "conv", "scale": "tiny",
        "type_system": "V2", "precision": 1e-1,
    }
    job.update(overrides)
    return job
