"""Tests for the Session facade (repro.session)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16ALT,
    active_backend,
    collect,
    record_op,
)
from repro.core.backend import FastNumpyBackend, ReferenceBackend
from repro.core.stats import OpKey
from repro.session import Session, get_session, use_backend, use_session
from tests.flexfloat import FlexFloat, FlexFloatArray


class TestConstruction:
    def test_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        s = Session()
        assert isinstance(s.backend, ReferenceBackend)
        assert s.cache_dir == tmp_path / "results" / "tuning"

    def test_backend_by_name_and_instance(self):
        assert isinstance(Session(backend="fast").backend, FastNumpyBackend)
        mine = FastNumpyBackend()
        assert Session(backend=mine).backend is mine

    def test_backend_reassignment(self):
        s = Session()
        s.backend = "fast"
        assert isinstance(s.backend, FastNumpyBackend)

    def test_cache_dir_accepts_str(self, tmp_path):
        s = Session(cache_dir=str(tmp_path / "c"))
        assert isinstance(s.cache_dir, Path)

    def test_platform_is_lazy_and_shared(self):
        s = Session()
        assert s._platform is None
        p = s.platform
        assert s.platform is p

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            Session(backend="warp-drive")


class TestActivation:
    def test_active_backend_follows_session(self):
        s = Session(backend="fast")
        assert active_backend().name == "reference"
        with s:
            assert active_backend().name == "fast"
        assert active_backend().name == "reference"

    def test_get_session_returns_active(self):
        s = Session()
        default = get_session()
        assert default is not s
        with s:
            assert get_session() is s
        assert get_session() is default

    def test_default_session_is_stable(self):
        assert get_session() is get_session()

    def test_nesting(self):
        outer, inner = Session(backend="fast"), Session()
        with outer:
            with inner:
                assert get_session() is inner
                assert active_backend().name == "reference"
            assert get_session() is outer
            assert active_backend().name == "fast"

    def test_use_session_alias(self):
        s = Session()
        with use_session(s) as active:
            assert active is s and get_session() is s

    def test_activate_form(self):
        s = Session(backend="fast")
        with s.activate():
            assert active_backend().name == "fast"
        assert active_backend().name == "reference"


class TestSessionStats:
    def test_collect_scoped_to_session(self):
        s = Session()
        with s, s.collect() as stats:
            FlexFloat(1.0, BINARY8) + 1.0
        assert stats.ops[OpKey("binary8", "add", False)] == 1

    def test_two_sessions_fully_isolated(self):
        a, b = Session(), Session()
        with a.collect() as sa, b.collect() as sb:
            with a:
                record_op(BINARY8, "add", 3)
            with b:
                record_op(BINARY8, "add", 5)
        assert sa.ops[OpKey("binary8", "add", False)] == 3
        assert sb.ops[OpKey("binary8", "add", False)] == 5

    def test_session_vectorizable(self):
        s = Session()
        with s, s.collect() as stats, s.vectorizable():
            record_op(BINARY8, "mul", 2)
        assert stats.ops[OpKey("binary8", "mul", True)] == 2

    def test_default_session_backs_module_shims(self):
        with get_session().collect() as stats:
            with collect() as module_stats:
                record_op(BINARY8, "add")
        assert stats.total_ops() == 1
        assert module_stats.total_ops() == 1


class TestThreadIsolation:
    def test_concurrent_sessions_do_not_contaminate(self):
        """A session activated in one thread must not capture ops from
        sessions running concurrently in other threads."""
        import threading

        counts = {}
        barrier = threading.Barrier(2)

        def work(label):
            with Session() as s, s.collect() as stats:
                barrier.wait()  # both sessions active simultaneously
                for _ in range(50):
                    record_op(BINARY8, "add", 10)
                barrier.wait()
            counts[label] = stats.total_ops()

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counts == {0: 500, 1: 500}

    def test_worker_threads_reach_default_collectors(self):
        """Seed semantics preserved: with no session active, worker
        threads record into the (shared) default context."""
        import threading

        with collect() as stats:
            t = threading.Thread(
                target=lambda: record_op(BINARY8, "mul", 3)
            )
            t.start()
            t.join()
        assert stats.total_ops() == 3


class TestBackendSwitching:
    def test_session_use_backend(self):
        s = Session()
        with s:
            with s.use_backend("fast"):
                assert active_backend().name == "fast"
            assert active_backend().name == "reference"

    def test_module_use_backend_keeps_collectors(self):
        with collect() as stats:
            with use_backend("fast"):
                FlexFloatArray([1.0, 2.0], BINARY16ALT) * 2.0
        assert stats.ops[OpKey("binary16alt", "mul", False)] == 2

    def test_results_identical_across_backends(self):
        payload = np.linspace(-3, 3, 97)
        out = {}
        for name in ("reference", "fast"):
            with Session(backend=name):
                arr = FlexFloatArray(payload, BINARY16ALT)
                out[name] = ((arr * arr).sum(), (arr + 1.5).to_numpy())
        assert float(out["reference"][0]) == float(out["fast"][0])
        assert np.array_equal(out["reference"][1], out["fast"][1])


class TestFlowWiring:
    def test_flow_inherits_platform_and_cache(self, tmp_path):
        from repro.apps import make_app
        from repro.tuning import V2

        s = Session(backend="fast", cache_dir=tmp_path / "cache")
        flow = s.flow(make_app("conv", "small"), V2, 1e-1)
        assert flow.session is s
        assert flow.platform is s.platform
        assert flow.cache_dir == tmp_path / "cache"

    def test_flow_overrides_still_win(self, tmp_path):
        from repro.apps import make_app
        from repro.tuning import V2

        s = Session(cache_dir=tmp_path / "a")
        flow = s.flow(make_app("conv", "small"), V2, 1e-1,
                      cache_dir=tmp_path / "b")
        assert flow.cache_dir == tmp_path / "b"

    def test_experiment_config_owns_a_session(self, tmp_path):
        from repro.analysis import ExperimentConfig

        cfg = ExperimentConfig(scale="small", cache_dir=str(tmp_path),
                               backend="fast")
        assert cfg.session is not None
        assert cfg.session.backend.name == "fast"
        assert cfg.session.cache_dir == tmp_path

    def test_experiment_config_accepts_explicit_session(self, tmp_path):
        from repro.analysis import ExperimentConfig

        s = Session(cache_dir=tmp_path)
        cfg = ExperimentConfig(scale="small", session=s)
        assert cfg.session is s
        assert cfg.resolved_cache_dir() == tmp_path


class TestDefaultStrategy:
    def test_defaults_to_greedy(self):
        assert Session().default_strategy == "greedy"

    def test_accepts_name_and_instance(self):
        from repro.tuning import resolve_strategy

        assert Session(default_strategy="bisect").default_strategy == (
            "bisect"
        )
        instance = resolve_strategy("anneal")
        assert Session(
            default_strategy=instance
        ).default_strategy == "anneal"

    def test_unknown_strategy_fails_at_construction(self):
        with pytest.raises(KeyError, match="unknown tuning strategy"):
            Session(default_strategy="nope")

    def test_spec_round_trips_strategy(self):
        session = Session(default_strategy="bisect")
        spec = session.spec()
        assert spec["strategy"] == "bisect"
        assert Session.from_spec(spec).default_strategy == "bisect"

    def test_legacy_spec_without_strategy_defaults(self):
        spec = Session().spec()
        del spec["strategy"]
        assert Session.from_spec(spec).default_strategy == "greedy"

    def test_runner_inherits_session_strategy(self, tmp_path):
        from repro.runner import ExperimentRunner

        runner = ExperimentRunner(
            session=Session(
                cache_dir=tmp_path, default_strategy="bisect"
            ),
            scale="tiny",
            store_dir=tmp_path / "store",
        )
        assert runner.default_strategy == "bisect"
        assert runner.flow_spec("conv", "V2", 1e-1).strategy == "bisect"
        # Explicit per-spec strategies override the session default.
        assert runner.flow_spec(
            "conv", "V2", 1e-1, strategy="greedy"
        ).strategy == "greedy"
        # Tuning-dependent reports carry it; baselines normalize.
        assert runner.report_spec(
            "castless", "conv", "V2", 1e-1
        ).strategy == "bisect"
        assert runner.report_spec(
            "baseline", "conv"
        ).strategy == "greedy"
