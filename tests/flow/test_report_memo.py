"""The session's kernel memo: each distinct kernel builds and replays once.

:meth:`VirtualPlatform.run_app` memoizes :class:`RunReport`s on the
current session's memo, keyed by backend, latency override, app, input,
``vectorize`` and each variable's format (names included).  The
castless and fast16 report variants share one tuned build per session
through the same memo.  These tests pin what the memo shares, what it
keys apart, and that every report it serves equals a fresh build and
replay.
"""

from collections import Counter

import pytest

from repro import Session
from repro.apps import APP_CLASSES, make_app
from repro.core import BINARY16, BINARY32, FPFormat
from repro.flow import TransprecisionFlow
from repro.hardware import RunReport, VirtualPlatform, kernel_key
from repro.runner.jobs import compute_report, strip_casts
from repro.runner.store import JobSpec
from repro.tuning import V1, V2

FAST16 = {"binary16": 1, "binary16alt": 1}


@pytest.fixture
def builds(monkeypatch):
    """Counts ``build_program`` calls per (app, binding, vectorize)."""
    seen = Counter()
    for cls in APP_CLASSES.values():

        def counting(self, binding, input_id=0, vectorize=True,
                     _build=cls.build_program):
            formats = tuple(
                (name, fmt.exp_bits, fmt.man_bits, fmt.name)
                for name, fmt in sorted(binding.items())
            )
            seen[self, formats, input_id, vectorize] += 1
            return _build(self, binding, input_id, vectorize)

        monkeypatch.setattr(cls, "build_program", counting)
    return seen


def fresh_report(backend, app, binding, vectorize, override=None):
    """Build and replay outside any memo (a new session each time)."""
    with Session(backend=backend):
        program = app.build_program(binding, 0, vectorize)
        return VirtualPlatform(override).run(program)


def reports_in(session):
    return {
        key: value
        for key, value in session.context.memo.items()
        if key[0] == "report"
    }


class TestFlowsAndVariants:
    def test_each_distinct_kernel_builds_once(self, tmp_path, builds):
        session = Session(backend="fast", cache_dir=tmp_path)
        app = make_app("conv", "tiny")
        results = [
            TransprecisionFlow(app, ts, precision, session=session).run()
            for ts, precision in ((V1, 1e-1), (V2, 1e-1), (V2, 1e-2))
        ]
        baseline_job = JobSpec("report", "conv", "tiny", variant="baseline")
        variant = compute_report(baseline_job, session, get_flow=None)

        # Three flows and the variant ask for one baseline kernel.
        assert set(builds.values()) == {1}
        assert len(builds) == 1 + len({
            tuple(sorted((n, f.exp_bits, f.man_bits, f.name)
                         for n, f in r.binding.items()))
            for r in results
        })
        assert variant is results[0].baseline_report
        memo = reports_in(session)
        assert len(memo) == len(builds)
        assert all(isinstance(r, RunReport) for r in memo.values())

        want = fresh_report("fast", app, app.baseline_binding(), False)
        assert variant.to_payload() == want.to_payload()
        for result in results:
            assert result.baseline_report.to_payload() == want.to_payload()
            tuned = fresh_report("fast", app, result.binding, True)
            assert result.tuned_report.to_payload() == tuned.to_payload()

    def test_castless_and_fast16_share_one_tuned_build(self, tmp_path,
                                                       builds):
        first = Session(backend="fast", cache_dir=tmp_path)
        app = make_app("conv", "tiny")
        flow = TransprecisionFlow(app, V2, 1e-1, session=first).run()
        tuned_key = next(
            key for key in builds if key[3] and key[0] == app
        )
        assert builds[tuned_key] == 1  # the flow's own build

        def variant(name, session):
            job = JobSpec("report", "conv", "tiny", "V2", 1e-1, name)
            return compute_report(job, session, lambda *_: flow)

        castless = variant("castless", first)
        fast16 = variant("fast16", first)
        assert builds[tuned_key] == 2  # one more, shared by both

        second = Session(backend="fast", cache_dir=tmp_path)
        variant("fast16", second)
        assert builds[tuned_key] == 3  # sessions share nothing
        variant("castless", second)
        assert builds[tuned_key] == 3

        with Session(backend="fast"):
            program = app.build_program(flow.binding, 0, vectorize=True)
        assert castless.to_payload() == VirtualPlatform().run(
            strip_casts(program)
        ).to_payload()
        assert fast16.to_payload() == VirtualPlatform(FAST16).run(
            program
        ).to_payload()


class TestKeys:
    def test_format_names_are_keyed_apart(self, builds):
        app = make_app("conv", "tiny")
        named = app.baseline_binding()
        anonymous = {name: FPFormat(8, 23) for name in named}
        assert anonymous == named  # FPFormat equality ignores names
        assert kernel_key(app, anonymous, 0, True) != kernel_key(
            app, named, 0, True
        )
        with Session(backend="fast"):
            VirtualPlatform().run_app(app, named)
            # Served the named report, this would not raise: the
            # energy table has no entry for an anonymous format.
            with pytest.raises(KeyError):
                VirtualPlatform().run_app(app, anonymous)
        assert sum(builds.values()) == 2

    def test_latency_override_is_keyed_apart(self, builds):
        app = make_app("conv", "tiny")
        binding = {name: BINARY16 for name in app.baseline_binding()}
        with Session(backend="fast"):
            plain = VirtualPlatform().run_app(app, binding)
            fast16 = VirtualPlatform(FAST16).run_app(app, binding)
            again = VirtualPlatform(dict(FAST16)).run_app(app, binding)
        assert fast16.cycles < plain.cycles
        assert again is fast16
        assert sum(builds.values()) == 2

    def test_backends_and_sessions_share_nothing(self, builds):
        app = make_app("conv", "tiny")
        binding = {name: BINARY32 for name in app.baseline_binding()}
        session = Session(backend="fast")
        with session:
            first = session.platform.run_app(app, binding)
            assert session.platform.run_app(app, binding) is first
            with session.use_backend("reference"):
                other = session.platform.run_app(app, binding)
        with Session(backend="fast") as fresh:
            fresh.platform.run_app(app, binding)
        assert sum(builds.values()) == 3
        assert other.to_payload() == first.to_payload()
