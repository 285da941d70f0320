"""Per-layer timers and counters, installed from outside the program.

:func:`install` wraps the public entry points of each ``repro`` module
(``tuning``, ``core``, ``apps``, ``hardware``, ``cluster``, ``flow``,
``runner``, ``server``, ``analysis``) in place.  Nothing under ``src/``
knows about it: the wrappers are attached to the imported classes and
modules at run time, only in the traced run of a workload.

Accounting is by *self time*: a wrapped call pushes a frame on a stack,
and when it returns, its duration minus the time of the wrapped calls
it made is added to its layer.  The layer totals therefore add up to
the traced wall time minus ``other_s``, the time spent outside every
wrapped entry point.  Only the main thread is traced.

Two layers are drawn by context rather than by function:

* a numeric program run (an app's ``run_numeric``) made while a tuning
  call is on the stack is a tuner evaluation, and its time stays in
  ``tuning.evaluate``; any other numeric run is ``core.numeric``;
* in the job server, coroutine methods are timed per step (from resume
  to suspension), so time a request spends waiting on its socket is not
  charged to it; the event loop's wait for I/O is ``server.idle``.

:data:`LAYER_METRICS` lists every metric this module produces, and the
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["LAYER_METRICS", "Tracer", "install"]

#: (name, unit, better, which end-to-end metric on which workload it
#: should move).  BENCHMARK.json's per_layer list is this table without
#: its last column.
LAYER_METRICS = (
    ("tuning.evaluate_calls", "count", "lower",
     "small-cold wall_s; 0 on paper-kernels"),
    ("tuning.program_runs", "count", "lower",
     "small-cold wall_s; 0 on paper-kernels"),
    ("tuning.repeat_ratio", "ratio", "lower",
     "small-cold wall_s (share of tuner runs that repeat a binding)"),
    ("tuning.evaluate_s", "s", "lower",
     "small-cold wall_s; 0 on paper-kernels"),
    ("tuning.solve_s", "s", "lower", "small-cold wall_s"),
    ("core.numeric_runs", "count", "lower", "small-cold wall_s"),
    ("core.numeric_s", "s", "lower", "small-cold wall_s"),
    ("apps.build_calls", "count", "lower",
     "paper-kernels wall_s and sim_minstr_per_s; ~1/6 of small-cold"),
    ("apps.build_s", "s", "lower",
     "paper-kernels wall_s and sim_minstr_per_s; ~1/6 of small-cold"),
    ("apps.partition_s", "s", "lower",
     "paper-kernels wall_s and sim_minstr_per_s"),
    ("apps.instrs_emitted", "count", "lower",
     "paper-kernels wall_s and sim_minstr_per_s"),
    ("hardware.lower_s", "s", "lower",
     "paper-kernels wall_s and sim_minstr_per_s"),
    ("hardware.replays", "count", "lower", "paper-kernels wall_s"),
    ("hardware.replay_s", "s", "lower",
     "paper-kernels wall_s and sim_minstr_per_s"),
    ("hardware.sim_instrs", "count", "lower",
     "model output: identical under simulator-only changes"),
    ("hardware.sim_cycles", "count", "lower",
     "model output: identical under simulator-only changes"),
    ("cluster.replays", "count", "lower", "paper-kernels wall_s"),
    ("cluster.replay_s", "s", "lower",
     "paper-kernels wall_s and sim_minstr_per_s"),
    ("cluster.sim_instrs", "count", "lower",
     "model output: identical under simulator-only changes"),
    ("cluster.sim_cycles", "count", "lower",
     "model output: identical under simulator-only changes"),
    ("flow.runs", "count", "lower", "small-cold wall_s"),
    ("flow.run_s", "s", "lower", "small-cold wall_s"),
    ("analysis.compute_s", "s", "lower", "small-cold wall_s"),
    ("analysis.render_s", "s", "lower", "small-cold wall_s"),
    ("runner.jobs_computed", "count", "lower", "small-cold wall_s"),
    ("runner.store_hits", "count", "higher",
     "serve-warm req_per_s; small-cold wall_s"),
    ("runner.memo_hits", "count", "higher", "small-cold wall_s"),
    ("runner.job_s", "s", "lower", "small-cold wall_s"),
    ("runner.store_loads", "count", "lower",
     "serve-warm req_p50_ms and req_per_s"),
    ("runner.store_load_s", "s", "lower",
     "serve-warm req_p50_ms and req_per_s"),
    ("runner.store_saves", "count", "lower", "small-cold wall_s (slightly)"),
    ("runner.store_save_s", "s", "lower", "small-cold wall_s (slightly)"),
    ("server.requests", "count", "higher", "serve-warm req_per_s"),
    ("server.not_modified", "count", "higher", "serve-warm req_per_s"),
    ("server.computed", "count", "lower",
     "serve-warm: must be 0 in the measured phase"),
    ("server.parse_s", "s", "lower", "serve-warm req_p50_ms and req_per_s"),
    ("server.dispatch_s", "s", "lower",
     "serve-warm req_p50_ms and req_per_s"),
    ("server.respond_s", "s", "lower",
     "serve-warm req_p50_ms and req_per_s"),
    ("server.loop_s", "s", "lower", "serve-warm req_p50_ms and req_per_s"),
    ("server.idle_s", "s", "lower",
     "serve-warm: server waiting on clients, not server work"),
    ("traced_wall_s", "s", "lower", "the traced wall the layers split"),
    ("other_s", "s", "lower", "traced wall attributed to no layer"),
    ("trace_overhead", "ratio", "lower",
     "traced wall_s / untraced wall_s - 1"),
    ("error_rate", "ratio", "lower", "failed / attempted checks"),
    ("req_p99_ms", "ms", "lower",
     "serve-warm tail latency of the untraced run; not end-to-end "
     "because it does not repeat within a tenth between runs"),
)

#: Metric names that are layer self times (they sum to wall - other).
TIME_LAYERS = tuple(
    name[: -len("_s")]
    for name, unit, _, _ in LAYER_METRICS
    if unit == "s" and name not in ("traced_wall_s", "other_s")
)


class Tracer:
    """Self-time accounting over a stack of layer frames (main thread)."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        #: Open frames: [layer, start, time of finished child frames].
        self.stack: list = []
        self.seen_runs: set = set()
        #: Callables returning live counters (server and runner stats);
        #: reported relative to their value at the last reset.
        self.gauges: dict = {}
        self._gauge_base: dict = {}
        self.started = time.perf_counter()
        self.paused_s = 0.0
        self._paused_at = None

    def traced(self) -> bool:
        return (
            self._paused_at is None and threading.get_ident() == self.thread
        )

    def pause(self) -> None:
        """Stop tracing (and the traced wall) until :meth:`resume`."""
        self._paused_at = time.perf_counter()

    def resume(self) -> None:
        self.paused_s += time.perf_counter() - self._paused_at
        self._paused_at = None

    def skip(self, seconds: float) -> None:
        """Leave out ``seconds`` just spent outside the program (a host
        probe) from every open frame and from the traced wall."""
        if self._paused_at is not None:
            return  # a pause already leaves it out
        for frame in self.stack:
            frame[1] += seconds
        self.paused_s += seconds

    def enter(self, layer: str) -> None:
        self.stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child = self.stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def in_layer(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self.stack)

    def reset(self) -> None:
        """Start a measured interval now (open frames restart too)."""
        now = time.perf_counter()
        self.self_s.clear()
        self.counts.clear()
        self.seen_runs.clear()
        for frame in self.stack:
            frame[1] = now
            frame[2] = 0.0
        self._gauge_base = {name: fn() for name, fn in self.gauges.items()}
        self.started = now
        self.paused_s = 0.0

    def snapshot(self) -> dict:
        """Layer metrics of the interval since the last reset."""
        now = time.perf_counter()
        self_s = dict(self.self_s)
        # Close open frames on paper, innermost first.
        inner = 0.0
        for layer, start, child in reversed(self.stack):
            elapsed = now - start
            self_s[layer] = self_s.get(layer, 0.0) + elapsed - child - inner
            inner = elapsed
        wall = now - self.started - self.paused_s
        metrics = {
            f"{layer}_s": self_s.get(layer, 0.0) for layer in TIME_LAYERS
        }
        for name, unit, _, _ in LAYER_METRICS:
            if unit == "count":
                metrics[name] = self.counts.get(name, 0)
        for name, fn in self.gauges.items():
            metrics[name] = fn() - self._gauge_base.get(name, 0)
        runs = self.counts.get("tuning.program_runs", 0)
        repeats = self.counts.get("tuning.repeat_runs", 0)
        metrics["tuning.repeat_ratio"] = repeats / runs if runs else 0.0
        metrics["traced_wall_s"] = wall
        metrics["other_s"] = wall - sum(self_s.values())
        return metrics


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, layer: str, fn, after=None):
    """Wrap a synchronous callable as a layer frame; ``after(result,
    args)`` updates counters once it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.traced():
            return fn(*args, **kwargs)
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args)
        return result

    return wrapper


class _StepTimed:
    """Await a coroutine, timing each step it runs as one layer frame."""

    def __init__(self, tracer: Tracer, layer: str, coro) -> None:
        self.tracer = tracer
        self.layer = layer
        self.coro = coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        value, error = None, None
        while True:
            tracer.enter(self.layer)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def _step_timed(tracer: Tracer, layer: str, fn, after=None):
    """Wrap a coroutine function; ``after(result, args)`` as in _timed."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not tracer.traced():
            return await fn(*args, **kwargs)
        result = await _StepTimed(tracer, layer, fn(*args, **kwargs))
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _patch(owner, name: str, wrap) -> None:
    setattr(owner, name, wrap(getattr(owner, name)))


def _count(tracer: Tracer, name: str):
    def after(result, args):
        tracer.counts[name] += 1

    return after


# ----------------------------------------------------------------------
# Installation, one module at a time
# ----------------------------------------------------------------------
def _install_tuning_and_core(tracer: Tracer) -> None:
    from repro.apps import APP_CLASSES
    from repro.tuning.api import TuningStrategy
    from repro.tuning.search import DistributedSearch

    _patch(TuningStrategy, "solve",
           lambda fn: _timed(tracer, "tuning.solve", fn))
    _patch(DistributedSearch, "evaluate",
           lambda fn: _timed(tracer, "tuning.evaluate", fn,
                             _count(tracer, "tuning.evaluate_calls")))

    def numeric(fn):
        @functools.wraps(fn)
        def wrapper(self, binding, input_id=0):
            if not tracer.traced():
                return fn(self, binding, input_id)
            if tracer.in_layer("tuning."):
                # A run the tuner asked for, whichever strategy path
                # issued it: count it, and keep its time in evaluate.
                layer = "tuning.evaluate"
                tracer.counts["tuning.program_runs"] += 1
                key = (
                    self.name, self.scale.name, input_id,
                    tuple(sorted(
                        (name, fmt.exp_bits, fmt.man_bits)
                        for name, fmt in binding.items()
                    )),
                )
                if key in tracer.seen_runs:
                    tracer.counts["tuning.repeat_runs"] += 1
                tracer.seen_runs.add(key)
            else:
                layer = "core.numeric"
                tracer.counts["core.numeric_runs"] += 1
            if tracer.stack and tracer.stack[-1][0] == layer:
                return fn(self, binding, input_id)
            tracer.enter(layer)
            try:
                return fn(self, binding, input_id)
            finally:
                tracer.exit()

        return wrapper

    for cls in APP_CLASSES.values():
        _patch(cls, "run_numeric", numeric)


def _install_apps(tracer: Tracer) -> None:
    from repro.apps import APP_CLASSES, TransprecisionApp

    def build_done(program, args):
        tracer.counts["apps.build_calls"] += 1
        tracer.counts["apps.instrs_emitted"] += len(program.instrs)

    for cls in APP_CLASSES.values():
        _patch(cls, "build_program",
               lambda fn: _timed(tracer, "apps.build", fn, build_done))

    def partition(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.traced():
                return fn(*args, **kwargs)
            before = tracer.counts["apps.instrs_emitted"]
            tracer.enter("apps.partition")
            try:
                programs = fn(*args, **kwargs)
            finally:
                tracer.exit()
            # Streams emitted by nested build_program calls are already
            # counted; add only what the partitioner emitted itself.
            nested = tracer.counts["apps.instrs_emitted"] - before
            tracer.counts["apps.instrs_emitted"] += (
                sum(len(p.instrs) for p in programs) - nested
            )
            return programs

        return wrapper

    _patch(TransprecisionApp, "partition", partition)


def _install_hardware_and_cluster(tracer: Tracer) -> None:
    from repro.cluster import ClusterPlatform
    from repro.hardware import Program, VirtualPlatform

    def columns(fn):
        lowering = _timed(tracer, "hardware.lower", fn)

        @functools.wraps(fn)
        def wrapper(self):
            # Lowering is cached on the program: only the first call
            # does the work.
            if self._columns is not None:
                return fn(self)
            return lowering(self)

        return wrapper

    _patch(Program, "columns", columns)

    def replayed(result, args):
        tracer.counts["hardware.replays"] += 1
        tracer.counts["hardware.sim_instrs"] += result.instructions
        tracer.counts["hardware.sim_cycles"] += result.cycles

    _patch(VirtualPlatform, "run",
           lambda fn: _timed(tracer, "hardware.replay", fn, replayed))

    def cluster_replayed(result, args):
        tracer.counts["cluster.replays"] += 1
        tracer.counts["cluster.sim_instrs"] += result.instructions
        tracer.counts["cluster.sim_cycles"] += result.cycles

    _patch(ClusterPlatform, "run",
           lambda fn: _timed(tracer, "cluster.replay", fn, cluster_replayed))


def _install_flow_runner_analysis(tracer: Tracer) -> None:
    from repro import cli
    from repro.analysis import export
    from repro.flow import TransprecisionFlow
    from repro.runner import ExperimentRunner, ResultStore

    _patch(TransprecisionFlow, "run",
           lambda fn: _timed(tracer, "flow.run", fn,
                             _count(tracer, "flow.runs")))

    def loaded(payload, args):
        tracer.counts["runner.store_loads"] += 1
        tracer.counts["runner.store_hits"] += payload is not None

    _patch(ResultStore, "load",
           lambda fn: _timed(tracer, "runner.store_load", fn, loaded))
    _patch(ResultStore, "save",
           lambda fn: _timed(tracer, "runner.store_save", fn,
                             _count(tracer, "runner.store_saves")))
    _patch(ExperimentRunner, "_compute_and_store",
           lambda fn: _timed(tracer, "runner.job", fn,
                             _count(tracer, "runner.jobs_computed")))
    for name in ("run", "_fetch"):
        _patch(ExperimentRunner, name,
               lambda fn: _timed(tracer, "runner.job", fn))

    runners: list = []

    def register(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            runners.append(self)

        return wrapper

    _patch(ExperimentRunner, "__init__", register)
    tracer.gauges["runner.memo_hits"] = lambda: sum(
        r.counters.memo_hits for r in runners
    )

    for driver in cli._DRIVERS.values():
        _patch(driver, "compute",
               lambda fn: _timed(tracer, "analysis.compute", fn))
        _patch(driver, "render",
               lambda fn: _timed(tracer, "analysis.render", fn))
    _patch(export, "export_all",
           lambda fn: _timed(tracer, "analysis.render", fn))


def _install_server(tracer: Tracer) -> None:
    import asyncio.base_events
    import selectors

    from repro.server import app as server_app

    JobServer = server_app.JobServer
    servers: list = []

    def register(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            servers.append(self)

        return wrapper

    _patch(JobServer, "__init__", register)
    for stat in ("requests", "not_modified", "computed"):
        tracer.gauges[f"server.{stat}"] = functools.partial(
            lambda stat: sum(getattr(s.stats, stat) for s in servers), stat
        )

    _patch(server_app, "read_request",
           lambda fn: _step_timed(tracer, "server.parse", fn))
    _patch(server_app.HTTPRequest, "json",
           lambda fn: _timed(tracer, "server.parse", fn))
    _patch(JobServer, "parse_job",
           lambda fn: _timed(tracer, "server.parse", fn))
    _patch(JobServer, "_serve_connection",
           lambda fn: _step_timed(tracer, "server.dispatch", fn))
    for name in ("_respond_result", "_respond_json"):
        _patch(JobServer, name,
               lambda fn: _step_timed(tracer, "server.respond", fn))
    _patch(asyncio.base_events.BaseEventLoop, "_run_once",
           lambda fn: _timed(tracer, "server.loop", fn))
    _patch(type(selectors.DefaultSelector()), "select",
           lambda fn: _timed(tracer, "server.idle", fn))


def install(server: bool = False) -> Tracer:
    """Wrap every layer's entry points; returns the live tracer.

    ``server`` also wraps the job server and the asyncio event loop
    (only the traced server process wants those).
    """
    tracer = Tracer()
    _install_tuning_and_core(tracer)
    _install_apps(tracer)
    _install_hardware_and_cluster(tracer)
    _install_flow_runner_analysis(tracer)
    if server:
        _install_server(tracer)
    else:
        for stat in ("requests", "not_modified", "computed"):
            tracer.gauges[f"server.{stat}"] = lambda: 0
    return tracer
