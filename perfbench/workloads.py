"""The benchmark's three workloads; each run is one fresh worker process.

``run.py`` starts this file as a worker::

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S \\
        --scale SCALE --work-root DIR [--traced]

The worker makes its own temporary working directory under
``--work-root`` (and removes it on exit), does the workload's set-up,
prints ``READY <probe seconds> <host scale>`` on its standard output
(see :class:`HostProbe`) and reads one command line from its standard
input: ``go`` measures and prints one JSON result line, ``quit`` only
cleans up.  Everything else the program prints goes to standard error.
With ``--traced`` the layer timers of ``layers.py`` are installed (for
``serve-warm``: in the server process) and the result carries the layer
metrics of the measured interval.

Workloads (all on the ``fast`` backend, one process each):

* ``small-cold`` -- every driver of ``repro all`` from an empty store and
  tuning cache; one pass.  Tuning and numeric emulation dominate.
* ``paper-kernels`` -- a kernel build-and-replay sweep with no tuning:
  per app the binary32 scalar baseline and four uniform vectorized
  bindings, each replayed with default and fast16 latencies, plus
  multi-core partitions replayed at 1:1 and 1:4 FPU sharing; one pass.
* ``serve-warm`` -- ``repro serve`` in its own process over a store seeded
  from the tiny grid; a closed loop of two keep-alive connections posts
  grid jobs for ``--seconds``, a quarter of them revalidations.

Metrics every workload reports: ``wall_s`` (one pass; for serve-warm the
median time to complete one pass over its request schedule),
``peak_rss_mb`` (for serve-warm: the server process), ``sim_minstr_per_s``
(simulated instructions in the pass's report payloads per host second),
and ``req_per_s``/``req_p50_ms``/``req_p99_ms`` (run.py reports the
last one as a per-layer metric: it does not repeat between runs).
small-cold and paper-kernels are single-request workloads: the pass is
the request.  Timings are scaled to a reference host speed
(:class:`HostProbe`); the result also carries the raw ``raw_wall_s`` and
the ``host_scale`` applied.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Applications the multi-core sweep partitions, and its topologies.
CLUSTER_APPS = ("conv", "jacobi", "dwt", "knn")
CLUSTER_CORES = (2, 4, 8)
CLUSTER_RATIOS = (1, 4)
#: Share of serve-warm requests that revalidate with If-None-Match.
REVALIDATE_SHARE = 0.25
#: Requests in one pass of the serve-warm schedule, per grid key.
REQUESTS_PER_KEY = 4
#: Client connections, and worker processes seeding the store (nproc).
CONNECTIONS = 2
#: Equal time slices of the serve-warm measured phase (see measure()).
SLICES = 20


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_checksum(payload) -> str:
    """SHA-256 of canonical JSON: the store's and the server's ETag rule."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_instructions(payload) -> int:
    """Simulated instructions in every replay report inside a payload."""
    if isinstance(payload, dict):
        timing = payload.get("timing")
        own = (
            int(timing["instructions"])
            if isinstance(timing, dict) and "instructions" in timing
            else 0
        )
        return own + sum(
            sim_instructions(v) for k, v in payload.items() if k != "timing"
        )
    if isinstance(payload, list):
        return sum(sim_instructions(v) for v in payload)
    return 0


class Checks:
    """Counts checked operations and failures, keeping a few messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class HostProbe:
    """Times a fixed pure-Python loop, every ``PERIOD_S`` (on SIGALRM)
    while it runs, as a measure of the host's current speed.

    The hosts this benchmark runs on share their cores: the same loop
    takes up to twice as long for seconds to minutes at a time.  So the
    untraced runs report every timing at a reference host speed: the
    measured time less the probes' own time, scaled by ``REFERENCE_S``
    over the median probe time.  Work the host slows the way it slows
    the probe then reads the same whenever it runs; the raw times are
    reported next to the scaled ones.
    """

    LOOP = 80_000
    PERIOD_S = 0.25
    #: The probe's time on an unloaded host (2 vCPU, Python 3.11).
    REFERENCE_S = 0.0046

    def __init__(self, on_probe=None) -> None:
        self.samples: list[float] = []
        #: Called with each probe's duration (the tracer leaves it out).
        self.on_probe = on_probe

    def probe(self, *_) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(self.LOOP):
            x += i * i
        self.samples.append(time.perf_counter() - start)
        if self.on_probe is not None:
            self.on_probe(self.samples[-1])

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, samples=None) -> float:
        """Reference over measured host speed (1 with no samples)."""
        samples = self.samples if samples is None else samples
        if not samples:
            return 1.0
        return self.REFERENCE_S / statistics.median(samples)


class Stopwatch:
    """Sums timed sections, less the probes that ran during them.

    While the stopwatch is open (``with``), its probe runs all the time,
    so the host's speed is sampled across untimed checks too.
    """

    def __init__(self, probe: "HostProbe | None") -> None:
        self.probe = probe
        self.raw_s = 0.0
        self._running = contextlib.ExitStack()

    def __enter__(self) -> "Stopwatch":
        if self.probe is not None:
            self._running.enter_context(self.probe.running())
        return self

    def __exit__(self, *exc) -> None:
        self._running.close()

    def _probed(self) -> float:
        return 0.0 if self.probe is None else sum(self.probe.samples)

    @contextlib.contextmanager
    def section(self):
        probed = self._probed()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.raw_s += elapsed - (self._probed() - probed)

    def scale(self) -> float:
        return 1.0 if self.probe is None else self.probe.scale()


def single_request_metrics(watch: Stopwatch, instrs: int) -> dict:
    wall_s = watch.raw_s * watch.scale()
    return {
        "raw_wall_s": watch.raw_s,
        "host_scale": watch.scale(),
        "wall_s": wall_s,
        "sim_minstr_per_s": instrs / 1e6 / wall_s,
        "req_per_s": 1.0 / wall_s,
        "req_p50_ms": wall_s * 1e3,
        "req_p99_ms": wall_s * 1e3,
    }


# ----------------------------------------------------------------------
# small-cold
# ----------------------------------------------------------------------
def render_all(scale: str) -> "tuple[int, str]":
    """``repro all --scale SCALE --backend fast`` in the current directory;
    returns the exit code and everything it printed."""
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["all", "--scale", scale, "--backend", "fast"])
    return code, out.getvalue()


def strip_timing(text: str) -> str:
    """The rendered tables without their host-timing fields: the
    per-driver ``[x done in Ns]`` lines and the strategies table's time
    column (seconds, or ``cache`` once the result is stored)."""
    lines = []
    for line in text.splitlines():
        if line.startswith("[") and " done in " in line:
            continue
        head, sep, last = line.rpartition("  ")
        if sep and (last == "cache" or (
            last.endswith("s") and last[:-1].replace(".", "", 1).isdigit()
        )):
            line = head + sep + "<time>"
        lines.append(line)
    return "\n".join(lines)


def store_entries(root: Path) -> dict:
    """Relative path -> (payload checksum, payload) of every store entry."""
    entries = {}
    for path in sorted(root.glob("v*/*/*/*.json")):
        envelope = json.loads(path.read_text())
        entries[str(path.relative_to(root))] = (
            envelope.get("checksum"), envelope.get("payload"),
        )
    return entries


def check_tuned_results(scale: str, checks: Checks) -> None:
    """Every tuned result meets its SQNR target on every tuning input,
    re-evaluated here under the search binding the tuner certified."""
    from repro.apps import make_app
    from repro.session import Session
    from repro.tuning import TuningResult, sqnr_db, type_system

    references: dict = {}
    with Session(backend="fast"):
        for path in sorted(Path("results/tuning").glob("*.json")):
            result = TuningResult.from_payload(json.loads(path.read_text()))
            app = make_app(result.program, scale)
            ts = type_system(result.type_system)
            binding = {
                name: ts.search_format(bits)
                for name, bits in result.precision.items()
            }
            checks.check(bool(result.achieved_db), f"{path.name}: no inputs")
            for input_id in sorted(result.achieved_db):
                key = (result.program, input_id)
                if key not in references:
                    references[key] = app.reference(input_id)
                db = sqnr_db(references[key], app.run(binding, input_id))
                checks.check(
                    db >= result.target_db,
                    f"{path.name} input {input_id}: {db:.2f} dB "
                    f"< target {result.target_db:.2f} dB",
                )


class SmallCold:
    default_scale = "small"

    def __init__(self, args, workdir: Path, tracer, probe=None) -> None:
        self.scale = args.scale or self.default_scale
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe

    def setup(self) -> None:
        import repro.analysis.export  # noqa: F401 - import cost is set-up
        import repro.cli  # noqa: F401

        os.chdir(self.workdir)

    def cold_pass(self, watch: Stopwatch) -> "tuple[int, str]":
        if self.tracer is not None:
            self.tracer.reset()
        with watch.section():
            return render_all(self.scale)

    def measure(self) -> dict:
        with Stopwatch(self.probe) as watch:
            code, cold_text = self.cold_pass(watch)
        layers = self.tracer.snapshot() if self.tracer is not None else None
        rss = peak_rss_mb()
        entries = store_entries(Path("results/store"))
        checks = self.check(code, cold_text, entries)
        instrs = sum(sim_instructions(p) for _, p in entries.values())
        digest = hashlib.sha256(strip_timing(cold_text).encode())
        for name, (checksum, _) in sorted(entries.items()):
            digest.update(f"{name} {checksum}\n".encode())
        return dict(
            single_request_metrics(watch, instrs),
            peak_rss_mb=rss,
            attempted=checks.attempted,
            failed=checks.failed,
            messages=checks.messages,
            digest=digest.hexdigest(),
            layers=layers,
        )

    def check(self, code: int, cold_text: str, entries: dict) -> Checks:
        checks = Checks()
        checks.check(code == 0, f"repro all exited {code}")
        checks.check(bool(entries), "the cold run stored nothing")
        for name, (checksum, payload) in entries.items():
            checks.check(
                checksum == canonical_checksum(payload),
                f"store entry {name}: checksum mismatch",
            )
        check_tuned_results(self.scale, checks)
        # A fresh runner (new session, config and runner inside cli.main)
        # re-renders everything from the warm store and tuning cache.
        warm_code, warm_text = render_all(self.scale)
        checks.check(warm_code == 0, f"warm repro all exited {warm_code}")
        checks.check(
            strip_timing(warm_text) == strip_timing(cold_text),
            "warm re-render differs from the cold render",
        )
        after = store_entries(Path("results/store"))
        checks.check(
            {n: c for n, (c, _) in after.items()}
            == {n: c for n, (c, _) in entries.items()},
            "warm re-render changed the store",
        )
        return checks

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# paper-kernels
# ----------------------------------------------------------------------
class PaperKernels:
    default_scale = "paper"

    def __init__(self, args, workdir: Path, tracer, probe=None) -> None:
        self.scale = args.scale or self.default_scale
        self.seed = args.seed
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe

    def setup(self) -> None:
        from repro.apps import APP_NAMES, make_app
        from repro.cluster import ClusterConfig, ClusterPlatform
        from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
        from repro.hardware import VirtualPlatform
        from repro.session import Session

        os.chdir(self.workdir)
        self.session = Session(backend="fast")
        self.apps = {name: make_app(name, self.scale) for name in APP_NAMES}
        self.formats = {
            f.name: f for f in (BINARY32, BINARY16ALT, BINARY16, BINARY8)
        }
        self.platforms = {
            "default": VirtualPlatform(),
            "fast16": VirtualPlatform(
                fp_latency_override={"binary16": 1, "binary16alt": 1}
            ),
        }
        self.clusters = {
            (cores, ratio): ClusterPlatform(ClusterConfig(cores, ratio))
            for cores in CLUSTER_CORES
            for ratio in CLUSTER_RATIOS
        }
        units = []
        for name in APP_NAMES:
            units.append((name, "binary32", False, 1))
            for fmt in self.formats:
                units.append((name, fmt, True, 1))
        for name in CLUSTER_APPS:
            for cores in CLUSTER_CORES:
                units.append((name, "binary16alt", True, cores))
        random.Random(self.seed).shuffle(units)
        self.units = units

    def run_unit(self, unit) -> list:
        """Build one kernel (or one partition) and replay it; returns
        [(label, replay thunk, report)]."""
        from repro.tuning.variables import uniform_binding

        name, fmt, vectorize, cores = unit
        app = self.apps[name]
        binding = uniform_binding(app, self.formats[fmt])
        tag = f"{name}/{fmt}/{'vec' if vectorize else 'scalar'}"
        out = []
        if cores == 1:
            with self.session:
                program = app.build_program(binding, 0, vectorize=vectorize)
            for latency, platform in self.platforms.items():
                replay = (lambda p=platform: p.run(program))
                out.append((f"{tag}/{latency}", replay, replay()))
        else:
            with self.session:
                programs = app.partition(cores, binding, 0, vectorize=True)
            for ratio in CLUSTER_RATIOS:
                platform = self.clusters[(cores, ratio)]
                replay = (lambda p=platform: p.run(programs, name=name))
                out.append((f"{tag}/c{cores}r{ratio}", replay, replay()))
        return out

    def measure(self) -> dict:
        checks = Checks()
        instrs = 0
        digest_lines = []
        rng = random.Random(self.seed)
        if self.tracer is not None:
            self.tracer.reset()
        with Stopwatch(self.probe) as watch:
            for unit in self.units:
                with watch.section():
                    replays = self.run_unit(unit)
                # Checks run outside the timed region and the trace.
                if self.tracer is not None:
                    self.tracer.pause()
                # One replay of each kernel, drawn from the seed, is run
                # again and must give the same payload (all of them would
                # cost a third of the pass again).
                recheck = rng.randrange(len(replays))
                for position, (label, replay, report) in enumerate(replays):
                    payload = report.to_payload()
                    checksum = canonical_checksum(payload)
                    instrs += report.instructions
                    digest_lines.append(f"{label} {checksum}")
                    if position == recheck:
                        checks.check(
                            canonical_checksum(replay().to_payload())
                            == checksum,
                            f"{label}: replay is not deterministic",
                        )
                    checks.check(
                        sim_instructions(payload) == report.instructions > 0,
                        f"{label}: instruction count inconsistent",
                    )
                # Free this unit's programs before the next one is built,
                # so the peak is one unit's, whatever the order.
                del replays, replay
                gc.collect()
                if self.tracer is not None:
                    self.tracer.resume()
        layers = self.tracer.snapshot() if self.tracer is not None else None
        digest = hashlib.sha256("\n".join(sorted(digest_lines)).encode())
        return dict(
            single_request_metrics(watch, instrs),
            peak_rss_mb=peak_rss_mb(),
            attempted=checks.attempted,
            failed=checks.failed,
            messages=checks.messages,
            digest=digest.hexdigest(),
            layers=layers,
        )

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
def parse_response(buf: bytearray) -> "tuple[int, dict, bytes] | None":
    """One complete HTTP/1.1 response from ``buf``, or None while it is
    still incomplete."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    end = head_end + 4 + int(headers.get("content-length", "0"))
    if len(buf) < end:
        return None
    if len(buf) > end:
        raise ConnectionError("bytes after the response on a closed loop")
    return int(lines[0].split(" ", 2)[1]), headers, bytes(buf[head_end + 4:])


class ServeWarm:
    default_scale = "tiny"

    def __init__(self, args, workdir: Path, tracer, probe=None) -> None:
        self.scale = args.scale or self.default_scale
        self.seed = args.seed
        self.seconds = args.seconds
        self.workdir = workdir
        self.traced = args.traced
        self.probe = probe
        self.server = None
        self.trace_out = workdir / "server-layers.json"

    def setup(self) -> None:
        from repro import cli
        from repro.analysis import ExperimentConfig, default_grid

        os.chdir(self.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "run", "--scale", self.scale, "--backend", "fast",
                "--jobs", str(CONNECTIONS),
            ])
        if code != 0:
            raise RuntimeError(f"seeding the store failed (exit {code})")
        cfg = ExperimentConfig(scale=self.scale, backend="fast")
        store = cfg.runner.store
        self.keys = []
        for spec in default_grid(cfg):
            envelope = json.loads(store.path(spec).read_text())
            body = json.dumps(asdict(spec)).encode()
            etag = f'"{envelope["checksum"]}"'
            self.keys.append({
                "name": store.name(spec),
                "etag": etag,
                "checksum_ok": (
                    envelope["checksum"]
                    == canonical_checksum(envelope["payload"])
                ),
                "instrs": sim_instructions(envelope["payload"]),
                "requests": (
                    self.request(body, None), self.request(body, etag)
                ),
            })
        self.start_server()

    @staticmethod
    def request(body: bytes, etag: "str | None") -> bytes:
        head = [
            "POST /jobs HTTP/1.1",
            "Host: 127.0.0.1",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if etag is not None:
            head.append(f"If-None-Match: {etag}")
        return ("\r\n".join(head) + "\r\n\r\n").encode() + body

    def start_server(self) -> None:
        serve_args = [
            "--backend", "fast", "--scale", self.scale, "--port", "0",
            "--quiet", "--store-dir", "results/store",
            "--cache-dir", "results/tuning",
        ]
        if self.traced:
            command = [
                sys.executable, str(HERE / "serve.py"),
                "--trace-out", str(self.trace_out), *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.server = subprocess.Popen(
            command, cwd=self.workdir, env=env, stdout=subprocess.PIPE,
        )
        line = self.server.stdout.readline().decode()
        if not line.startswith("repro serve: http://"):
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.address = (host, int(port))

    def server_rss_mb(self) -> float:
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def schedule(self) -> list:
        rng = random.Random(self.seed)
        order = [
            (index, rng.random() < REVALIDATE_SHARE)
            for index in range(len(self.keys))
            for _ in range(REQUESTS_PER_KEY)
        ]
        rng.shuffle(order)
        return order

    def run_clients(self, jobs, seconds: float) -> list:
        """Closed loop: each connection sends its next job as soon as its
        previous reply is complete, until ``jobs`` or ``seconds`` run out.

        One thread drives every connection, so replies are never held up
        behind another client thread's turn on the interpreter lock.
        Returns (completed, latency, key index, status, etag, source,
        body) per request, in completion order.
        """
        deadline = time.perf_counter() + seconds
        jobs = iter(jobs)
        log: list = []
        pending: dict = {}

        def send(sock) -> bool:
            job = next(jobs, None)
            start = time.perf_counter()
            if job is None or start >= deadline:
                return False
            pending[sock] = (job[0], start, bytearray())
            sock.sendall(self.keys[job[0]]["requests"][job[1]])
            return True

        socks = [
            socket.create_connection(self.address) for _ in range(CONNECTIONS)
        ]
        try:
            with selectors.DefaultSelector() as selector:
                for sock in socks:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    if send(sock):
                        selector.register(sock, selectors.EVENT_READ)
                while selector.get_map():
                    for key, _ in selector.select():
                        sock = key.fileobj
                        index, start, buf = pending[sock]
                        chunk = sock.recv(1 << 16)
                        if not chunk:
                            raise ConnectionError("server closed a connection")
                        buf += chunk
                        response = parse_response(buf)
                        if response is None:
                            continue
                        done = time.perf_counter()
                        status, headers, body = response
                        log.append((
                            done, done - start, index, status,
                            headers.get("etag"), headers.get("x-repro-source"),
                            body,
                        ))
                        if not send(sock):
                            selector.unregister(sock)
        finally:
            for sock in socks:
                sock.close()
        return log

    def verify(self, log: list, checks: Checks) -> None:
        """Every reply is 200 or 304 from the store, and its ETag is the
        seeded checksum and the checksum of the body payload."""
        bodies: dict = {}
        for _, _, index, status, etag, source, body in log:
            key = self.keys[index]
            ok = (
                status in (200, 304)
                and etag == key["etag"]
                and source == "store"
                and key["checksum_ok"]
            )
            if ok and status == 200:
                if body not in bodies:
                    try:
                        reply = json.loads(body)
                        bodies[body] = (
                            reply.get("status") == "done"
                            and f'"{canonical_checksum(reply["payload"])}"'
                            == etag
                        )
                    except (ValueError, KeyError, TypeError):
                        bodies[body] = False
                ok = bodies[body]
            checks.check(
                ok, f"{key['name']}: {status} etag {etag} from {source}"
            )

    def measure(self) -> dict:
        checks = Checks()
        warmup = [
            (index, revalidate)
            for revalidate in (False, True)
            for index in range(len(self.keys))
        ]
        self.verify(self.run_clients(warmup, 120.0), checks)
        if self.traced:
            os.kill(self.server.pid, signal.SIGUSR1)
        jobs = self.schedule()
        with Stopwatch(self.probe) as watch, watch.section():
            log = self.run_clients(itertools.cycle(jobs), self.seconds)
        scale = watch.scale()
        layers = None
        if self.traced:
            os.kill(self.server.pid, signal.SIGUSR2)
            layers = self.wait_for_layers()
        rss = self.server_rss_mb()
        self.verify(log, checks)
        if len(log) < len(jobs) + 2:
            raise RuntimeError(
                f"only {len(log)} requests completed in {self.seconds}s"
            )
        done = [entry[0] for entry in log]
        # wall_s: the time to complete one pass of the schedule, as the
        # median over consecutive windows of len(jobs) completions.
        windows = [
            done[end] - done[end - len(jobs)]
            for end in range(len(jobs), len(done), len(jobs))
        ]
        # The host's speed drifts in episodes of seconds; rates and
        # latency percentiles are medians over equal time slices, so an
        # episode shorter than half the run does not move them.
        width = (done[-1] - done[0]) / SLICES
        slices = [[] for _ in range(SLICES)]
        for entry in log:
            slices[min(SLICES - 1, int((entry[0] - done[0]) / width))].append(
                entry
            )
        per_slice = [
            (
                len(part) / width,
                sum(self.keys[e[2]]["instrs"] for e in part) / 1e6 / width,
                percentile([e[1] for e in part], 0.50) * 1e3,
                percentile([e[1] for e in part], 0.99) * 1e3,
            )
            for part in slices
            if part
        ]
        digest = hashlib.sha256()
        for key in self.keys:
            digest.update(f"{key['name']} {key['etag']}\n".encode())
        rate, minstr, p50, p99 = (
            statistics.median(column) for column in zip(*per_slice)
        )
        return {
            "raw_wall_s": statistics.median(windows),
            "host_scale": scale,
            "wall_s": statistics.median(windows) * scale,
            "req_per_s": rate / scale,
            "sim_minstr_per_s": minstr / scale,
            "req_p50_ms": p50 * scale,
            "req_p99_ms": p99 * scale,
            "peak_rss_mb": rss,
            "requests": len(log),
            "attempted": checks.attempted,
            "failed": checks.failed,
            "messages": checks.messages,
            "digest": digest.hexdigest(),
            "layers": layers,
        }

    def wait_for_layers(self) -> dict:
        deadline = time.monotonic() + 30.0
        while not self.trace_out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no layer metrics")
            time.sleep(0.05)
        return json.loads(self.trace_out.read_text())

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server = None


WORKLOADS = {
    "small-cold": SmallCold,
    "paper-kernels": PaperKernels,
    "serve-warm": ServeWarm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default=None)
    parser.add_argument("--work-root", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr  # program output must not reach the protocol
    work_root = Path(args.work_root)
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = None
    if args.traced and args.workload != "serve-warm":
        import layers

        tracer = layers.install()
    probe = HostProbe(tracer.skip if tracer is not None else None)
    workload = WORKLOADS[args.workload](args, workdir, tracer, probe)
    try:
        workload.setup()
        # The host's speed at the end of set-up, for run.py's setup_s.
        ready = HostProbe()
        for _ in range(8):
            ready.probe()
        print(
            f"READY {sum(ready.samples)} {ready.scale()}",
            file=protocol, flush=True,
        )
        if sys.stdin.readline().strip() == "go":
            result = workload.measure()
            print(json.dumps(result), file=protocol, flush=True)
    finally:
        workload.close()
        os.chdir(work_root)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
