"""The repository benchmark: three workloads, end-to-end and per-layer.

Measure (what BENCHMARK.json runs, from the root of a checkout)::

    python3 perfbench/run.py --workload small-cold --seed 1 --seconds 10 \\
        --trace 0

With ``--trace 0`` the workload is set up three times, each in a fresh
worker process, and measured in the last one with no timers installed;
the end-to-end metrics are printed.  With ``--trace 1`` one untraced and
one traced worker run the workload, and the per-layer metrics of the
traced one are printed with ``trace_overhead`` (traced over untraced
wall, minus one) and the untraced ``req_p99_ms``.  Timings are scaled to
a reference host speed (``HostProbe`` in workloads.py).  The last line
of standard output is the result object; before it come the raw walls
with the host scale applied to them, and the workload's output digest,
which is identical between runs unless the program's results changed.
``--record FILE`` also appends the result to a JSON-lines file.

Compare two such files (say, parent and change)::

    python3 perfbench/run.py compare parent.jsonl change.jsonl

prints each workload's end-to-end medians and quartiles side by side,
and the per-layer medians with their deltas.

Self-tests: ``python3 -m pytest perfbench/selftest.py -q``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("small-cold", "paper-kernels", "serve-warm")
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: A run that has not finished by then is killed (the contract allows 180).
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_minstr_per_s": "Minstr/s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """One workload worker process (``workloads.py``), set up and ready."""

    def __init__(self, args, traced: bool, deadline: float) -> None:
        command = [
            sys.executable, str(HERE / "workloads.py"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--work-root", str(WORK_ROOT),
        ]
        if args.scale:
            command += ["--scale", args.scale]
        if traced:
            command.append("--traced")
        env = dict(os.environ)
        # Same string hashing in every run: set and dict layouts, and
        # the work that depends on them, do not vary between processes.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], self.remaining()
            )
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.kill()
            raise
        fields = line.split()
        if fields[:1] != ["READY"]:
            self.kill()
            raise WorkerError(f"{args.workload} worker failed during set-up")
        # Set-up time less the worker's closing host probes, at the
        # reference host speed (see HostProbe in workloads.py).
        probes_s, scale = float(fields[1]), float(fields[2])
        self.setup_s = (time.perf_counter() - started - probes_s) * scale

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def kill(self) -> None:
        """Stop the worker and everything it started (its session)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()

    def finish(self, command: str) -> "dict | None":
        try:
            out, _ = self.proc.communicate(
                command + "\n", timeout=self.remaining()
            )
        except subprocess.TimeoutExpired:
            self.kill()
            raise WorkerError("worker ran out of time") from None
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited {self.proc.returncode}")
        if command != "go":
            return None
        lines = out.strip().splitlines()
        if not lines:
            raise WorkerError("worker printed no result")
        return json.loads(lines[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        runs = [Worker(args, traced, deadline).finish("go")
                for traced in (False, True)]
        untraced, traced = runs
        metrics = dict(traced["layers"])
        metrics["req_p99_ms"] = untraced["req_p99_ms"]
        metrics["trace_overhead"] = traced["wall_s"] / untraced["wall_s"] - 1
        digest = traced["digest"]
    else:
        setups = []
        for index in range(SETUPS):
            worker = Worker(args, False, deadline)
            setups.append(worker.setup_s)
            if index < SETUPS - 1:
                worker.finish("quit")
        runs = [worker.finish("go")]
        metrics = {
            name: runs[0][name] for name in END_TO_END if name in runs[0]
        }
        metrics["setup_s"] = statistics.median(setups)
        digest = runs[0]["digest"]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for message in run["messages"]:
            print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics["error_rate"] = failed / attempted
    units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
    units.update(END_TO_END)
    return {
        "digest": digest,
        "raw": " ".join(
            f"{key}={run[key]:.6g}"
            for run in runs for key in ("raw_wall_s", "host_scale")
        ),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _load(path: str) -> dict:
    """(workload, trace) -> metric -> list of values."""
    table: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        metrics = table.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def _quartiles(values: list) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> None:
    a, b = _load(path_a), _load(path_b)
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"A {path_a}, B {path_b})")
        print(f"  {'metric':24s} {'A q1':>10s} {'A median':>10s} "
              f"{'A q3':>10s} {'B q1':>10s} {'B median':>10s} "
              f"{'B q3':>10s} {'delta':>8s}  runs")
        for name in sorted(set(a[key]) & set(b[key])):
            qa, qb = _quartiles(a[key][name]), _quartiles(b[key][name])
            delta = (
                f"{(qb[1] - qa[1]) / abs(qa[1]) * 100:+7.1f}%"
                if qa[1] else f"{qb[1] - qa[1]:+8.3g}"
            )
            print(f"  {name:24s} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                  f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} {delta}  "
                  f"{len(a[key][name])}/{len(b[key][name])}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        compare(args.a, args.b)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default=None, choices=("tiny", "small", "paper"),
        help="override the workload's problem scale (self-tests)",
    )
    parser.add_argument("--record", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        outcome = measure(args)
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "scale": args.scale,
                "digest": outcome["digest"], "raw": outcome["raw"],
                "result": outcome["result"],
            }) + "\n")
    print(f"raw {args.workload}: {outcome['raw']}")
    print(f"digest {args.workload}: {outcome['digest']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
