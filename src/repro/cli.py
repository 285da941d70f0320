"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    python -m repro formats            # Fig. 1: the four FP formats
    python -m repro fpu                # Fig. 3: slices, latencies, energy
    python -m repro motivation         # intro energy-split measurement
    python -m repro table1             # Table I
    python -m repro fig4 fig5 fig6 fig7
    python -m repro summary            # headline claims, paper vs ours
    python -m repro all --scale paper

    # Warm the persistent result store for the whole experiment grid
    # across 4 worker processes; any driver afterwards is pure cache
    # hits (including `repro all`):
    python -m repro run --scale paper --jobs 4

    # Multi-core cluster strong scaling (shared-FPU model):
    python -m repro cluster --scale small --cores 1,2,4,8 --fpu-ratio 1,2,4

    # Precision-tuning strategies (the pluggable solver API):
    python -m repro tune --list-strategies
    python -m repro tune --scale tiny --apps conv --strategy bisect
    python -m repro strategies --scale tiny   # cost-comparison table
    python -m repro fig6 --strategy bisect    # any driver, any solver

    # Fault tolerance: bounded retries, per-job timeouts, store audit.
    python -m repro run --jobs 4 --job-timeout 600 --retries 3 --strict
    python -m repro store fsck --store-dir results/store
    python -m repro store gc --store-dir results/store   # compact/migrate
    REPRO_FAULTS='{"seed": 7, "crash_rate": 0.3}' python -m repro run ...

    # Tuning-as-a-service: the asyncio HTTP job server (POST /jobs,
    # ETag revalidation, in-flight dedup; see repro.server):
    python -m repro serve --port 8765 --jobs 4 --scale tiny

    # Project-invariant lint over the source and test trees:
    python -m repro lint

    # Telemetry: trace a campaign end to end (spans land as NDJSON
    # under results/telemetry/), then replay the time breakdown:
    python -m repro run --scale tiny --jobs 2 --telemetry
    REPRO_TELEMETRY=1 python -m repro serve --port 8765
    python -m repro trace latest
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import faults
from repro.analysis import (
    ExperimentConfig,
    ablation,
    cluster,
    default_grid,
    fig4,
    fig5,
    fig6,
    fig7,
    motivation,
    strategies,
    summary,
    table1,
)
from repro.apps import make_app
from repro.core import STANDARD_FORMATS, available_backends
from repro.hardware import fpu as fpu_model
from repro import telemetry as _telemetry
from repro.session import Session
from repro.tuning import (
    V2,
    precision_to_sqnr_db,
    resolve_strategy,
    strategy_names,
)
from repro.util import emit, status_line

__all__ = ["main"]

_DRIVERS = {
    "motivation": motivation,
    "table1": table1,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "summary": summary,
    "ablation": ablation,
    "strategies": strategies,
    "cluster": cluster,
}

_ORDER = [
    "formats",
    "fpu",
    "motivation",
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "summary",
    "ablation",
    "strategies",
    "cluster",
    "export",
]


def _render_formats() -> str:
    """Fig. 1: the floating-point formats used throughout this work."""
    lines = ["Fig. 1: floating-point formats (sign | exponent | mantissa)"]
    for fmt in STANDARD_FORMATS:
        if fmt.name == "binary64":
            continue
        lines.append(
            f"  {fmt.name:12s} 1 | {fmt.exp_bits:2d} | {fmt.man_bits:2d}   "
            f"range 2^{fmt.emin}..2^{fmt.emax}, "
            f"precision {fmt.precision} bits, "
            f"max {fmt.max_value:.4g}"
        )
    lines.append(
        "  binary8 mirrors binary16's dynamic range; "
        "binary16alt mirrors binary32's."
    )
    return "\n".join(lines)


def _render_fpu() -> str:
    """Fig. 3: the transprecision FPU's slices, latencies and energies."""
    lines = ["Fig. 3: transprecision FPU (SmallFloatUnit)"]
    for sl in fpu_model.SLICES:
        formats = ", ".join(f.name for f in sl.formats)
        lines.append(
            f"  {sl.name}: width {sl.width:2d} bits x{sl.replicas} "
            f"(SIMD lanes) hosting {formats}"
        )
    lines.append("  latencies: 32/16-bit arithmetic 2 cycles (pipelined), ")
    lines.append("             binary8 arithmetic and all conversions 1 cycle")
    lines.append("  per-op energy (pJ, scalar):")
    for fmt in ("binary8", "binary16alt", "binary16", "binary32"):
        add = fpu_model.ARITH_ENERGY_PJ[(fmt, "add")]
        mul = fpu_model.ARITH_ENERGY_PJ[(fmt, "mul")]
        lines.append(f"    {fmt:12s} add {add:5.1f}  mul {mul:5.1f}")
    return "\n".join(lines)


_STATUS_LABELS = {
    "memo": "memo",
    "hit": "hit",
    "run": "ran",
    "retry": "retry",
    "timeout": "tmout",
    "fail": "FAIL",
}


def _progress_printer(index, total, spec, status, seconds) -> None:
    """Per-job progress line for ``repro run``.

    Rendered by :func:`repro.util.status_line` -- the same formatter
    the job server's request log uses -- and written via
    :func:`repro.util.emit`, which flushes unconditionally so lines
    land immediately even when stdout is a pipe (CI, ``| tee``).
    """
    label = _STATUS_LABELS.get(status, status)
    if total:
        width = len(str(total))
        head = f"{index:{width}d}/{total}"
    else:
        # Mid-job notifications (retry/timeout) carry no completion
        # index -- the job is still in flight.
        head = " .. "
    emit(status_line(head, label, spec.describe(), seconds))


def _run_grid(cfg: ExperimentConfig) -> int:
    """The ``repro run`` subcommand: warm the store for the full grid.

    Exit codes: 0 -- every job satisfied; 2 -- strict campaign aborted
    with a :class:`~repro.runner.CampaignError`; 3 -- jobs failed beyond
    their retry budget (their :class:`~repro.runner.JobFailure` records
    are listed, everything else completed).
    """
    from repro.runner import CampaignError, JobFailure

    specs = default_grid(cfg)
    runner = cfg.runner
    # emit() (not print): every progress/summary line flushes as it is
    # written, so a piped `repro run` (CI logs, | tee) streams live
    # instead of dumping everything at exit.
    emit(
        f"repro run: {len(specs)} jobs "
        f"(scale {cfg.scale}, jobs {cfg.jobs}, "
        f"store {runner.store.root})"
    )
    code = 0
    try:
        results = runner.run(specs)
    except CampaignError as err:
        emit(f"campaign failed (strict): {err}")
        results = {}
        code = 2
    counters = runner.counters
    emit(
        f"store warm: {counters.computed} computed, "
        f"{counters.store_hits} store hits, "
        f"{counters.memo_hits} memo hits "
        f"({len(runner.store.entries())} files in "
        f"{runner.store.version_dir})"
    )
    emit(f"ledger: {runner.ledger.summary()}")
    if counters.corrupt:
        emit(
            f"quarantined {counters.corrupt} corrupt store entr"
            f"{'y' if counters.corrupt == 1 else 'ies'} "
            f"(recomputed; see {runner.store.quarantine_dir})"
        )
    failed = [r for r in results.values() if isinstance(r, JobFailure)]
    if failed:
        emit(f"{len(failed)} job(s) failed beyond their retry budget:")
        for failure in failed:
            emit(f"  - {failure.describe()}")
        code = code or 3
    return code


def _store_cli(argv: list[str]) -> int:
    """The ``repro store <verb>`` maintenance commands (fsck, gc)."""
    from repro.runner import ResultStore

    parser = argparse.ArgumentParser(
        prog="repro store",
        description=(
            "Result-store maintenance: fsck audits (and repairs) the "
            "current version -- corruption quarantine, shard re-homing; "
            "gc compacts the root -- migrates still-valid previous-"
            "version entries into the sharded layout and drops "
            "superseded versions."
        ),
    )
    parser.add_argument("verb", choices=("fsck", "gc"))
    parser.add_argument(
        "--store-dir",
        default=None,
        help="store root to operate on (default: ./results/store)",
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="backend tag of the entries to audit (part of every key)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would change without touching anything",
    )
    args = parser.parse_args(argv)
    store = ResultStore(args.store_dir, backend=args.backend)
    if args.verb == "gc":
        report = store.gc(dry_run=args.dry_run)
        tense = "would be " if args.dry_run else ""
        emit(f"repro store gc: compacted {store.root}")
        emit(
            f"  {tense}migrated {report['migrated']}, "
            f"dropped {len(report['dropped'])}, "
            f"directories removed {report['removed_dirs']}, "
            f"temp files {report['tmp_removed']}"
        )
        for path in report["dropped"]:
            emit(f"  {tense}dropped: {path}")
        changes = (
            report["migrated"]
            or report["dropped"]
            or report["tmp_removed"]
        )
        return 1 if args.dry_run and changes else 0
    report = store.fsck(repair=not args.dry_run)
    verdict = "quarantined" if not args.dry_run else "corrupt"
    emit(
        f"repro store fsck: scanned {report['scanned']} entries in "
        f"{store.version_dir}"
    )
    emit(
        f"  ok {report['ok']}, {verdict} {len(report['quarantined'])}, "
        f"misplaced {len(report['misplaced'])}, "
        f"legacy pending {report['legacy']}, "
        f"temp files {'removed' if not args.dry_run else 'found'} "
        f"{report['tmp_removed']}"
    )
    for path in report["quarantined"]:
        emit(f"  {verdict}: {path}")
    for path in report["misplaced"]:
        emit(
            f"  {'re-homed' if not args.dry_run else 'misplaced'}: {path}"
        )
    if report["legacy"]:
        emit(
            f"  {report['legacy']} previous-version entr"
            f"{'y' if report['legacy'] == 1 else 'ies'} pending "
            "migration (run: repro store gc)"
        )
    if args.dry_run and (report["quarantined"] or report["tmp_removed"]):
        return 1
    return 0


def _serve_cli(argv: list[str]) -> int:
    """The ``repro serve`` verb: run the HTTP job server until signalled.

    SIGINT/SIGTERM trigger a graceful shutdown: the listener closes
    immediately, in-flight jobs drain (their waiters get real
    responses), then the executor stops.
    """
    import asyncio
    import signal

    from repro.server import DEFAULT_MAX_BODY, JobServer

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Tuning-as-a-service: an HTTP job server over the "
            "experiment runner (POST /jobs, ETag revalidation, "
            "in-flight dedup, /metrics)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listen port (0 picks an ephemeral one; default: 8765)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="concurrent computations (executor width; default: 1)",
    )
    parser.add_argument(
        "--executor",
        default="auto",
        choices=("auto", "process", "thread"),
        help=(
            "where jobs execute: worker processes or in-process "
            "threads (auto: processes when --jobs > 1)"
        ),
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=("tiny", "small", "paper"),
        help="default problem scale for jobs that omit one",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="result-store root (default: ./results/store)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="tuning-result cache directory (default: ./results/tuning)",
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help="arithmetic backend jobs compute under",
    )
    parser.add_argument(
        "--strategy",
        default="greedy",
        choices=strategy_names(),
        help="default tuning strategy for jobs that omit one",
    )
    parser.add_argument(
        "--max-body",
        type=int,
        default=DEFAULT_MAX_BODY,
        metavar="BYTES",
        help="request-body ceiling; larger submissions are 413'd",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-request log lines",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "enable structured tracing: request/job spans land as "
            "NDJSON under results/telemetry/; equivalent to "
            f"{_telemetry.ENV_VAR}=1"
        ),
    )
    args = parser.parse_args(argv)
    # Before the server builds: its request-latency histogram and the
    # workers' trace propagation both key off enabled() at init time.
    if args.telemetry:
        _telemetry.enable()
    else:
        _telemetry.enable_from_env()
    session = Session(
        backend=args.backend,
        cache_dir=args.cache_dir,
        default_strategy=args.strategy,
    )
    server = JobServer(
        session=session,
        scale=args.scale,
        store_dir=args.store_dir,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        host=args.host,
        port=args.port,
        executor=None if args.executor == "auto" else args.executor,
        max_body=args.max_body,
        log_requests=not args.quiet,
    )

    async def _main() -> None:
        await server.start()
        emit(
            f"repro serve: http://{server.host}:{server.port} "
            f"(jobs {server.jobs}, executor {server.executor_kind}, "
            f"scale {server.scale}, store {server.store.root})"
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal-handler support
        await stop.wait()
        emit("repro serve: draining in-flight jobs")
        await server.shutdown(drain=True)
        emit("repro serve: stopped")

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass  # signal handler unavailable; plain interrupt
    if _telemetry.enabled():
        _telemetry.flush()
        path = _telemetry.trace_path()
        if path is not None and path.exists():
            emit(
                f"telemetry: trace {_telemetry.trace_id()} -> {path} "
                "(replay: repro trace latest)"
            )
    return 0


def _trace_cli(argv: list[str]) -> int:
    """The ``repro trace`` verb: replay a telemetry trace breakdown."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Replay an NDJSON telemetry trace (written by --telemetry / "
            f"{_telemetry.ENV_VAR}=1 runs) as a per-phase time "
            "breakdown with sampled top time sinks."
        ),
    )
    parser.add_argument(
        "run",
        nargs="?",
        default="latest",
        help=(
            "trace file path, trace id (or unambiguous prefix), or "
            "'latest' (default: the newest trace)"
        ),
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="trace directory (default: ./results/telemetry)",
    )
    args = parser.parse_args(argv)
    try:
        path = _telemetry.resolve_trace(args.run, args.dir)
    except (FileNotFoundError, ValueError) as err:
        emit(f"repro trace: {err}")
        return 1
    print(_telemetry.render_trace(_telemetry.load_records(path), path))
    return 0


def _lint_cli(argv: list[str]) -> int:
    """The ``repro lint`` verb: project-invariant checks over the tree."""
    from repro.lint.__main__ import main as lint_main

    return lint_main(argv)


def _list_strategies() -> str:
    """The ``repro tune --list-strategies`` table."""
    lines = ["Registered tuning strategies (see repro.tuning.api):"]
    for name in strategy_names():
        strategy = resolve_strategy(name)
        doc = (strategy.__doc__ or "").strip().splitlines()
        summary_line = doc[0] if doc else ""
        default = "  (default)" if name == "greedy" else ""
        lines.append(f"  {name:12s} {summary_line}{default}")
    lines.append(
        "Select one with --strategy; register your own via "
        "repro.tuning.register_strategy."
    )
    return "\n".join(lines)


def _run_tune(cfg: ExperimentConfig, precision: float = 1e-1) -> int:
    """The ``repro tune`` subcommand: tune cfg's apps, print accounting.

    Returns non-zero if any tuned assignment misses its SQNR target, so
    CI smoke matrices can assert on the exit code.
    """
    target = precision_to_sqnr_db(precision)
    strategy = cfg.session.default_strategy
    print(
        f"repro tune: strategy {strategy}, precision {precision:g} "
        f"(SQNR >= {target:.0f} dB), scale {cfg.scale}"
    )
    failures = 0
    for app_name in cfg.apps:
        flow = cfg.session.flow(make_app(app_name, cfg.scale), V2, precision)
        report = flow.tune_report()
        met = all(
            db >= target for db in report.result.achieved_db.values()
        )
        failures += 0 if met else 1
        source = "cache" if report.cached else "search"
        achieved = min(
            report.result.achieved_db.values(), default=float("nan")
        )
        print(
            f"  {app_name:8s} {report.evaluations:5d} evaluations "
            f"({source}, {report.wall_time_s:.2f}s)  "
            f"worst {achieved:6.1f} dB  "
            + ("target met" if met else "TARGET MISSED")
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "store":
        # Maintenance verbs take their own argument shape.
        return _store_cli(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_cli(argv[1:])
    if argv and argv[0] == "lint":
        return _lint_cli(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_cli(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Transprecision Floating-Point Platform "
            "for Ultra-Low Power Computing' (DATE 2018)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=_ORDER + ["all", "run", "tune"],
        help=(
            "which table/figure to regenerate; 'run' warms the "
            "persistent result store for the whole experiment grid; "
            "'tune' runs just the precision-tuning step (see "
            "--strategy / --list-strategies)"
        ),
    )
    parser.add_argument(
        "--scale",
        default="paper",
        choices=("tiny", "small", "paper"),
        help=(
            "problem scale (tiny: CI/smoke grid warm-ups; "
            "small: fast smoke runs; paper: full runs)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="tuning-result cache directory (default: ./results/tuning)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help=(
            "persistent result-store directory "
            "(default: ./results/store, or <cache-dir>/store)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for experiment grids; 1 (default) runs "
            "everything in-process"
        ),
    )
    parser.add_argument(
        "--apps",
        default=None,
        help=(
            "comma-separated subset of applications "
            "(default: all six evaluation kernels)"
        ),
    )
    parser.add_argument(
        "--cores",
        default="1,2,4,8",
        metavar="N[,N...]",
        help=(
            "comma-separated core counts for the cluster strong-scaling "
            "sweep (default: 1,2,4,8)"
        ),
    )
    parser.add_argument(
        "--fpu-ratio",
        default="1,2,4",
        metavar="R[,R...]",
        help=(
            "comma-separated FPU sharing ratios for the cluster sweep: "
            "one FPU per R cores (default: 1,2,4)"
        ),
    )
    parser.add_argument(
        "--backend",
        default="reference",
        choices=available_backends(),
        help=(
            "arithmetic backend for the emulated runs "
            "(reference: exact bit-integer oracle; fast: precomputed-"
            "constant numpy kernels, bit-identical but much faster)"
        ),
    )
    parser.add_argument(
        "--strategy",
        default="greedy",
        choices=strategy_names(),
        help=(
            "precision-tuning strategy (greedy: the paper's "
            "DistributedSearch, the default; bisect: same targets, far "
            "fewer evaluations; cast_aware: adds the cast-cost merge "
            "phase; anneal: seeded random-restart annealing)"
        ),
    )
    parser.add_argument(
        "--list-strategies",
        action="store_true",
        help="with 'tune': list the registered tuning strategies and exit",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "seconds one worker job may run before it is abandoned and "
            "retried on a fresh pool (default: no deadline; parallel "
            "runs only)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "transient-failure retries per job (default: the engine's "
            "retry policy, 2; 0 disables retries)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail the whole campaign (exit 2) if any job fails beyond "
            "its retry budget, instead of reporting JobFailure records "
            "(exit 3)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help=(
            "JSON FaultPlan to rehearse failure recovery "
            '(e.g. \'{"seed": 7, "crash_rate": 0.3}\'); defaults to '
            f"the {faults.ENV_VAR} environment variable when set"
        ),
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "enable structured tracing + profiling: spans land as "
            "NDJSON under results/telemetry/ (replay with 'repro "
            f"trace'); equivalent to {_telemetry.ENV_VAR}=1; results "
            "are byte-identical either way"
        ),
    )
    args = parser.parse_args(argv)
    if args.telemetry:
        _telemetry.enable()
    else:
        _telemetry.enable_from_env()

    if args.list_strategies:
        if "tune" not in args.experiments:
            parser.error(
                "--list-strategies is part of the 'tune' command "
                "(try: repro tune --list-strategies)"
            )
        print(_list_strategies())
        return 0

    try:
        plan = faults.plan_from_env(args.fault_plan)
    except ValueError as err:
        parser.error(str(err))
    if plan is not None:
        faults.activate(plan)
        print(f"fault injection active: {plan}")

    wanted = list(args.experiments)
    if "all" in wanted:
        wanted = [name for name in wanted if name != "all"] + [
            name for name in _ORDER if name not in wanted
        ]
    session = Session(
        backend=args.backend,
        cache_dir=args.cache_dir,
        default_strategy=args.strategy,
    )
    def _int_list(text: str, flag: str) -> tuple[int, ...]:
        try:
            values = tuple(
                int(part) for part in text.split(",") if part.strip()
            )
        except ValueError:
            values = ()
        if not values or any(v < 1 for v in values):
            parser.error(f"{flag} needs positive integers, got {text!r}")
        return values

    config_kwargs = dict(
        scale=args.scale,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        jobs=args.jobs,
        strategy=args.strategy,
        cores=_int_list(args.cores, "--cores"),
        fpu_ratios=_int_list(args.fpu_ratio, "--fpu-ratio"),
        session=session,
        job_timeout=args.job_timeout,
        retries=args.retries,
        strict=args.strict,
    )
    if args.apps:
        config_kwargs["apps"] = tuple(
            name.strip() for name in args.apps.split(",") if name.strip()
        )
    cfg = ExperimentConfig(**config_kwargs)

    exit_code = 0
    for name in wanted:
        start = time.time()
        if name == "formats":
            print(_render_formats())
        elif name == "fpu":
            print(_render_fpu())
        elif name == "tune":
            exit_code = _run_tune(cfg) or exit_code
        elif name == "run":
            cfg.progress = _progress_printer
            cfg.runner.progress = _progress_printer
            exit_code = _run_grid(cfg) or exit_code
            cfg.progress = None
            cfg.runner.progress = None
        elif name == "export":
            from repro.analysis.export import export_all

            written = export_all(cfg, "results/export")
            print("wrote:")
            for path in written:
                print(f"  {path}")
        else:
            driver = _DRIVERS[name]
            result = driver.compute(cfg)
            print(driver.render(result))
        elapsed = time.time() - start
        print(f"\n[{name} done in {elapsed:.1f}s]\n")
    if _telemetry.enabled():
        _telemetry.flush()
        path = _telemetry.trace_path()
        if path is not None and path.exists():
            emit(
                f"telemetry: trace {_telemetry.trace_id()} -> {path} "
                "(replay: repro trace latest)"
            )
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
