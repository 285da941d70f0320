"""Tuning-as-a-service: the asyncio job server.

:class:`JobServer` is an HTTP front-end over the existing experiment
machinery -- the same :class:`~repro.runner.store.JobSpec` identity,
the same :func:`~repro.runner.engine.execute_job` worker entry, the
same sharded :class:`~repro.runner.store.ResultStore` -- so a result
computed over HTTP is byte-identical (same store key, same envelope)
to one computed by ``repro run`` or the serial drivers.

Control plane (all JSON):

* ``POST /jobs``          -- submit a job description; blocks until the
  result is ready (``?wait=false`` returns 202 + the job id instead).
  Identical concurrent submissions are deduplicated: the first becomes
  the *leader* and computes once; every other request attaches to the
  leader's in-flight record and is answered from its result.
* ``GET /jobs/<id>``      -- the job's result (or 202 while running),
  with ``ETag``/``If-None-Match`` revalidation: a warm re-GET whose
  payload is unchanged costs a 304, not a payload transfer.
* ``GET /jobs/<id>/events`` -- chunked NDJSON stream of the job's
  :class:`~repro.runner.engine.RunLedger` events (attempt/retry/
  failure/done), live while the job runs.
* ``GET /healthz`` / ``/stats`` / ``/metrics`` -- liveness, the
  :class:`~repro.server.stats.ServerStats` + store counters as JSON,
  and the same counters as Prometheus-style text.

Dedup correctness leans on the event loop's single-threadedness: the
leader claims the key via :meth:`ResultStore.get_or_begin` and
registers its record *synchronously* (no ``await`` in between), so a
concurrent duplicate -- which only runs after the leader yields --
always finds either the claim or the finished entry, never a gap.

Validation happens entirely in the front door: a malformed body,
unknown application, scale, type system, variant or strategy is a
structured 4xx and never touches the executor.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict

from repro.apps import APP_NAMES, SCALES
from repro.runner import (
    JobSpec,
    ResultStore,
    RetryPolicy,
    RunLedger,
    build_runner_spec,
    execute_job,
    payload_checksum,
)
from repro.session import Session
from repro.telemetry import MetricsRegistry
from repro.telemetry import trace as _trace
from repro.tuning import resolve_strategy, type_system, type_system_names
from repro.util import emit, status_line

from .http import (
    DEFAULT_MAX_BODY,
    HTTPError,
    HTTPRequest,
    error_body,
    json_response,
    read_request,
    response_bytes,
    send_chunk,
    start_chunked,
)
from .stats import ServerStats, register_metrics

__all__ = ["JobServer", "BackgroundServer", "JobRecord"]

#: Client-friendly aliases for job kinds ("tune me this" reads better
#: than "flow" from outside the codebase).
KIND_ALIASES = {"tune": "flow", "tuning": "flow"}

#: Every key a job description may carry.
JOB_FIELDS = (
    "kind", "app", "scale", "type_system", "precision", "variant",
    "strategy", "cores", "fpu_ratio",
)


class JobRecord:
    """One submitted job's life: ledger, result, and waiter wake-ups.

    Records outlive their computation (``GET /jobs/<id>`` serves them
    until the server stops), bounded by the number of *distinct* jobs a
    server sees -- duplicates share one record.
    """

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.ledger = RunLedger()
        self.done = asyncio.Event()
        self.updated = asyncio.Event()
        self.payload: "dict | None" = None
        self.source = ""  #: "computed" | "store" once done
        self.error = ""
        self.seconds = 0.0
        #: The job's ``server.job`` span (telemetry on, leader only).
        #: Held off the thread-local span stack: job lifetimes
        #: interleave freely on the event-loop thread.
        self.span = None
        self.trace_id: "str | None" = None
        self.span_id: "str | None" = None

    def record(self, event: str, attempt: int = 0, detail: str = "") -> None:
        self.ledger.record(
            event, self.spec, attempt, detail,
            trace_id=self.trace_id, span_id=self.span_id,
        )
        self.updated.set()

    def finish(self) -> None:
        self.done.set()
        self.updated.set()  # wake streamers blocked past the last event

    def status(self) -> str:
        if not self.done.is_set():
            return "running"
        return "failed" if self.error else "done"

    def describe(self) -> dict:
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "spec": asdict(self.spec),
            "status": self.status(),
            "events": len(self.ledger.events),
        }


class JobServer:
    """The asyncio HTTP job server (see module docstring).

    Parameters
    ----------
    session:
        The session results are computed under; workers rebuild it via
        ``Session.from_spec`` exactly like the pool runner does.
    scale:
        Default problem scale for job bodies that omit one.
    store_dir / cache_dir:
        Result-store root and tuning-cache directory (defaults match
        the CLI: ``results/store`` and the session's cache).
    jobs:
        Executor width (concurrent computations).
    executor:
        ``"process"`` (a :class:`ProcessPoolExecutor`; the default for
        ``jobs > 1``) or ``"thread"`` (in-process threads -- what tests
        use so a monkeypatched ``execute_job`` is visible; safe because
        sessions keep per-thread context stacks).
    retry:
        The :class:`RetryPolicy` around executor attempts (default
        policy if None).
    max_body:
        Request-body ceiling; larger ``Content-Length`` is 413'd before
        the body is read.
    log_requests:
        Emit one :func:`repro.util.status_line` per request (the same
        formatter ``repro run`` progress uses), flushed even on pipes.
    """

    def __init__(
        self,
        session: "Session | None" = None,
        scale: str = "tiny",
        store_dir=None,
        cache_dir=None,
        jobs: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: "str | None" = None,
        retry: "RetryPolicy | None" = None,
        max_body: int = DEFAULT_MAX_BODY,
        log_requests: bool = False,
    ) -> None:
        self.session = session if session is not None else Session()
        self.scale = scale
        self.jobs = max(1, int(jobs))
        self.host = host
        self.port = port
        if executor not in (None, "process", "thread"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.executor_kind = executor or (
            "process" if self.jobs > 1 else "thread"
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_body = max_body
        self.log_requests = log_requests
        self.cache_dir = (
            cache_dir if cache_dir is not None else self.session.cache_dir
        )
        self.store = ResultStore(
            store_dir, backend=self.session.backend.name
        )
        self.stats = ServerStats()
        # One registry feeds /stats (grouped JSON) and /metrics
        # (exposition text); the two render the same instruments and
        # cannot drift.
        self.registry = MetricsRegistry()
        register_metrics(self.registry, self.stats, self.store.stats)
        # Request-latency histogram only when telemetry is on: the
        # telemetry-off /stats and /metrics bodies predate the registry
        # and must stay byte-stable.
        self._request_seconds = (
            self.registry.histogram(
                "repro_server_request_seconds",
                group="telemetry",
                short="request_seconds",
            )
            if _trace.enabled()
            else None
        )
        # Fail fast on a session that cannot cross to workers.
        self.session.spec()
        self._jobs: dict[str, JobRecord] = {}
        self._compute_tasks: set = set()
        self._conn_tasks: set = set()
        self._server: "asyncio.Server | None" = None
        self._executor = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "JobServer":
        self._loop = asyncio.get_running_loop()
        if self.executor_kind == "process":
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix="repro-server-job",
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work; with ``drain``, finish what's in flight.

        New job submissions are refused with 503 the moment shutdown
        begins; in-flight computations run to completion (their waiters
        get real responses) before the executor goes down.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._compute_tasks:
            await asyncio.gather(
                *list(self._compute_tasks), return_exceptions=True
            )
        if drain and self._conn_tasks:
            # Give connected clients a moment to read their responses.
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        leftovers = list(self._conn_tasks)
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=drain, cancel_futures=not drain)
        _trace.flush()  # request/job spans are durable once we return

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Idle keep-alive connections are cancelled at shutdown;
            # that is this task's clean exit, not an error to propagate.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await read_request(reader, self.max_body)
            except HTTPError as err:
                # Framing-level refusal: the stream may be desynced,
                # answer and hang up.
                self.stats.requests += 1
                self.stats.bad_requests += 1
                await self._write(
                    writer,
                    json_response(
                        err.status,
                        error_body(err.status, err.message, err.detail),
                        keep_alive=False,
                    ),
                )
                self._log(err.status, "?", "?", 0.0)
                return
            except (ConnectionError, OSError):
                return
            if request is None:
                return  # clean keep-alive close
            self.stats.requests += 1
            started = time.perf_counter()
            # push=False: request lifetimes interleave across awaits on
            # the one loop thread, so they stay off the context stack.
            sp = _trace.start_span(
                "server.request", push=False,
                method=request.method, path=request.path,
            )
            try:
                status, close = await self._dispatch(request, writer)
            except HTTPError as err:
                self.stats.bad_requests += 1
                await self._write(
                    writer,
                    json_response(
                        err.status,
                        error_body(err.status, err.message, err.detail),
                        keep_alive=request.keep_alive,
                    ),
                )
                status, close = err.status, not request.keep_alive
            except (ConnectionError, OSError):
                if sp is not None:
                    sp.attrs["error"] = "connection"
                    _trace.end_span(sp)
                return
            elapsed = time.perf_counter() - started
            if sp is not None:
                sp.attrs["status"] = status
                _trace.end_span(sp)
            if self._request_seconds is not None:
                self._request_seconds.observe(elapsed)
            self._log(status, request.method, request.path, elapsed)
            if close or not request.keep_alive:
                return

    async def _write(self, writer, data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    def _log(
        self, status: int, method: str, path: str, seconds: float
    ) -> None:
        if self.log_requests:
            emit(status_line(str(status), method, path, seconds))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: HTTPRequest, writer
    ) -> "tuple[int, bool]":
        segments = request.segments
        if request.method == "POST":
            if segments == ("jobs",):
                return await self._post_job(request, writer)
            raise HTTPError(404, f"no such endpoint {request.path!r}")
        if request.method != "GET":
            raise HTTPError(
                405, f"method {request.method} not supported"
            )
        if segments == ("healthz",):
            return await self._respond_json(
                writer, request, 200, {"ok": True}
            )
        if segments == ("stats",):
            return await self._respond_json(
                writer, request, 200, self.registry.grouped_snapshot()
            )
        if segments == ("metrics",):
            await self._write(
                writer,
                response_bytes(
                    200,
                    self.metrics_text().encode(),
                    content_type="text/plain; version=0.0.4",
                    keep_alive=request.keep_alive,
                ),
            )
            return 200, False
        if len(segments) == 2 and segments[0] == "jobs":
            return await self._get_job(request, writer, segments[1])
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "events"
        ):
            return await self._stream_events(request, writer, segments[1])
        raise HTTPError(404, f"no such endpoint {request.path!r}")

    # ------------------------------------------------------------------
    # Job submission (the dedup front door)
    # ------------------------------------------------------------------
    async def _post_job(
        self, request: HTTPRequest, writer
    ) -> "tuple[int, bool]":
        if self._closing:
            raise HTTPError(503, "server is shutting down")
        spec = self.parse_job(request.json())
        job_id = self.job_id(spec)
        # Atomic front door: warm hit, fresh claim, or attach-to-leader.
        # No await between the claim and the record registration, so
        # duplicates always find the leader's record.
        payload, leader = self.store.get_or_begin(spec)
        if payload is not None:
            self.stats.store_hits += 1
            return await self._respond_result(
                writer, request, job_id, spec, payload, "store"
            )
        if leader:
            record = JobRecord(job_id, spec)
            record.span = _trace.start_span(
                "server.job", push=False, job=spec.describe()
            )
            if record.span is not None:
                record.trace_id = record.span.trace_id
                record.span_id = record.span.span_id
            self._jobs[job_id] = record
            self.stats.in_flight += 1
            task = self._loop.create_task(self._compute(record))
            self._compute_tasks.add(task)
            task.add_done_callback(self._compute_tasks.discard)
        else:
            record = self._jobs.get(job_id)
            if record is None:  # pragma: no cover - defensive
                raise HTTPError(
                    503, "job is in flight outside this server"
                )
            self.stats.deduped += 1
        if request.query.get("wait", "true").lower() == "false":
            return await self._respond_json(
                writer, request, 202, record.describe()
            )
        await record.done.wait()
        # Waiters report "deduped" provenance: their answer exists
        # because they attached to the leader, not because they hit the
        # store or computed anything.
        return await self._finished_response(
            writer, request, record,
            source=record.source if leader else "deduped",
        )

    async def _get_job(
        self, request: HTTPRequest, writer, job_id: str
    ) -> "tuple[int, bool]":
        record = self._jobs.get(job_id)
        if record is None:
            raise HTTPError(404, f"unknown job {job_id!r}")
        if not record.done.is_set():
            return await self._respond_json(
                writer, request, 202, record.describe()
            )
        return await self._finished_response(writer, request, record)

    async def _finished_response(
        self, writer, request, record: JobRecord,
        source: "str | None" = None,
    ) -> "tuple[int, bool]":
        if record.error:
            return await self._respond_json(
                writer, request, 500,
                error_body(500, "job failed", record.error),
            )
        return await self._respond_result(
            writer, request, record.id, record.spec, record.payload,
            source if source is not None else record.source,
        )

    async def _respond_result(
        self, writer, request, job_id: str, spec: JobSpec,
        payload: dict, source: str,
    ) -> "tuple[int, bool]":
        """Serve a finished payload with ETag revalidation.

        The ETag is the payload's canonical-JSON checksum -- the same
        value the store envelope carries -- so it revalidates content,
        not freshness heuristics; the response body is a pure function
        of (id, spec, payload), which keeps repeat GETs byte-identical.
        The request's provenance travels in ``X-Repro-Source``
        ("computed" | "store" | "deduped") so it cannot perturb the
        body bytes.
        """
        etag = f'"{payload_checksum(payload)}"'
        headers = (("ETag", etag), ("X-Repro-Source", source))
        if request.header("if-none-match") == etag:
            self.stats.not_modified += 1
            await self._write(
                writer,
                response_bytes(
                    304, headers=headers, keep_alive=request.keep_alive
                ),
            )
            return 304, False
        body = {
            "id": job_id,
            "kind": spec.kind,
            "spec": asdict(spec),
            "status": "done",
            "payload": payload,
        }
        await self._write(
            writer,
            json_response(
                200, body, headers=headers, keep_alive=request.keep_alive
            ),
        )
        return 200, False

    async def _respond_json(
        self, writer, request, status: int, payload: dict
    ) -> "tuple[int, bool]":
        await self._write(
            writer,
            json_response(
                status, payload, keep_alive=request.keep_alive
            ),
        )
        return status, False

    # ------------------------------------------------------------------
    # The event stream
    # ------------------------------------------------------------------
    async def _stream_events(
        self, request: HTTPRequest, writer, job_id: str
    ) -> "tuple[int, bool]":
        record = self._jobs.get(job_id)
        if record is None:
            raise HTTPError(404, f"unknown job {job_id!r}")
        await self._write(writer, start_chunked())
        index = 0
        while True:
            events = record.ledger.events
            while index < len(events):
                event = events[index]
                line = json.dumps(event.to_payload()) + "\n"
                await self._write(writer, send_chunk(line.encode()))
                index += 1
            if record.done.is_set() and index >= len(record.ledger.events):
                break
            record.updated.clear()
            if index < len(record.ledger.events) or record.done.is_set():
                continue  # something landed between drain and clear
            await record.updated.wait()
        final = json.dumps({
            "event": "end", "status": record.status(),
            "detail": record.error,
        }) + "\n"
        await self._write(writer, send_chunk(final.encode()))
        await self._write(writer, send_chunk(b""))
        return 200, True  # chunked streams close the connection

    # ------------------------------------------------------------------
    # Computation (the executor bridge)
    # ------------------------------------------------------------------
    async def _compute(self, record: JobRecord) -> None:
        """Run one claimed job on the executor, with bounded retries.

        Reuses :func:`execute_job` -- the pool runner's worker entry --
        verbatim, which is what makes a server-computed store envelope
        byte-identical to a serial ``repro run`` one.  The store claim
        is released in ``finally`` no matter how the attempt ends, so a
        failure can never wedge the key for later requests.
        """
        runner_spec = build_runner_spec(
            self.session, self.cache_dir, self.store, [record.spec]
        )
        if runner_spec["telemetry"] is not None:
            # Worker spans parent under this job's server.job span, not
            # under whatever happens to be open on the loop thread.
            runner_spec["telemetry"]["parent_span_id"] = record.span_id
        attempt = 0
        try:
            while True:
                record.record("attempt", attempt)
                try:
                    outcome = await self._loop.run_in_executor(
                        self._executor, execute_job, runner_spec,
                        record.spec, attempt,
                    )
                except asyncio.CancelledError:
                    record.error = "cancelled at shutdown"
                    record.record("failure", attempt, record.error)
                    self.stats.failed += 1
                    raise
                except Exception as exc:  # noqa: BLE001 - classified
                    if (
                        self.retry.retriable(exc)
                        and attempt < self.retry.max_retries
                    ):
                        record.record("retry", attempt, repr(exc))
                        await asyncio.sleep(self.retry.delay(attempt))
                        attempt += 1
                        continue
                    record.error = repr(exc)
                    record.record("failure", attempt, repr(exc))
                    self.stats.failed += 1
                    return
                record.payload = outcome["payload"]
                record.seconds = outcome["seconds"]
                record.source = (
                    "computed" if outcome["computed"] else "store"
                )
                if outcome["computed"]:
                    self.stats.computed += 1
                else:
                    # The worker's store re-check found it (warm store,
                    # or a concurrent campaign won the race).
                    self.stats.store_hits += 1
                record.record(
                    "done", attempt, f"{outcome['seconds']:.3f}s"
                )
                return
        finally:
            self.store.finish(record.spec)
            self.stats.in_flight -= 1
            if record.span is not None:
                record.span.attrs["source"] = record.source or "failed"
                _trace.end_span(record.span)
            record.finish()

    # ------------------------------------------------------------------
    # Job descriptions
    # ------------------------------------------------------------------
    def parse_job(self, body: dict) -> JobSpec:
        """A validated :class:`JobSpec` from a request body.

        Every refusal is a structured 4xx raised *here*, before any
        claim is taken or executor touched.
        """
        unknown = sorted(set(body) - set(JOB_FIELDS))
        if unknown:
            raise HTTPError(
                422, f"unknown job fields: {', '.join(unknown)}",
                f"known fields: {', '.join(JOB_FIELDS)}",
            )
        kind = body.get("kind", "flow")
        kind = KIND_ALIASES.get(kind, kind)
        if kind not in ("flow", "report", "cluster"):
            raise HTTPError(
                422, f"unknown job kind {body.get('kind')!r}",
                "known kinds: flow (alias: tune), report, cluster",
            )
        app = body.get("app")
        if app not in APP_NAMES:
            raise HTTPError(
                422, f"unknown application {app!r}",
                f"known applications: {', '.join(APP_NAMES)}",
            )
        scale = body.get("scale", self.scale)
        if scale not in SCALES:
            raise HTTPError(
                422, f"unknown scale {scale!r}",
                f"known scales: {', '.join(SCALES)}",
            )
        ts_name = body.get("type_system", "")
        if ts_name or kind in ("flow", "cluster"):
            try:
                ts_name = type_system(str(ts_name)).name
            except KeyError as err:
                raise HTTPError(
                    422, f"unknown type system {ts_name!r}",
                    f"known type systems: "
                    f"{', '.join(type_system_names())}",
                ) from err
        try:
            precision = float(body.get("precision", 0.0))
        except (TypeError, ValueError):
            raise HTTPError(
                422,
                f"precision must be a number, got "
                f"{body.get('precision')!r}",
            ) from None
        strategy = body.get("strategy")
        if strategy is not None:
            try:
                strategy = resolve_strategy(str(strategy)).name
            except KeyError as err:
                raise HTTPError(
                    422, f"unknown tuning strategy {strategy!r}"
                ) from err
        try:
            cores = int(body.get("cores", 1))
            fpu_ratio = int(body.get("fpu_ratio", 1))
        except (TypeError, ValueError):
            raise HTTPError(
                422, "cores/fpu_ratio must be integers"
            ) from None
        kwargs = {
            "variant": str(body.get("variant", "")),
            "cores": cores,
            "fpu_ratio": fpu_ratio,
        }
        if strategy is not None:
            kwargs["strategy"] = strategy
        try:
            spec = JobSpec(kind, app, scale, ts_name, precision, **kwargs)
        except ValueError as err:
            raise HTTPError(422, str(err)) from None
        if spec.kind == "report":
            from repro.runner import REPORT_VARIANTS

            if spec.variant not in REPORT_VARIANTS:
                raise HTTPError(
                    422, f"unknown report variant {spec.variant!r}",
                    f"known variants: "
                    f"{', '.join(sorted(REPORT_VARIANTS))}",
                )
        return spec

    def job_id(self, spec: JobSpec) -> str:
        """A stable, collision-free id for a job's store identity.

        The store file-name stem (human-readable) plus a short digest
        over the *exact* spec -- filenames render precision via ``%g``,
        so two nearby precisions can share a stem; the digest keeps
        their ids (and thus their in-flight records) apart.
        """
        stem = self.store.name(spec)[: -len(".json")]
        exact = json.dumps(
            dict(asdict(spec), backend=self.store.backend),
            sort_keys=True,
        )
        digest = hashlib.sha256(exact.encode()).hexdigest()[:8]
        return f"{stem}-{digest}"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus-style rendering of the server's registry.

        Byte-identical to the pre-registry hand-rolled renderer when
        telemetry is off; with telemetry on, the request-latency
        histogram series joins the same exposition.
        """
        return self.registry.render()


class BackgroundServer:
    """A :class:`JobServer` on its own event-loop thread.

    The blocking world's handle on the server: tests, the load driver
    and the CI smoke all run the server in-process and talk to it over
    real sockets.  Use as a context manager; exit drains in-flight jobs
    and joins the thread.
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self.server: "JobServer | None" = None
        self.host = ""
        self.port = 0
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._stop: "asyncio.Event | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._error: "BaseException | None" = None
        self._drain = True

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("job server did not come up")
        if self._error is not None:
            raise RuntimeError(
                f"job server failed to start: {self._error!r}"
            )
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = JobServer(**self._kwargs)
            await self.server.start()
        except BaseException as err:  # noqa: BLE001 - reported to caller
            self._error = err
            self._ready.set()
            return
        self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown(drain=self._drain)

    def stop(self, drain: bool = True) -> None:
        if self._thread is None or self._loop is None:
            return
        self._drain = drain
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
