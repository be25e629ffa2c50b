"""The HTTP face of the serving daemon.

Endpoints::

    GET  /healthz      liveness + queue depth (cheap, never queued)
    GET  /metricsz     metrics document: JSON schema by default,
                       Prometheus text when negotiated (see below)
    POST /v1/predict   one program  -> prediction table
    POST /v1/check     one program  -> diagnostics report
    POST /v1/ranges    one program  -> final range listing
    POST /v1/ir        one program  -> canonical SSA dump
    POST /v1/run       one program  -> interpret + profile
    POST /v1/analyze   one program  -> command named in the body
    POST /v1/batch     {"items": [...]} -> {"results": [...]}, micro-batched

Connection threads never analyse: they submit to the bounded
:class:`~repro.server.workers.WorkerPool` and wait, so ``--workers K``
bounds CPU concurrency no matter how many clients connect.  A full
queue answers ``503`` with ``Retry-After`` (backpressure), an oversized
body answers ``413``, malformed JSON or protocol violations answer
``400``; analysis-level failures (parse errors, timeouts) are ``200``
with ``status: "error"`` or ``degraded: true`` -- the request was
served, the *program* was the problem.

Every request emits ``server.request.begin``/``server.request.end``
events into the daemon's tracer and records a span, so ``/metricsz``
can surface span counts and per-endpoint latency histograms next to
the result-cache statistics.

Observability (all off the request's hot path):

* a request carrying ``X-Repro-Trace-Id`` keeps that id; otherwise the
  daemon mints one.  The id is echoed on the response header, stamped
  on the begin/end events, handed to the worker (so engine spans and
  the metrics ``tracing`` key correlate), and written to the access
  log -- one grep joins client, daemon, and engine views of a request;
* the access log is one structured JSON line per finished request
  (method, endpoint, status, cache tier, degraded flag, latency,
  trace id) on the ``repro.server.access`` logger -- silent unless
  :func:`repro.observability.logging.configure_json_logging` ran,
  which ``repro serve`` does;
* ``GET /metricsz`` content-negotiates: the JSON metrics-schema
  document by default, Prometheus text exposition when the client
  sends ``Accept: text/plain`` (or OpenMetrics) or appends
  ``?format=prometheus``.

Shutdown is a drain, not a kill: SIGTERM (or SIGINT) stops the accept
loop, lets queued and in-flight requests finish, flushes their
responses, then exits (connections are one-request HTTP/1.0, so no
idle keep-alive can hold the drain hostage).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.observability import context as tracecontext
from repro.observability.events import ServerRequestBegin, ServerRequestEnd
from repro.observability.logging import get_logger, log_event
from repro.observability.tracer import SpanRecord, Tracer
from repro.server.cache import ResultCache
from repro.server.protocol import ProtocolError, validate_batch
from repro.server.service import AnalysisService
from repro.server.stats import ServerStats
from repro.server.workers import PoolClosedError, QueueFullError, WorkerPool

#: POST route -> command pinned by the URL (None = body decides).
POST_ROUTES: Dict[str, Optional[str]] = {
    "/v1/predict": "predict",
    "/v1/check": "check",
    "/v1/ranges": "ranges",
    "/v1/ir": "ir",
    "/v1/run": "run",
    "/v1/analyze": None,
}

#: Spans kept for /metricsz aggregation; past this the daemon keeps
#: counting events but stops retaining span records.
MAX_RETAINED_SPANS = 100_000


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    # One request per connection: a drain never waits on an idle
    # keep-alive socket, and every response carries Content-Length.
    protocol_version = "HTTP/1.0"
    timeout = 30  # socket-level guard against wedged peers

    # The ReproServer that owns this handler's HTTP server.
    @property
    def ctx(self) -> "ReproServer":
        return self.server.repro  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.ctx.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- plumbing ------------------------------------------------------------

    def _adopt_trace_id(self) -> str:
        """The request's trace id: the caller's header when valid, else minted."""
        incoming = self.headers.get(tracecontext.TRACE_HEADER)
        if incoming and tracecontext.valid_trace_id(incoming):
            return incoming
        return tracecontext.new_trace_id()

    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header(tracecontext.TRACE_HEADER, trace_id)
        if status == 503:
            # Computed, not hardcoded: the wait quoted to a rejected
            # client is the time the current backlog needs to drain at
            # the observed service rate, clamped to [1s, 60s].
            ctx = self.ctx
            self.send_header(
                "Retry-After",
                str(ctx.stats.retry_after(ctx.pool.depth(), ctx.pool.workers)),
            )
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, document: dict) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._send_body(status, body, "application/json")

    def _finish(
        self,
        endpoint: str,
        command: Optional[str],
        status: int,
        document: dict,
        started: float,
        cached: Optional[str] = None,
        degraded: bool = False,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000
        ctx = self.ctx
        trace_id = getattr(self, "_trace_id", None)
        # Counted before the reply leaves, so a client that reads the
        # stats right after its reply always sees its own request.
        ctx.stats.record_request(
            endpoint, status, elapsed_ms, cached=cached, degraded=degraded
        )
        if body is not None:
            self._send_body(status, body, content_type)
        else:
            self._send_json(status, document)
        ctx.emit_event(
            ServerRequestEnd(
                endpoint=endpoint,
                command=command,
                status=status,
                elapsed_ms=round(elapsed_ms, 3),
                cached=cached,
                degraded=degraded,
                trace_id=trace_id,
            )
        )
        ctx.record_span(endpoint, started, time.perf_counter(), trace_id=trace_id)
        log_event(
            ctx.access_log,
            "request",
            method=self.command,
            endpoint=endpoint,
            status=status,
            cached=cached,
            degraded=degraded,
            elapsed_ms=round(elapsed_ms, 3),
            trace_id=trace_id,
        )

    # -- GET -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        started = time.perf_counter()
        ctx = self.ctx
        self._trace_id = self._adopt_trace_id()
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            ctx.emit_event(
                ServerRequestBegin(
                    endpoint="/healthz", command=None, trace_id=self._trace_id
                )
            )
            self._finish(
                "/healthz",
                None,
                200,
                {
                    "status": "draining" if ctx.draining else "ok",
                    "inflight": ctx.pool.depth(),
                    "uptime_s": round(time.monotonic() - ctx.started_monotonic, 3),
                },
                started,
            )
            return
        if parsed.path == "/metricsz":
            ctx.emit_event(
                ServerRequestBegin(
                    endpoint="/metricsz", command=None, trace_id=self._trace_id
                )
            )
            if self._wants_prometheus(parsed.query):
                self._finish(
                    "/metricsz",
                    None,
                    200,
                    {},
                    started,
                    body=ctx.prometheus_document().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
                return
            self._finish("/metricsz", None, 200, ctx.metrics_document(), started)
            return
        self._finish(
            self.path, None, 404, {"status": "error", "error": "not found"}, started
        )

    def _wants_prometheus(self, query: str) -> bool:
        formats = parse_qs(query).get("format")
        if formats:
            return formats[-1] == "prometheus"
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept or "openmetrics" in accept

    # -- POST ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        started = time.perf_counter()
        ctx = self.ctx
        self._trace_id = self._adopt_trace_id()
        endpoint = self.path
        is_batch = endpoint == "/v1/batch"
        if not is_batch and endpoint not in POST_ROUTES:
            self._finish(
                endpoint, None, 404, {"status": "error", "error": "not found"}, started
            )
            return
        command = POST_ROUTES.get(endpoint)
        ctx.emit_event(
            ServerRequestBegin(
                endpoint=endpoint, command=command, trace_id=self._trace_id
            )
        )

        length = self.headers.get("Content-Length")
        if length is None or not length.isdigit():
            self._finish(
                endpoint,
                command,
                411,
                {"status": "error", "error": "Content-Length required"},
                started,
            )
            return
        length = int(length)
        if length > ctx.max_request_bytes:
            ctx.stats.record_rejected("too_large")
            self._finish(
                endpoint,
                command,
                413,
                {
                    "status": "error",
                    "error": (
                        f"request of {length} bytes exceeds the "
                        f"{ctx.max_request_bytes} byte limit"
                    ),
                },
                started,
            )
            return
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._finish(
                endpoint,
                command,
                400,
                {"status": "error", "error": "body is not valid JSON"},
                started,
            )
            return

        try:
            if is_batch:
                items = validate_batch(body)
                results = ctx.service.execute_batch(
                    items, pool=ctx.pool, trace_id=self._trace_id
                )
                degraded = any(r.get("degraded") for r in results)
                self._finish(
                    endpoint,
                    None,
                    200,
                    {"status": "ok", "results": results},
                    started,
                    degraded=degraded,
                )
                return
            future = ctx.pool.submit(
                ctx.service.execute, body, command, self._trace_id
            )
            response = future.result()
            self._finish(
                endpoint,
                response.get("command", command),
                200,
                response,
                started,
                cached=response.get("cached"),
                degraded=bool(response.get("degraded")),
            )
        except QueueFullError as error:
            ctx.stats.record_rejected("queue_full")
            self._finish(
                endpoint, command, 503,
                {"status": "error", "error": str(error)}, started,
            )
        except PoolClosedError:
            ctx.stats.record_rejected("draining")
            self._finish(
                endpoint, command, 503,
                {"status": "error", "error": "server is draining"}, started,
            )
        except ProtocolError as error:
            self._finish(
                endpoint, command, 400,
                {"status": "error", "error": str(error)}, started,
            )
        except Exception as error:  # noqa: BLE001 -- the daemon must not die
            self._finish(
                endpoint, command, 500,
                {"status": "error", "error": f"internal error: {error}"}, started,
            )


class _HTTPServer(ThreadingHTTPServer):
    # Join handler threads on server_close(): a drain must not abandon
    # a response half-written.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


class ReproServer:
    """The assembled daemon: pool + service + cache + stats + HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_size: int = 64,
        cache_dir: Optional[str] = None,
        memory_cache_entries: int = 1024,
        timeout_s: Optional[float] = None,
        max_request_bytes: int = 1 << 20,
        base_options: Optional[dict] = None,
        verbose: bool = False,
        incremental: bool = False,
    ):
        self.cache = ResultCache(
            memory_entries=memory_cache_entries, disk_dir=cache_dir
        )
        self.incremental_store = None
        if incremental:
            from repro.incremental import IncrementalStore

            # The summary store's disk tier lives beside (not inside)
            # the whole-file result cache: same durability story, no
            # key-space collision.
            self.incremental_store = IncrementalStore(
                disk_dir=(
                    os.path.join(cache_dir, "incremental") if cache_dir else None
                )
            )
        self.pool = WorkerPool(workers=workers, queue_size=queue_size)
        self.service = AnalysisService(
            cache=self.cache,
            timeout_s=timeout_s,
            base_options=base_options,
            incremental_store=self.incremental_store,
        )
        self.stats = ServerStats()
        self.tracer = Tracer(record_events=False)
        self.access_log = get_logger("server.access")
        self.max_request_bytes = max_request_bytes
        self.verbose = verbose
        self.draining = False
        self.started_monotonic = time.monotonic()
        self._tracer_lock = threading.Lock()
        self._serving = threading.Event()
        self.httpd = _HTTPServer((host, port), _Handler)
        self.httpd.repro = self  # type: ignore[attr-defined]

    # -- addresses -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    # -- observability plumbing (thread-safe wrappers) -----------------------

    def emit_event(self, event) -> None:
        with self._tracer_lock:
            self.tracer.emit(event)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: Optional[str] = None,
    ) -> None:
        with self._tracer_lock:
            if len(self.tracer.spans) >= MAX_RETAINED_SPANS:
                return
            record = SpanRecord(
                name,
                start,
                depth=0,
                index=len(self.tracer.spans),
                parent=None,
                trace_id=trace_id,
            )
            record.end = end
            self.tracer.spans.append(record)

    def tracer_summary(self) -> dict:
        """Span/event totals, gathered under the tracer lock.

        ``/metricsz`` used to hand the live tracer to
        ``stats.snapshot``, which iterated ``event_counts`` while
        handler threads were still ``emit()``-ing into it -- a
        dictionary-changed-size race under load.  All reads happen here,
        inside ``_tracer_lock``, and only the copies leave.
        """
        with self._tracer_lock:
            return {
                "spans": len(self.tracer.spans),
                "event_counts": dict(sorted(self.tracer.event_counts.items())),
                "dropped_events": self.tracer.dropped_events,
            }

    def metrics_document(self) -> dict:
        """A full metrics-schema document for ``/metricsz``."""
        from repro.observability.metrics import MetricsReport

        with self._tracer_lock:
            phases = {
                name: {"count": timing.count, "seconds": timing.seconds}
                for name, timing in self.tracer.phase_timings().items()
            }
        server = self.stats.snapshot(
            cache_stats=self.cache.stats(),
            queue_depth=self.pool.depth(),
            queue_high_water=self.pool.high_water(),
            tracer_summary=self.tracer_summary(),
            incremental=(
                self.incremental_store.stats()
                if self.incremental_store is not None
                else None
            ),
        )
        report = MetricsReport(
            program="repro-serve",
            phases=phases,
            server=server,
            meta={
                "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
                "workers": self.pool.workers,
                "queue_size": self.pool.queue_size,
                "draining": self.draining,
            },
        )
        return report.to_dict()

    def prometheus_document(self) -> str:
        """The Prometheus text exposition for ``/metricsz``."""
        from repro.observability.prometheus import render_server_metrics

        server = self.stats.snapshot(
            cache_stats=self.cache.stats(),
            queue_depth=self.pool.depth(),
            queue_high_water=self.pool.high_water(),
            incremental=(
                self.incremental_store.stats()
                if self.incremental_store is not None
                else None
            ),
        )
        return render_server_metrics(
            server,
            uptime_s=round(time.monotonic() - self.started_monotonic, 3),
            workers=self.pool.workers,
        )

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        self._serving.set()
        self.httpd.serve_forever(poll_interval=0.05)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting, finish in-flight work, close all sockets.

        Order matters: the accept loop stops first (no new
        connections), then the pool drains (queued + running jobs
        finish and their handler threads write responses), then
        ``server_close`` joins the handler threads and closes the
        listening socket.  Returns True when everything finished inside
        ``timeout``.
        """
        self.draining = True
        if self._serving.is_set():
            # shutdown() blocks forever unless serve_forever ran.
            self.httpd.shutdown()
        finished = self.pool.shutdown(timeout=timeout)
        self.httpd.server_close()
        return finished


def serve_daemon(
    host: str = "127.0.0.1",
    port: int = 8077,
    workers: int = 4,
    queue_size: int = 64,
    cache_dir: Optional[str] = None,
    memory_cache_entries: int = 1024,
    timeout_s: Optional[float] = None,
    max_request_bytes: int = 1 << 20,
    drain_timeout_s: float = 30.0,
    base_options: Optional[dict] = None,
    verbose: bool = False,
    shards: Optional[int] = None,
    incremental: bool = False,
) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain and exit.

    This is the body of ``repro serve``.  The readiness line
    (``listening on HOST:PORT``) is printed only after the socket is
    bound, so supervisors and CI scripts can wait for it; with
    ``--port 0`` the kernel-assigned port is the one printed.

    ``shards`` picks the serving tier: ``None`` (the default) boots the
    sharded multi-process front end with one shard per CPU core, any
    positive N boots exactly N shards, and ``0`` keeps the original
    single-process threaded daemon (the GIL-bound fallback for
    environments where forking is unwelcome).  Every tier serves
    byte-identical responses; only throughput differs.

    The access log (one JSON line per request, stderr) is enabled here
    and only here: in-process embedders get a silent server unless they
    call :func:`repro.observability.logging.configure_json_logging`
    themselves.
    """
    import warnings

    from repro.observability.logging import configure_json_logging

    configure_json_logging()
    if shards is None:
        shards = os.cpu_count() or 1
    elif shards == 0:
        warnings.warn(
            "--shards 0 (the single-process threaded tier) is deprecated; "
            "use --shards 1 for a single shard process (see docs/SERVING.md)",
            DeprecationWarning,
            stacklevel=2,
        )
    if shards > 0:
        return _serve_sharded(
            host=host,
            port=port,
            shards=shards,
            queue_size=queue_size,
            cache_dir=cache_dir,
            memory_cache_entries=memory_cache_entries,
            timeout_s=timeout_s,
            max_request_bytes=max_request_bytes,
            drain_timeout_s=drain_timeout_s,
            base_options=base_options,
            verbose=verbose,
            incremental=incremental,
        )
    server = ReproServer(
        host=host,
        port=port,
        workers=workers,
        queue_size=queue_size,
        cache_dir=cache_dir,
        memory_cache_entries=memory_cache_entries,
        timeout_s=timeout_s,
        max_request_bytes=max_request_bytes,
        base_options=base_options,
        verbose=verbose,
        incremental=incremental,
    )
    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(workers={workers}, queue={queue_size}, "
        f"cache={'disk+memory' if cache_dir else 'memory'}, "
        f"timeout={'none' if timeout_s is None else f'{timeout_s}s'})",
        flush=True,
    )

    stop = threading.Event()

    def _signal_handler(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _signal_handler)
    loop = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    loop.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    inflight = server.pool.depth()
    print(f"repro serve: draining ({inflight} in flight)...", flush=True)
    finished = server.drain(timeout=drain_timeout_s)
    loop.join(timeout=5.0)
    snapshot = server.stats.snapshot()
    print(
        f"repro serve: drained; served "
        f"{sum(snapshot['responses'].values())} responses "
        f"({snapshot['degraded']} degraded)",
        flush=True,
    )
    return 0 if finished else 1


def _serve_sharded(
    host: str,
    port: int,
    shards: int,
    queue_size: int,
    cache_dir: Optional[str],
    memory_cache_entries: int,
    timeout_s: Optional[float],
    max_request_bytes: int,
    drain_timeout_s: float,
    base_options: Optional[dict],
    verbose: bool,
    incremental: bool = False,
) -> int:
    """The sharded-tier body of ``repro serve`` (``--shards >= 1``).

    Same operational contract as the legacy path: readiness line after
    bind, SIGTERM/SIGINT starts a drain that finishes in-flight work
    and collects every shard process, exit 0 only on a clean drain.
    """
    from repro.server.frontend import ShardedServer

    # Shards fork inside the constructor, before any thread starts.
    server = ShardedServer(
        host=host,
        port=port,
        shards=shards,
        queue_size=queue_size,
        cache_dir=cache_dir,
        memory_cache_entries=memory_cache_entries,
        timeout_s=timeout_s,
        max_request_bytes=max_request_bytes,
        base_options=base_options,
        verbose=verbose,
        incremental=incremental,
    )
    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(shards={shards}, queue={queue_size}/shard, "
        f"cache={'disk+memory' if cache_dir else 'memory'}, "
        f"timeout={'none' if timeout_s is None else f'{timeout_s}s'})",
        flush=True,
    )

    stop = threading.Event()

    def _signal_handler(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _signal_handler)
    loop = threading.Thread(
        target=server.serve_forever, name="repro-serve-frontend", daemon=True
    )
    loop.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    inflight = server.inflight()
    print(f"repro serve: draining ({inflight} in flight)...", flush=True)
    finished = server.drain(timeout=drain_timeout_s)
    loop.join(timeout=5.0)
    snapshot = server.stats.snapshot()
    print(
        f"repro serve: drained; served "
        f"{sum(snapshot['responses'].values())} responses "
        f"({snapshot['degraded']} degraded)",
        flush=True,
    )
    return 0 if finished else 1
