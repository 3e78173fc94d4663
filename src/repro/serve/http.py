"""The asyncio HTTP/JSON front-end of ``repro serve``.

Stdlib only: a hand-rolled HTTP/1.1 server on ``asyncio.start_server``.
Every response is JSON and ``Connection: close`` — the API is a job
queue, not a browsing surface, so connection reuse buys nothing and
one-shot connections keep the parser trivial.  The single non-trivial
route is ``GET /jobs/<id>/events``, which streams the job's event log
as newline-delimited JSON until the job reaches a terminal state.

Routes:

========  =======================  =============================================
method    path                     behaviour
========  =======================  =============================================
GET       ``/healthz``             liveness + identity (version, pid, uptime_s,
                                   ``draining`` flag)
GET       ``/statsz``              queue / executor / cache counters
GET       ``/metricsz``            Prometheus text exposition (the only
                                   non-JSON response; see docs/observability.md
                                   for the metric catalogue)
POST      ``/jobs``                submit ``{"design", "styles"?, "options"?}``
                                   -> 202 queued, 200 deduped to an active job,
                                   400 bad request, 404 unknown design,
                                   429 queue full, 503 draining
GET       ``/jobs``                all job statuses
GET       ``/jobs/<id>``           one job's status
GET       ``/jobs/<id>/result``    per-style rows (409 until done, 500 failed)
GET       ``/jobs/<id>/events``    NDJSON event stream until terminal
========  =======================  =============================================

Every request is accounted into the manager's metric store
(``repro_http_requests_total`` / ``repro_http_request_seconds``) with
the path normalized to its route shape (``/jobs/:id/result``), so the
label cardinality stays bounded no matter how many jobs exist.

``run_server`` is the CLI entry point: it installs SIGTERM/SIGINT
handlers that stop intake, drain queued + running jobs, and only then
exit — a rolling restart loses no accepted work.  ``start_in_thread``
hosts the same app on an ephemeral port inside the current process, for
tests and the load-generator benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from time import perf_counter

from repro.obs.promexpo import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.promexpo import render
from repro.serve.jobs import (
    DONE,
    FAILED,
    TERMINAL,
    DrainingError,
    JobManager,
    QueueFullError,
)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}
#: how often the event stream re-checks a job for news (seconds).
_EVENT_POLL_S = 0.05


def _head(status: int, content_type: str = "application/json",
          length: int | None = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _route_label(path: str | None) -> str:
    """Normalize a request path to its route shape for metric labels
    (job ids collapse to ``:id`` so cardinality stays bounded)."""
    if not path:
        return "?"
    if path.startswith("/jobs/"):
        _job_id, _, tail = path[len("/jobs/"):].partition("/")
        return f"/jobs/:id/{tail}" if tail else "/jobs/:id"
    known = ("/healthz", "/statsz", "/metricsz", "/jobs")
    return path if path in known else "<other>"


class ServeApp:
    """Routing + JSON encoding over one :class:`JobManager`."""

    def __init__(self, manager: JobManager):
        self.manager = manager

    # -- plumbing ------------------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One connection: read a request, dispatch, account, close."""
        t0 = perf_counter()
        method = path = None
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    asyncio.TimeoutError, ValueError):
                self._send(writer, 400, {"error": "malformed request"})
                return
            try:
                await self._dispatch(writer, method, path, body)
            except Exception as exc:  # don't let one request kill the server
                with contextlib.suppress(Exception):
                    self._send(writer, 500,
                               {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            if method is not None:
                with contextlib.suppress(Exception):
                    self.manager.observe_http(
                        method, _route_label(path),
                        getattr(writer, "_repro_status", 0),
                        perf_counter() - t0)
            with contextlib.suppress(Exception):
                await writer.drain()
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=10.0)
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, _version = request_line.split(" ", 2)
        headers = {}
        for line in header_lines:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length < 0 or length > 1 << 20:
            raise ValueError("bad content length")
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout=10.0) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    def _send(self, writer: asyncio.StreamWriter, status: int,
              payload: dict | list) -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(_head(status, length=len(body)) + body)
        writer._repro_status = status  # picked up by handle()'s accounting

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        path: str, body: bytes) -> None:
        if path == "/healthz":
            if method != "GET":
                return self._send(writer, 405, {"error": "GET only"})
            return self._send(writer, 200, {
                "status": "ok", "draining": self.manager.draining,
                **self.manager.identity()})
        if path == "/statsz":
            if method != "GET":
                return self._send(writer, 405, {"error": "GET only"})
            return self._send(writer, 200, self.manager.stats())
        if path == "/metricsz":
            if method != "GET":
                return self._send(writer, 405, {"error": "GET only"})
            body_text = render(self.manager.metrics).encode()
            writer.write(_head(200, content_type=_PROM_CONTENT_TYPE,
                               length=len(body_text)) + body_text)
            writer._repro_status = 200
            return None
        if path == "/jobs":
            if method == "POST":
                return self._submit(writer, body)
            if method == "GET":
                return self._send(
                    writer, 200,
                    {"jobs": [job.status() for job in self.manager.jobs()]})
            return self._send(writer, 405, {"error": "GET or POST only"})
        if path.startswith("/jobs/"):
            if method != "GET":
                return self._send(writer, 405, {"error": "GET only"})
            job_id, _, tail = path[len("/jobs/"):].partition("/")
            job = self.manager.get(job_id)
            if job is None:
                return self._send(writer, 404,
                                  {"error": f"no such job: {job_id}"})
            if tail == "":
                return self._send(writer, 200, job.status())
            if tail == "result":
                return self._result(writer, job)
            if tail == "events":
                return await self._stream_events(writer, job)
            return self._send(writer, 404, {"error": f"no such view: {tail}"})
        return self._send(writer, 404, {"error": f"no such route: {path}"})

    # -- handlers ------------------------------------------------------------

    def _submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            return self._send(writer, 400,
                              {"error": f"body is not JSON: {exc.msg}"})
        if not isinstance(payload, dict):
            return self._send(writer, 400,
                              {"error": "body must be a JSON object"})
        design = payload.get("design")
        styles = payload.get("styles")
        options = payload.get("options")
        if not isinstance(design, str) or not design:
            return self._send(writer, 400,
                              {"error": 'missing "design" (string)'})
        if styles is not None and not (
                isinstance(styles, list)
                and all(isinstance(s, str) for s in styles)):
            return self._send(writer, 400,
                              {"error": '"styles" must be a string list'})
        if options is not None and not isinstance(options, dict):
            return self._send(writer, 400,
                              {"error": '"options" must be an object'})
        try:
            job, deduped = self.manager.submit(design, styles, options)
        except DrainingError as exc:
            return self._send(writer, 503, {"error": str(exc)})
        except QueueFullError as exc:
            return self._send(writer, 429, {"error": str(exc)})
        except KeyError as exc:
            return self._send(writer, 404, {"error": str(exc).strip("'\"")})
        except (TypeError, ValueError) as exc:
            return self._send(writer, 400, {"error": str(exc)})
        status = job.status()
        status["deduped"] = deduped
        return self._send(writer, 200 if deduped else 202, status)

    def _result(self, writer: asyncio.StreamWriter, job) -> None:
        if job.state == FAILED:
            return self._send(writer, 500,
                              {"id": job.id, "state": job.state,
                               "error": job.error})
        if job.state != DONE:
            return self._send(writer, 409,
                              {"id": job.id, "state": job.state,
                               "error": "job is not done yet"})
        return self._send(writer, 200, job.result_payload())

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job) -> None:
        """NDJSON event stream; ends when the job reaches a terminal
        state (the closed connection is the end-of-stream marker)."""
        writer.write(_head(200, content_type="application/x-ndjson"))
        writer._repro_status = 200
        sent = 0
        while True:
            events = list(job.events)
            while sent < len(events):
                writer.write((json.dumps(events[sent]) + "\n").encode())
                sent += 1
            await writer.drain()
            if job.state in TERMINAL and sent >= len(job.events):
                return
            await asyncio.sleep(_EVENT_POLL_S)


# -- entry points ------------------------------------------------------------


async def _serve(app: ServeApp, host: str, port: int,
                 drain_timeout: float | None,
                 echo=print) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-posix loops
            signal.signal(sig, lambda *_: stop.set())
    server = await asyncio.start_server(app.handle, host, port)
    bound = server.sockets[0].getsockname()
    echo(f"repro serve: listening on http://{bound[0]}:{bound[1]} "
         f"(executor {app.manager.scheduler.executor_name}, "
         f"queue depth {app.manager.queue_depth})")
    async with server:
        await stop.wait()
        echo("repro serve: draining (intake closed, finishing jobs) ...")
        app.manager.begin_drain()
        clean = await asyncio.to_thread(app.manager.drain, drain_timeout)
        echo("repro serve: drained, bye" if clean
             else "repro serve: drain timed out with jobs in flight")


def run_server(manager: JobManager, host: str = "127.0.0.1",
               port: int = 8437, drain_timeout: float | None = None,
               echo=print) -> None:
    """Serve until SIGTERM/SIGINT, then drain and return (CLI path)."""
    app = ServeApp(manager)
    try:
        asyncio.run(_serve(app, host, port, drain_timeout, echo=echo))
    finally:
        manager.close()


class ServerHandle:
    """An in-process server (tests / benchmarks): ``base_url`` to talk
    to it, ``stop()`` to shut it down (drains the manager)."""

    def __init__(self, app: ServeApp, host: str):
        self.app = app
        self.host = host
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-serve-http")

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = await asyncio.start_server(
                self.app.handle, self.host, self.port or 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            async with server:
                await self._stop.wait()

        try:
            asyncio.run(_main())
        finally:
            self._ready.set()  # unblock a waiter even on startup failure

    def start(self) -> "ServerHandle":
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self.port is None:
            raise RuntimeError("serve thread failed to bind")
        return self

    def stop(self, drain_timeout: float | None = 30.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)
        self.app.manager.drain(drain_timeout)
        self.app.manager.close()


def start_in_thread(manager: JobManager, host: str = "127.0.0.1",
                    port: int = 0) -> ServerHandle:
    """Host the app on a background thread (ephemeral port by default).

    Returns a started :class:`ServerHandle`; call ``.stop()`` when done.
    """
    handle = ServerHandle(ServeApp(manager), host)
    handle.port = port or None
    return handle.start()
