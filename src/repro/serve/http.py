"""A stdlib HTTP front end for :class:`~repro.serve.service.JobService`.

Endpoints (JSON in, JSON out)::

    POST /jobs              submit a job; 202 on admit, 429/400 on
                            reject, 503 + Retry-After when shedding
    GET  /jobs/<id>         job record (state, timings, errors, span
                            breakdown)
    GET  /jobs/<id>/result  the shared result document; 409 until terminal
    GET  /jobs/<id>/trace   the assembled per-job Chrome trace (queue
                            wait, run, supersteps, operator tasks — that
                            job only, batched or not)
    POST /jobs/<id>/cancel  cancel: 200 (queued, now terminal), 202
                            (running, cooperative flag set), 409 with
                            the terminal state when the job already
                            finished — a cancel racing a completion is
                            deterministic, never a false 200
    GET  /jobs              all job records (most recent first)
    GET  /healthz           liveness: 200 while serving/draining (the
                            payload flags ``degraded`` when any node is
                            down)
    GET  /stats             service statistics snapshot
    GET  /stats/history     the health-history ring buffer (optionally
                            ``?n=<last N samples>``, N >= 0)
    GET  /metrics           Prometheus text exposition (format 0.0.4)
                            of every counter, gauge, and histogram
    POST /cluster/scale     elastic resize: {"nodes": N} within the
                            autoscale band; 200 with the scale outcome

Built on :class:`http.server.ThreadingHTTPServer` so the service is
drivable from outside the process without any dependency beyond the
standard library. Rejections map admission codes onto HTTP statuses:
``overloaded`` (shedding) → 503, ``quarantined`` → 403,
``over_memory``/``queue_full``/``draining`` → 429 (with a
``Retry-After`` hint for the retryable ones), everything else → 400.
A request body is size-capped by its declared ``Content-Length``
(:data:`MAX_BODY_BYTES`): larger is 413, negative or non-numeric is
400, both answered without reading the body. The connection then closes
lingering: the response is sent and the write side shut, and what the
client still sends is read and dropped (at most :data:`LINGER_BYTES`,
for at most :data:`LINGER_SECONDS`), so the close does not reset a
client that is still sending the body before it reads the refusal.
A terminal job without a result document answers its result query with
410: code ``no_result`` when it never produced one (plus a
``Retry-After`` hint when it failed by deadline — re-submission with a
larger budget may succeed), code ``expired`` when it succeeded but is no
longer among the :data:`~repro.serve.lifecycle.RETAINED_RESULTS` most
recently finished jobs (its ``result_digest`` stays on the job record;
re-submitting the request re-serves it, from the result cache while that
holds it).

Transport: every response — the stdlib's own refusals included — leaves
as one write on a ``TCP_NODELAY`` connection (see :meth:`_Handler._send`);
a response after which the server closes the connection says
``Connection: close``, and a connection that stays silent for
:data:`READ_TIMEOUT_SECONDS` is closed.
"""

import json
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.serve.api import (
    ERROR_KIND_TIMEOUT,
    REJECT_DRAINING,
    REJECT_OVER_MEMORY,
    REJECT_OVERLOADED,
    REJECT_QUARANTINED,
    REJECT_QUEUE_FULL,
    AdmissionRejected,
    JobState,
    Rejection,
    ServiceCrashed,
)

#: Admission codes that are the client's "try later", not "never".
_RETRYABLE = (REJECT_QUEUE_FULL, REJECT_DRAINING, REJECT_OVERLOADED)
_TOO_MANY = (REJECT_OVER_MEMORY, REJECT_QUEUE_FULL, REJECT_DRAINING)
#: Largest request body the server will read (submissions are a few
#: hundred bytes; nothing legitimate comes close).
MAX_BODY_BYTES = 1 << 20
#: How long a connection may sit silent (between requests or part-way
#: through one) before the server closes it and frees its thread.
READ_TIMEOUT_SECONDS = 30
#: The most a refused request's unread body is drained before its
#: connection closes, in bytes and in seconds (see ``_linger``).
LINGER_BYTES = 16 * MAX_BODY_BYTES
LINGER_SECONDS = 5.0


class _BodyRefused(Exception):
    """The declared Content-Length was refused; the body was not read."""

    def __init__(self, status, code, reason):
        self.status = status
        self.code = code
        super().__init__(reason)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the bound JobService."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_SECONDS
    disable_nagle_algorithm = True

    @property
    def service(self):
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # ------------------------------------------------------------------
    def do_GET(self):
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            doc = self.service.health_document()
            self._json(200 if doc["ok"] else 503, doc)
        elif path == "/stats":
            self._json(200, self.service.stats())
        elif path == "/stats/history":
            last = None
            query = parse_qs(self.path.partition("?")[2])
            if query.get("n"):
                try:
                    last = int(query["n"][0])
                    if last < 0:
                        raise ValueError(last)
                except ValueError:
                    self._error(400, "bad_request",
                                "n must be a non-negative integer")
                    return
            self._json(200, self.service.history.document(last=last))
        elif path == "/metrics":
            from repro.telemetry.prometheus import CONTENT_TYPE, render_prometheus

            body = render_prometheus(self.service.telemetry.registry)
            self._text(200, body, CONTENT_TYPE)
        elif path == "/jobs":
            records = self.service.list_jobs()
            records.sort(key=lambda r: r.submitted_at, reverse=True)
            self._json(200, {"jobs": [r.to_dict() for r in records]})
        elif path.startswith("/jobs/"):
            parts = path.split("/")
            record = self.service.get(parts[2])
            if record is None:
                self._error(404, "not_found", "no such job %r" % parts[2])
            elif len(parts) == 3:
                self._json(200, record.to_dict())
            elif len(parts) == 4 and parts[3] == "result":
                if not record.state.terminal:
                    self._error(
                        409, "not_ready",
                        "job is %s; result not ready" % record.state.value,
                        details={"state": record.state.value},
                    )
                else:
                    self._result(record)
            elif len(parts) == 4 and parts[3] == "trace":
                self._json(200, self.service.job_trace(parts[2]))
            else:
                self._error(404, "not_found", "unknown path %r" % path)
        else:
            self._error(404, "not_found", "unknown path %r" % path)

    def _result(self, record):
        """Answer ``GET /jobs/<id>/result`` for a terminal ``record``."""
        result = record.result  # read once: retention may drop it meanwhile
        details = {"state": record.state.value}
        if result is not None:
            doc = dict(result)
            doc["job_id"] = record.job_id
            doc["cache_hit"] = record.cache_hit
            self._json(200, doc)
        elif record.state is JobState.SUCCEEDED:
            details["result_digest"] = record.result_digest
            self._error(
                410, "expired",
                "result document no longer retained; re-submit the request",
                details=details,
            )
        else:
            headers = None
            if record.error_kind == ERROR_KIND_TIMEOUT:
                # Deadline-failed: worth retrying with a larger budget
                # once load drops.
                headers = {"Retry-After": "1"}
            details["error_kind"] = record.error_kind
            self._error(
                410, "no_result", record.error or "job produced no result",
                details=details, headers=headers,
            )

    def do_POST(self):
        try:
            self._post()
        except _BodyRefused as refused:
            # The unread body is still on the wire, so the connection
            # cannot carry another request.
            self.close_connection = True
            self._error(refused.status, refused.code, str(refused))
            self._linger()

    def _linger(self):
        """Shut the write side — the refusal is out — and drop what the
        client still sends until it stops, :data:`LINGER_BYTES` or
        :data:`LINGER_SECONDS`: closing a socket with unread bytes
        resets the connection, and a client still sending its body
        would lose the refusal to the reset."""
        connection = self.connection
        deadline = time.monotonic() + LINGER_SECONDS
        left = LINGER_BYTES
        try:
            connection.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                connection.settimeout(remaining)
                chunk = connection.recv(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:
            pass  # the client went away or stalled: close anyway

    def _post(self):
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            try:
                body = self._read_body()
            except ValueError as error:
                self._error(400, "bad_request", str(error))
                return
            try:
                record = self.service.submit(body)
            except AdmissionRejected as rejected:
                rejection = rejected.rejection
                if rejection.code == REJECT_OVERLOADED:
                    status = 503  # shedding: service-side, retryable
                elif rejection.code == REJECT_QUARANTINED:
                    status = 403  # poison job: refused until cleared
                elif rejection.code in _TOO_MANY:
                    status = 429
                else:
                    status = 400
                headers = None
                if rejection.code in _RETRYABLE:
                    retry_after = rejection.details.get("retry_after_seconds", 1)
                    headers = {"Retry-After": str(int(retry_after))}
                self._json(status, {"error": rejection.to_dict()}, headers=headers)
            except ServiceCrashed:
                self._error(503, "crashed", "service crashed; restart pending")
            except ValueError as error:
                self._error(400, "bad_request", str(error))
            else:
                self._json(202, record.to_dict())
        elif path == "/cluster/scale":
            try:
                body = self._read_body()
                target = int(body["nodes"])
            except (ValueError, KeyError, TypeError, OverflowError):
                self._error(
                    400, "bad_request",
                    'body must be JSON like {"nodes": N}',
                )
                return
            try:
                outcome = self.service.scale_to(target)
            except ValueError as error:
                self._error(400, "bad_scale", str(error))
            else:
                self._json(200, outcome)
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[2]
            outcome = self.service.cancel_job(job_id)
            status = outcome["status"]
            if status == "not_found":
                self._error(404, "not_found", "no such job %r" % job_id)
            elif status == "cancelled":
                self._json(200, outcome)
            elif status == "cancelling":
                self._json(202, outcome)
            else:  # terminal: report what actually won the race
                self._json(409, outcome)
        else:
            self._error(404, "not_found", "unknown path %r" % path)

    # ------------------------------------------------------------------
    def _read_body(self):
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise _BodyRefused(
                400, "bad_request",
                "Content-Length must be a non-negative integer, got %r"
                % declared,
            )
        if length > MAX_BODY_BYTES:
            raise _BodyRefused(
                413, "payload_too_large",
                "request body of %d bytes exceeds the %d byte limit"
                % (length, MAX_BODY_BYTES),
            )
        if length == 0:
            raise ValueError("request body required")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError("invalid JSON body: %s" % error)

    def send_error(self, code, message=None, explain=None):
        """What the stdlib refuses itself — a bad request line (400), a
        URI over 64 KiB (414), over 100 headers or a 64 KiB header line
        (431), a method no ``do_*`` serves (501) — leaves through
        :meth:`_error` like every other error, and closes the
        connection: what is left of the request was never read."""
        self.close_connection = True
        status = HTTPStatus(code)
        self._error(status.value, status.name.lower(), message or status.phrase)

    def _error(self, status, code, reason, details=None, headers=None):
        """Every error body shares the rejection document's shape."""
        rejection = Rejection(code=code, reason=reason, details=details or {})
        self._json(status, {"error": rejection.to_dict()}, headers=headers)

    def _json(self, status, payload, headers=None):
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", headers)

    def _text(self, status, body, content_type):
        self._send(status, body.encode("utf-8"), content_type)

    def _send(self, status, body, content_type, headers=None):
        """The whole response — status line, headers, body — in one
        write, so no part of it waits in the kernel for the client's
        ACK of an earlier part (and scrapers never observe torn
        lines)."""
        lines = [
            "%s %d %s" % (self.protocol_version, status,
                          self.responses[status][0]),
            "Server: " + self.version_string(),
            "Date: " + self.date_time_string(),
            "Content-Type: " + content_type,
            "Content-Length: %d" % len(body),
        ]
        if self.close_connection:
            lines.append("Connection: close")
        lines.extend("%s: %s" % item for item in (headers or {}).items())
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.log_request(status)
        self.wfile.write(head.encode("latin-1") + body)


class ServeHTTPServer:
    """Owns the listening socket and its dispatcher thread.

    >>> server = ServeHTTPServer(service, host="127.0.0.1", port=0)
    >>> server.start()   # returns the bound (host, port)
    >>> ...
    >>> server.close()
    """

    def __init__(self, service, host="127.0.0.1", port=8080, verbose=False):
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = service
        self._httpd.verbose = verbose
        self._httpd.daemon_threads = True
        self._thread = None

    @property
    def address(self):
        return self._httpd.server_address[:2]

    def start(self):
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self.address

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.close()
        return False
