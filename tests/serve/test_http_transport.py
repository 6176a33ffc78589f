"""The wire under the HTTP front end: one write per response on a
``TCP_NODELAY`` connection, the stdlib's refusals included, and no
thread held by a silent client."""

import json
import socket
import statistics
import threading
import time

import pytest

from repro.cli import build_parser, cmd_serve
from repro.serve import JobService, JobState, ServeHTTPServer
from repro.serve.client import ServeClient
from repro.serve.http import MAX_BODY_BYTES, READ_TIMEOUT_SECONDS, _Handler

WAIT = 30


class _Wire:
    """A socket proxy that logs the bytes of every ``send``/``sendall``."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def send(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _ProbeHandler(_Handler):
    """Records what the handler does to its accepted connection."""

    def setup(self):
        self.request = _Wire(self.request, self.server.writes)
        super().setup()
        self.server.nodelay.append(self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        ))


class _Impatient(_ProbeHandler):
    """Closes a connection after 0.1 s of silence."""

    timeout = 0.1


@pytest.fixture
def wired(serve_graph):
    """A service whose runs block until ``httpd.release`` is set and
    then fail, behind a server whose connections are probed."""
    service = JobService(num_nodes=3, workers=1)
    service.add_dataset("g", vertices=serve_graph)
    server = ServeHTTPServer(service, port=0)
    httpd = server._httpd
    httpd.RequestHandlerClass = _ProbeHandler
    httpd.writes, httpd.nodelay = [], []
    httpd.release = threading.Event()

    def blocked_then_failing(members, dataset):
        httpd.release.wait(WAIT)
        raise RuntimeError("application bug")

    service.executor._run = blocked_then_failing
    service.start()
    address = server.start()
    yield httpd, address
    httpd.release.set()
    server.close()
    service.shutdown(timeout=WAIT)


class RawClient:
    """HTTP/1.1 over a bare socket, so the test sees the exact bytes."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=WAIT)
        self.pending = b""

    def exchange(self, method, path, body=None, headers=()):
        lines = ["%s %s HTTP/1.1" % (method, path), "Host: test"]
        lines.extend(headers)
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode()
            lines.append("Content-Length: %d" % len(payload))
        self.sock.sendall("\r\n".join(lines).encode() + b"\r\n\r\n" + payload)
        return self.read_response()

    def read_response(self):
        """Returns ``(status, headers, body, raw bytes)`` of one response."""
        while b"\r\n\r\n" not in self.pending:
            self._fill()
        head, _, rest = self.pending.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        length = int(headers["Content-Length"])
        while len(rest) < length:
            self._fill()
            rest = self.pending.partition(b"\r\n\r\n")[2]
        self.pending = rest[length:]
        body = rest[:length]
        return (int(status_line.split()[1]), headers, body,
                head + b"\r\n\r\n" + body)

    def _fill(self):
        chunk = self.sock.recv(65536)
        assert chunk, "server closed the connection mid-response"
        self.pending += chunk

    def closed_by_server(self):
        """True when the next read is an orderly end of stream."""
        try:
            return self.sock.recv(1) == b""
        except ConnectionResetError:
            return True

    def close(self):
        self.sock.close()


class TestOneWritePerResponse:
    def test_accepted_connection_has_nodelay(self, wired):
        httpd, address = wired
        client = RawClient(address)
        try:
            assert client.exchange("GET", "/healthz")[0] == 200
        finally:
            client.close()
        assert httpd.nodelay and all(value == 1 for value in httpd.nodelay)

    def test_every_answer_is_one_write_equal_to_the_bytes_read(self, wired):
        httpd, address = wired
        client = RawClient(address)
        job = {"tenant": "alice", "algorithm": "cc", "dataset": "g"}

        def one_write(expected, method, path, body=None, headers=()):
            before = len(httpd.writes)
            status, response_headers, payload, raw = client.exchange(
                method, path, body, headers
            )
            assert status == expected, (path, status, payload)
            assert len(httpd.writes) == before + 1, (path, httpd.writes[before:])
            assert httpd.writes[-1] == raw
            assert int(response_headers["Content-Length"]) == len(payload)
            return response_headers, payload

        try:
            _, payload = one_write(202, "POST", "/jobs", job)
            job_id = json.loads(payload)["job_id"]
            _, payload = one_write(200, "GET", "/jobs/" + job_id)
            assert json.loads(payload)["state"] in ("queued", "running")
            _, payload = one_write(409, "GET", "/jobs/%s/result" % job_id)
            assert json.loads(payload)["error"]["code"] == "not_ready"
            httpd.release.set()
            assert httpd.service.get(job_id).wait(WAIT) is JobState.FAILED
            _, payload = one_write(410, "GET", "/jobs/%s/result" % job_id)
            assert json.loads(payload)["error"]["code"] == "no_result"
            one_write(404, "GET", "/jobs/job-999999")
            headers, payload = one_write(200, "GET", "/metrics")
            assert headers["Content-Type"].startswith("text/plain")
            assert b"serve_submitted_total" in payload
            # Refused by its declared length: answered in one write with
            # the body unread, so the connection cannot go on.
            one_write(
                413, "POST", "/jobs",
                headers=["Content-Length: %d" % (MAX_BODY_BYTES + 1)],
            )
            assert client.closed_by_server()
        finally:
            client.close()

    def test_keep_alive_round_trip_is_the_handlers_work(self, wired):
        """Two writes per response cost a delayed ACK (~40 ms) on every
        request after the first of a keep-alive connection."""
        httpd, address = wired
        client = ServeClient("http://%s:%d" % address, timeout=WAIT)
        try:
            for _ in range(30):
                assert client.request("GET", "/healthz")[0] == 200
        finally:
            client.close()
        assert len(httpd.nodelay) == 1  # one connection carried all 30
        seconds = sorted(client.round_trips)
        assert statistics.median(seconds) < 0.010, seconds


def one_refusal(httpd, address, request):
    """Send the raw ``request``; returns the status and error document of
    the answer after checking it is one write that closes the
    connection."""
    client = RawClient(address)
    try:
        before = len(httpd.writes)
        client.sock.sendall(request)
        status, headers, body, raw = client.read_response()
        assert httpd.writes[before:] == [raw]
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert client.closed_by_server()
    finally:
        client.close()
    error = json.loads(body)["error"]
    assert set(error) == {"code", "reason", "details"}
    return status, error


class TestRefusals:
    """What the server refuses before a handler runs is answered like
    every other error: one write, one structured document."""

    @pytest.mark.parametrize("declared,status,code", [
        (str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
        ("-5", 400, "bad_request"),
        ("lots", 400, "bad_request"),
    ])
    @pytest.mark.parametrize("path", ["/jobs", "/cluster/scale"])
    def test_declared_body_size_is_checked_before_reading(
        self, wired, path, declared, status, code
    ):
        # Only the headers are sent: the answer must not wait for (or
        # read) a body of the declared size.
        httpd, address = wired
        request = "POST %s HTTP/1.1\r\nHost: test\r\nContent-Length: %s\r\n\r\n"
        answered, error = one_refusal(
            httpd, address, (request % (path, declared)).encode())
        assert (answered, error["code"]) == (status, code)

    @pytest.mark.parametrize("request_bytes,status,code", [
        (b"GARBAGE\r\n\r\n", 400, "bad_request"),
        (b"GET / HTTP/1.x\r\n\r\n", 400, "bad_request"),
        (b"GET /" + b"a" * 65532, 414, "request_uri_too_long"),
        (b"GET / HTTP/1.1\r\n" + b"".join(
            b"X-%d: y\r\n" % i for i in range(101)) + b"\r\n",
         431, "request_header_fields_too_large"),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"y" * 65537,
         431, "request_header_fields_too_large"),
        (b"DELETE /jobs/x HTTP/1.1\r\nHost: test\r\n\r\n",
         501, "not_implemented"),
    ], ids=["request-line", "version", "uri-too-long", "too-many-headers",
            "header-line-too-long", "unsupported-method"])
    def test_stdlib_refusal_is_structured(
        self, wired, request_bytes, status, code
    ):
        httpd, address = wired
        answered, error = one_refusal(httpd, address, request_bytes)
        assert (answered, error["code"]) == (status, code)


class TestIdleConnection:
    def test_silent_connection_is_closed_and_frees_its_thread(self, wired):
        httpd, address = wired
        assert _Handler.timeout == READ_TIMEOUT_SECONDS  # not None: never wait forever

        class Impatient(_Handler):
            timeout = 0.2

        httpd.RequestHandlerClass = Impatient
        threads_before = threading.active_count()
        client = RawClient(address)
        try:
            client.sock.sendall(b"GET /hea")  # half a request line, then silence
            assert client.closed_by_server()
        finally:
            client.close()
        deadline = time.monotonic() + WAIT
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() == threads_before
        # The server itself is fine: the next connection is served, and
        # is closed in turn once it has been idle between requests.
        client = RawClient(address)
        try:
            assert client.exchange("GET", "/healthz")[0] == 200
            assert client.closed_by_server()
        finally:
            client.close()

    def test_serve_top_renders_across_idle_closes(self, wired):
        """The server closes ``serve top``'s connection between frames;
        each next GET is re-sent once on a fresh connection."""
        httpd, address = wired
        httpd.RequestHandlerClass = _Impatient
        args = build_parser().parse_args(
            ["serve", "top", "--url", "http://%s:%d" % address,
             "--count", "3", "--interval", "0.4"])
        lines = []
        assert cmd_serve(args, out=lines.append) == 0, lines
        assert sum(line.startswith("repro serve top") for line in lines) == 3
        assert len(httpd.nodelay) >= 3  # at least one connection per frame

    def test_post_on_an_idle_closed_connection_is_not_resent(self, wired):
        httpd, address = wired
        httpd.RequestHandlerClass = _Impatient
        client = ServeClient("http://%s:%d" % address, timeout=WAIT)
        try:
            assert client.request("GET", "/healthz")[0] == 200
            time.sleep(0.4)  # the server closes the connection meanwhile
            with pytest.raises(ConnectionError):
                client.request("POST", "/jobs", body={
                    "tenant": "alice", "algorithm": "cc", "dataset": "g"})
        finally:
            client.close()
        assert httpd.service.list_jobs() == []
        assert len(httpd.nodelay) == 1  # never sent on a second connection
