"""The one client of ``repro serve``'s HTTP front end (DESIGN.md §6)."""

import collections
import json
import time
from http.client import HTTPConnection
from urllib.parse import urlsplit

ROUND_TRIPS_KEPT = 4096


class ServeClient:
    """JSON over one keep-alive connection to ``http://HOST:PORT[/prefix]``,
    each round trip timed into :attr:`round_trips`. A GET on a reused
    connection the server closed as idle is re-sent once on a fresh one;
    no other method is: a POST may already have submitted a job."""

    def __init__(self, base, timeout):
        parts = urlsplit(base)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError("expected http://HOST:PORT[/prefix], got %r" % base)
        self.timeout, self._prefix = timeout, parts.path.rstrip("/")
        self._connection = HTTPConnection(parts.hostname, parts.port, timeout=timeout)
        self.round_trips = collections.deque(maxlen=ROUND_TRIPS_KEPT)

    def request(self, method, path, body=None, raw=None):
        """``(status, headers, body bytes)``; ``body`` goes as JSON."""
        raw = raw if body is None else json.dumps(body).encode("utf-8")
        started = time.perf_counter()
        resend = method == "GET" and self._connection.sock is not None
        while True:
            try:
                self._connection.request(method, self._prefix + path, raw,
                                         {"Content-Type": "application/json"})
                response = self._connection.getresponse()
                data = response.read()
                break
            except BaseException as error:
                self._connection.close()  # half an exchange carries no more
                if not (resend and isinstance(error, ConnectionError)):
                    raise
                resend = False
        self.round_trips.append(time.perf_counter() - started)
        return response.status, response.headers, data

    def json(self, method, path, body=None, raw=None):
        status, _headers, data = self.request(method, path, body, raw)
        return status, json.loads(data)

    def poll(self, path, done, interval=0.1):
        """The last ``(status, doc)`` of GETs until ``done(doc)`` or timeout."""
        deadline = time.monotonic() + self.timeout
        status, doc = self.json("GET", path)
        while not done(doc) and time.monotonic() < deadline:
            time.sleep(interval)
            status, doc = self.json("GET", path)
        return status, doc

    def close(self):
        self._connection.close()
