"""Server processes and the timing client of the serving benchmark.

The server is always the real CLI (``python -m repro.cli serve`` with
its defaults: the async tier and the hashjoin engine), or the same CLI
behind :mod:`traced_serve` for the traced run.  The client is stdlib
``http.client`` with default socket options: no ``TCP_NODELAY`` or
``TCP_QUICKACK`` tuning on the client side, so whatever the server's
write pattern costs a real ``repro.client`` user shows up here too.

Client and server run on one machine and both read
``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so server-side
span timestamps and client-side request windows share one clock.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Client socket timeout: above the slowest request (a cold 10k-join
#: miss takes seconds) and the server's 15 s SSE heartbeat.
CLIENT_TIMEOUT = 120.0

#: How long a stopped server gets to shut down before it is terminated.
STOP_TIMEOUT = 15.0


class BenchError(Exception):
    """The benchmark cannot produce a result (setup or protocol failure)."""


class Server:
    """One ``repro-prov serve`` process, started and stopped by the bench.

    The server's standard error goes to ``log_path``: an undrained pipe
    would fill and block the server.  ``traced_spans`` names a file:
    the server then runs behind the traced launcher, which writes its
    in-memory spans there on exit.
    """

    def __init__(
        self,
        data_path: str,
        log_path: str,
        program_path: Optional[str] = None,
        data_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        traced_spans: Optional[str] = None,
    ):  # noqa: D107
        args = ["serve", "-d", data_path, "--port", "0"]
        if program_path is not None:
            args += ["-p", program_path]
        if data_dir is not None:
            args += ["--data-dir", data_dir]
        if snapshot_every is not None:
            args += ["--snapshot-every", str(snapshot_every)]
        if traced_spans is None:
            command = [sys.executable, "-m", "repro.cli"] + args
        else:
            command = [
                sys.executable,
                os.path.join(HERE, "traced_serve.py"),
                traced_spans,
            ] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        self.forced = False
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            # The CLI stops on Ctrl-C.  SIGINT ignored here (a background
            # job) would be ignored by the server too, since exec keeps
            # ignored signals; a handled one is reset to the default.
            signal.signal(signal.SIGINT, signal.default_int_handler)
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=ROOT,
                text=True,
            )
        banner = self.process.stdout.readline()
        if "listening on http://" not in banner:
            self.stop()
            raise BenchError(
                "server did not start: {!r} {}".format(banner, self.log_tail())
            )
        address = banner.split("http://", 1)[1].split(" ", 1)[0]
        self.port = int(address.rsplit(":", 1)[1])
        self.pid = self.process.pid

    def log_tail(self) -> str:
        """The end of the server's standard error."""
        with open(self.log_path) as handle:
            return handle.read()[-2000:]

    def rss_peak_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open("/proc/{}/status".format(self.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc/{}/status".format(self.pid))

    def stop(self) -> int:
        """Ctrl-C the server (the CLI's shutdown path) and reap it.

        Returns the exit code.  The async tier's Ctrl-C path sometimes
        never finishes cancelling its tasks; such a server is
        terminated after ``STOP_TIMEOUT`` and ``forced`` is set.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.forced = True
                self.process.terminate()
                try:
                    self.process.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


class Response:
    """One timed request: kind, status, body and the client-side window."""

    __slots__ = ("kind", "status", "body", "start", "end")

    def __init__(self, kind, status, body, start, end):  # noqa: D107
        self.kind = kind
        self.status = status
        self.body = body
        self.start = start
        self.end = end

    @property
    def ok(self) -> bool:
        """Did the server answer 2xx?"""
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from sending the request to reading the last byte."""
        return self.end - self.start


class Connection:
    """One keep-alive client connection that records every request."""

    def __init__(self, port: int):  # noqa: D107
        self._http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=CLIENT_TIMEOUT
        )
        self.log: List[Response] = []

    def call(self, kind: str, method: str, path: str, payload=None) -> Response:
        """Send one request and read the whole reply (closed loop).

        A transport failure is a failed request (status 0), never an
        exception: the loop counts it and reconnects.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            self._http.request(method, path, body=body, headers=headers)
            reply = self._http.getresponse()
            data = reply.read()
            status = reply.status
        except (OSError, http.client.HTTPException) as error:
            data = str(error).encode("utf-8")
            status = 0
            self._http.close()
        response = Response(kind, status, data, start, time.perf_counter())
        self.log.append(response)
        return response

    def stats(self) -> dict:
        """``GET /v1/stats`` (untimed bookkeeping, not part of a loop)."""
        response = self.call("stats", "GET", "/v1/stats")
        if not response.ok:
            raise BenchError("GET /v1/stats failed: {}".format(response.status))
        return json.loads(response.body)

    def close(self) -> None:
        """Close the socket."""
        self._http.close()


class ChangefeedReader:
    """Holds one SSE changefeed open on its own connection (a thread).

    Every event is recorded with its arrival time and raw ``data:``
    bytes; :meth:`wait_for` blocks the loop connection until the event
    with a given cursor has arrived.
    """

    def __init__(self, port: int, subscription: str):  # noqa: D107
        self._http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=CLIENT_TIMEOUT
        )
        self._path = "/v1/changefeed/{}".format(subscription)
        self._cond = threading.Condition()
        self.events: List[dict] = []  # {"cursor", "arrived", "data"}
        self._by_cursor: Dict[int, float] = {}
        self.error: Optional[str] = None
        self._closed = False
        self._http.request("GET", self._path)
        # http.client forgets the socket of a Connection: close response;
        # keep it to unblock the reader thread on close().
        self._socket = self._http.sock
        self._response = self._http.getresponse()
        if self._response.status != 200:
            raise BenchError(
                "changefeed answered {}".format(self._response.status)
            )
        self._thread = threading.Thread(
            target=self._run, name="changefeed", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self._response.read1(65536)
                if not chunk:
                    break
                arrived = time.perf_counter()
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    self._frame(frame, arrived)
        except (OSError, http.client.HTTPException, ValueError) as error:
            if not self._closed:
                self.error = "{}: {}".format(type(error).__name__, error)
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()

    def _frame(self, frame: bytes, arrived: float) -> None:
        data = None
        for line in frame.split(b"\n"):
            if line.startswith(b"data:"):
                data = line[len(b"data:"):].strip()
        if data is None:
            return  # heartbeat comment
        cursor = json.loads(data)["cursor"]
        with self._cond:
            self.events.append(
                {"cursor": cursor, "arrived": arrived, "data": data}
            )
            self._by_cursor[cursor] = arrived
            self._cond.notify_all()

    def wait_for(self, cursor: int, timeout: float) -> Optional[float]:
        """Arrival time of the event with ``cursor`` (``None`` on timeout)."""
        deadline = time.perf_counter() + timeout
        with self._cond:
            while cursor not in self._by_cursor:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    return None
                self._cond.wait(remaining)
            return self._by_cursor[cursor]

    def close(self) -> None:
        """Drop the stream and join the reader thread."""
        with self._cond:
            self._closed = True
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(10.0)
        self._response.close()
        self._http.close()
