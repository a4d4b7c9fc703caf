"""Dependency-free HTTP front-end: stdlib server, graceful SIGTERM.

The service's only front-end: it needs nothing beyond the standard
library, so the crash-consistency story is provable in the minimal
environment.

Request handling is a mechanical dispatch table into the core's
``(status, body, headers)`` triples.  Process lifecycle is the part
that matters:

* **SIGTERM → graceful drain → exit 143.**  The handler stops
  admissions (new submissions get a typed ``503 draining``), asks the
  supervisor to finish in-flight jobs, durably rewinds undispatched
  leases, shuts the listener down, and the process exits with the
  conventional ``128+15``.  A restart with the same ``--state-dir``
  resumes the queue exactly where the drain checkpointed it.
* **SIGINT → exit 130** (same drain, interactive convention).
"""

import errno
import json
import multiprocessing.util
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.core import ServiceCore

#: Largest accepted request body; a submission is a few hundred bytes,
#: so anything near this is garbage or abuse, refused before parsing.
MAX_BODY_BYTES = 1 << 20

#: How long a restart may wait for its port.  A ``kill -9`` leaves the
#: dead server's forked supervisor workers holding the inherited
#: listening socket until they notice the parent is gone, so a
#: crash-restart on the same port can transiently see ``EADDRINUSE``
#: even though nothing is serving.
BIND_RETRY_SECONDS = 15.0

EXIT_SIGTERM = 143  # 128 + SIGTERM, the conventional graceful-kill code
EXIT_SIGINT = 130  # 128 + SIGINT


def _make_handler(core, on_event=None):
    """A request-handler class closed over one :class:`ServiceCore`."""

    class ServiceHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # -- plumbing ----------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            if on_event is not None:
                on_event("http {} {}".format(
                    self.address_string(), format % args
                ))

        def _client_id(self):
            return (self.headers.get("X-Client-Id")
                    or self.client_address[0])

        def _send(self, result):
            status, body, headers = result
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _read_json(self):
            """The request body as JSON, or ``None`` after replying 4xx."""
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                self._send((400, {
                    "error": "missing or oversized request body",
                    "kind": "invalid-spec",
                }, {}))
                return None
            raw = self.rfile.read(length)
            try:
                return json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                self._send((400, {
                    "error": "request body is not valid JSON: {}".format(
                        error
                    ),
                    "kind": "invalid-spec",
                }, {}))
                return None

        # -- dispatch ----------------------------------------------------

        def do_GET(self):
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                return self._send(core.healthz())
            if path == "/readyz":
                return self._send(core.readyz())
            if path == "/stats":
                return self._send(core.stats())
            if path == "/jobs":
                return self._send(core.list_jobs())
            parts = path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "jobs":
                return self._send(core.job_status(parts[1]))
            if (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "result"):
                return self._send(core.job_result(parts[1]))
            self._send((404, {"error": "no such route: GET {}".format(path),
                              "kind": "not-found"}, {}))

        def do_POST(self):
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/jobs":
                payload = self._read_json()
                if payload is not None:
                    self._send(core.submit(payload,
                                           client=self._client_id()))
                return
            if path == "/sweeps":
                payload = self._read_json()
                if payload is not None:
                    self._send(core.submit_sweep(payload,
                                                 client=self._client_id()))
                return
            self._send((404, {"error": "no such route: POST {}".format(path),
                              "kind": "not-found"}, {}))

        def do_DELETE(self):
            path = self.path.split("?", 1)[0].rstrip("/")
            parts = path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "jobs":
                return self._send(core.cancel(parts[1]))
            self._send((404, {
                "error": "no such route: DELETE {}".format(path),
                "kind": "not-found",
            }, {}))

    return ServiceHandler


class ServiceServer:
    """One listening server wrapping one :class:`ServiceCore`.

    Usable programmatically (tests drive ``start()`` / ``drain()``
    directly) or via :func:`run_server` which adds the signal handling.
    """

    def __init__(self, core, host="127.0.0.1", port=0, on_event=None,
                 bind_retry=BIND_RETRY_SECONDS):
        self.core = core
        handler = _make_handler(core, on_event=on_event)
        deadline = time.monotonic() + bind_retry
        while True:
            try:
                self.httpd = ThreadingHTTPServer((host, port), handler)
                break
            except OSError as error:
                if error.errno != errno.EADDRINUSE:
                    raise
                if port == 0 or time.monotonic() >= deadline:
                    raise
                # Crash-restart race: the previous server's orphaned
                # worker processes still hold the inherited listening
                # socket; they exit as soon as they see the parent die.
                time.sleep(0.25)
        # Workers forked from here on must not re-inherit the listener
        # across an exec (fork-only children are covered by the retry).
        os.set_inheritable(self.httpd.fileno(), False)
        # Forked supervisor workers inherit the listening socket; close
        # it in every child at fork time so an orphaned worker can never
        # hold the port against a crash-restart.
        multiprocessing.util.register_after_fork(
            self.httpd, lambda httpd: httpd.socket.close()
        )
        self.httpd.daemon_threads = True
        self._serve_thread = None

    @property
    def address(self):
        host, port = self.httpd.server_address[:2]
        return "http://{}:{}".format(host, port)

    def start(self):
        self.core.start()
        # Written once by the owning thread before any request or drain
        # thread exists; the later drain-side read is happens-after the
        # thread start that publishes it.
        self._serve_thread = threading.Thread(  # lb: noqa[LB201]
            target=self.httpd.serve_forever, name="service-http",
            daemon=True,
        )
        self._serve_thread.start()

    def serve_forever(self):
        """Foreground serving (the CLI path); returns on shutdown()."""
        self.core.start()
        self.httpd.serve_forever()

    def drain(self, timeout=None):
        """Stop admitting, finish in-flight work, stop the listener."""
        self.core.drain(timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(5.0)


def pick_free_port(host="127.0.0.1"):
    """An OS-assigned free TCP port (tests and the chaos harness)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def run_server(core, host="127.0.0.1", port=8741, on_event=None):
    """Serve until SIGTERM/SIGINT; returns the conventional exit code.

    SIGTERM: stop admissions, drain in-flight jobs through the
    supervisor, durably rewind the rest, close the listener, return
    ``143``.  SIGINT does the same drain and returns ``130``.  The WAL
    left behind is a resumable checkpoint either way.
    """
    server = ServiceServer(core, host=host, port=port, on_event=on_event)
    received = {"signum": None}

    def _handle(signum, frame):
        received["signum"] = signum
        # Drain off the signal-handler frame: the drain joins threads
        # and does I/O, neither of which belongs in a signal context.
        threading.Thread(
            target=server.drain, kwargs={"timeout": 60.0},
            name="service-drain", daemon=True,
        ).start()

    previous_term = signal.signal(signal.SIGTERM, _handle)
    previous_int = signal.signal(signal.SIGINT, _handle)
    if on_event is not None:
        on_event("service listening on {}".format(server.address))
    try:
        server.serve_forever()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
    if received["signum"] == signal.SIGTERM:
        return EXIT_SIGTERM
    if received["signum"] == signal.SIGINT:
        return EXIT_SIGINT
    return 0


def core_from_args(args, chaos=None, on_event=None):
    """Build a :class:`ServiceCore` from parsed CLI arguments."""
    cache_max_bytes = None
    if args.cache_max_mb is not None:
        cache_max_bytes = int(args.cache_max_mb * 1024 * 1024)
    return ServiceCore(
        args.state_dir,
        cache_dir=args.cache_dir,
        cache_max_bytes=cache_max_bytes,
        workers=args.workers,
        max_depth=args.queue_depth,
        rate=args.rate,
        burst=args.burst,
        timeout=args.timeout,
        retries=args.retries,
        quarantine_after=args.quarantine_after,
        circuit_breaker=args.circuit_breaker,
        chaos=chaos,
        on_event=on_event,
    )
