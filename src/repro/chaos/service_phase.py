"""Chaos phase for the DSE service: kill -9 the server, prove nothing.

The campaign phases attack the *library* stack; this phase attacks the
**serving** stack end to end, as a real deployment would experience it:

1. A fault-free **serial reference** report is computed in-process for
   every spec the phase will submit — ground truth, no service at all.
2. The stdlib server (``python -m repro.service``) is started as a real
   subprocess on a scratch state dir, and a pack of concurrent client
   threads hammers it: every spec submitted by *every* client (so each
   is a duplicate several times over), malformed payloads interleaved,
   ``429`` backpressure honoured by waiting out ``Retry-After``.
3. Mid-hammer the server is **SIGKILLed** — repeatedly — and restarted
   on the same state dir each time.  Clients ride through the downtime
   by retrying.
4. The phase passes only if every job settles ``done`` with a report
   **bit-identical** to the serial reference, the drained server exits
   ``143``, and the write-ahead log shows **zero duplicated work**: one
   ``submit`` per idempotency key (every duplicate joined the original
   job) and at most one ``done`` per job.
"""

import os
import signal
import subprocess
import sys
import threading
import time

from repro.experiments import JobSpec
from repro.service.client import ServiceClient
from repro.service.http import pick_free_port
from repro.service.wal import JobWAL

#: Client threads hammering the server concurrently; every thread
#: submits every spec, so each spec arrives this many times.
HAMMER_CLIENTS = 3

#: Queue bound for the hammered server — deliberately small so the
#: phase provably exercises 429 + Retry-After backpressure.
SERVICE_QUEUE_DEPTH = 4

_MALFORMED_PAYLOADS = (
    {"experiment": "no-such-experiment"},
    {"experiment": "figure5", "scale": -1},
    {"experiment": "figure5", "seed": "three"},
    {"experiment": "figure5", "bogus_field": 1},
    ["not", "an", "object"],
)


def _reference_reports(specs, on_event=None):
    """Serial fault-free ground truth: ``{idempotency key: report}``."""
    reports = {}
    for spec in specs:
        if on_event is not None:
            on_event("service reference: {} seed {}".format(
                spec.experiment, spec.seed
            ))
        reports[spec.key()] = spec.run()
    return reports


class _ServerProcess:
    """The service subprocess, restartable on one durable state dir."""

    def __init__(self, state_dir, cache_dir, port, workers):
        self.state_dir = state_dir
        self.cache_dir = cache_dir
        self.port = port
        self.workers = workers
        self.proc = None

    @property
    def wal_path(self):
        return os.path.join(self.state_dir, "queue.wal")

    def start(self):
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--state-dir", self.state_dir,
                "--cache-dir", self.cache_dir,
                "--port", str(self.port),
                "--workers", str(self.workers),
                "--queue-depth", str(SERVICE_QUEUE_DEPTH),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def kill9(self):
        self.proc.kill()
        self.proc.wait()

    def terminate(self, timeout=90.0):
        """SIGTERM and return the exit code (143 = graceful drain)."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)


def _hammer(client, specs, job_ids, errors, deadline):
    """One client thread: submit every spec, riding through crashes.

    429 (queue full) waits out ``Retry-After`` and retries; connection
    errors (the server is dead between kill and restart) back off and
    retry; 503 (draining) retries after restart.  Anything else —
    including 400s for these well-formed specs — is a phase failure.
    """
    for spec in specs:
        while True:
            if time.monotonic() > deadline:
                errors.append("hammer timed out submitting {}".format(spec))
                return
            try:
                status, body = client.submit(
                    spec.experiment, scale=spec.scale, seed=spec.seed,
                    options=spec.options,
                )
            except OSError:
                time.sleep(0.2)  # crash window: server is between lives
                continue
            if status in (200, 202):
                job_ids[spec.key()] = body["job"]
                break
            if status == 429:
                time.sleep(min(5, int(body.get("retry_after", 1))))
                continue
            if status == 503:
                time.sleep(0.3)
                continue
            errors.append(
                "unexpected {} submitting {}: {}".format(status, spec, body)
            )
            return


def run_service_phase(args, workdir, on_event=None):
    """The whole phase; returns a list of failure strings (empty = pass)."""
    failures = []
    specs = [
        JobSpec(name, scale=args.scale, seed=seed)
        for name in args.experiments
        for seed in (args.seed, args.seed + 1)
    ]
    reference = _reference_reports(specs, on_event=on_event)

    server = _ServerProcess(
        state_dir=os.path.join(workdir, "service-state"),
        cache_dir=os.path.join(workdir, "service-cache"),
        port=pick_free_port(),
        workers=args.jobs,
    )
    base_url = "http://127.0.0.1:{}".format(server.port)
    server.start()
    probe = ServiceClient(base_url, client_id="chaos-probe")
    if not probe.wait_ready(30):
        server.kill9()
        return ["service never became ready on {}".format(base_url)]

    # Concurrent duplicate submissions from several client identities.
    job_ids = [dict() for _ in range(HAMMER_CLIENTS)]
    errors = []
    deadline = time.monotonic() + 300
    threads = [
        threading.Thread(
            target=_hammer,
            args=(
                ServiceClient(base_url, client_id="chaos-{}".format(i)),
                specs, job_ids[i], errors, deadline,
            ),
            daemon=True,
        )
        for i in range(HAMMER_CLIENTS)
    ]
    for thread in threads:
        thread.start()

    # Malformed submissions must bounce typed, never crash the server.
    for payload in _MALFORMED_PAYLOADS:
        try:
            status, body = probe.submit_raw(payload)
        except OSError:
            continue  # landed in a crash window; validity covered below
        if status != 400:
            failures.append(
                "malformed payload {!r} got {} ({}), expected 400".format(
                    payload, status, body
                )
            )

    # The kill schedule: SIGKILL mid-campaign, restart on the same
    # state dir, repeat.  Submissions and executions are in flight
    # throughout — exactly the torn states the WAL must absorb.
    for round_number in range(args.service_kills):
        time.sleep(0.8)
        if on_event is not None:
            on_event("service chaos: kill -9 round {}".format(
                round_number + 1
            ))
        server.kill9()
        time.sleep(0.2)
        server.start()
        if not probe.wait_ready(30):
            server.kill9()
            return ["service did not come back after kill round {}".format(
                round_number + 1
            )]

    for thread in threads:
        thread.join(timeout=300)
    failures.extend(errors)

    # Every client's every job must settle bit-identical to reference.
    all_jobs = {}
    for table in job_ids:
        all_jobs.update(table)
    if len(all_jobs) != len(specs):
        failures.append(
            "expected {} distinct jobs, saw {}".format(
                len(specs), len(all_jobs)
            )
        )
    waiter = ServiceClient(base_url, client_id="chaos-waiter",
                           timeout=60.0)
    for key, job_id in sorted(all_jobs.items()):
        try:
            status, body = waiter.wait_result(job_id, timeout=240)
        except (OSError, TimeoutError) as error:
            failures.append("job {} never settled: {}".format(job_id, error))
            continue
        if status != 200:
            failures.append(
                "job {} settled {} ({}), expected done".format(
                    job_id, status, body
                )
            )
        elif body["report"] != reference[key]:
            failures.append(
                "job {} report differs from fault-free reference".format(
                    job_id
                )
            )

    # Cross-client idempotency: all clients were handed the same job id
    # for the same spec.
    for key in reference:
        ids = {table[key] for table in job_ids if key in table}
        if len(ids) > 1:
            failures.append(
                "spec {} got {} distinct jobs across clients: {}".format(
                    key[:12], len(ids), sorted(ids)
                )
            )

    exit_code = server.terminate()
    if exit_code != 143:
        failures.append(
            "drained server exited {}, expected 143".format(exit_code)
        )

    failures.extend(_audit_wal(server.wal_path))
    return failures


def _audit_wal(wal_path):
    """Replay the final WAL and assert the no-duplicated-work invariants.

    * exactly one ``submit`` per idempotency key — every duplicate
      submission joined the original job instead of spawning a new one;
    * at most one ``done`` per job — a result is recorded once, no
      matter how many crashes and restarts happened around it.

    (Multiple ``run`` records per job are *legal*: a kill -9 mid-run
    legitimately reruns the job, and determinism makes that safe.)
    """
    failures = []
    records = JobWAL(wal_path).replay(repair=False)
    if not records:
        return ["service WAL is empty or unreadable: {}".format(wal_path)]
    submits_per_key = {}
    dones_per_job = {}
    for record in records:
        if record["op"] == "submit":
            submits_per_key.setdefault(record["key"], []).append(
                record["job"]
            )
        elif record["op"] == "done":
            dones_per_job[record["job"]] = (
                dones_per_job.get(record["job"], 0) + 1
            )
    for key, jobs in sorted(submits_per_key.items()):
        if len(jobs) != 1:
            failures.append(
                "duplicated admission for key {}: jobs {}".format(
                    key[:12], ", ".join(jobs)
                )
            )
    for job_id, count in sorted(dones_per_job.items()):
        if count > 1:
            failures.append(
                "job {} recorded done {} times".format(job_id, count)
            )
    return failures
