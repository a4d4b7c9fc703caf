"""The DSE service under an open loop of mixed requests.

Requests go at a fixed 100 per second to an in-process stdlib
:class:`repro.service.http.ServiceServer` (two pool workers, fresh
state and cache directories), whatever the server's pace: each is timed
from when it was due, and the generator's lateness is reported.  The
mix:

* every tenth request (10%) a cold ``figure5`` scale-0.01 submission
  with a new seed: admission, WAL fsync, queue, worker transport,
  simulation and cache write;
* of the others, drawn from the seed, two in three (60% of all) a
  duplicate submission of an earlier spec: the dedup path, and a cache
  read once the job is done;
* and one in three (30%) a result fetch of an earlier job.

A second thread stamps when each cold job settles, through
``JobQueue.wait_settled``, for the job latencies.  An op is one request.

Request latencies are scaled by reference samples the generator takes
in its idle time before each request; a cold job's latency by
reference runs in the worker around its simulation (see
:mod:`hostclock`).
"""

import json
import os
import queue as queue_module
import random
import shutil
import threading
import time
import warnings

from repro.experiments.runner import run_experiment
from repro.service import engine as engine_module
from repro.service.client import ServiceClient
from repro.service.core import ServiceCore
from repro.service.http import ServiceServer
from repro.service.models import JobState

import harness
import hostclock
from hostclock import HostClock
from tracing import Tracer, format_summary, self_times

EXPERIMENT = "figure5"
# A scale-0.02 job (about 100 ms) and the supervisor the engine forks
# for its batch do not finish before the next cold arrival, so jobs
# queue behind whole batches and the job p50 had an IQR of 18% over
# eight runs; at 0.01 (about 50 ms) a job seldom waits.
SCALE = 0.01
RATE = 100.0
WORKERS = 2
# Cold submissions come at a fixed period rather than at random, which
# made when jobs overlapped (and so their latency) differ from seed to
# seed.
COLD_EVERY = 10
DUPLICATE_SHARE = 2.0 / 3.0
# The generator takes its reference sample this long before a request
# is due, when the previous reply is in and the server is idle.
SAMPLE_LEAD_S = 0.002
CROSS_CHECKS = 3
JOB_TIMEOUT_S = 60.0
# How often the stamper looks at jobs other than the one it waits on.
STAMP_POLL_S = 0.005


def report_inputs():
    """The inputs a served report depends on.  The figure5 report at a
    fixed scale is the same for every seed (the TDMA phase sweep is
    deterministic and the lottery column saturates), so one digest in
    expected.json covers every cold job of every run."""
    return {"workload": "service_mixed", "experiment": EXPERIMENT,
            "scale": SCALE}


def cold_seed(seed, index):
    """Seed of the ``index``-th cold job: distinct by construction, and
    never a set-up job's seed (see :func:`warm_seed`)."""
    return _odd(harness.derive(seed, "cold") + 16 + index)


def warm_seed(seed, rep):
    """Seed of the set-up job of repetition ``rep``."""
    return _odd(harness.derive(seed, "cold") + rep)


def _odd(value):
    # figure5 seeds its lottery LFSRs with the job seed, and an LFSR
    # rejects a seed that is 0 modulo 2**width: the job then fails.  An
    # odd seed is nonzero modulo every power of two.
    return 2 * value + 1


def plan(seed, seconds):
    """The request schedule: ``[{"due", "kind", "target", "seed"}]``."""
    rng = random.Random(harness.derive(seed, "service-mix"))
    requests = []
    colds = 0
    for index in range(max(1, int(round(RATE * seconds)))):
        if index % COLD_EVERY == 0:
            kind, target = "cold", colds
            colds += 1
        else:
            kind = ("duplicate" if rng.random() < DUPLICATE_SHARE
                    else "fetch")
            target = rng.randrange(colds)
        requests.append({"due": index / RATE, "kind": kind,
                         "target": target,
                         "seed": cold_seed(seed, target)})
    return requests


def open_loop(requests, send, clock=time.perf_counter, sleep=time.sleep,
              idle=None):
    """Send each request at its due time, whatever the server's pace.

    ``send(request, due)`` performs one request and returns whether it
    succeeded.  ``idle()``, if given, runs :data:`SAMPLE_LEAD_S` before
    each due time the generator is early for.  Returns ``(start,
    [(latency, lateness, ok)])``, both times measured from when the
    request was due, so a stall shows in every request it delays.
    """
    records = []
    start = clock()
    for request in requests:
        due = start + request["due"]
        now = clock()
        if idle is not None and now < due - SAMPLE_LEAD_S:
            sleep(due - SAMPLE_LEAD_S - now)
            idle()
            now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        ok = send(request, due)
        records.append((clock() - due, now - due, ok))
    return start, records


class _Stamper(threading.Thread):
    """Stamps when each cold job settles, oldest first.

    Waits on the oldest unsettled job with a short timeout and, on each
    wake, also stamps any younger job that settled meanwhile, so a job
    finishing out of order is stamped within ``STAMP_POLL_S``.
    """

    def __init__(self, job_queue, clock=time.perf_counter):
        super().__init__(name="bench-stamper", daemon=True)
        self.job_queue = job_queue
        self.clock = clock
        self.inbox = queue_module.Queue()
        self.latencies = {}  # job id -> seconds from due to settled
        self.states = {}

    def run(self):
        pending = []  # [(job id, due)], oldest first
        deadline = None  # set once the generator is done
        while True:
            block = not pending and deadline is None
            try:
                while True:
                    item = self.inbox.get(block=block)
                    block = False
                    if item is None:
                        deadline = self.clock() + JOB_TIMEOUT_S
                    else:
                        pending.append(item)
            except queue_module.Empty:
                pass
            if not pending:
                if deadline is not None:
                    return
                continue
            self.job_queue.wait_settled(pending[0][0], timeout=STAMP_POLL_S)
            now = self.clock()
            still = []
            for job_id, due in pending:
                state = self.job_queue.status_of(job_id)["state"]
                if state in JobState.TERMINAL:
                    self.latencies[job_id] = now - due
                    self.states[job_id] = state
                else:
                    still.append((job_id, due))
            pending = still
            if deadline is not None and now > deadline:
                return


class _Server:
    """One fresh server with its own state and cache directories."""

    def __init__(self, root, warm_seed):
        self.root = root
        self.core = ServiceCore(os.path.join(root, "state"),
                                cache_dir=os.path.join(root, "cache"),
                                workers=WORKERS)
        self.server = ServiceServer(self.core, port=0)
        self.server.start()
        self.client = ServiceClient(self.server.address, client_id="bench")
        # Warm-up: one cold job end to end, so the pool has forked and
        # the first simulation's lazy set-up is paid here.
        status, body = self.client.submit(EXPERIMENT, scale=SCALE,
                                          seed=warm_seed)
        if status != 202:
            raise RuntimeError("warm-up submission refused: {} {}".format(
                status, body))
        self.core.queue.wait_settled(body["job"], timeout=JOB_TIMEOUT_S)
        if self.core.queue.status_of(body["job"])["state"] != JobState.DONE:
            raise RuntimeError("warm-up job did not finish")

    def close(self):
        self.server.drain(timeout=30.0)
        shutil.rmtree(self.root, ignore_errors=True)


def reference_report(seed):
    """The report a direct run gives for one cold spec."""
    with warnings.catch_warnings():
        # figure5 warns that it ignores --seed; the service runs it the
        # same way.
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_experiment(EXPERIMENT, scale=SCALE,
                              seed=seed).format_report()


def _referenced_run(run, path):
    """``run_experiment`` with a reference run before and after, logged
    as ``[seed, before_s, after_s]`` lines to ``path``.

    Installed on the engine module before its supervisors fork their
    workers, so it runs in the worker, beside the simulation.
    """
    def referenced(*args, **kwargs):
        before = hostclock.reference_seconds()
        result = run(*args, **kwargs)
        after = hostclock.reference_seconds()
        with open(path, "a") as handle:
            handle.write(json.dumps([kwargs.get("seed"), before, after])
                         + "\n")
        return result

    return referenced


def _scaled_jobs(stamper, seeds, path):
    """Each settled cold job's latency less its worker's reference runs,
    scaled by them; ``None`` for a job with no reference logged."""
    references = {}
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                seed, before, after = json.loads(line)
                references[seed] = (before, after)
    scaled = []
    for job, latency in stamper.latencies.items():
        before, after = references.get(seeds[job], (None, None))
        scaled.append(None if before is None else hostclock.scale(
            latency - before - after, (before + after) / 2))
    return scaled


def _instrument(tracer, core, waits):
    """Time the service's layers on the live core's objects."""
    def on_submit(args, result):
        job, deduplicated = result
        if deduplicated:
            waits["dedup_hits"] += 1
        else:  # a cold job: the mix never hits the memo path
            waits["submitted"][job.id] = time.perf_counter_ns()

    def on_lease(args, jobs):
        now = time.perf_counter_ns()
        for job in jobs:
            submitted = waits["submitted"].pop(job.id, None)
            if submitted is not None:
                waits["leased"][job.id] = now
                tracer.add_wait("service.queue.wait", now - submitted)

    def on_complete(args, result):
        leased = waits["leased"].pop(args[0], None)
        if leased is not None:
            tracer.add_wait("experiments.supervisor.run",
                            time.perf_counter_ns() - leased)

    def on_get(args, record):
        waits["gets"] += 1
        waits["hits"] += record is not None

    tracer.time_calls(core, "submit", "service.core.submit")
    tracer.time_calls(core, "job_result", "service.core.job_result")
    tracer.time_calls(core.wal, "append", "service.wal.append")
    tracer.time_calls(core.queue, "submit", "service.queue.submit",
                      on_call=on_submit)
    tracer.after_calls(core.queue, "lease", on_lease)
    tracer.after_calls(core.queue, "complete", on_complete)
    tracer.time_calls(core.cache, "get", "experiments.cache.get",
                      on_call=on_get)
    tracer.time_calls(core.cache, "put", "experiments.cache.put")


def service_mixed(ctx):
    run = harness.Run(ctx)
    clock = HostClock()
    base = os.path.join(harness.OUT_DIR, "service-{}".format(os.getpid()))

    def setup(rep):
        return _Server(os.path.join(base, str(rep)),
                       warm_seed(ctx.seed, rep))

    server, setup_s = harness.repeated_setup(setup, _Server.close, clock)
    run.set_setup(setup_s)
    try:
        _measure(run, ctx, server, clock,
                 os.path.join(base, "worker-references.jsonl"))
    finally:
        server.close()
        shutil.rmtree(base, ignore_errors=True)
    return run


def _measure(run, ctx, server, clock, references):
    client, core = server.client, server.core
    requests = plan(ctx.seed, ctx.seconds)
    jobs = {}  # cold index -> job id
    seeds = {}  # job id -> seed
    reports = []
    stamper = _Stamper(core.queue)
    stamper.start()

    tracer = waits = None
    original_run = engine_module.run_experiment
    if ctx.trace:
        tracer = Tracer()
        waits = {"submitted": {}, "leased": {}, "dedup_hits": 0,
                 "gets": 0, "hits": 0}
        _instrument(tracer, core, waits)
    else:
        engine_module.run_experiment = _referenced_run(original_run,
                                                       references)

    def send(request, due):
        kind, target = request["kind"], request["target"]
        try:
            if kind == "fetch":
                status, body = client.job_result(jobs[target])
                if status == 200:
                    reports.append(body["report"])
                return status in (200, 202)
            status, body = client.submit(EXPERIMENT, scale=SCALE,
                                         seed=request["seed"])
            if kind == "cold":
                ok = status == 202 and not body["deduplicated"]
                if ok:
                    jobs[target] = body["job"]
                    seeds[body["job"]] = request["seed"]
                    stamper.inbox.put((body["job"], due))
                return ok
            return status in (200, 202) and body["deduplicated"] and (
                body["job"] == jobs[target])
        except (OSError, ValueError, KeyError):
            return False

    def traced_send(request, due):
        with tracer.span("service.request", kind=request["kind"]) as span:
            tracer.ambient = span.id
            return send(request, due)

    try:
        if ctx.trace:
            start, records = open_loop(requests, traced_send)
        else:
            start, records = open_loop(requests, send, idle=clock.sample)
        end = time.perf_counter()
        stamper.inbox.put(None)
        stamper.join(JOB_TIMEOUT_S + 5.0)
    finally:
        engine_module.run_experiment = original_run
        if tracer is not None:
            tracer.uninstall()

    run.attempted += len(records)
    failed = sum(1 for _, _, ok in records if not ok)
    if failed:
        run.fail(failed, "service_mixed: {} request(s) failed".format(failed))
    unsettled = [job for job in jobs.values()
                 if stamper.states.get(job) != JobState.DONE]
    if unsettled:
        run.fail(len(unsettled), "service_mixed: {} cold job(s) did not "
                                 "finish".format(len(unsettled)))
    for report in reports:
        run.check_group("service_mixed report", report_inputs(), report, 1)
    _check_server(run, ctx, client, jobs)

    # A failed request counts as missing every latency limit.
    latencies = [latency if ok else float("inf")
                 for latency, _, ok in records]
    job_latencies = sorted(stamper.latencies.values())
    lateness = [late for _, late, _ in records]
    run.notes.append("service_mixed: {} requests ({} cold), unscaled p50 "
                     "{:.3f} ms per request and {:.1f} ms per cold job, "
                     "generator lateness p50 {:.3f} ms, max {:.3f} "
                     "ms".format(len(records), len(jobs),
                                 harness.percentile(latencies, 0.5) * 1e3,
                                 _ms(harness.percentile(job_latencies, 0.5)
                                     or float("nan")),
                                 harness.percentile(lateness, 0.5) * 1e3,
                                 max(lateness) * 1e3))
    end_to_end = layers = None
    if not ctx.trace:
        scaled = [
            clock.scaled(start + request["due"],
                         start + request["due"] + latency)
            if ok else float("inf")
            for request, (latency, _, ok) in zip(requests, records)
        ]
        job_scaled = _scaled_jobs(stamper, seeds, references)
        if None in job_scaled:
            run.fail(job_scaled.count(None), "service_mixed: a worker "
                                             "logged no reference runs")
        run.notes.append("service_mixed: " + clock.describe())
        end_to_end = {
            "throughput_per_s": (len(records) - failed) / (end - start),
            "latency_p50_ms": _ms(harness.percentile(scaled, 0.5)),
            "job_p50_ms": _ms(harness.percentile(
                [job for job in job_scaled if job is not None], 0.5)),
        }
    else:
        layers = _layers(tracer, waits, latencies, job_latencies, lateness)
        run.notes += format_summary(harness.write_trace(ctx, tracer))
    run.finish(end_to_end, layers)


def _check_server(run, ctx, client, jobs):
    """Untimed: sampled reports against a direct run, and no duplicate
    execution (``/stats`` executed == distinct cold specs + warm-up)."""
    rng = random.Random(harness.derive(ctx.seed, "service-check"))
    for index in rng.sample(sorted(jobs), min(CROSS_CHECKS, len(jobs))):
        status, body = client.job_result(jobs[index])
        seed = cold_seed(ctx.seed, index)
        if status != 200 or body["report"] != reference_report(seed):
            run.fail(1, "service_mixed: served report for seed {} differs "
                        "from run_experiment".format(seed))
    status, stats = client.stats()
    if status != 200 or stats["executed"] != len(jobs) + 1:
        run.fail(1, "service_mixed: {} executions for {} distinct cold "
                    "specs (+1 warm-up)".format(stats.get("executed"),
                                                len(jobs)))


def _layers(tracer, waits, latencies, job_latencies, lateness):
    totals = tracer.totals()
    selfs = self_times(totals)
    requests = tracer.closed("service.request")
    requests_s = sum(span.wall_ns for span in requests) / 1e9

    def net_and_cost(layer):
        total = totals.get(layer, [0, 0.0, 0.0, 0.0])
        return (total[1] + total[3]) / 1e9

    wait_count, wait_ns = tracer.waits.get("service.queue.wait", (0, 0))
    run_count, run_ns = tracer.waits.get("experiments.supervisor.run",
                                         (0, 0))
    p99 = harness.percentile(latencies, 0.99)
    overhead = sum(total[3] for total in totals.values()) / 1e9
    return {
        # The client waits for each reply, so HTTP and client time is the
        # request time the service core did not account for.
        "service.http.self_s": requests_s - net_and_cost(
            "service.core.submit") - net_and_cost("service.core.job_result"),
        "service.core.submit_s": selfs.get("service.core.submit", 0.0),
        "service.core.job_result_s": selfs.get("service.core.job_result",
                                               0.0),
        "service.wal.append_s": selfs.get("service.wal.append", 0.0),
        "service.wal.appends": totals.get("service.wal.append", [0])[0],
        "service.queue.submit_s": selfs.get("service.queue.submit", 0.0),
        "service.queue.dedup_hits": waits["dedup_hits"],
        "service.queue.wait_s": wait_ns / 1e9,
        "experiments.supervisor.run_s": run_ns / 1e9,
        "experiments.cache.get_s": selfs.get("experiments.cache.get", 0.0),
        "experiments.cache.put_s": selfs.get("experiments.cache.put", 0.0),
        "experiments.cache.hit_ratio": waits["hits"] / float(
            max(1, waits["gets"])),
        "service.request_p99_ms": _ms(p99),
        "service.job_p90_s": harness.percentile(job_latencies, 0.90),
        "service.loadgen.late_max_ms": max(lateness) * 1e3,
        "trace.overhead_frac": overhead / requests_s,
    }


def _ms(seconds):
    return None if seconds is None else seconds * 1e3
