"""Replicated experiment runs with confidence intervals.

The paper reports point estimates "over a long simulation trace"; this
harness adds the error bars: any test-bed configuration is replicated
across independent seeds and each metric is reported as mean ± 95% CI.

Aggregation is *streaming*: every replication produces a compact
:class:`~repro.metrics.stats.StreamingReplication` summary (a few
numbers per metric, independent of run length), and summaries are
merged in seed order.  With ``jobs`` > 1 the replications run on the
persistent worker pool and only the summaries cross the pipe — pipe
traffic and parent memory are O(metrics), not O(transactions) — and
because the merge order is fixed by the seed list, the result is
bit-identical whatever ``jobs`` is.
"""

from repro.experiments.sweep import batch_results
from repro.experiments.system import run_testbed
from repro.metrics.report import format_table
from repro.metrics.stats import StreamingReplication
from repro.sim.rng import child_seed


class ReplicatedResult:
    def __init__(self, arbiter_name, traffic_class, weights, replication):
        self.arbiter_name = arbiter_name
        self.traffic_class = traffic_class
        self.weights = list(weights)
        self.replication = replication

    def interval(self, metric):
        return self.replication.interval(metric)

    def format_report(self):
        rows = []
        for metric, n, mu, halfwidth in self.replication.summary_rows():
            rows.append(
                [metric, n, "{:.4f}".format(mu), "±{:.4f}".format(halfwidth)]
            )
        return format_table(
            ["metric", "replications", "mean", "95% CI"],
            rows,
            title="{} on {} (weights {}), replicated".format(
                self.arbiter_name, self.traffic_class, self.weights
            ),
        )


def replication_seed(seed, seed_mode="derived"):
    """The generator seed one replication actually runs with.

    ``"derived"`` decorrelates the conventionally adjacent entries of a
    ``seeds=range(...)`` list through
    :func:`~repro.sim.rng.child_seed`; ``"shared"`` is the legacy shim
    using the listed value directly.
    """
    if seed_mode == "derived":
        return child_seed(seed, "replication")
    if seed_mode == "shared":
        return seed
    raise ValueError(
        "seed_mode must be 'derived' or 'shared', got {!r}".format(seed_mode)
    )


def _replication_chunk(
    arbiter_name, traffic_class, weights, seeds, cycles, warmup, seed_mode,
    arbiter_kwargs
):
    """Replicate a chunk of seeds; returns a compact summary state.

    The pool fan-out unit: runs entirely in a worker and ships back a
    ``StreamingReplication.state_dict()`` — O(metrics) numbers however
    many seeds or transactions the chunk covered.
    """
    replication = StreamingReplication()
    for seed in seeds:
        result = run_testbed(
            arbiter_name,
            traffic_class,
            list(weights),
            cycles=cycles,
            seed=replication_seed(seed, seed_mode),
            warmup=warmup,
            **arbiter_kwargs
        )
        _record_replication(replication, result)
    return replication.state_dict()


def _record_replication(replication, result):
    """Fold one replication's TestbedResult into the running summary."""
    replication.record("utilization", result.utilization)
    for master, share in enumerate(result.bandwidth_shares):
        replication.record("share{}".format(master), share)
    for master, latency in enumerate(result.latencies_per_word):
        replication.record("latency{}".format(master), latency)


def run_replicated_testbed(
    arbiter_name,
    traffic_class,
    weights,
    seeds=range(1, 9),
    cycles=50_000,
    warmup=2_000,
    seed_mode="shared",
    jobs=None,
    backend="scalar",
    **arbiter_kwargs
):
    """Replicate one test-bed point; returns a :class:`ReplicatedResult`.

    Collected metrics per replication: ``utilization``, per-master
    ``share{i}`` (bandwidth shares) and ``latency{i}`` (cycles/word).

    Every seed is summarized as its own chunk and chunks are merged in
    seed order, so the statistics are bit-identical for any ``jobs``
    (the default keeps the historical ``seed_mode="shared"`` seeds so
    existing checked-in numbers stay reproducible; pass
    ``seed_mode="derived"`` for decorrelated streams).

    ``backend="vector"`` runs every replication as one lane of the
    struct-of-arrays engine (:mod:`repro.vector`) — per-run summaries
    are bit-identical to the scalar path, so the merged statistics are
    too.
    """
    seeds = list(seeds)
    from repro.experiments.supervisor import pool_map

    results = batch_results(
        [
            (arbiter_name, traffic_class, weights, cycles,
             replication_seed(seed, seed_mode), warmup, arbiter_kwargs)
            for seed in seeds
        ],
        backend,
    )
    if results is not None:
        # Summarize each replication as its own chunk and merge in seed
        # order — the exact shape of the pooled scalar path, so the
        # statistics stay bit-identical whatever the backend.
        replication = StreamingReplication()
        for result in results:
            chunk = StreamingReplication()
            _record_replication(chunk, result)
            replication.merge(chunk.state_dict())
        return ReplicatedResult(
            arbiter_name, traffic_class, weights, replication
        )

    states = pool_map(
        _replication_chunk,
        [
            (arbiter_name, traffic_class, tuple(weights), [seed], cycles,
             warmup, seed_mode, arbiter_kwargs)
            for seed in seeds
        ],
        jobs=jobs,
    )
    replication = StreamingReplication()
    for state in states:
        replication.merge(state)
    return ReplicatedResult(arbiter_name, traffic_class, weights, replication)
