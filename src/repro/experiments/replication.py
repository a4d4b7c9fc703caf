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
from repro.experiments.system import Point
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


def _summarize(result):
    """One replication's TestbedResult as a compact summary state: a
    ``StreamingReplication.state_dict()``, O(metrics) numbers however
    many transactions the run covered."""
    replication = StreamingReplication()
    replication.record("utilization", result.utilization)
    for master, share in enumerate(result.bandwidth_shares):
        replication.record("share{}".format(master), share)
    for master, latency in enumerate(result.latencies_per_word):
        replication.record("latency{}".format(master), latency)
    return replication.state_dict()


def _replication_state(point):
    """One replication run and summarized in a worker (pool fan-out
    unit): only the summary crosses the pipe."""
    return _summarize(point.run())


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
    from repro.experiments.supervisor import pool_map

    points = [
        Point(
            arbiter_name, traffic_class, weights, cycles=cycles,
            seed=replication_seed(seed, seed_mode), warmup=warmup,
            kwargs=arbiter_kwargs,
        )
        for seed in seeds
    ]
    # Each replication is summarized as its own chunk and the chunks
    # are merged in seed order, so the statistics are bit-identical
    # whatever the backend or ``jobs``.
    results = batch_results(points, backend)
    if results is None:
        states = pool_map(
            _replication_state, [(point,) for point in points], jobs=jobs
        )
    else:
        states = [_summarize(result) for result in results]
    replication = StreamingReplication()
    for state in states:
        replication.merge(state)
    return ReplicatedResult(arbiter_name, traffic_class, weights, replication)
