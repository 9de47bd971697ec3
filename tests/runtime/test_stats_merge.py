"""The one telemetry merge is exact: associative, order-independent, lossless.

Every telemetry record derives from :class:`repro.metrics.Metrics` and
folds with the one merge, :func:`repro.metrics.merge` — records field by
field, wire snapshots key by key.  The fleet design leans on the fold
being *exact*: merging shard records in any order or grouping equals what
one observer of the union would have recorded.  Hypothesis checks the
claim once per record type (each ``Test*Merge`` class below runs the same
laws over its own records), and checks that the object fold and the wire
fold agree.

Float fields use dyadic rationals (multiples of 2^-10 with bounded
magnitude), which IEEE doubles add without rounding, so sums really are
order-independent and ``==`` is the right comparison on every key —
including a histogram's mean, which the fold re-derives from the merged
``total_seconds``.  Sample lists (``LoadReport.latencies_ms``) concatenate
in fold order, so they are compared as multisets.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.flow.registry import SolveStats
from repro.metrics import Histogram, Metrics, merge
from repro.ppuf.batch import BatchReport
from repro.runtime.stats import RuntimeStats
from repro.service.fleet.loadgen import LoadReport
from repro.service.fleet.router import RouterStats
from repro.service.stats import ServerStats

SETTINGS = dict(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Dyadic rationals: exactly representable, sums never round.
dyadic = st.integers(min_value=0, max_value=2**20).map(lambda v: v / 1024.0)
latency = st.integers(min_value=0, max_value=16 * 1024).map(lambda v: v / 1024.0)
small_int = st.integers(min_value=0, max_value=1_000)

runtime_record = st.builds(
    RuntimeStats,
    tasks_submitted=small_int,
    tasks_completed=small_int,
    tasks_failed=small_int,
    task_timeouts=small_int,
    worker_crashes=small_int,
    pool_restarts=small_int,
    queue_high_water=small_int,
)

PHASES = ("prepare", "solve", "compare")
COUNTERS = ("augmentations", "phases", "pushes", "rounds")

solve_record = st.builds(
    SolveStats,
    algorithm=st.sampled_from(["", "dinic", "edmonds_karp", "push_relabel"]),
    solves=small_int,
    total_seconds=dyadic,
    phase_seconds=st.dictionaries(st.sampled_from(PHASES), dyadic, max_size=len(PHASES)),
    counters=st.dictionaries(st.sampled_from(COUNTERS), small_int, max_size=len(COUNTERS)),
)

#: Claims as the server sees them: a solver label (``"simplex"`` and
#: ``None`` are not registered and bucket as ``"unknown"``) and a latency.
verify_events = st.lists(
    st.tuples(st.sampled_from(["dinic", "push_relabel", "simplex", None]), latency),
    max_size=12,
)


@st.composite
def server_record(draw):
    stats = ServerStats(
        sessions_opened=draw(small_int),
        sessions_accepted=draw(small_int),
        claim_batches=draw(small_int),
        claim_batch_occupancy=draw(
            st.dictionaries(st.sampled_from(["1", "4", "16"]), small_int)
        ),
        active_sessions=draw(small_int),
        devices=draw(small_int),
        runtime=draw(runtime_record),
    )
    for algorithm, seconds in draw(verify_events):
        stats.observe_verify(algorithm, seconds)
    return stats


load_record = st.builds(
    LoadReport,
    clients=small_int,
    duration_seconds=dyadic,
    sessions=small_int,
    accepted=small_int,
    rejected=small_int,
    errors=small_int,
    hostile_sessions=small_int,
    hostile_rejected=small_int,
    latencies_ms=st.lists(dyadic, max_size=8),
)


def _multiset(value):
    """A snapshot with sample lists sorted (they concatenate in fold order)."""
    if isinstance(value, dict):
        return {key: _multiset(item) for key, item in value.items()}
    if isinstance(value, list):
        return sorted(value)
    return value


def _fold(records, empty):
    merged = empty()
    for record in records:
        merged.merge(record)
    return merged


def _key(record):
    return _multiset(record.snapshot())


def merge_laws(record, empty):
    """The laws every record's fold must obey, as a test base class for
    one record type (``record`` draws one record, ``empty`` makes a zero)."""
    records = st.lists(record, min_size=1, max_size=6)

    def fold(records):
        return _fold(records, empty)

    class MergeLaws:
        @given(records=records, seed=st.randoms(use_true_random=False))
        @settings(**SETTINGS)
        def test_order_independent(self, records, seed):
            shuffled = list(records)
            seed.shuffle(shuffled)
            assert _key(fold(shuffled)) == _key(fold(records))

        @given(a=records, b=records, c=records)
        @settings(**SETTINGS)
        def test_associative(self, a, b, c):
            left = fold([fold(a), fold(b)])
            left.merge(fold(c))
            right = fold(a)
            right.merge(fold([fold(b), fold(c)]))
            assert _key(left) == _key(right)

        @given(a=records, b=records)
        @settings(**SETTINGS)
        def test_grouping_independent(self, a, b):
            pairwise = fold(a)
            pairwise.merge(fold(b))
            assert _key(pairwise) == _key(fold(a + b))

        @given(records=records, seed=st.randoms(use_true_random=False))
        @settings(**SETTINGS)
        def test_wire_form_matches_object_form(self, records, seed):
            """Folding snapshots (what a router does) == snapshotting the
            folded records (what one process does)."""
            snapshots = [record.snapshot() for record in records]
            seed.shuffle(snapshots)
            merged = empty().snapshot()
            for snapshot in snapshots:
                merged = merge(merged, snapshot)
            assert _multiset(merged) == _key(fold(records))

    return MergeLaws


class TestRuntimeStatsMerge(merge_laws(runtime_record, RuntimeStats)):
    @given(records=st.lists(runtime_record, min_size=1, max_size=6))
    @settings(**SETTINGS)
    def test_merged_equals_one_observer(self, records):
        merged = _fold(records, RuntimeStats).snapshot()
        for key in (
            "tasks_submitted", "tasks_completed", "tasks_failed",
            "task_timeouts", "worker_crashes", "pool_restarts",
        ):
            assert merged[key] == sum(getattr(r, key) for r in records)
        # the gauge merges by max, not sum
        assert merged["queue_high_water"] == max(r.queue_high_water for r in records)


class TestSolveStatsMerge(merge_laws(solve_record, SolveStats)):
    @given(records=st.lists(solve_record, min_size=1, max_size=6))
    @settings(**SETTINGS)
    def test_merged_equals_one_observer(self, records):
        merged = _fold(records, SolveStats)
        assert merged.solves == sum(r.solves for r in records)
        assert merged.total_seconds == sum(r.total_seconds for r in records)
        for phase in PHASES:
            assert merged.phase_seconds.get(phase, 0.0) == sum(
                r.phase_seconds.get(phase, 0.0) for r in records
            )
        for counter in COUNTERS:
            assert merged.counters.get(counter, 0) == sum(
                r.counters.get(counter, 0) for r in records
            )
        # "" adopts the other label; two different labels read "mixed"
        labels = {r.algorithm for r in records} - {""}
        if len(labels) > 1:
            labels = {"mixed"}
        assert merged.algorithm == (labels.pop() if labels else "")


class TestServerStatsMerge(merge_laws(server_record(), ServerStats)):
    @given(streams=st.lists(verify_events, min_size=1, max_size=5))
    @settings(**SETTINGS)
    def test_merged_equals_one_observer(self, streams):
        """N shards' verify histograms, merged == one server that verified
        every claim — compared with ``==`` on every key, means included."""
        shards, observer = [], ServerStats()
        for stream in streams:
            shard = ServerStats()
            for algorithm, seconds in stream:
                shard.observe_verify(algorithm, seconds)
                observer.observe_verify(algorithm, seconds)
            shards.append(shard)
        assert _key(_fold(shards, ServerStats)) == _key(observer)
        merged = ServerStats().snapshot()
        for shard in shards:
            merged = merge(merged, shard.snapshot())
        assert merged == observer.snapshot()


def _empty_load_report():
    return LoadReport(clients=0, duration_seconds=0.0)


class TestLoadReportMerge(merge_laws(load_record, _empty_load_report)):
    @given(records=st.lists(load_record, min_size=1, max_size=6))
    @settings(**SETTINGS)
    def test_merged_equals_one_observer(self, records):
        merged = _fold(records, _empty_load_report)
        assert merged.clients == sum(r.clients for r in records)
        assert merged.sessions == sum(r.sessions for r in records)
        # workers run side by side: the run lasted the longest one
        assert merged.duration_seconds == max(r.duration_seconds for r in records)
        assert sorted(merged.latencies_ms) == sorted(
            seconds for r in records for seconds in r.latencies_ms
        )


latency_streams = st.lists(st.lists(latency, max_size=20), min_size=1, max_size=5)


def _histogram(latencies):
    histogram = Histogram()
    for seconds in latencies:
        histogram.observe(seconds)
    return histogram


def _fold_snapshots(snapshots):
    merged = Histogram().snapshot()
    for snapshot in snapshots:
        merged = merge(merged, snapshot)
    return merged


class TestHistogramSnapshotMerge:
    @given(streams=latency_streams, seed=st.randoms(use_true_random=False))
    @settings(**SETTINGS)
    def test_merged_equals_one_observer(self, streams, seed):
        snapshots = [_histogram(stream).snapshot() for stream in streams]
        seed.shuffle(snapshots)
        combined = _histogram([seconds for stream in streams for seconds in stream])
        assert _fold_snapshots(snapshots) == combined.snapshot()

    @given(streams=latency_streams)
    @settings(**SETTINGS)
    def test_grouping_independent(self, streams):
        snapshots = [_histogram(stream).snapshot() for stream in streams]
        left = _fold_snapshots(snapshots)
        right = snapshots[-1]
        for snapshot in reversed(snapshots[:-1]):
            right = merge(snapshot, right)
        assert left == right

    def test_mean_is_rederived_not_rebuilt(self):
        """Rebuilding each shard's total as ``mean × observations`` rounds
        (on these four shards it gives 7.766601562500001); carrying
        ``total_seconds`` keeps the merged mean bit-identical to one
        observer's."""
        streams = [
            [5.8076171875],
            [11.68359375, 3.1435546875, 12.80078125, 7.873046875, 12.3857421875, 8.3046875],
            [0.1337890625],
            [],
        ]
        merged = _fold_snapshots([_histogram(stream).snapshot() for stream in streams])
        combined = _histogram([seconds for stream in streams for seconds in stream])
        assert merged == combined.snapshot()
        assert merged["mean_seconds"] == 7.7666015625

    def test_mismatched_buckets_rejected(self):
        base = _histogram([0.001]).snapshot()
        other = _histogram([0.001]).snapshot()
        other["buckets"] = {"le_1": 1, "inf": 0}
        with pytest.raises(MetricsError, match="different buckets"):
            merge(base, other)


class TestFoldRules:
    @pytest.mark.parametrize(
        "record",
        [
            SolveStats(),
            BatchReport(),
            RuntimeStats(),
            ServerStats(),
            RouterStats(),
            LoadReport(clients=0, duration_seconds=0.0),
            Histogram(),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_every_record_is_metrics(self, record):
        assert isinstance(record, Metrics)
        assert record.merge(copy.deepcopy(record)) is record

    @pytest.mark.parametrize(
        "ours, theirs",
        [
            ({"sessions_opened": 1}, {"sessions_opened": "7"}),
            ({"verify_latency": {}}, {"verify_latency": 5}),
            ({"runtime": {}}, {"runtime": [1, 2]}),
            ({"edges": (1.0,)}, {"edges": (2.0,)}),
            ({"flag": 0}, {"flag": True}),
            ({"x": None}, {"x": None}),
        ],
    )
    def test_unmergeable_values_raise(self, ours, theirs):
        with pytest.raises(MetricsError):
            merge(ours, theirs)

    def test_a_record_absorbs_its_base_not_the_reverse(self):
        report = BatchReport(challenges=4, engine="maxflow", algorithm="dinic")
        report.merge(SolveStats(algorithm="dinic", solves=2, counters={"phases": 3}))
        assert (report.challenges, report.solves, report.counters) == (4, 2, {"phases": 3})
        with pytest.raises(MetricsError):
            SolveStats().merge(report)
        with pytest.raises(MetricsError):
            ServerStats().merge(RuntimeStats())
