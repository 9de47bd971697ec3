"""Counters and the verify-latency histogram."""

import random

import pytest

from repro.errors import MetricsError
from repro.metrics import Histogram, merge
from repro.service import ServerStats


def fold(snapshots):
    """What the fleet router does: fold shard snapshots into the template."""
    merged = ServerStats().snapshot()
    for snapshot in snapshots:
        merged = merge(merged, snapshot)
    return merged


class TestHistogram:
    def test_buckets_are_cumulative_edges(self):
        histogram = Histogram(edges=(1e-3, 1e-2, 1e-1))
        for value in (5e-4, 5e-3, 5e-2, 5.0):
            histogram.observe(value)
        assert list(histogram.buckets.values()) == [1, 1, 1, 1]
        assert histogram.observations == 4
        assert histogram.max_seconds == 5.0
        assert histogram.mean_seconds == pytest.approx((5e-4 + 5e-3 + 5e-2 + 5.0) / 4)

    def test_edge_value_lands_in_its_own_bucket(self):
        histogram = Histogram(edges=(1e-3, 1e-2))
        for value in (1e-3, 1e-2):
            histogram.observe(value)
        assert histogram.buckets == {"le_0.001": 1, "le_0.01": 1, "inf": 0}

    def test_snapshot_shape(self):
        histogram = Histogram(edges=(1e-3, 1.0))
        histogram.observe(2.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"le_0.001": 0, "le_1": 0, "inf": 1}
        assert snapshot["observations"] == 1
        assert snapshot["total_seconds"] == snapshot["mean_seconds"] == 2.0

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean_seconds == 0.0


class TestServerStats:
    def test_snapshot_contains_every_counter(self):
        stats = ServerStats()
        stats.sessions_opened += 2
        stats.deadline_misses += 1
        stats.verify_latency.observe(0.5)
        snapshot = stats.snapshot()
        assert snapshot["sessions_opened"] == 2
        assert snapshot["deadline_misses"] == 1
        assert snapshot["verify_latency"]["observations"] == 1
        for key in (
            "enrollments",
            "sessions_accepted",
            "sessions_rejected",
            "sessions_expired",
            "rounds_issued",
            "claims_verified",
            "replays_rejected",
            "unknown_devices",
            "protocol_errors",
            "solver_latency",
        ):
            assert key in snapshot

    def test_zero_template_is_the_whole_wire_shape(self):
        """The keys the suite's ``stats_deltas`` and ``shard_settled`` read
        are declared, so a fresh record already carries all of them."""
        snapshot = ServerStats().snapshot()
        assert len(snapshot) == 29
        for key in (
            "active_sessions", "devices", "open_connections",
            "verifications_in_flight", "claim_batches", "claims_batched",
        ):
            assert snapshot[key] == 0
        assert set(snapshot["verify_latency"]) == {
            "observations", "total_seconds", "mean_seconds", "max_seconds",
            "buckets",
        }
        assert set(snapshot["runtime"]) == {
            "tasks_submitted", "tasks_completed", "tasks_failed",
            "task_timeouts", "worker_crashes", "pool_restarts",
            "queue_high_water",
        }

    def test_observe_verify_attributes_per_algorithm(self):
        stats = ServerStats()
        stats.observe_verify("dinic", 0.01)
        stats.observe_verify("push_relabel", 0.02)
        stats.observe_verify("push_relabel", 0.03)
        assert stats.claims_verified == 3
        assert stats.verify_latency.observations == 3
        snapshot = stats.snapshot()["solver_latency"]
        assert snapshot["dinic"]["observations"] == 1
        assert snapshot["push_relabel"]["observations"] == 2

    def test_unregistered_algorithm_bucketed_as_unknown(self):
        stats = ServerStats()
        for label in ("simplex", None, 42, "also-not-a-solver"):
            stats.observe_verify(label, 0.01)
        assert set(stats.solver_latency) == {"unknown"}
        assert stats.solver_latency["unknown"].observations == 4


class TestHistogramMerge:
    def test_merge_is_bucketwise_exact(self):
        """merge(a, b) == one histogram that observed the union."""
        rng = random.Random(5)
        samples_a = [rng.uniform(1e-4, 2.0) for _ in range(200)]
        samples_b = [rng.uniform(1e-4, 2.0) for _ in range(300)]
        a, b, union = Histogram(), Histogram(), Histogram()
        for value in samples_a:
            a.observe(value)
        for value in samples_b:
            b.observe(value)
        for value in samples_a + samples_b:
            union.observe(value)
        a.merge(b)
        assert a.buckets == union.buckets
        assert a.observations == union.observations == 500
        assert a.max_seconds == union.max_seconds
        # Float sums in another grouping: equal up to rounding only.
        assert a.mean_seconds == pytest.approx(union.mean_seconds)

    def test_merge_rejects_mismatched_edges(self):
        with pytest.raises(MetricsError):
            Histogram().merge(Histogram(edges=(1.0, 2.0)))

    def test_snapshot_level_merge_matches_object_merge(self):
        a, b = Histogram(), Histogram()
        for value in (1e-4, 5e-3, 0.2):
            a.observe(value)
        for value in (2e-4, 7.0):
            b.observe(value)
        merged = merge(a.snapshot(), b.snapshot())
        assert merged == a.merge(b).snapshot()

    def test_snapshot_merge_rejects_mismatched_buckets(self):
        a = Histogram().snapshot()
        b = Histogram(edges=(1.0,)).snapshot()
        with pytest.raises(MetricsError, match="different buckets"):
            merge(a, b)

    def test_snapshot_without_total_is_rejected(self):
        """A mean alone cannot merge exactly; refuse rather than guess."""
        a = Histogram().snapshot()
        b = Histogram().snapshot()
        del b["total_seconds"]
        with pytest.raises(MetricsError, match="total_seconds"):
            merge(a, b)


class TestMergeSnapshot:
    def _stats_observing(self, accepted, rejected, latencies):
        stats = ServerStats()
        stats.sessions_opened += accepted + rejected
        stats.sessions_accepted += accepted
        stats.sessions_rejected += rejected
        for latency in latencies:
            stats.observe_verify("dinic", latency)
        return stats

    def test_merged_counters_are_the_sum(self):
        a = self._stats_observing(3, 1, [0.01, 0.02])
        b = self._stats_observing(5, 0, [0.3])
        merged = fold([a.snapshot(), b.snapshot()])
        assert merged["sessions_opened"] == 9
        assert merged["sessions_accepted"] == 8
        assert merged["sessions_rejected"] == 1
        assert merged["claims_verified"] == 3
        assert merged["verify_latency"]["observations"] == 3
        assert merged["solver_latency"]["dinic"]["observations"] == 3

    def test_merge_equals_single_observer(self):
        """Merging N shard snapshots == one server observing everything."""
        rng = random.Random(9)
        union = ServerStats()
        snapshots = []
        for _ in range(4):
            shard = ServerStats()
            for _ in range(rng.randrange(1, 20)):
                latency = rng.uniform(1e-4, 1.0)
                algorithm = rng.choice(["dinic", "push_relabel"])
                shard.observe_verify(algorithm, latency)
                union.observe_verify(algorithm, latency)
                shard.sessions_accepted += 1
                union.sessions_accepted += 1
            snapshots.append(shard.snapshot())
        merged = fold(snapshots)
        want = union.snapshot()
        assert merged["sessions_accepted"] == want["sessions_accepted"]
        assert merged["claims_verified"] == want["claims_verified"]
        assert (
            merged["verify_latency"]["buckets"] == want["verify_latency"]["buckets"]
        )
        for name in ("dinic", "push_relabel"):
            assert (
                merged["solver_latency"][name]["buckets"]
                == want["solver_latency"][name]["buckets"]
            )

    def test_merge_of_nothing_is_empty(self):
        merged = fold([])
        assert merged == ServerStats().snapshot()
        assert merged["sessions_opened"] == 0
        assert merged["verify_latency"]["observations"] == 0

    def test_disjoint_solver_buckets_union(self):
        a, b = ServerStats(), ServerStats()
        a.observe_verify("dinic", 0.01)
        b.observe_verify("push_relabel", 0.02)
        merged = fold([a.snapshot(), b.snapshot()])
        assert set(merged["solver_latency"]) == {"dinic", "push_relabel"}

    def test_devices_is_a_gauge(self):
        """Every shard of a fleet maps one shared pack: the fleet size is the
        max over shards, while live counts such as sessions sum."""
        a, b = ServerStats(devices=8, active_sessions=2), ServerStats(
            devices=8, active_sessions=3
        )
        merged = fold([a.snapshot(), b.snapshot()])
        assert merged["devices"] == 8
        assert merged["active_sessions"] == 5
