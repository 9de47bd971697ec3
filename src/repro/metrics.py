"""The one telemetry spine: one base, one snapshot, one exact merge.

Every telemetry record — solver ``SolveStats`` (and the batch pipeline's
``BatchReport``), the pools' ``RuntimeStats``, the server's ``ServerStats``
with its latency :class:`Histogram` records, the router's ``RouterStats``
and the load generator's ``LoadReport`` — is a dataclass deriving from
:class:`Metrics`.  Records stay declared, so a typo in ``stats.x += 1``
raises and every counter reads zero before its first increment.  They
share one JSON form, :meth:`Metrics.snapshot`, and one fold, :func:`merge`,
which combines two records field by field and two wire snapshots key by
key:

* numbers sum, except names in :data:`GAUGES`, which take the max;
* a string label keeps its value, ``""`` adopts the other side's, and two
  different labels become :data:`MIXED`;
* lists (samples) concatenate; tuples (configuration) must be equal;
* dicts merge key-wise, and a key one side lacks is copied; a ``buckets``
  dict must carry the same labels on both sides, and ``mean_seconds`` is
  re-derived from the merged ``total_seconds``;
* anything else raises :class:`~repro.errors.MetricsError`.

Every rule is commutative and associative (lists up to sample order), so
folding N records or N shard snapshots in any order or grouping equals what
one observer of the union would have recorded, bit for bit wherever the
sums themselves are exact (``tests/runtime/test_stats_merge.py``).
"""

from __future__ import annotations

import copy
import reprlib
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

from repro.errors import MetricsError

#: Names whose numbers merge by ``max`` (gauges); every other number sums.
GAUGES = frozenset({"queue_high_water", "max_seconds", "devices", "duration_seconds"})

#: The label two records with different labels merge into.
MIXED = "mixed"

#: Upper bucket edges [s] for latency histograms — log-spaced so both a
#: 10-node toy device (~100 µs verifies) and a secure-size device (seconds)
#: land in informative buckets.  The last bucket is open-ended.
DEFAULT_BUCKET_EDGES = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0)

_HISTOGRAM_TOTALS = frozenset({"observations", "total_seconds"})


class Metrics:
    """Base for telemetry dataclasses: one JSON form, one exact merge."""

    def snapshot(self) -> dict:
        """JSON-ready form: every declared field, recursively copied."""
        return {entry.name: _snapshot(getattr(self, entry.name)) for entry in fields(self)}

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold ``other`` — a record of this class or of a base — into this
        one, in place; returns ``self``."""
        return merge(self, other)


def _snapshot(value):
    if isinstance(value, Metrics):
        return value.snapshot()
    if isinstance(value, dict):
        return {key: _snapshot(item) for key, item in value.items()}
    return list(value) if isinstance(value, list) else value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def merge(ours, theirs, name: str = ""):
    """Fold ``theirs`` into ``ours`` by the module's rules; returns the result.

    Records, dicts and lists are folded in place; numbers, labels and
    tuples yield a new value.  ``name`` is the field or key being folded.
    On :class:`~repro.errors.MetricsError` ``ours`` may be partly folded,
    so fold untrusted input into a copy.
    """
    if _number(ours) and _number(theirs):
        return max(ours, theirs) if name in GAUGES else ours + theirs
    if isinstance(ours, Metrics):
        if not (isinstance(theirs, Metrics) and isinstance(ours, type(theirs))):
            raise MetricsError(
                f"cannot merge {type(theirs).__name__} into {type(ours).__name__}"
            )
        for entry in fields(theirs):
            key = entry.name
            setattr(ours, key, merge(getattr(ours, key), getattr(theirs, key), key))
        return ours
    if isinstance(ours, dict) and isinstance(theirs, dict):
        if name == "buckets" and ours.keys() != theirs.keys():
            raise MetricsError(
                "cannot merge histograms with different buckets: "
                f"{sorted(ours)} vs {sorted(theirs)}"
            )
        derived = "mean_seconds" in ours or "mean_seconds" in theirs
        if derived and not _HISTOGRAM_TOTALS <= ours.keys() & theirs.keys():
            raise MetricsError(f"histogram {name!r} needs observations and total_seconds")
        for key, value in theirs.items():
            if key in ours:
                ours[key] = merge(ours[key], value, key)
            else:
                ours[key] = copy.deepcopy(value)
        if derived:
            # A mean never sums: re-deriving it from the merged total is
            # what makes histogram merges exact.
            count = ours["observations"]
            ours["mean_seconds"] = ours["total_seconds"] / count if count else 0.0
        return ours
    if isinstance(ours, list) and isinstance(theirs, list):
        ours.extend(theirs)
        return ours
    if isinstance(ours, tuple) and isinstance(theirs, tuple) and ours == theirs:
        return ours
    if isinstance(ours, str) and isinstance(theirs, str):
        if not ours or ours == theirs:
            return theirs
        return ours if not theirs else MIXED
    theirs, ours = reprlib.repr(theirs), reprlib.repr(ours)
    raise MetricsError(f"cannot merge {name!r}: {theirs} into {ours}")


@dataclass
class Histogram(Metrics):
    """Fixed-bucket latency histogram; buckets are keyed by their label
    (``le_<edge>`` … ``inf``), so the wire form merges without edges."""

    edges: Tuple[float, ...] = DEFAULT_BUCKET_EDGES
    observations: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    buckets: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.edges = tuple(self.edges)
        self._labels = [f"le_{edge:g}" for edge in self.edges] + ["inf"]
        if not self.buckets:
            self.buckets = dict.fromkeys(self._labels, 0)

    def observe(self, seconds: float) -> None:
        self.buckets[self._labels[bisect_left(self.edges, seconds)]] += 1
        self.observations += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.observations if self.observations else 0.0

    def snapshot(self) -> dict:
        """The wire form: edges are implied by the bucket labels, and the
        mean rides beside the total it is derived from."""
        return {
            "observations": self.observations,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "max_seconds": self.max_seconds,
            "buckets": dict(self.buckets),
        }
