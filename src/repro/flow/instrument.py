"""Timing and operation-count sampling for solver scaling studies.

Fig. 7(a) of the paper plots wall-clock simulation time against node count
and fits a polynomial.  :func:`time_solver` produces exactly those samples:
repeated timed runs of a registered solver on freshly generated instances,
with per-run operation counts so the asymptotic order can also be verified
machine-independently.

All per-run bookkeeping goes through the telemetry spine
(:class:`repro.flow.registry.SolveStats`); this module only shapes those
records into per-size samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Union

import numpy as np

from repro.flow.graph import FlowNetwork
from repro.flow.registry import SolveStats, SolverSpec, get_solver


@dataclass
class SolverTiming:
    """Wall-clock and operation-count samples for one problem size.

    Attributes
    ----------
    n:
        Node count of the instances.
    seconds:
        Per-run wall-clock times.
    operations:
        Per-run total operation counts.
    values:
        Max-flow values (sanity data — should be stable across repeats of
        the same instance).
    """

    n: int
    seconds: List[float] = field(default_factory=list)
    operations: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    @property
    def mean_seconds(self) -> float:
        return float(np.mean(self.seconds)) if self.seconds else 0.0

    @property
    def mean_operations(self) -> float:
        return float(np.mean(self.operations)) if self.operations else 0.0


def time_solver(
    solver: Union[str, SolverSpec],
    make_instance: Callable[[int], FlowNetwork],
    sizes: Sequence[int],
    *,
    repeats: int = 3,
    source: int = 0,
) -> List[SolverTiming]:
    """Time a solver across instance sizes.

    Parameters
    ----------
    solver:
        A registered algorithm name or a
        :class:`~repro.flow.registry.SolverSpec`.
    make_instance:
        Builds a fresh :class:`FlowNetwork` for a node count (responsible for
        its own seeding if determinism is wanted).
    sizes:
        Node counts to sample.
    repeats:
        Timed runs per size (fresh instance each run).
    source:
        Source vertex; the sink is always ``n - 1``.
    """
    spec = get_solver(solver) if isinstance(solver, str) else solver
    samples: List[SolverTiming] = []
    for n in sizes:
        timing = SolverTiming(n=n)
        for _ in range(repeats):
            network = make_instance(n)
            stats = SolveStats()
            result = spec.solve(network, source, network.n - 1, stats=stats)
            timing.seconds.append(stats.total_seconds)
            timing.operations.append(stats.operations)
            timing.values.append(result.value)
        samples.append(timing)
    return samples
