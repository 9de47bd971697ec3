"""Solver registry and the ``SolveStats`` telemetry record.

The paper's claims are *comparative* — execution O(n) vs simulation Ω(n²),
verification O(n²/p) — so every scaling number in the reproduction should
come off one instrumented path.  This module provides it:

* :class:`SolverSpec` — one registered max-flow algorithm: the callable
  plus capability metadata (``exact``/``approx``, ``supports_batch``,
  ``recursion_free``, a complexity string) and optional fast paths for
  dense matrices and batched ``(B, E)`` edge tables.
* :class:`SolveStats` — the solver's telemetry record on the
  :mod:`repro.metrics` spine: wall seconds per pipeline phase plus
  machine-independent operation counts (BFS/DFS visits, augmenting paths,
  pushes/relabels, residual-edge touches).  Everything from
  :func:`repro.flow.solve_max_flow` through
  :class:`repro.ppuf.batch.BatchEvaluator` fills or merges one of these.

Solver modules register themselves at import time (importing
:mod:`repro.flow` loads them all), so ``registered_solvers()`` is the one
source of truth for dispatch, CLI listings, docs tables and the Fig. 7
scaling loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import SolverError
from repro.metrics import Metrics

#: The default exact solver every evaluation layer falls back to when no
#: ``algorithm`` is named.  One constant instead of a ``"dinic"`` literal
#: scattered across engines, devices, provers, the wire format and the CLI —
#: change it here and every default moves together.
DEFAULT_ALGORITHM = "dinic"


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
@dataclass
class SolveStats(Metrics):
    """Structured telemetry for one or more solver runs.

    A :class:`~repro.metrics.Metrics` record: ``snapshot()`` is its JSON
    form and ``merge()`` folds another record in exactly (a label that
    differs becomes ``"mixed"``).

    Attributes
    ----------
    algorithm:
        Name of the algorithm that filled this record (``"mixed"`` after
        merging records from different algorithms).
    solves:
        Number of individual solves charged to this record.
    total_seconds:
        End-to-end wall clock.  For a single :meth:`SolverSpec.solve` this
        equals the solve phase; pipelines overwrite it with their own
        end-to-end measurement (with overlapping workers the phase sum may
        then exceed it).
    phase_seconds:
        Wall seconds per named pipeline phase (``prepare``/``solve``/
        ``compare`` in the batch pipeline; plain solves charge ``solve``).
    counters:
        Machine-independent operation counts, merged across solves.  Keys
        depend on the algorithm — ``augmentations``, ``bfs_edge_visits``,
        ``phases``, ``pushes``, ``relabels``, ``edge_inspections``,
        ``rounds``, ``dc_solves`` …
    """

    algorithm: str = ""
    solves: int = 0
    total_seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        """Charge the enclosed block's wall clock to phase ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def count(self, key: str, amount: int = 1) -> None:
        """Increment one operation counter."""
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    @property
    def operations(self) -> int:
        """Total operation count across all counter kinds."""
        return sum(self.counters.values())

    def phase_total(self) -> float:
        """Sum of the per-phase seconds."""
        return sum(self.phase_seconds.values())


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def unknown_name_error(what: str, name, known: Iterable[str]) -> SolverError:
    """The one error shape for a bad registry lookup.

    ``solve_max_flow``, ``engines.check_engine`` and the batch pipeline all
    raise through here so their wording cannot drift apart again.
    """
    listed = ", ".join(sorted(known))
    return SolverError(f"unknown {what} {name!r}; expected one of {listed}")


@dataclass(frozen=True)
class SolverSpec:
    """One registered max-flow algorithm with capability metadata.

    Attributes
    ----------
    name:
        Registry key (also the ``algorithm`` tag on results and telemetry).
    fn:
        ``fn(network, source, sink, **kwargs) -> FlowResult``.
    kind:
        ``"exact"`` or ``"approx"``.
    supports_batch:
        Whether the solver ships a batched tensor fast path over
        shared-topology ``(B, E)`` edge arrays (``tensor_edge_fn``).
    recursion_free:
        True when no code path recurses on the graph depth — i.e. safe on
        path-shaped worst cases at scaling-experiment sizes.
    complexity:
        Human-readable asymptotic cost (dense-graph form).
    description:
        One-line summary for CLI/doc listings.
    matrix_fn:
        Optional allocation-light dense core:
        ``matrix_fn(capacity, residual, source, sink) -> (value, counters)``
        solving in place on a caller-owned residual buffer.
    tensor_edge_fn:
        Optional edge-array batched core with the signature of
        :func:`repro.flow.batched_dinic.batched_dinic_edges`: one shared
        :class:`~repro.flow.csr.CsrTopology` plus a ``(B, E)`` capacity
        table, no dense materialisation.
    """

    name: str
    fn: Callable
    kind: str = "exact"
    supports_batch: bool = False
    recursion_free: bool = True
    complexity: str = ""
    description: str = ""
    matrix_fn: Optional[Callable] = None
    tensor_edge_fn: Optional[Callable] = None

    @property
    def exact(self) -> bool:
        return self.kind == "exact"

    @property
    def tensor_kind(self) -> str:
        """``"edge"`` when the solver ships the shared-CSR ``(B, E)`` fast
        path, ``"none"`` otherwise — the label for CLI listings, docs
        tables and benchmark reports."""
        return "edge" if self.tensor_edge_fn is not None else "none"

    # -- uniform entry points ------------------------------------------
    def solve(self, network, source, sink, *, stats: Optional[SolveStats] = None, **kwargs):
        """Uniform ``solve(network, s, t, *, stats)`` entry point.

        Runs ``fn`` and, when ``stats`` is given, charges the run to the
        ``solve`` phase and merges the solver's operation counts.
        """
        start = time.perf_counter()
        result = self.fn(network, source, sink, **kwargs)
        elapsed = time.perf_counter() - start
        if stats is not None:
            self._record(stats, elapsed, result.stats)
        return result

    def solve_matrix(
        self, capacity, residual, source, sink, *, stats: Optional[SolveStats] = None
    ) -> float:
        """Solve one dense instance in place on ``residual``.

        Uses ``matrix_fn`` when the solver ships one (same arithmetic as
        the sequential path, minus the object churn); otherwise wraps the
        capacity matrix in a :class:`~repro.flow.graph.FlowNetwork`.
        """
        from repro.flow.graph import FlowNetwork

        start = time.perf_counter()
        if self.matrix_fn is not None:
            value, counters = self.matrix_fn(capacity, residual, source, sink)
        else:
            network = FlowNetwork.from_capacity_matrix(capacity)
            result = self.fn(network, source, sink)
            value, counters = result.value, result.stats
        elapsed = time.perf_counter() - start
        if stats is not None:
            self._record(stats, elapsed, counters)
        return float(value)

    def solve_tensor_edges(
        self,
        topology,
        capacities,
        sources,
        sinks,
        *,
        residual_out=None,
        stats: Optional[SolveStats] = None,
    ):
        """Solve a ``(B, E)`` capacity table over one shared CSR topology.

        No dense stack is ever built and the topology is reused across
        calls.  Only solvers shipping a ``tensor_edge_fn`` support it.
        """
        if self.tensor_edge_fn is None:
            raise SolverError(
                f"solver {self.name!r} has no edge-array tensor implementation"
            )
        start = time.perf_counter()
        result = self.tensor_edge_fn(
            topology, capacities, sources, sinks, residual_out=residual_out
        )
        elapsed = time.perf_counter() - start
        if stats is not None:
            self._record(stats, elapsed, result.stats, solves=int(len(result.values)))
        return result

    def _record(self, stats: SolveStats, elapsed: float, counters, *, solves: int = 1):
        stats.merge(
            SolveStats(
                algorithm=self.name,
                solves=solves,
                total_seconds=elapsed,
                phase_seconds={"solve": elapsed},
                counters={key: int(value) for key, value in counters.items()},
            )
        )

    def capabilities(self) -> dict:
        """Metadata dict for listings (CLI ``repro solvers``, docs)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "supports_batch": self.supports_batch,
            "tensor": self.tensor_kind,
            "recursion_free": self.recursion_free,
            "complexity": self.complexity,
            "description": self.description,
        }


_REGISTRY: Dict[str, SolverSpec] = {}


def register_solver(
    name: str,
    fn: Callable,
    *,
    kind: str = "exact",
    supports_batch: bool = False,
    recursion_free: bool = True,
    complexity: str = "",
    description: str = "",
    matrix_fn: Optional[Callable] = None,
    tensor_edge_fn: Optional[Callable] = None,
) -> SolverSpec:
    """Register a solver under ``name`` (solver modules call this at import)."""
    if kind not in ("exact", "approx"):
        raise SolverError(f"solver kind must be 'exact' or 'approx', got {kind!r}")
    if name in _REGISTRY and _REGISTRY[name].fn is not fn:
        raise SolverError(f"solver {name!r} is already registered")
    spec = SolverSpec(
        name=name,
        fn=fn,
        kind=kind,
        supports_batch=supports_batch,
        recursion_free=recursion_free,
        complexity=complexity,
        description=description,
        matrix_fn=matrix_fn,
        tensor_edge_fn=tensor_edge_fn,
    )
    _REGISTRY[name] = spec
    return spec


def get_solver(name: str) -> SolverSpec:
    """Look up a registered solver; unknown names raise :class:`SolverError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise unknown_name_error("algorithm", name, _REGISTRY) from None


def is_registered(name) -> bool:
    """Whether ``name`` is a registered solver (no exception, no KeyError)."""
    return isinstance(name, str) and name in _REGISTRY


def registered_solvers(*, kind: Optional[str] = None) -> Tuple[SolverSpec, ...]:
    """All registered specs (optionally filtered by kind), sorted by name."""
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if kind is not None:
        specs = [spec for spec in specs if spec.kind == kind]
    return tuple(specs)


def solver_names(*, kind: Optional[str] = None) -> Tuple[str, ...]:
    """Registered names, sorted (optionally filtered by kind)."""
    return tuple(spec.name for spec in registered_solvers(kind=kind))
