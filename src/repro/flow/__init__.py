"""Max-flow substrate.

This subpackage implements the public simulation model of the PPUF: the
max-flow problem on a directed (typically complete) graph, together with the
algorithm families the paper discusses.

Public API
----------

:class:`~repro.flow.graph.FlowNetwork`
    Dense directed flow network with per-edge capacities.
:mod:`~repro.flow.registry`
    The solver registry and the :class:`~repro.flow.registry.SolveStats`
    telemetry spine; every algorithm below registers itself here and
    :func:`solve_max_flow` is a thin lookup into it.
:func:`~repro.flow.edmonds_karp.edmonds_karp`
    Augmenting-path (BFS) reference solver.
:func:`~repro.flow.dinic.dinic`
    Blocking-flow solver.
:func:`~repro.flow.batched_dinic.batched_dinic_edges`
    Vectorised blocking-flow Dinic over shared-CSR ``(B, E)`` edge arrays
    (see :class:`~repro.flow.csr.CsrTopology`).
:func:`~repro.flow.push_relabel.push_relabel`
    FIFO push-relabel solver with the gap heuristic.
:func:`~repro.flow.approx.approximate_max_flow`
    ε-approximate solver (capacity-scaling truncation).
:func:`~repro.flow.parallel.parallel_blocking_flow`
    Shiloach–Vishkin PRAM cost model around the blocking-flow schedule.
:func:`~repro.flow.residual.verify_max_flow`
    Residual-graph BFS optimality check (the verifier's primitive).
"""

from repro.flow.registry import (
    DEFAULT_ALGORITHM,
    SolveStats,
    SolverSpec,
    get_solver,
    is_registered,
    register_solver,
    registered_solvers,
    solver_names,
    unknown_name_error,
)
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.residual import (
    residual_capacities,
    residual_reachable,
    min_cut,
    verify_max_flow,
)

# Importing the solver modules registers each algorithm; from here on the
# registry is the single source of truth for dispatch and capabilities.
from repro.flow.edmonds_karp import edmonds_karp
from repro.flow.dinic import blocking_flow, dinic
from repro.flow.batched_dinic import EdgeFlowResult, batched_dinic_edges
from repro.flow.csr import CsrTopology, complete_topology, topology_from_matrix
from repro.flow.push_relabel import push_relabel
from repro.flow.capacity_scaling import capacity_scaling
from repro.flow.highest_label import highest_label_push_relabel
from repro.flow.approx import approximate_max_flow
from repro.flow.dimacs import read_dimacs, write_dimacs
from repro.flow.decomposition import (
    PathFlow,
    cancel_cycles,
    decompose_flow,
    decomposition_value,
    recompose_flow,
)
from repro.flow.parallel import parallel_blocking_flow, ParallelCost
from repro.flow.generators import (
    complete_network,
    random_complete_network,
    random_sparse_network,
)
from repro.flow.worstcase import layered_network, long_path_network, zigzag_network
from repro.flow.instrument import SolverTiming, time_solver

#: Backward-compatible name -> callable view of the classic per-instance
#: exact solvers.  New code should go through :func:`get_solver` /
#: :func:`registered_solvers` for capability metadata and telemetry.
SOLVERS = {
    spec.name: spec.fn
    for spec in registered_solvers(kind="exact")
    if not spec.supports_batch
}


def solve_max_flow(network, source, sink, *, algorithm=DEFAULT_ALGORITHM, stats=None, **kwargs):
    """Solve max-flow with a named algorithm from the registry.

    Parameters
    ----------
    network:
        A :class:`FlowNetwork`; its flow state is overwritten.
    source, sink:
        Vertex indices.
    algorithm:
        Any registered solver name (see :func:`repro.flow.solver_names`);
        unknown names raise :class:`~repro.errors.SolverError` listing the
        registered ones.
    stats:
        Optional :class:`SolveStats` to fill with wall time and operation
        counts for this solve.
    kwargs:
        Extra solver options (e.g. ``epsilon`` for ``algorithm="approx"``).

    Returns
    -------
    FlowResult
    """
    return get_solver(algorithm).solve(network, source, sink, stats=stats, **kwargs)


__all__ = [
    "DEFAULT_ALGORITHM",
    "FlowNetwork",
    "FlowResult",
    "SOLVERS",
    "SolveStats",
    "SolverSpec",
    "get_solver",
    "is_registered",
    "register_solver",
    "registered_solvers",
    "solver_names",
    "unknown_name_error",
    "solve_max_flow",
    "edmonds_karp",
    "dinic",
    "blocking_flow",
    "EdgeFlowResult",
    "batched_dinic_edges",
    "CsrTopology",
    "complete_topology",
    "topology_from_matrix",
    "push_relabel",
    "capacity_scaling",
    "highest_label_push_relabel",
    "approximate_max_flow",
    "read_dimacs",
    "write_dimacs",
    "PathFlow",
    "cancel_cycles",
    "decompose_flow",
    "recompose_flow",
    "decomposition_value",
    "parallel_blocking_flow",
    "ParallelCost",
    "residual_capacities",
    "residual_reachable",
    "min_cut",
    "verify_max_flow",
    "complete_network",
    "random_complete_network",
    "random_sparse_network",
    "layered_network",
    "long_path_network",
    "zigzag_network",
    "SolverTiming",
    "time_solver",
]
