"""Vectorised blocking-flow Dinic over batched ``(B, E)`` edge arrays.

Dinic's level-synchronous structure vectorises well across instances: a
phase is one batched BFS that labels every instance's level graph,
followed by a *blocking flow* found by a lockstep depth-first scan in
which every step advances all live instances at once with a handful of
``(A, max_degree)`` gathers — no Python loop ever walks edges or
instances, only phases, BFS waves and DFS steps.

State lives in edge arrays, not matrices.  An instance's residual is one
row of a ``(B, 2E + 1)`` table over the shared :class:`~repro.flow.csr.
CsrTopology` arcs — forward arcs ``[0, E)`` carry the per-challenge
capacities, reverse arcs ``[E, 2E)`` start at zero, and the trailing
sentinel column stays zero so the padded adjacency rows need no masking
logic of their own.  For the complete crossbar graphs of the PPUF this is
the same memory as the dense stack, but the win is algorithmic (complete
graphs have two-level BFS trees, so phases are few and shallow) and
architectural: the capacity table is selected straight from a compiled
device's ``cap0``/``cap1`` rows with no ``(B, n, n)`` materialisation.

Determinism: arc scans pick the first admissible arc in CSR order (ties
toward the lowest head index), per-instance arithmetic never couples
instances, and every augmentation saturates its bottleneck arc exactly
(IEEE ``x - x == 0.0``).  Results are therefore bitwise independent of how
a workload is chunked into batches, and exact in the same sense as the
sequential solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import GraphError
from repro.flow.csr import CsrTopology, segment_reduce, topology_from_matrix
from repro.flow.registry import register_solver


@dataclass
class EdgeFlowResult:
    """Outcome of a batched edge-array max-flow computation.

    Attributes
    ----------
    values:
        ``(B,)`` max-flow values, one per instance.
    flows:
        ``(B, E)`` per-forward-edge flows in the topology's edge order.
    residual:
        ``(B, 2E + 1)`` final residual arc table (forward arcs, reverse
        arcs, sentinel column — see the module docstring).
    stats:
        Aggregate operation counts: ``phases`` (per-instance BFS/blocking
        phases), ``augmentations``, ``bfs_edge_visits`` and ``dfs_steps``
        (lockstep scan steps summed over live instances).
    """

    values: np.ndarray
    flows: np.ndarray
    residual: np.ndarray
    stats: Dict[str, int] = field(default_factory=dict)


def batched_dinic_edges(
    topology: CsrTopology,
    capacities: np.ndarray,
    sources: np.ndarray,
    sinks: np.ndarray,
    *,
    residual_out: np.ndarray = None,
) -> EdgeFlowResult:
    """Solve ``B`` max-flow instances sharing one topology, in lockstep.

    Parameters
    ----------
    topology:
        The shared :class:`~repro.flow.csr.CsrTopology`.
    capacities:
        ``(B, E)`` non-negative per-forward-edge capacities.
    sources, sinks:
        Integer arrays of length ``B`` (or scalars, broadcast); per-instance
        terminals, each pair distinct.
    residual_out:
        Optional preallocated C-contiguous float64 ``(B, 2E + 1)`` buffer
        for the residual arc table (one allocation across many batches).
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.ndim != 2:
        raise GraphError(
            f"edge capacities must have shape (B, E), got {capacities.shape}"
        )
    batch, edges = capacities.shape
    if edges != topology.num_edges:
        raise GraphError(
            f"capacity table has {edges} edges but the topology has "
            f"{topology.num_edges}"
        )
    if np.any(capacities < 0):
        raise GraphError("capacities must be non-negative")
    n = topology.n
    sources = np.broadcast_to(np.asarray(sources, dtype=np.int64), (batch,)).copy()
    sinks = np.broadcast_to(np.asarray(sinks, dtype=np.int64), (batch,)).copy()
    for terminals in (sources, sinks):
        if terminals.size and (terminals.min() < 0 or terminals.max() >= n):
            raise GraphError(f"terminal index out of range [0, {n})")
    if np.any(sources == sinks):
        raise GraphError("source and sink must differ in every instance")

    width = 2 * edges + 1
    if residual_out is None:
        residual = np.zeros((batch, width), dtype=np.float64)
    else:
        if residual_out.shape != (batch, width) or residual_out.dtype != np.float64:
            raise GraphError(
                f"residual_out must be a float64 buffer of shape "
                f"({batch}, {width}), got {residual_out.dtype} {residual_out.shape}"
            )
        if not residual_out.flags.c_contiguous:
            raise GraphError(
                "residual_out must be C-contiguous; a strided or transposed "
                "view would silently slow every vectorised arc operation"
            )
        residual_out[...] = 0.0
        residual = residual_out
    residual[:, :edges] = capacities

    stats = {"phases": 0, "augmentations": 0, "bfs_edge_visits": 0, "dfs_steps": 0}
    if edges == 0 or batch == 0:
        return EdgeFlowResult(
            values=np.zeros(batch, dtype=np.float64),
            flows=np.zeros((batch, edges), dtype=np.float64),
            residual=residual,
            stats=stats,
        )

    active = np.ones(batch, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        stats["phases"] += int(idx.size)
        level, reached, visits = _batched_levels(
            residual, idx, sources[idx], sinks[idx], topology
        )
        stats["bfs_edge_visits"] += visits
        # Instances whose sink fell off the level graph hold a maximum flow.
        active[idx[~reached]] = False
        if not reached.any():
            continue
        live = idx[reached]
        augmentations, steps = _blocking_flow(
            residual, live, level[reached], sources[live], sinks[live], topology
        )
        stats["augmentations"] += augmentations
        stats["dfs_steps"] += steps

    flows = np.clip(capacities - residual[:, :edges], 0.0, capacities)
    out_sum, in_sum = topology.edge_sums(flows)
    rows = np.arange(batch)
    values = out_sum[rows, sources] - in_sum[rows, sources]
    return EdgeFlowResult(values=values, flows=flows, residual=residual, stats=stats)


def _batched_levels(residual, rows, sources, sinks, topology):
    """Level-synchronous batched BFS over positive-residual arcs.

    Returns ``(level, reached, visits)``: an ``(A, n + 1)`` level table
    (-1 unvisited; the trailing column backs the padded-row sentinel), a
    per-instance sink-reached flag, and the arc-visit count.  Instances
    stop expanding the wavefront once their sink is levelled — deeper
    vertices can never sit on a shortest augmenting path.
    """
    count = rows.size
    n = topology.n
    ar = np.arange(count)
    level = np.full((count, n + 1), -1, dtype=np.int64)
    level[ar, sources] = 0
    frontier = np.zeros((count, n), dtype=bool)
    frontier[ar, sources] = True
    # Residual state is frozen for the whole BFS: gather the open-arc mask
    # once, in in-CSR order, instead of per wave.
    arc_open = residual[rows[:, None], topology.in_order[None, :]] > 0.0
    sink_found = np.zeros(count, dtype=bool)
    depth = 0
    visits = 0
    while True:
        visits += int(np.count_nonzero(frontier.any(axis=1))) * topology.num_arcs
        candidates = frontier[:, topology.in_tail] & arc_open
        fresh = segment_reduce(np.logical_or, candidates, topology.in_ptr, empty=False)
        fresh &= level[:, :n] < 0
        fresh[sink_found] = False
        if not fresh.any():
            break
        depth += 1
        level[:, :n][fresh] = depth
        sink_found |= fresh[ar, sinks]
        frontier = fresh
    return level, sink_found, visits


def _blocking_flow(residual, live, level, sources, sinks, topology):
    """Saturate one blocking flow per live instance, in lockstep.

    ``live`` indexes rows of the full residual table; ``level``/``sources``/
    ``sinks`` are aligned with it.  Instances are split by their sink's
    level: depth-1 and depth-2 level graphs — the overwhelmingly common
    phases on the PPUF's complete crossbar graphs — admit a closed-form
    blocking flow (every augmenting path is ``s -> t`` or ``s -> v -> t``
    and the per-middle channels are arc-disjoint, so one saturating push
    per channel blocks the phase) computed with a handful of whole-group
    array operations.  Deeper level graphs fall back to the generic
    lockstep DFS of :func:`_lockstep_dfs`.
    """
    rows = np.arange(live.size)
    sink_level = level[rows, sinks]
    augmentations = 0
    steps = 0

    direct = sink_level == 1
    if direct.any():
        augmentations += _push_depth1(
            residual, live[direct], sources[direct], sinks[direct], topology
        )
    middle = sink_level == 2
    if middle.any():
        augmentations += _push_depth2(
            residual,
            live[middle],
            level[middle],
            sources[middle],
            sinks[middle],
            topology,
        )
    deep = sink_level >= 3
    if deep.any():
        deep_augment, steps = _lockstep_dfs(
            residual, live[deep], level[deep], sources[deep], sinks[deep], topology
        )
        augmentations += deep_augment
    return augmentations, steps


def _arc_partners(arcs, num_edges):
    """Residual partner of each arc; missing arcs (-1) stay on the sentinel."""
    return np.where(
        arcs < 0, -1, np.where(arcs < num_edges, arcs + num_edges, arcs - num_edges)
    )


def _push_depth1(residual, instance_rows, sources, sinks, topology):
    """Blocking flow for depth-1 level graphs: saturate every ``s -> t`` arc.

    Up to two arcs run source to sink (the forward edge and the residual
    reverse of the opposite edge); zeroing both blocks every admissible
    path.  Missing arcs index the sentinel column, whose residual is
    pinned at zero, so no masking is needed.
    """
    num_edges = topology.num_edges
    pushed = 0
    for lookup in (topology.pair_arc1, topology.pair_arc2):
        arcs = lookup[sources, sinks]
        amount = residual[instance_rows, arcs].copy()
        residual[instance_rows, arcs] = 0.0
        residual[instance_rows, _arc_partners(arcs, num_edges)] += amount
        pushed += int(np.count_nonzero(amount > 0.0))
    return pushed


def _push_depth2(residual, instance_rows, level, sources, sinks, topology):
    """Blocking flow for depth-2 level graphs, one push per middle vertex.

    Every admissible path is ``s -> v -> t`` with a distinct level-1
    middle ``v``, and channels through different middles share no arcs.
    Pushing ``min(residual(s, v), residual(v, t))`` through each channel
    therefore saturates one side of every channel at once — a blocking
    flow in O(1) lockstep operations over a ``(G, n)`` table.  Within a
    channel side the push is split across its (at most two) arcs in CSR
    order, mirroring the scan order of the generic DFS.
    """
    n = topology.n
    num_edges = topology.num_edges
    rows = instance_rows[:, None]
    side_a_1 = topology.pair_arc1[sources]        # (G, n): arcs s -> v
    side_a_2 = topology.pair_arc2[sources]
    side_b_1 = topology.pair_arc1.T[sinks]        # (G, n): arcs v -> t
    side_b_2 = topology.pair_arc2.T[sinks]

    res_a_1 = residual[rows, side_a_1]
    res_a_2 = residual[rows, side_a_2]
    res_b_1 = residual[rows, side_b_1]
    res_b_2 = residual[rows, side_b_2]
    push = np.minimum(res_a_1 + res_a_2, res_b_1 + res_b_2)
    # Only level-1 middles sit on admissible paths (this excludes the
    # terminals themselves: level(s) = 0, level(t) = 2).
    push *= level[:, :n] == 1

    for first, second, res_first, res_second in (
        (side_a_1, side_a_2, res_a_1, res_a_2),
        (side_b_1, side_b_2, res_b_1, res_b_2),
    ):
        take_first = np.minimum(push, res_first)
        take_second = np.minimum(push - take_first, res_second)
        residual[rows, first] -= take_first
        residual[rows, _arc_partners(first, num_edges)] += take_first
        residual[rows, second] -= take_second
        residual[rows, _arc_partners(second, num_edges)] += take_second
    return int(np.count_nonzero(push > 0.0))


def _lockstep_dfs(residual, live, level, sources, sinks, topology):
    """Generic lockstep blocking flow for level graphs of depth >= 3.

    The per-phase search state is one boolean table: ``adm_pad[l, u, k]``
    says arc ``k`` of vertex ``u``'s padded row is open (positive
    residual) and downhill (level rises by exactly one) for instance
    ``l``.  Partner arcs point uphill and can never become admissible
    within a phase, so the table only loses entries — augmentations clear
    the arcs they saturate.  Each lockstep step advances every instance's
    DFS by one move: extend along the first admissible arc whose head is
    not blocked, or block the dead-end vertex for the rest of the phase
    and retreat.  Instances that reach their sink augment immediately and
    restart from the source; an instance leaves the phase when its source
    itself blocks.
    """
    count = live.size
    n = topology.n

    open_arc = residual[live] > 0.0  # (L, 2E + 1); sentinel column stays False
    downhill = np.zeros_like(open_arc)
    downhill[:, : topology.num_arcs] = (
        level[:, topology.arc_head] == level[:, topology.arc_tail] + 1
    )
    adm_pad = (open_arc & downhill)[:, topology.pad_arc]  # (L, n, max_degree)
    blocked = np.zeros((count, n + 1), dtype=bool)
    blocked[:, n] = True  # the padded-row sentinel head

    depth = np.zeros(count, dtype=np.int64)
    stack_v = np.zeros((count, n + 1), dtype=np.int64)
    stack_v[:, 0] = sources
    stack_a = np.zeros((count, n + 1), dtype=np.int64)
    working = np.ones(count, dtype=bool)
    augmentations = 0
    steps = 0

    while working.any():
        rows = np.nonzero(working)[0]
        steps += int(rows.size)
        top = stack_v[rows, depth[rows]]
        candidates = adm_pad[rows, top] & ~blocked[rows[:, None], topology.pad_head[top]]
        slot = np.argmax(candidates, axis=1)
        advancing = candidates[np.arange(rows.size), slot]

        forward = rows[advancing]
        if forward.size:
            tail = top[advancing]
            chosen = slot[advancing]
            arc = topology.pad_arc[tail, chosen]
            head = topology.pad_head[tail, chosen]
            new_depth = depth[forward] + 1
            depth[forward] = new_depth
            stack_v[forward, new_depth] = head
            stack_a[forward, new_depth] = arc
            arrived = head == sinks[forward]
            if arrived.any():
                hits = forward[arrived]
                augmentations += int(hits.size)
                _augment_stacks(residual, live, hits, stack_a, depth, topology, adm_pad)
                depth[hits] = 0

        stuck = rows[~advancing]
        if stuck.size:
            blocked[stuck, top[~advancing]] = True
            exhausted = depth[stuck] == 0
            working[stuck[exhausted]] = False
            retreating = stuck[~exhausted]
            if retreating.size:
                depth[retreating] -= 1
    return augmentations, steps


def _augment_stacks(residual, live, hits, stack_a, depth, topology, adm_pad):
    """Push each hitting instance's bottleneck along its stacked path.

    Paths have different lengths; a position mask flattens the ragged
    ``(H, max_len)`` arc block so both the forward subtraction and the
    reverse-arc addition are single scatter operations.  Within one path
    all arcs are distinct and never paired with each other (levels rise
    strictly along it), and instances write disjoint rows, so the fancy
    index updates cannot collide.  Saturated arcs are cleared from the
    phase's admissibility table in the same sweep.
    """
    num_edges = topology.num_edges
    lengths = depth[hits]
    max_len = int(lengths.max())
    on_path = np.arange(1, max_len + 1)[None, :] <= lengths[:, None]
    arcs = stack_a[hits, 1 : max_len + 1]
    instance_rows = live[hits]
    along = residual[instance_rows[:, None], arcs]
    bottleneck = np.where(on_path, along, np.inf).min(axis=1)

    flat_rows = np.repeat(instance_rows, lengths)
    flat_hits = np.repeat(hits, lengths)
    flat_arcs = arcs[on_path]
    flat_push = np.repeat(bottleneck, lengths)
    residual[flat_rows, flat_arcs] -= flat_push
    partners = np.where(flat_arcs < num_edges, flat_arcs + num_edges, flat_arcs - num_edges)
    residual[flat_rows, partners] += flat_push
    adm_pad[flat_hits, topology.arc_tail[flat_arcs], topology.arc_slot[flat_arcs]] = (
        residual[flat_rows, flat_arcs] > 0.0
    )


def _batched_dinic_single(network, source: int, sink: int):
    """Registry adapter: run the edge-array solver on a batch of one.

    Lets ``solve_max_flow(..., algorithm="batched_dinic")`` and the
    conformance suite exercise the tensor arithmetic through the uniform
    interface; the dense flow matrix is rebuilt by scattering the per-edge
    flows back onto the topology's endpoints.
    """
    from repro.flow.graph import FlowResult

    topology, capacities = topology_from_matrix(network.capacity)
    result = batched_dinic_edges(
        topology,
        capacities[None, :],
        np.array([source], dtype=np.int64),
        np.array([sink], dtype=np.int64),
    )
    flow = np.zeros_like(network.capacity, dtype=np.float64)
    flow[topology.edge_src, topology.edge_dst] = result.flows[0]
    network.flow = flow
    return FlowResult(
        value=float(result.values[0]),
        flow=flow,
        algorithm="batched_dinic",
        stats=dict(result.stats),
    )


register_solver(
    "batched_dinic",
    _batched_dinic_single,
    kind="exact",
    supports_batch=True,
    recursion_free=True,
    complexity="O(V) phases x O(V E) lockstep steps over B instances",
    description="Vectorised blocking-flow Dinic over shared-CSR (B, E) edge arrays",
    tensor_edge_fn=batched_dinic_edges,
)
