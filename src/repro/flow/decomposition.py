"""Flow decomposition into source-to-sink paths.

Any feasible flow decomposes into at most m path flows (plus cycles, which
a solver-produced acyclic flow does not have).  The protocol cares because
a prover can ship the *decomposition* instead of the dense flow matrix —
O(n) paths of length ≤ n beat an n² matrix for sparse answers — and the
verifier can rebuild and check it in linear time in the decomposition size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import FlowError


@dataclass(frozen=True)
class PathFlow:
    """One path of the decomposition: vertices and the value it carries."""

    vertices: Tuple[int, ...]
    value: float

    def edges(self):
        return list(zip(self.vertices, self.vertices[1:]))


def decompose_flow(
    flow: np.ndarray,
    source: int,
    sink: int,
    *,
    tol: float = None,
) -> List[PathFlow]:
    """Decompose a feasible source→sink flow into path flows.

    Repeatedly traces a positive-flow path from source to sink and strips
    its bottleneck.  Raises :class:`FlowError` if tracing dead-ends (which
    happens exactly when the input violates conservation) or if residue
    beyond tolerance remains unreachable (cycles).
    """
    flow = np.array(flow, dtype=np.float64)
    n = flow.shape[0]
    if flow.shape != (n, n):
        raise FlowError(f"flow must be square, got {flow.shape}")
    if tol is None:
        tol = 1e-12 * float(flow.max())

    paths: List[PathFlow] = []
    for _ in range(n * n + 1):
        out_flow = flow[source]
        if float(out_flow.sum()) <= tol * n:
            break
        # Trace a path greedily along the largest remaining flow.
        path = [source]
        vertex = source
        for _ in range(n + 1):
            next_vertex = int(np.argmax(flow[vertex]))
            if flow[vertex, next_vertex] <= tol:
                raise FlowError(
                    f"flow dead-ends at vertex {vertex}: conservation violated"
                )
            path.append(next_vertex)
            vertex = next_vertex
            if vertex == sink:
                break
            if vertex in path[:-1]:
                raise FlowError("flow contains a cycle; not a path flow")
        else:
            raise FlowError("path longer than vertex count; malformed flow")
        bottleneck = min(flow[u, v] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            flow[u, v] -= bottleneck
        paths.append(PathFlow(vertices=tuple(path), value=float(bottleneck)))
    else:
        raise FlowError("decomposition did not terminate; malformed flow")
    return paths


def cancel_cycles(flow: np.ndarray, *, tol: float = None) -> np.ndarray:
    """Return an equivalent acyclic flow by cancelling flow cycles.

    Cycles carry no source→sink value and leave every vertex's net excess
    unchanged, so the result is the same feasible max flow — but now
    decomposable into paths.  Augmenting-path solvers never produce them;
    push-relabel solvers legitimately can.
    """
    flow = np.array(flow, dtype=np.float64)
    n = flow.shape[0]
    if flow.shape != (n, n):
        raise FlowError(f"flow must be square, got {flow.shape}")
    if tol is None:
        tol = 1e-12 * float(flow.max())

    while True:
        positive = flow > tol
        cycle = None
        color = [0] * n  # 0 unvisited, 1 on the DFS path, 2 done
        parent = [-1] * n
        for root in range(n):
            if cycle or color[root]:
                continue
            color[root] = 1
            stack = [(root, iter(np.flatnonzero(positive[root])))]
            while stack and cycle is None:
                vertex, successors = stack[-1]
                for raw in successors:
                    nxt = int(raw)
                    if color[nxt] == 0:
                        color[nxt] = 1
                        parent[nxt] = vertex
                        stack.append((nxt, iter(np.flatnonzero(positive[nxt]))))
                        break
                    if color[nxt] == 1:
                        # Back edge vertex -> nxt closes a cycle along the
                        # current DFS path.
                        path = [vertex]
                        while path[-1] != nxt:
                            path.append(parent[path[-1]])
                        cycle = list(reversed(path))
                        break
                else:
                    color[vertex] = 2
                    stack.pop()
        if cycle is None:
            flow[flow <= tol] = 0.0
            return flow
        edges = list(zip(cycle, cycle[1:] + [cycle[0]]))
        bottleneck = min(flow[u, v] for u, v in edges)
        for u, v in edges:
            flow[u, v] -= bottleneck


def recompose_flow(paths: List[PathFlow], n: int) -> np.ndarray:
    """Rebuild the dense flow matrix from a path decomposition."""
    flow = np.zeros((n, n))
    for path in paths:
        if path.value < 0:
            raise FlowError("path values must be non-negative")
        for u, v in path.edges():
            if not (0 <= u < n and 0 <= v < n):
                raise FlowError(f"path vertex out of range: ({u}, {v})")
            flow[u, v] += path.value
    return flow


def decomposition_value(paths: List[PathFlow]) -> float:
    """Total flow value carried by a decomposition."""
    return float(sum(path.value for path in paths))
