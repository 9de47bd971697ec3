"""The batch solver against the exact per-instance solvers.

The one batch path is the edge-array batched Dinic over a shared
:class:`~repro.flow.csr.CsrTopology`; these tests pin the contract every
batch consumer relies on — agreement with the scalar solvers, batch
composition independence, buffer reuse and input validation.  Dense test
networks are edge-ified onto the complete topology of their size (absent
edges carry zero capacity).
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.flow import (
    CsrTopology,
    batched_dinic_edges,
    complete_topology,
    dinic,
    long_path_network,
    random_complete_network,
    random_sparse_network,
    verify_max_flow,
)


def edge_table(networks):
    """``(topology, (B, E) capacities)`` for same-size dense networks."""
    topology = complete_topology(networks[0].n)
    capacities = np.stack(
        [network.capacity[topology.edge_src, topology.edge_dst] for network in networks]
    )
    return topology, capacities


def dense_flow(topology, flows):
    flow = np.zeros((topology.n, topology.n))
    flow[topology.edge_src, topology.edge_dst] = flows
    return flow


def dinic_values(networks, sources, sinks):
    return np.array(
        [
            dinic(network, int(s), int(t)).value
            for network, s, t in zip(networks, sources, sinks)
        ]
    )


class TestAgainstExactSolvers:
    def test_random_complete_batch(self, rng):
        networks = [random_complete_network(8, rng) for _ in range(6)]
        result = batched_dinic_edges(*edge_table(networks), 0, 7)
        expected = dinic_values(networks, [0] * 6, [7] * 6)
        assert np.allclose(result.values, expected, rtol=1e-12)

    def test_random_sparse_batch_with_varied_terminals(self, rng):
        networks = [
            random_sparse_network(12, rng, density=0.4, source=b, sink=11 - b)
            for b in range(5)
        ]
        sources = np.arange(5)
        sinks = 11 - sources
        result = batched_dinic_edges(*edge_table(networks), sources, sinks)
        expected = dinic_values(networks, sources, sinks)
        assert np.allclose(result.values, expected, rtol=1e-12)

    def test_path_instances(self):
        networks = [long_path_network(9, capacity=c) for c in (0.5, 2.0, 7.25)]
        result = batched_dinic_edges(*edge_table(networks), 0, 9)
        assert np.allclose(result.values, [0.5, 2.0, 7.25])

    def test_unreachable_sink_gives_zero(self):
        topology = complete_topology(4)
        capacities = np.zeros((1, topology.num_edges))
        capacities[0, 0] = 5.0  # edge 0 -> 1 only
        result = batched_dinic_edges(topology, capacities, 0, 3)
        assert result.values[0] == 0.0

    def test_residual_encodes_an_optimal_flow(self, rng):
        networks = [random_complete_network(7, rng) for _ in range(3)]
        topology, capacities = edge_table(networks)
        result = batched_dinic_edges(topology, capacities, 0, 6)
        edges = topology.num_edges
        for b, network in enumerate(networks):
            flows = np.clip(
                capacities[b] - result.residual[b, :edges], 0.0, capacities[b]
            )
            assert verify_max_flow(network, dense_flow(topology, flows), [0], [6])


class TestDeterminism:
    def test_instance_results_independent_of_batch_composition(self, rng):
        networks = [random_sparse_network(10, rng, density=0.5) for _ in range(6)]
        topology, capacities = edge_table(networks)
        together = batched_dinic_edges(topology, capacities, 0, 9)
        for b in range(6):
            alone = batched_dinic_edges(topology, capacities[b : b + 1], 0, 9)
            # Exact equality: no arithmetic couples instances, so chunking
            # a workload differently cannot perturb any result.
            assert alone.values[0] == together.values[b]
            assert np.array_equal(alone.residual[0], together.residual[b])

    def test_repeat_runs_identical(self, rng):
        topology, capacities = edge_table(
            [random_complete_network(6, rng) for _ in range(4)]
        )
        first = batched_dinic_edges(topology, capacities, 0, 5)
        second = batched_dinic_edges(topology, capacities, 0, 5)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.residual, second.residual)


class TestBufferReuse:
    def test_residual_out_is_used_and_matches(self, rng):
        topology, capacities = edge_table(
            [random_complete_network(6, rng) for _ in range(3)]
        )
        buffer = np.empty((3, 2 * topology.num_edges + 1))
        reference = batched_dinic_edges(topology, capacities, 0, 5)
        reused = batched_dinic_edges(topology, capacities, 0, 5, residual_out=buffer)
        assert reused.residual is buffer
        assert np.array_equal(reused.values, reference.values)

    def test_residual_out_shape_checked(self):
        topology = complete_topology(4)
        capacities = np.ones((2, topology.num_edges))
        width = 2 * topology.num_edges + 1
        with pytest.raises(GraphError):
            batched_dinic_edges(
                topology, capacities, 0, 3, residual_out=np.empty((1, width))
            )
        with pytest.raises(GraphError):
            batched_dinic_edges(
                topology, capacities, 0, 3,
                residual_out=np.empty((2, width), dtype=np.float32),
            )


class TestValidation:
    def test_rejects_non_stack_input(self):
        topology = complete_topology(4)
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, np.zeros(topology.num_edges), 0, 3)
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, np.zeros((2, topology.num_edges + 1)), 0, 3)

    def test_rejects_tiny_graphs(self):
        with pytest.raises(GraphError):
            CsrTopology.build(1, [], [])

    def test_rejects_negative_capacity(self):
        topology = complete_topology(3)
        capacities = np.zeros((1, topology.num_edges))
        capacities[0, 0] = -1.0
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, capacities, 0, 2)

    def test_rejects_self_loop_capacity(self):
        with pytest.raises(GraphError):
            CsrTopology.build(3, [0, 1], [1, 1])

    def test_rejects_bad_terminals(self):
        topology = complete_topology(3)
        capacities = np.zeros((2, topology.num_edges))
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, capacities, 0, 3)
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, capacities, [-1, 0], 2)
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, capacities, [0, 2], [1, 2])


class TestStats:
    def test_operation_counts_reported(self, rng):
        topology, capacities = edge_table(
            [random_complete_network(6, rng) for _ in range(4)]
        )
        result = batched_dinic_edges(topology, capacities, 0, 5)
        assert result.stats["phases"] >= 4
        assert result.stats["augmentations"] >= 4
        assert result.stats["bfs_edge_visits"] > 0
