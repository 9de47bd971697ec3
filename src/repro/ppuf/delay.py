"""Execution-delay bounds (Section 3.3).

The paper adapts Lin & Mead's capacitance decomposition: for the node ``u``
with the largest delay, ``T(u) = R(s, u) * C(s, u) <= R(s, u) * C(u)``.
In the complete crossbar every node is one edge away from the source, the
edge resistance ``R(s, u)`` is node-count independent, and the node
capacitance ``C(u)`` grows linearly with the incident edge count — hence the
O(n) execution-delay upper bound that Fig. 7(a) plots.

Two estimators are provided:

* :func:`lin_mead_delay_bound` — the paper's analytic bound, using the
  effective edge resistance at the operating point and the technology's
  per-edge capacitance share;
* :func:`measured_settling_time` — the slowest linearised RC mode of an
  actual solved PPUF network (physics cross-check).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.linearize import conductance_laplacian, small_signal_conductances
from repro.circuit.ptm32 import (
    CAPACITY_REFERENCE_VOLTAGE,
    NOMINAL_CONDITIONS,
    OperatingConditions,
    PTM32,
    Technology,
)
from repro.circuit.rc import node_capacitances, settling_time_linearized
from repro.errors import GraphError


def effective_edge_resistance(
    tech: Technology = PTM32,
    conditions: OperatingConditions = NOMINAL_CONDITIONS,
) -> float:
    """Large-signal resistance of one edge block at its operating point [Ω].

    The charging path from the source into any node is one edge block;
    its resistance ``V_ref / I(V_ref)`` is independent of n — the constant
    ``R(s, u)`` of the paper's bound.
    """
    from repro.blocks.edge import EdgeBlock

    block = EdgeBlock(tech, conditions, bit=1)
    capacity = block.capacity()
    if capacity <= 0:
        raise GraphError("edge block carries no current at the reference voltage")
    return CAPACITY_REFERENCE_VOLTAGE / capacity


def node_capacitance(n: int, tech: Technology = PTM32) -> float:
    """C(u) for a crossbar node: fixed part + 2(n-1) incident-edge shares."""
    if n < 2:
        raise GraphError(f"need at least 2 nodes, got {n}")
    return tech.c_node0 + 2 * (n - 1) * tech.c_edge


def lin_mead_delay_bound(
    n: int,
    tech: Technology = PTM32,
    conditions: OperatingConditions = NOMINAL_CONDITIONS,
) -> float:
    """The paper's O(n) execution-delay upper bound [s]."""
    return effective_edge_resistance(tech, conditions) * node_capacitance(n, tech)


def transient_settling_time(
    network,
    edge_bits: np.ndarray,
    source: int,
    sink: int,
    *,
    settle_ratio: float = 1e-2,
    duration_bounds: float = 8.0,
    steps: int = 160,
) -> float:
    """Settling time from a full nonlinear turn-on transient [s].

    Simulates the V(s) supply step with backward Euler
    (:mod:`repro.circuit.transient`) and reports when the source current
    enters the ``settle_ratio`` band.  ``duration_bounds`` sets the
    simulated span in units of the Lin–Mead bound; the span doubles until
    the current actually settles.
    """
    from repro.circuit.transient import simulate_turn_on

    src, dst = network.crossbar.edge_endpoints()
    table = network.edge_table(np.asarray(edge_bits))
    capacitance = node_capacitances_for(network)
    duration = duration_bounds * lin_mead_delay_bound(
        network.crossbar.n, network.tech, network.conditions
    )
    for _ in range(8):
        result = simulate_turn_on(
            network.crossbar.n,
            src,
            dst,
            table,
            capacitance,
            source=source,
            sink=sink,
            v_supply=network.conditions.v_supply,
            duration=duration,
            steps=steps,
            settle_ratio=settle_ratio,
        )
        if result.settling_time is not None:
            return result.settling_time
        duration *= 2.0
    raise GraphError("transient did not settle; raise duration_bounds")


def node_capacitances_for(network) -> np.ndarray:
    """Diagonal node capacitances of a network's crossbar (any NetworkModel)."""
    return node_capacitances(
        network.crossbar.n,
        network.crossbar.incident_edge_counts(),
        network.tech.c_edge,
        network.tech.c_node0,
    )


def measured_settling_time(
    network,
    edge_bits: np.ndarray,
    source: int,
    sink: int,
    *,
    settle_ratio: float = 1e-3,
) -> float:
    """Settling time of a solved PPUF network's linearised RC system [s].

    Parameters
    ----------
    network:
        A :class:`repro.ppuf.compiled.NetworkModel` (live or compiled).
    edge_bits:
        Per-edge challenge bits.
    """
    solution = network.dc_solution(edge_bits, source, sink)
    table = network.edge_table(np.asarray(edge_bits))
    src, dst = network.crossbar.edge_endpoints()
    conductance = small_signal_conductances(solution, src, dst, table)
    laplacian = conductance_laplacian(network.crossbar.n, src, dst, conductance)
    capacitance = node_capacitances(
        network.crossbar.n,
        network.crossbar.incident_edge_counts(),
        network.tech.c_edge,
        network.tech.c_node0,
    )
    return settling_time_linearized(
        laplacian, capacitance, pinned=(source, sink), settle_ratio=settle_ratio
    )
