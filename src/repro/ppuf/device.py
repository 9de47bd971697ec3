"""The PPUF device: two variated crossbar networks and a comparator.

:class:`PpufNetwork` models one crossbar (Fig. 1's "Network A" or
"Network B"): it owns a process-variation sample and lazily caches, per
challenge-bit value, the edge capacities (max-flow engine) and the edge I–V
tables (circuit engine), so per-challenge evaluation only selects rows and
solves.

:class:`Ppuf` is the full device of Fig. 1: it compares the two networks'
source currents to produce the response bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blocks.edge import edge_currents_at_voltage, edge_saturation_scale, edge_voltage
from repro.circuit.dc import solve_dc
from repro.circuit.ptm32 import (
    CAPACITY_REFERENCE_VOLTAGE,
    NOMINAL_CONDITIONS,
    OperatingConditions,
    PTM32,
    Technology,
)
from repro.circuit.table import EdgeTable
from repro.circuit.variation import VariationModel, VariationSample
from repro.errors import ChallengeError, GraphError
from repro.flow import FlowNetwork, solve_max_flow
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.challenge import Challenge, ChallengeSpace
from repro.ppuf.comparator import CurrentComparator
from repro.ppuf.compiled import CompiledDevice, NetworkTables, compile_ppuf
from repro.ppuf.crossbar import Crossbar
from repro.ppuf.engines import network_current


class PpufNetwork:
    """One crossbar network bound to a variation sample.

    Parameters
    ----------
    crossbar:
        Topology and grid partition.
    sample:
        Per-edge threshold shifts for this network.
    tech, conditions:
        Technology card and operating point.
    """

    def __init__(
        self,
        crossbar: Crossbar,
        sample: VariationSample,
        tech: Technology,
        conditions: OperatingConditions,
    ):
        if sample.num_edges != crossbar.num_edges:
            raise GraphError(
                f"variation sample covers {sample.num_edges} edges but the "
                f"crossbar has {crossbar.num_edges}"
            )
        self.crossbar = crossbar
        self.sample = sample
        self.tech = tech
        self.conditions = conditions
        self._capacities: Dict[int, np.ndarray] = {}
        self._tables: Dict[int, EdgeTable] = {}
        self._edge_src, self._edge_dst = crossbar.edge_endpoints()

    # ------------------------------------------------------------------
    # pickling: the lazy caches are derivable, so they never travel.  A
    # warmed parent would otherwise ship megabytes of I-V tables to every
    # pool worker that is about to build (or map) its own anyway.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in ("_capacities", "_tables", "_edge_src", "_edge_dst"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._capacities = {}
        self._tables = {}
        self._edge_src, self._edge_dst = self.crossbar.edge_endpoints()

    # ------------------------------------------------------------------
    # compiled-artifact interop
    # ------------------------------------------------------------------
    def compile(self, *, include_circuit: bool = True) -> NetworkTables:
        """This network's per-bit tables in compiled (flat-array) form.

        Forces the lazy caches, so compiling a warmed network copies
        nothing.  With ``include_circuit=False`` the I–V tables are skipped
        (verification-only consumers need just the capacities).
        """
        return NetworkTables(
            cap0=self._capacities_for_bit(0),
            cap1=self._capacities_for_bit(1),
            table0=self._table_for_bit(0) if include_circuit else None,
            table1=self._table_for_bit(1) if include_circuit else None,
        )

    def adopt_compiled(self, tables: NetworkTables) -> None:
        """Seed the lazy caches from compiled tables, skipping derivation.

        The inverse of :meth:`compile`: a network that adopts an artifact's
        tables answers every subsequent challenge by row selection without
        ever running the capacity bisection or the I–V tabulation.
        """
        if tables.cap0.shape != (self.crossbar.num_edges,):
            raise GraphError(
                f"compiled tables cover {tables.cap0.shape[0]} edges but the "
                f"crossbar has {self.crossbar.num_edges}"
            )
        self._capacities = {0: tables.cap0, 1: tables.cap1}
        if tables.table0 is not None and tables.table1 is not None:
            self._tables = {0: tables.table0, 1: tables.table1}

    # ------------------------------------------------------------------
    # capacity cache (max-flow engine)
    # ------------------------------------------------------------------
    def _capacities_for_bit(self, bit: int) -> np.ndarray:
        if bit not in self._capacities:
            bits = np.full(self.crossbar.num_edges, bit, dtype=np.uint8)
            self._capacities[bit] = edge_currents_at_voltage(
                CAPACITY_REFERENCE_VOLTAGE, bits, self.sample, self.tech, self.conditions
            )
        return self._capacities[bit]

    def capacities(self, edge_bits: np.ndarray) -> np.ndarray:
        """Simulation-model edge capacities under a per-edge bit vector."""
        edge_bits = np.asarray(edge_bits)
        if edge_bits.shape != (self.crossbar.num_edges,):
            raise ChallengeError(
                f"expected {self.crossbar.num_edges} edge bits, got {edge_bits.shape}"
            )
        cap0 = self._capacities_for_bit(0)
        cap1 = self._capacities_for_bit(1)
        return np.where(edge_bits == 1, cap1, cap0)

    def capacity_matrix(self, edge_bits: np.ndarray) -> np.ndarray:
        """Dense n×n capacity matrix of the simulation model."""
        matrix = np.zeros((self.crossbar.n, self.crossbar.n))
        matrix[self._edge_src, self._edge_dst] = self.capacities(edge_bits)
        return matrix

    def flow_network(self, edge_bits: np.ndarray) -> FlowNetwork:
        """The public max-flow instance for a challenge configuration."""
        return FlowNetwork.from_arrays(
            self.crossbar.n, self._edge_src, self._edge_dst, self.capacities(edge_bits)
        )

    def maxflow_current(
        self,
        edge_bits: np.ndarray,
        source: int,
        sink: int,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> float:
        """Simulated source current: the max-flow value.

        ``algorithm`` may be any registered exact solver; ``stats`` is an
        optional :class:`~repro.flow.registry.SolveStats` to fill.
        """
        network = self.flow_network(edge_bits)
        result = solve_max_flow(network, source, sink, algorithm=algorithm, stats=stats)
        return result.value

    # ------------------------------------------------------------------
    # I-V table cache (circuit engine)
    # ------------------------------------------------------------------
    def _table_for_bit(self, bit: int) -> EdgeTable:
        if bit not in self._tables:
            bits = np.full(self.crossbar.num_edges, bit, dtype=np.uint8)

            def v_of_i(current_matrix):
                return edge_voltage(
                    current_matrix, bits, self.sample, self.tech, self.conditions
                )

            i_scale = edge_saturation_scale(bits, self.sample, self.tech, self.conditions)
            self._tables[bit] = EdgeTable.build(
                v_of_i, i_scale, v_max=self.conditions.v_supply
            )
        return self._tables[bit]

    def edge_table(self, edge_bits: np.ndarray) -> EdgeTable:
        """Per-challenge table assembled by row selection from the bit caches."""
        edge_bits = np.asarray(edge_bits)
        if edge_bits.shape != (self.crossbar.num_edges,):
            raise ChallengeError(
                f"expected {self.crossbar.num_edges} edge bits, got {edge_bits.shape}"
            )
        table0 = self._table_for_bit(0)
        table1 = self._table_for_bit(1)
        select = (edge_bits == 1)[:, None]
        return EdgeTable(
            v_grid=table0.v_grid,
            currents=np.where(select, table1.currents, table0.currents),
            cocontent=np.where(select, table1.cocontent, table0.cocontent),
        )

    def circuit_current(self, edge_bits: np.ndarray, source: int, sink: int) -> float:
        """Executed source current: nonlinear DC solve of the crossbar."""
        table = self.edge_table(edge_bits)
        solution = solve_dc(
            self.crossbar.n,
            self._edge_src,
            self._edge_dst,
            table,
            source=source,
            sink=sink,
            v_supply=self.conditions.v_supply,
        )
        return solution.source_current

    def dc_solution(self, edge_bits: np.ndarray, source: int, sink: int):
        """Full DC operating point (for delay/power analysis)."""
        table = self.edge_table(edge_bits)
        return solve_dc(
            self.crossbar.n,
            self._edge_src,
            self._edge_dst,
            table,
            source=source,
            sink=sink,
            v_supply=self.conditions.v_supply,
        )


@dataclass
class Ppuf:
    """A complete PPUF instance (Fig. 1).

    Build with :meth:`create`; evaluate with :meth:`response`.
    """

    crossbar: Crossbar
    network_a: PpufNetwork
    network_b: PpufNetwork
    comparator: CurrentComparator = field(default_factory=CurrentComparator)

    @classmethod
    def create(
        cls,
        n: int,
        l: int,
        rng: np.random.Generator,
        *,
        tech: Technology = PTM32,
        conditions: OperatingConditions = NOMINAL_CONDITIONS,
        comparator: Optional[CurrentComparator] = None,
        side_by_side: bool = True,
    ) -> "Ppuf":
        """Fabricate a PPUF: sample process variation for both networks.

        ``side_by_side`` follows Section 4.1's placement (shared systematic
        variation); pass ``False`` for the ablation.
        """
        crossbar = Crossbar(n=n, l=l)
        model = VariationModel(tech)
        sample_a, sample_b = model.sample_pair(
            crossbar.num_edges,
            rng,
            side_by_side=side_by_side,
            positions=crossbar.block_positions(),
        )
        return cls(
            crossbar=crossbar,
            network_a=PpufNetwork(crossbar, sample_a, tech, conditions),
            network_b=PpufNetwork(crossbar, sample_b, tech, conditions),
            comparator=comparator or CurrentComparator(),
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.crossbar.n

    @property
    def l(self) -> int:
        return self.crossbar.l

    def challenge_space(self) -> ChallengeSpace:
        return ChallengeSpace(self.crossbar)

    def compile(
        self,
        *,
        include_circuit: bool = True,
        device_id: Optional[str] = None,
    ) -> CompiledDevice:
        """Compile this device into an immutable evaluation artifact.

        See :mod:`repro.ppuf.compiled`: the artifact holds both networks'
        per-bit tables as flat arrays, evaluates bit-identically to this
        device, pickles light, and persists and fans out to workers as an
        artifact pack (:mod:`repro.ppuf.pack`).  ``include_circuit=False`` skips the I–V tabulation
        for verification-only use.
        """
        return compile_ppuf(
            self, include_circuit=include_circuit, device_id=device_id
        )

    def currents(
        self,
        challenge: Challenge,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> Tuple[float, float]:
        """Source currents of the two networks for a challenge.

        ``algorithm`` names any registered exact solver (maxflow engine);
        ``stats`` is an optional :class:`~repro.flow.registry.SolveStats`
        accumulating telemetry across both network solves.
        """
        self._check_challenge(challenge)
        return (
            network_current(self.network_a, challenge, engine, algorithm=algorithm, stats=stats),
            network_current(self.network_b, challenge, engine, algorithm=algorithm, stats=stats),
        )

    def response(
        self,
        challenge: Challenge,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> int:
        """The response bit: comparator decision on the two currents."""
        current_a, current_b = self.currents(
            challenge, engine=engine, algorithm=algorithm, stats=stats
        )
        return self.comparator.compare(current_a, current_b)

    def noisy_response(
        self,
        challenge: Challenge,
        rng: np.random.Generator,
        *,
        votes: int = 1,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
    ) -> int:
        """Response under comparator noise, optionally majority-voted.

        The network currents are deterministic (the silicon doesn't change);
        the comparator decision is resampled ``votes`` times.
        """
        current_a, current_b = self.currents(challenge, engine=engine, algorithm=algorithm)
        return self.comparator.majority_decision(current_a, current_b, rng, votes=votes)

    def response_bits(
        self,
        challenges,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> np.ndarray:
        """Vector of response bits for a challenge list."""
        return np.array(
            [
                self.response(c, engine=engine, algorithm=algorithm, stats=stats)
                for c in challenges
            ],
            dtype=np.uint8,
        )

    def responses(
        self,
        challenges,
        *,
        engine: str = "maxflow",
        algorithm: str = "batched_dinic",
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Batched response bits: challenge matrix in, response vector out.

        The throughput path: capacities for all challenges are assembled
        into one edge table over the shared CSR and solved in lockstep for
        ``algorithm="batched_dinic"`` (default), or row by row with any
        other exact named solver.  See
        :class:`repro.ppuf.batch.BatchEvaluator` for the pipeline and
        :class:`repro.ppuf.batch.BatchReport` for per-stage accounting.
        """
        from repro.ppuf.batch import BatchEvaluator

        evaluator = BatchEvaluator(
            self,
            engine=engine,
            algorithm=algorithm,
            workers=workers,
            chunk_size=chunk_size,
        )
        bits, _ = evaluator.evaluate(challenges)
        return bits

    def at_environment(
        self,
        *,
        supply_scale: float = 1.0,
        temperature_k: Optional[float] = None,
    ) -> "Ppuf":
        """An environmental-corner view of the same silicon.

        Returns a new :class:`Ppuf` sharing both variation samples but with
        the supply scaled and/or the technology shifted to a temperature —
        the knobs of the paper's intra-class-HD evaluation (±10 % supply,
        −20 °C … 80 °C).
        """
        tech = self.network_a.tech
        conditions = self.network_a.conditions.with_supply_scale(supply_scale)
        if temperature_k is not None:
            tech = tech.at_temperature(temperature_k)
            conditions = replace(conditions, temperature=temperature_k)
        return Ppuf(
            crossbar=self.crossbar,
            network_a=PpufNetwork(self.crossbar, self.network_a.sample, tech, conditions),
            network_b=PpufNetwork(self.crossbar, self.network_b.sample, tech, conditions),
            comparator=self.comparator,
        )

    def _check_challenge(self, challenge: Challenge) -> None:
        if challenge.num_bits != self.crossbar.num_control_bits:
            raise ChallengeError(
                f"challenge carries {challenge.num_bits} control bits; this "
                f"PPUF expects {self.crossbar.num_control_bits}"
            )
        if not (0 <= challenge.source < self.n and 0 <= challenge.sink < self.n):
            raise ChallengeError("challenge terminals out of node range")
