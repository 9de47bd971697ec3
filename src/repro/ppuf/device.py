"""The PPUF device: two variated crossbar networks and a comparator.

:class:`PpufNetwork` models one crossbar (Fig. 1's "Network A" or
"Network B"): it owns a process-variation sample and lazily caches, per
challenge-bit value, the edge capacities (max-flow engine) and the edge I–V
tables (circuit engine), so per-challenge evaluation only selects rows and
solves.

:class:`Ppuf` is the full device of Fig. 1: it compares the two networks'
source currents to produce the response bit.

Both evaluate through the spine in :mod:`repro.ppuf.compiled`
(:class:`~repro.ppuf.compiled.NetworkModel`,
:class:`~repro.ppuf.compiled.DeviceModel`), shared with the compiled
artifact; what lives here is fabrication and the lazy per-bit rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.blocks.edge import edge_currents_at_voltage, edge_saturation_scale, edge_voltage
from repro.circuit.ptm32 import (
    CAPACITY_REFERENCE_VOLTAGE,
    NOMINAL_CONDITIONS,
    OperatingConditions,
    PTM32,
    Technology,
)
from repro.circuit.table import EdgeTable
from repro.circuit.variation import VariationModel, VariationSample
from repro.errors import GraphError
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.challenge import Challenge
from repro.ppuf.comparator import CurrentComparator
from repro.ppuf.compiled import CompiledDevice, DeviceModel, NetworkModel, compile_ppuf
from repro.ppuf.crossbar import Crossbar


class PpufNetwork(NetworkModel):
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
        self.edge_src, self.edge_dst = crossbar.edge_endpoints()

    @property
    def v_supply(self) -> float:
        return self.conditions.v_supply

    # ------------------------------------------------------------------
    # pickling: the lazy caches are derivable, so they never travel.  A
    # warmed parent would otherwise ship megabytes of I-V tables to every
    # pool worker that is about to build (or map) its own anyway.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in ("_capacities", "_tables", "edge_src", "edge_dst"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._capacities = {}
        self._tables = {}
        self.edge_src, self.edge_dst = self.crossbar.edge_endpoints()

    # ------------------------------------------------------------------
    # lazy per-bit rows: capacities (max-flow engine), I-V tables (circuit)
    # ------------------------------------------------------------------
    def _capacities_for_bit(self, bit: int) -> np.ndarray:
        if bit not in self._capacities:
            bits = np.full(self.crossbar.num_edges, bit, dtype=np.uint8)
            self._capacities[bit] = edge_currents_at_voltage(
                CAPACITY_REFERENCE_VOLTAGE, bits, self.sample, self.tech, self.conditions
            )
        return self._capacities[bit]

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


@dataclass
class Ppuf(DeviceModel):
    """A complete PPUF instance (Fig. 1).

    Build with :meth:`create`; evaluate with :meth:`response` (the
    :class:`~repro.ppuf.compiled.DeviceModel` spine).
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
    def device_id(self) -> str:
        """Content digest of the public description: the enrolled id."""
        from repro.ppuf.io import device_id_for, ppuf_to_dict

        return device_id_for(ppuf_to_dict(self))

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
        artifact pack (:mod:`repro.ppuf.pack`).  ``include_circuit=False``
        skips the I–V tabulation for verification-only use.
        """
        return compile_ppuf(
            self, include_circuit=include_circuit, device_id=device_id
        )

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
