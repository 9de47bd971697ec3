"""The PPUF device: its public description and the rows derived from it.

:class:`Ppuf` is the full device of Fig. 1 — two variated crossbar
networks and a comparator — and holds nothing but its public description,
the fields :func:`~repro.ppuf.io.ppuf_to_dict` saves (plus the
comparator).  It derives the public model lazily, per network and kind
(:meth:`Ppuf._capacity_row`, :meth:`Ppuf._edge_table`), for its
:class:`~repro.ppuf.compiled.NetworkModel` views to read, and stacks the
rows under the artifact's names and in its layout for
:meth:`Ppuf.compile`.  Derived rows never travel: a pickled or
:func:`dataclasses.replace`-d device derives its own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields, replace
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
from repro.ppuf.compiled import CompiledDevice, DeviceModel, compile_ppuf
from repro.ppuf.crossbar import Crossbar


@dataclass(eq=False)
class Ppuf(DeviceModel):
    """A complete PPUF instance (Fig. 1): its public description.

    Build with :meth:`create`; evaluate with :meth:`response` (the
    :class:`~repro.ppuf.compiled.DeviceModel` spine); change a field with
    :func:`dataclasses.replace`.
    """

    crossbar: Crossbar
    sample_a: VariationSample = field(repr=False)
    sample_b: VariationSample = field(repr=False)
    tech: Technology = PTM32
    conditions: OperatingConditions = NOMINAL_CONDITIONS
    comparator: CurrentComparator = field(default_factory=CurrentComparator)

    def __post_init__(self) -> None:
        for sample in (self.sample_a, self.sample_b):
            if sample.num_edges != self.crossbar.num_edges:
                raise GraphError(
                    f"variation sample covers {sample.num_edges} edges but the "
                    f"crossbar has {self.crossbar.num_edges}"
                )
        self._reset_derived()

    def _reset_derived(self) -> None:
        self.edge_src, self.edge_dst = self.crossbar.edge_endpoints()
        self._rows: Dict[tuple, object] = {}
        self._views = weakref.WeakValueDictionary()

    # The derived tables are a function of the description, so they never
    # travel: a warmed device pickles as small as a cold one.
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_derived()

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
            crossbar, sample_a, sample_b, tech, conditions,
            comparator or CurrentComparator(),
        )

    # ------------------------------------------------------------------
    # derived rows, per network and kind
    # ------------------------------------------------------------------
    @property
    def v_supply(self) -> float:
        return self.conditions.v_supply

    def _capacity_row(self, index: int, bit: int) -> np.ndarray:
        """Network ``index``'s edge capacities at ``bit``.

        The first lookup on a network bisects both of its bit values in one
        call.  Not both networks at once: a one-network caller (Fig. 6)
        would pay for rows it never reads (DESIGN §5.10).
        """
        key = ("cap", index)
        if key not in self._rows:
            edges = self.crossbar.num_edges
            sample = (self.sample_a, self.sample_b)[index]
            bits = np.repeat(np.array([0, 1], dtype=np.uint8), edges)
            both = VariationSample(
                delta_vt=np.tile(sample.delta_vt, (2, 1)),
                systematic=np.tile(sample.systematic, 2),
            )
            rows = edge_currents_at_voltage(
                CAPACITY_REFERENCE_VOLTAGE, bits, both, self.tech, self.conditions
            )
            self._rows[key] = (rows[:edges], rows[edges:])
        return self._rows[key][bit]

    def _edge_table(self, index: int, bit: int) -> EdgeTable:
        """Network ``index``'s edge I–V table at ``bit``.

        One tabulation per (network, bit): :meth:`EdgeTable.build`
        re-evaluates every row until the slowest one reaches the supply, so
        stacked row sets cost more than the same sets tabulated apart.
        """
        key = ("iv", index, bit)
        if key not in self._rows:
            bits = np.full(self.crossbar.num_edges, bit, dtype=np.uint8)
            sample = (self.sample_a, self.sample_b)[index]
            tech, conditions = self.tech, self.conditions
            self._rows[key] = EdgeTable.build(
                lambda current: edge_voltage(current, bits, sample, tech, conditions),
                edge_saturation_scale(bits, sample, tech, conditions),
                v_max=conditions.v_supply,
            )
        return self._rows[key]

    def _stacked(self, row) -> np.ndarray:
        """One artifact table: ``row(index)`` of networks A and B, stacked."""
        return np.stack([row(0), row(1)])

    # The artifact's tables, derived on each access (a compile reads each
    # once); the networks read their rows directly.
    cap0 = property(lambda self: self._stacked(lambda i: self._capacity_row(i, 0)))
    cap1 = property(lambda self: self._stacked(lambda i: self._capacity_row(i, 1)))
    v_grid = property(lambda self: self._edge_table(0, 0).v_grid)
    currents0 = property(lambda self: self._stacked(lambda i: self._edge_table(i, 0).currents))
    currents1 = property(lambda self: self._stacked(lambda i: self._edge_table(i, 1).currents))
    cocontent0 = property(lambda self: self._stacked(lambda i: self._edge_table(i, 0).cocontent))
    cocontent1 = property(lambda self: self._stacked(lambda i: self._edge_table(i, 1).cocontent))

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

        See :mod:`repro.ppuf.compiled`: the artifact holds this device's
        derived tables as they are, evaluates bit-identically to it,
        pickles light, and persists and fans out to workers as an artifact
        pack (:mod:`repro.ppuf.pack`).  ``include_circuit=False`` skips the
        I–V tabulation for verification-only use.
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
        tech = self.tech
        conditions = self.conditions.with_supply_scale(supply_scale)
        if temperature_k is not None:
            tech = tech.at_temperature(temperature_k)
            conditions = replace(conditions, temperature=temperature_k)
        return replace(self, tech=tech, conditions=conditions)
