"""Compiled evaluation artifacts: the zero-rebuild hot path.

The paper's asymmetry is that *execution* is cheap while *simulation* is
expensive — yet the simulation-side pipeline used to pay a hidden rebuild
tax before any solver ran: pool workers pickled whole devices, service
workers re-derived capacity tables per cold claim, and every CLI
invocation re-derived a device's tables from scratch.  A
:class:`CompiledDevice` removes all of it: one immutable, versioned,
serialisable artifact holding flat numpy arrays for *both* networks —

* ``edge_src`` / ``edge_dst`` / ``edge_cells`` — the crossbar's edge
  enumeration and grid-cell mapping, precomputed;
* ``cap0`` / ``cap1`` — per-bit capacity tables, shape ``(2, E)`` (row 0 is
  network A, row 1 network B): the public max-flow model;
* optional edge I–V tables (``v_grid``, ``currents0/1``,
  ``cocontent0/1``) for the circuit engine, shape ``(2, E, G)``.

One device model serves both the live device and the artifact.  A
:class:`~repro.ppuf.device.Ppuf` derives exactly these rows lazily, per
network and kind, and stacks them under these names and in this layout;
an artifact holds them frozen.  :class:`NetworkModel` — the one network
class — is a view that reads its per-bit rows from its device
(``_capacity_row``/``_edge_table``: an artifact slices its tables, a
live device derives the rows on first use), and it and
:class:`DeviceModel` below hold the only evaluation code (capacities →
flow network → solve, I–V table → DC solve, currents → comparator), so
evaluating either device is pure row selection plus a solve.  Every
consumer of the spine — :mod:`repro.ppuf.engines`,
:class:`~repro.ppuf.verification.PpufProver` /
:class:`~repro.ppuf.verification.PpufVerifier`, the batch pipeline and the
service verification workers — takes either.

On disk and across processes the artifact travels in one container, the
mmap'd :class:`~repro.ppuf.pack.ArtifactPack`: a server's registry pack
or the temporary single-device pack
:func:`repro.runtime.provision.ship_compiled` hands to pool workers, who
*map* the tables instead of receiving a pickled device.

This mirrors the paper's public-model hand-off: compilation *is* the
manufacturer publishing the simulation model; everything in the artifact
is derivable from the public device description, and what remains per
challenge is exactly the solve.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.ptm32 import OperatingConditions, Technology
from repro.circuit.table import EdgeTable
from repro.circuit.variation import VariationSample
from repro.errors import ChallengeError, ReproError
from repro.flow import FlowNetwork, solve_max_flow
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.challenge import Challenge, ChallengeSpace
from repro.ppuf.comparator import CurrentComparator
from repro.ppuf.crossbar import Crossbar
from repro.ppuf.engines import network_current
from repro.ppuf.formats import FORMAT_VERSION, check_format

#: Network-name -> table-row mapping shared with the service wire format.
NETWORK_INDEX: Dict[str, int] = {"a": 0, "b": 1}

#: Array entries of a full artifact; the circuit-table ones are optional.
CAPACITY_KEYS = ("edge_src", "edge_dst", "edge_cells", "cap0", "cap1")
CIRCUIT_KEYS = ("v_grid", "currents0", "currents1", "cocontent0", "cocontent1")


def _readonly(array, dtype, shape) -> np.ndarray:
    """Validate and freeze one artifact array (immutability is the contract)."""
    out = np.ascontiguousarray(array, dtype=dtype)
    if out.shape != shape:
        raise ReproError(
            f"compiled artifact array has shape {out.shape}; expected {shape}"
        )
    out.setflags(write=False)
    return out


def _require_circuit_tables(device: "CompiledDevice") -> None:
    if not device.has_circuit_tables:
        raise ReproError(
            "compiled artifact carries no circuit I-V tables "
            "(compiled with include_circuit=False)"
        )


class NetworkModel:
    """One crossbar network of a device, with its evaluation defined once.

    A view: network ``index`` (0 is A, 1 is B) of ``device`` — a
    :class:`~repro.ppuf.device.Ppuf` or a :class:`CompiledDevice` — whose
    per-bit capacity rows and I–V tables it reads through the device's
    ``_capacity_row``/``_edge_table``.  Every network-level evaluation —
    per-challenge capacities, the public max-flow instance and its solve
    (max-flow engine), the per-challenge I–V table and its DC solve
    (circuit engine) — lives here and nowhere else.
    """

    def __init__(self, device, index: int):
        self.device = device
        self.index = index

    @property
    def crossbar(self) -> Crossbar:
        return self.device.crossbar

    @property
    def edge_src(self) -> np.ndarray:
        return self.device.edge_src

    @property
    def edge_dst(self) -> np.ndarray:
        return self.device.edge_dst

    @property
    def v_supply(self) -> float:
        return self.device.v_supply

    @property
    def tech(self) -> Technology:
        return self.device.tech

    @property
    def conditions(self) -> OperatingConditions:
        return self.device.conditions

    @property
    def sample(self) -> VariationSample:
        """This network's variation sample (a live device only)."""
        return (self.device.sample_a, self.device.sample_b)[self.index]

    def _capacities_for_bit(self, bit: int) -> np.ndarray:
        return self.device._capacity_row(self.index, bit)

    def _table_for_bit(self, bit: int) -> EdgeTable:
        return self.device._edge_table(self.index, bit)

    def _check_edge_bits(self, edge_bits: np.ndarray) -> np.ndarray:
        edge_bits = np.asarray(edge_bits)
        if edge_bits.shape != (self.crossbar.num_edges,):
            raise ChallengeError(
                f"expected {self.crossbar.num_edges} edge bits, got {edge_bits.shape}"
            )
        return edge_bits

    # -- max-flow engine -----------------------------------------------
    def capacities(self, edge_bits: np.ndarray) -> np.ndarray:
        """Simulation-model edge capacities under a per-edge bit vector."""
        edge_bits = self._check_edge_bits(edge_bits)
        return np.where(
            edge_bits == 1, self._capacities_for_bit(1), self._capacities_for_bit(0)
        )

    def capacity_matrix(self, edge_bits: np.ndarray) -> np.ndarray:
        """Dense n×n capacity matrix of the simulation model."""
        matrix = np.zeros((self.crossbar.n, self.crossbar.n))
        matrix[self.edge_src, self.edge_dst] = self.capacities(edge_bits)
        return matrix

    def flow_network(self, edge_bits: np.ndarray) -> FlowNetwork:
        """The public max-flow instance, built through the array fast path."""
        return FlowNetwork.from_arrays(
            self.crossbar.n, self.edge_src, self.edge_dst, self.capacities(edge_bits)
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

    # -- circuit engine ------------------------------------------------
    def edge_table(self, edge_bits: np.ndarray) -> EdgeTable:
        """Per-challenge I–V table assembled by row selection."""
        edge_bits = self._check_edge_bits(edge_bits)
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
        return self.dc_solution(edge_bits, source, sink).source_current

    def dc_solution(self, edge_bits: np.ndarray, source: int, sink: int):
        """Full DC operating point (for delay/power analysis)."""
        return solve_dc(
            self.crossbar.n,
            self.edge_src,
            self.edge_dst,
            self.edge_table(edge_bits),
            source=source,
            sink=sink,
            v_supply=self.v_supply,
        )


class DeviceModel:
    """The evaluation spine of a two-network device, defined once.

    Challenge validation, the two source currents, the comparator decision
    and the batched pipeline entry point live here;
    :class:`~repro.ppuf.device.Ppuf` and :class:`CompiledDevice` inherit
    them unchanged, and so do the two :class:`NetworkModel` views
    ``network_a``/``network_b``.  Subclasses supply ``crossbar``,
    ``comparator``, an empty :class:`weakref.WeakValueDictionary`
    ``_views`` and the views' row sources ``_capacity_row(index, bit)``
    and ``_edge_table(index, bit)``.
    """

    @property
    def n(self) -> int:
        return self.crossbar.n

    @property
    def l(self) -> int:
        return self.crossbar.l

    @property
    def network_a(self) -> NetworkModel:
        return self.network(0)

    @property
    def network_b(self) -> NetworkModel:
        return self.network(1)

    def network(self, which) -> NetworkModel:
        """The network ``"a"``/``"b"`` (or index 0/1)."""
        if isinstance(which, str):
            if which not in NETWORK_INDEX:
                raise ReproError(f"unknown network {which!r}; expected 'a' or 'b'")
            which = NETWORK_INDEX[which]
        index = (0, 1)[which]
        # A view holds its device, so the device holds its views weakly:
        # strong links both ways would make every device a reference cycle
        # whose derived tables outlive it until a full garbage collection.
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = NetworkModel(self, index)
        return view

    def challenge_space(self) -> ChallengeSpace:
        return ChallengeSpace(self.crossbar)

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

    def _check_challenge(self, challenge: Challenge) -> None:
        if challenge.num_bits != self.crossbar.num_control_bits:
            raise ChallengeError(
                f"challenge carries {challenge.num_bits} control bits; this "
                f"PPUF expects {self.crossbar.num_control_bits}"
            )
        if not (0 <= challenge.source < self.n and 0 <= challenge.sink < self.n):
            raise ChallengeError("challenge terminals out of node range")


class CompiledDevice(DeviceModel):
    """An immutable, versioned, serialisable PPUF evaluation artifact.

    Build one with :meth:`repro.ppuf.device.Ppuf.compile` (or
    :func:`compile_ppuf`), persist it in an artifact pack
    (:class:`~repro.ppuf.pack.PackWriter` /
    :class:`~repro.ppuf.pack.ArtifactPack`), evaluate through the
    :class:`DeviceModel` methods it shares with
    :class:`~repro.ppuf.device.Ppuf` (:meth:`response` / :meth:`responses`)
    or hand it to :class:`~repro.ppuf.batch.BatchEvaluator` and the service
    layer.

    All arrays are read-only; the artifact never mutates after
    construction.  Pickling drops the three index arrays (they are
    recomputed from ``(n, l)`` on unpickle), so a capacity-only artifact
    ships to pool workers in a few kilobytes.
    """

    def __init__(
        self,
        *,
        n: int,
        l: int,
        cap0: np.ndarray,
        cap1: np.ndarray,
        comparator_offset: float = 0.0,
        v_supply: float = 0.0,
        device_id: str = "",
        technology: Optional[dict] = None,
        conditions: Optional[dict] = None,
        v_grid: Optional[np.ndarray] = None,
        currents0: Optional[np.ndarray] = None,
        currents1: Optional[np.ndarray] = None,
        cocontent0: Optional[np.ndarray] = None,
        cocontent1: Optional[np.ndarray] = None,
    ):
        self.crossbar = Crossbar(n=int(n), l=int(l))
        edges = self.crossbar.num_edges
        src, dst = self.crossbar.edge_endpoints()
        self.edge_src = _readonly(src, np.int64, (edges,))
        self.edge_dst = _readonly(dst, np.int64, (edges,))
        self.edge_cells = _readonly(self.crossbar.edge_cells(), np.int64, (edges,))
        self.cap0 = _readonly(cap0, np.float64, (2, edges))
        self.cap1 = _readonly(cap1, np.float64, (2, edges))
        self.comparator = CurrentComparator(offset=float(comparator_offset))
        self.v_supply = float(v_supply)
        self.device_id = str(device_id)
        self.technology = dict(technology) if technology else {}
        self.conditions_dict = dict(conditions) if conditions else {}

        circuit = [v_grid, currents0, currents1, cocontent0, cocontent1]
        if any(entry is None for entry in circuit) and not all(
            entry is None for entry in circuit
        ):
            raise ReproError(
                "compiled artifact needs all five circuit-table arrays or none"
            )
        if v_grid is None:
            self.v_grid = None
            self.currents0 = self.currents1 = None
            self.cocontent0 = self.cocontent1 = None
        else:
            grid = np.ascontiguousarray(v_grid, dtype=np.float64)
            shape = (2, edges, grid.size)
            self.v_grid = _readonly(grid, np.float64, grid.shape)
            self.currents0 = _readonly(currents0, np.float64, shape)
            self.currents1 = _readonly(currents1, np.float64, shape)
            self.cocontent0 = _readonly(cocontent0, np.float64, shape)
            self.cocontent1 = _readonly(cocontent1, np.float64, shape)
        self._views = weakref.WeakValueDictionary()

    # ------------------------------------------------------------------
    # geometry / metadata
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.crossbar.num_edges

    def _capacity_row(self, index: int, bit: int) -> np.ndarray:
        return (self.cap1 if bit else self.cap0)[index]

    def _edge_table(self, index: int, bit: int) -> EdgeTable:
        _require_circuit_tables(self)
        return EdgeTable(
            v_grid=self.v_grid,
            currents=(self.currents1 if bit else self.currents0)[index],
            cocontent=(self.cocontent1 if bit else self.cocontent0)[index],
        )

    @property
    def has_circuit_tables(self) -> bool:
        return self.v_grid is not None

    @property
    def tech(self) -> Technology:
        if not self.technology:
            raise ReproError("compiled artifact carries no technology card")
        return Technology(**self.technology)

    @property
    def conditions(self) -> OperatingConditions:
        if not self.conditions_dict:
            raise ReproError("compiled artifact carries no operating conditions")
        return OperatingConditions(**self.conditions_dict)

    def csr(self):
        """The shared :class:`~repro.flow.csr.CsrTopology` view of this device.

        Every crossbar device of size ``n`` solves max-flow on the same
        complete directed graph — only the per-edge capacity rows differ —
        so the CSR view is a pure function of ``n`` served from the
        module-level :func:`~repro.flow.csr.complete_topology` cache: built
        once per size, shared across devices, pack reloads and pool workers
        (nothing is pickled; a worker's first call rebuilds from ``n``).
        The edge order matches ``edge_src``/``edge_dst``, so ``cap0``/
        ``cap1`` rows index the topology's forward arcs directly.
        """
        from repro.flow.csr import complete_topology

        return complete_topology(self.n)

    def compile(self, *, include_circuit: bool = True) -> "CompiledDevice":
        """This artifact itself: it is already compiled.

        Mirrors :meth:`repro.ppuf.device.Ppuf.compile` so either device
        hands its artifact to the same consumers; a capacity-only artifact
        cannot grow the circuit tables ``include_circuit=True`` asks for.
        """
        if include_circuit:
            _require_circuit_tables(self)
        return self

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def header(self) -> dict:
        """The JSON header persisted next to the arrays (pack record)."""
        return {
            "format": FORMAT_VERSION,
            "n": self.n,
            "l": self.l,
            "comparator_offset": self.comparator.offset,
            "v_supply": self.v_supply,
            "device_id": self.device_id,
            "technology": self.technology,
            "conditions": self.conditions_dict,
            "circuit_tables": self.has_circuit_tables,
        }

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """All artifact arrays keyed by their canonical entry names."""
        arrays = {key: getattr(self, key) for key in CAPACITY_KEYS}
        if self.has_circuit_tables:
            arrays.update({key: getattr(self, key) for key in CIRCUIT_KEYS})
        return arrays

    @classmethod
    def from_arrays(cls, header: dict, arrays: Dict[str, np.ndarray]) -> "CompiledDevice":
        """Rebuild an artifact from its header + array entries."""
        try:
            check_format("compiled PPUF artifact", header)
        except ValueError as error:
            raise ReproError(str(error)) from None
        try:
            circuit = {
                key: arrays[key] for key in CIRCUIT_KEYS if header.get("circuit_tables")
            }
            return cls(
                n=int(header["n"]),
                l=int(header["l"]),
                cap0=arrays["cap0"],
                cap1=arrays["cap1"],
                comparator_offset=float(header.get("comparator_offset", 0.0)),
                v_supply=float(header.get("v_supply", 0.0)),
                device_id=str(header.get("device_id", "")),
                technology=header.get("technology"),
                conditions=header.get("conditions"),
                **circuit,
            )
        except KeyError as error:
            raise ReproError(
                f"compiled artifact is missing entry {error.args[0]!r}"
            ) from error

    def __getstate__(self) -> dict:
        # The index arrays are pure functions of (n, l) — rebuilding them on
        # unpickle is cheaper than shipping them to every pool worker.
        state = self.__dict__.copy()
        for key in ("edge_src", "edge_dst", "edge_cells", "_views"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        crossbar = self.crossbar
        edges = crossbar.num_edges
        src, dst = crossbar.edge_endpoints()
        self.edge_src = _readonly(src, np.int64, (edges,))
        self.edge_dst = _readonly(dst, np.int64, (edges,))
        self.edge_cells = _readonly(crossbar.edge_cells(), np.int64, (edges,))
        self._views = weakref.WeakValueDictionary()


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_ppuf(
    ppuf,
    *,
    include_circuit: bool = True,
    device_id: Optional[str] = None,
) -> CompiledDevice:
    """Compile a :class:`~repro.ppuf.device.Ppuf` into a :class:`CompiledDevice`.

    Hands the device's tables over: a ``Ppuf`` stacks its derived rows
    under the artifact's names and in its layout (deriving each row once,
    on first use), so compiling a warmed device derives nothing.  Every
    I–V tabulation of a device grids ``linspace(0, v_supply, 481)``, so
    its tables share one ``v_grid``.  ``include_circuit=False`` skips the
    I–V tables — the right choice for verification-only consumers (the
    service), whose residual-graph check needs only the capacities.

    ``device_id`` defaults to the content-derived id of the device's public
    description, tying the artifact to its source silicon.
    """
    import dataclasses

    circuit = (
        {key: getattr(ppuf, key) for key in CIRCUIT_KEYS} if include_circuit else {}
    )
    return CompiledDevice(
        n=ppuf.n,
        l=ppuf.l,
        cap0=ppuf.cap0,
        cap1=ppuf.cap1,
        comparator_offset=ppuf.comparator.offset,
        v_supply=ppuf.v_supply,
        device_id=ppuf.device_id if device_id is None else device_id,
        technology=dataclasses.asdict(ppuf.tech),
        conditions=dataclasses.asdict(ppuf.conditions),
        **circuit,
    )


__all__ = [
    "CAPACITY_KEYS",
    "CIRCUIT_KEYS",
    "NETWORK_INDEX",
    "CompiledDevice",
    "DeviceModel",
    "NetworkModel",
    "compile_ppuf",
]
