"""Compiled evaluation artifacts: the zero-rebuild hot path.

The paper's asymmetry is that *execution* is cheap while *simulation* is
expensive — yet the simulation-side pipeline used to pay a hidden rebuild
tax before any solver ran: pool workers pickled whole devices, service
workers re-derived per-bit capacity caches per cold claim, and every CLI
invocation reconstructed :class:`~repro.ppuf.device.PpufNetwork` state
from scratch.  A :class:`CompiledDevice` removes all of it: one immutable,
versioned, serialisable artifact holding flat numpy arrays for *both*
networks —

* ``edge_src`` / ``edge_dst`` / ``edge_cells`` — the crossbar's edge
  enumeration and grid-cell mapping, precomputed;
* ``cap0`` / ``cap1`` — per-bit capacity tables, shape ``(2, E)`` (row 0 is
  network A, row 1 network B): the public max-flow model;
* optional edge I–V tables (``v_grid``, ``currents0/1``,
  ``cocontent0/1``) for the circuit engine, shape ``(2, E, G)``.

Evaluation against the artifact is pure row selection plus a solve:
:meth:`CompiledNetwork.flow_network` feeds the flat arrays straight into
:meth:`repro.flow.graph.FlowNetwork.from_arrays` with no per-edge Python
loop and no lazy derivation.  :class:`CompiledNetwork` is call-compatible
with :class:`~repro.ppuf.device.PpufNetwork` for every consumer of the
evaluation spine (:mod:`repro.ppuf.engines`,
:class:`~repro.ppuf.verification.PpufProver` /
:class:`~repro.ppuf.verification.PpufVerifier`, the batch pipeline and the
service verification workers).

On disk and across processes the artifact travels in one container, the
mmap'd :class:`~repro.ppuf.pack.ArtifactPack`: a fleet pack, a server's
enrollment pack, or the temporary single-device pack
:func:`repro.runtime.provision.ship_compiled` hands to pool workers, who
*map* the tables instead of receiving a pickled device.

This mirrors the paper's public-model hand-off: compilation *is* the
manufacturer publishing the simulation model; everything in the artifact
is derivable from the public device description, and what remains per
challenge is exactly the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.ptm32 import OperatingConditions, Technology
from repro.circuit.table import EdgeTable
from repro.errors import ChallengeError, ReproError
from repro.flow import FlowNetwork, solve_max_flow
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.challenge import Challenge, ChallengeSpace
from repro.ppuf.comparator import CurrentComparator
from repro.ppuf.crossbar import Crossbar
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


@dataclass(frozen=True)
class NetworkTables:
    """One network's compiled per-bit tables.

    The exchange unit between :meth:`PpufNetwork.compile
    <repro.ppuf.device.PpufNetwork.compile>` (which produces one) and
    :meth:`PpufNetwork.adopt_compiled
    <repro.ppuf.device.PpufNetwork.adopt_compiled>` (which seeds the lazy
    caches from one, skipping re-derivation).
    """

    cap0: np.ndarray
    cap1: np.ndarray
    table0: Optional[EdgeTable] = None
    table1: Optional[EdgeTable] = None


class CompiledNetwork:
    """Evaluation view of one network of a :class:`CompiledDevice`.

    Call-compatible with :class:`~repro.ppuf.device.PpufNetwork` for the
    evaluation spine: ``crossbar``, ``capacities``/``capacity_matrix``/
    ``flow_network``/``maxflow_current`` (max-flow engine),
    ``edge_table``/``circuit_current``/``dc_solution`` (circuit engine) and
    the internal ``_capacities_for_bit`` row accessor the batch pipeline
    uses.  There is no lazy state: every call is row selection + solve.
    """

    def __init__(self, device: "CompiledDevice", index: int):
        self.device = device
        self.index = index

    # -- shared geometry / metadata ------------------------------------
    @property
    def crossbar(self) -> Crossbar:
        return self.device.crossbar

    @property
    def tech(self) -> Technology:
        return self.device.tech

    @property
    def conditions(self) -> OperatingConditions:
        return self.device.conditions

    # -- max-flow engine -----------------------------------------------
    def _capacities_for_bit(self, bit: int) -> np.ndarray:
        table = self.device.cap1 if bit else self.device.cap0
        return table[self.index]

    def capacities(self, edge_bits: np.ndarray) -> np.ndarray:
        """Per-edge capacities under a bit vector (pure row selection)."""
        edge_bits = np.asarray(edge_bits)
        if edge_bits.shape != (self.device.num_edges,):
            raise ChallengeError(
                f"expected {self.device.num_edges} edge bits, got {edge_bits.shape}"
            )
        return np.where(
            edge_bits == 1, self._capacities_for_bit(1), self._capacities_for_bit(0)
        )

    def capacity_matrix(self, edge_bits: np.ndarray) -> np.ndarray:
        matrix = np.zeros((self.device.n, self.device.n))
        matrix[self.device.edge_src, self.device.edge_dst] = self.capacities(edge_bits)
        return matrix

    def flow_network(self, edge_bits: np.ndarray) -> FlowNetwork:
        """The public max-flow instance, built through the array fast path."""
        return FlowNetwork.from_arrays(
            self.device.n,
            self.device.edge_src,
            self.device.edge_dst,
            self.capacities(edge_bits),
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
        network = self.flow_network(edge_bits)
        result = solve_max_flow(network, source, sink, algorithm=algorithm, stats=stats)
        return result.value

    # -- circuit engine ------------------------------------------------
    def _table_for_bit(self, bit: int) -> EdgeTable:
        if not self.device.has_circuit_tables:
            raise ReproError(
                "compiled artifact carries no circuit I-V tables "
                "(compiled with include_circuit=False)"
            )
        which = 1 if bit else 0
        return EdgeTable(
            v_grid=self.device.v_grid,
            currents=(self.device.currents1 if which else self.device.currents0)[
                self.index
            ],
            cocontent=(self.device.cocontent1 if which else self.device.cocontent0)[
                self.index
            ],
        )

    def edge_table(self, edge_bits: np.ndarray) -> EdgeTable:
        """Per-challenge I–V table assembled by row selection."""
        edge_bits = np.asarray(edge_bits)
        if edge_bits.shape != (self.device.num_edges,):
            raise ChallengeError(
                f"expected {self.device.num_edges} edge bits, got {edge_bits.shape}"
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
        solution = self.dc_solution(edge_bits, source, sink)
        return solution.source_current

    def dc_solution(self, edge_bits: np.ndarray, source: int, sink: int):
        table = self.edge_table(edge_bits)
        return solve_dc(
            self.device.n,
            self.device.edge_src,
            self.device.edge_dst,
            table,
            source=source,
            sink=sink,
            v_supply=self.device.v_supply,
        )

    # -- interop with PpufNetwork.adopt_compiled ------------------------
    def tables(self) -> NetworkTables:
        """This network's tables in the :class:`NetworkTables` exchange form."""
        circuit = self.device.has_circuit_tables
        return NetworkTables(
            cap0=self._capacities_for_bit(0),
            cap1=self._capacities_for_bit(1),
            table0=self._table_for_bit(0) if circuit else None,
            table1=self._table_for_bit(1) if circuit else None,
        )


class CompiledDevice:
    """An immutable, versioned, serialisable PPUF evaluation artifact.

    Build one with :meth:`repro.ppuf.device.Ppuf.compile` (or
    :func:`compile_ppuf`), persist it in an artifact pack
    (:class:`~repro.ppuf.pack.PackWriter` /
    :class:`~repro.ppuf.pack.ArtifactPack`), evaluate through
    :meth:`response` / :meth:`responses` or hand it to
    :class:`~repro.ppuf.batch.BatchEvaluator` and the service layer.

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
        self._networks = (CompiledNetwork(self, 0), CompiledNetwork(self, 1))

    # ------------------------------------------------------------------
    # geometry / metadata
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.crossbar.n

    @property
    def l(self) -> int:
        return self.crossbar.l

    @property
    def num_edges(self) -> int:
        return self.crossbar.num_edges

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

    def network(self, which) -> CompiledNetwork:
        """The evaluation view for network ``"a"``/``"b"`` (or index 0/1)."""
        if isinstance(which, str):
            if which not in NETWORK_INDEX:
                raise ReproError(f"unknown network {which!r}; expected 'a' or 'b'")
            which = NETWORK_INDEX[which]
        return self._networks[which]

    @property
    def network_a(self) -> CompiledNetwork:
        return self._networks[0]

    @property
    def network_b(self) -> CompiledNetwork:
        return self._networks[1]

    def challenge_space(self) -> ChallengeSpace:
        return ChallengeSpace(self.crossbar)

    # ------------------------------------------------------------------
    # evaluation (mirrors Ppuf)
    # ------------------------------------------------------------------
    def currents(
        self,
        challenge: Challenge,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> Tuple[float, float]:
        """Source currents of the two networks (same contract as ``Ppuf``)."""
        from repro.ppuf.engines import network_current

        self._check_challenge(challenge)
        return (
            network_current(
                self._networks[0], challenge, engine, algorithm=algorithm, stats=stats
            ),
            network_current(
                self._networks[1], challenge, engine, algorithm=algorithm, stats=stats
            ),
        )

    def response(
        self,
        challenge: Challenge,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> int:
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
        """Batched response bits through :class:`~repro.ppuf.batch.BatchEvaluator`."""
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
        for key in ("edge_src", "edge_dst", "edge_cells", "_networks"):
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
        self._networks = (CompiledNetwork(self, 0), CompiledNetwork(self, 1))


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

    Reads through the device's lazy per-bit caches (so compiling a warmed
    device copies nothing) and stacks both networks' tables into the flat
    artifact arrays.  ``include_circuit=False`` skips the I–V table build —
    the right choice for verification-only consumers (the service), whose
    residual-graph check needs only the capacities.

    ``device_id`` defaults to the content-derived id of the device's public
    description, tying the artifact to its source silicon.
    """
    import dataclasses

    from repro.ppuf.io import ppuf_to_dict
    from repro.service.registry import device_id_for

    networks = (ppuf.network_a, ppuf.network_b)
    tables = [net.compile(include_circuit=include_circuit) for net in networks]
    circuit: dict = {}
    if include_circuit:
        grids = [t.table0.v_grid for t in tables] + [t.table1.v_grid for t in tables]
        for grid in grids[1:]:
            if not np.array_equal(grid, grids[0]):
                raise ReproError(
                    "networks tabulate on different voltage grids; cannot compile"
                )
        circuit = {
            "v_grid": grids[0],
            "currents0": np.stack([t.table0.currents for t in tables]),
            "currents1": np.stack([t.table1.currents for t in tables]),
            "cocontent0": np.stack([t.table0.cocontent for t in tables]),
            "cocontent1": np.stack([t.table1.cocontent for t in tables]),
        }
    if device_id is None:
        device_id = device_id_for(ppuf_to_dict(ppuf))
    reference = ppuf.network_a
    return CompiledDevice(
        n=ppuf.n,
        l=ppuf.l,
        cap0=np.stack([t.cap0 for t in tables]),
        cap1=np.stack([t.cap1 for t in tables]),
        comparator_offset=ppuf.comparator.offset,
        v_supply=reference.conditions.v_supply,
        device_id=device_id,
        technology=dataclasses.asdict(reference.tech),
        conditions=dataclasses.asdict(reference.conditions),
        **circuit,
    )


__all__ = [
    "CAPACITY_KEYS",
    "CIRCUIT_KEYS",
    "NETWORK_INDEX",
    "CompiledDevice",
    "CompiledNetwork",
    "NetworkTables",
    "compile_ppuf",
]
