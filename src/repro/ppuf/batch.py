"""Batched CRP evaluation: challenge matrix in, response vector out.

:meth:`repro.ppuf.device.Ppuf.response` pays a full Python round trip per
challenge — edge-bit expansion, a fresh :class:`FlowNetwork`, a solver run,
a comparator call.  The attack experiments consume thousands of CRPs per
run and the protocol examples serve many verifiers at once, so this module
turns the loop inside out:

* capacities for *all* challenges of a chunk are assembled into one
  ``(2·C, E)`` capacity table (network A rows first, then network B) over
  the shared :class:`~repro.flow.csr.CsrTopology`, reusing the per-bit
  capacity rows of the device and a preallocated capacity/residual buffer
  pair across chunks — one vectorised ``np.where`` per network, no dense
  ``(2·C, n, n)`` stack and no per-challenge Python loop;
* an edge-array solver
  (:attr:`~repro.flow.registry.SolverSpec.tensor_edge_fn`, the default
  ``"batched_dinic"``) takes that table whole; any other registered
  *exact* solver gets it one row at a time, scattered into a reused
  ``(n, n)`` capacity/residual pair and solved through
  :meth:`~repro.flow.registry.SolverSpec.solve_matrix` — bit-for-bit
  identical to looping :meth:`~repro.ppuf.device.Ppuf.response`;
* ``workers > 1`` fans chunks out over a supervised
  :class:`~repro.runtime.pool.WorkerPool` (bounded in-flight window,
  crash supervision, merged :class:`~repro.runtime.stats.RuntimeStats`).
  The device ships to workers as a temporary single-device artifact pack
  written by :func:`repro.runtime.provision.ship_compiled` (on tmpfs where
  the host has one): each worker *maps* the per-bit capacity / I–V tables
  instead of receiving a device pickle and re-deriving the caches, and the
  pack is unlinked once the pool is done.  Chunk results are reassembled
  in submission order, and because no arithmetic couples challenges, the
  response bits are independent of the worker count and chunking.  Empty
  and single-chunk inputs short-circuit inline — no pool is ever spawned
  for them.

Every chunk fills one :class:`~repro.flow.registry.SolveStats` (phases
``prepare``/``solve``/``compare`` plus the solver's operation counts);
:class:`BatchReport`, itself a ``SolveStats``, merges them into the single
telemetry record its consumers — benchmarks, protocol experiments, the
service — read.

The ``"batched_dinic"`` solver reaches the same max-flow values as the
scalar exact solvers up to float rounding (the value is unique;
only the augmentation order differs).  Comparator margins are
astronomically larger than one ulp, so response bits agree — the
equivalence test suite pins this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.flow.csr import complete_topology
from repro.flow.registry import SolveStats, get_solver
from repro.metrics import GAUGES
from repro.ppuf.challenge import Challenge
from repro.ppuf.compiled import CompiledDevice
from repro.ppuf.engines import check_engine
from repro.runtime.pool import WorkerPool
from repro.runtime.provision import materialise_payload, ship_compiled

#: The cross-challenge vectorised solver: edge-array batched Dinic
#: (see :mod:`repro.flow.batched_dinic`).
BATCHED_ALGORITHM = "batched_dinic"

#: Default number of challenges per solver chunk.  Bounds the capacity
#: table at ``2 * 256 * E`` floats and gives the process pool units of work.
DEFAULT_CHUNK_SIZE = 256


@dataclass
class BatchReport(SolveStats):
    """Structured accounting of one batched evaluation.

    A :class:`~repro.flow.registry.SolveStats` — every chunk's record
    merged: per-phase seconds (``prepare``/``solve``/``compare``) and the
    solver's operation counts — plus the pipeline configuration actually
    used.  ``total_seconds`` is the end-to-end wall clock of
    :meth:`BatchEvaluator.evaluate`; with ``workers > 1`` chunks overlap,
    so the phase sum can exceed it.  Benchmarks and the protocol
    experiments read this instead of timing around the call themselves.

    Attributes
    ----------
    challenges:
        Number of challenges evaluated.
    engine, workers, chunks:
        Pipeline configuration actually used (``algorithm`` is the solver).
    """

    challenges: int = 0
    engine: str = ""
    workers: int = 0
    chunks: int = 0

    @property
    def solve_seconds(self) -> float:
        return self.phase_seconds.get("solve", 0.0)

    @property
    def throughput(self) -> float:
        """Challenges evaluated per wall-clock second."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.challenges / self.total_seconds


class BatchEvaluator:
    """Reusable batched response pipeline for one PPUF.

    Parameters
    ----------
    ppuf:
        The device to evaluate: a :class:`~repro.ppuf.device.Ppuf` or a
        :class:`~repro.ppuf.compiled.CompiledDevice` (both inherit the
        :class:`~repro.ppuf.compiled.DeviceModel` evaluation spine).
    engine:
        ``"maxflow"`` (default) or ``"circuit"``.
    algorithm:
        Any registered *exact* solver name (``repro solvers`` lists them);
        the default ``"batched_dinic"`` solves each chunk's edge table in
        lockstep, a scalar solver solves it row by row.
    workers:
        Process count; 1 evaluates inline.
    chunk_size:
        Challenges per solver chunk (default :data:`DEFAULT_CHUNK_SIZE`).
    """

    def __init__(
        self,
        ppuf,
        *,
        engine: str = "maxflow",
        algorithm: str = BATCHED_ALGORITHM,
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ):
        check_engine(engine)
        spec = get_solver(algorithm)
        if not spec.exact:
            raise SolverError(
                f"algorithm {algorithm!r} is {spec.kind}; the batch pipeline "
                "needs an exact solver"
            )
        if workers < 1:
            raise SolverError(f"workers must be >= 1, got {workers}")
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        if chunk_size < 1:
            raise SolverError(f"chunk_size must be >= 1, got {chunk_size}")
        self.ppuf = ppuf
        self.engine = engine
        self.algorithm = algorithm
        self._spec = spec
        self.workers = int(workers)
        self.chunk_size = int(chunk_size)
        self._compiled: Optional[CompiledDevice] = None
        crossbar = ppuf.crossbar
        self._cells = crossbar.edge_cells()
        # Shared CSR view of the crossbar's complete-graph edge set (same
        # edge order as the crossbar); the module-level cache makes every
        # same-size evaluator (and every pool worker) reuse one object.
        self._topology = complete_topology(crossbar.n)
        # Capacity/residual buffers, allocated once and reused for every
        # full-size chunk this evaluator sees.
        self._capacity_buffer: Optional[np.ndarray] = None
        self._residual_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self, challenges: Sequence[Challenge]
    ) -> Tuple[np.ndarray, BatchReport]:
        """Evaluate a challenge batch; returns ``(bits, report)``.

        ``bits`` is a uint8 vector aligned with the input order.
        """
        started = time.perf_counter()
        challenges = list(challenges)
        for challenge in challenges:
            self.ppuf._check_challenge(challenge)
        chunks = [
            challenges[i: i + self.chunk_size]
            for i in range(0, len(challenges), self.chunk_size)
        ]
        if not chunks:
            report = BatchReport(
                challenges=0,
                engine=self.engine,
                algorithm=self.algorithm,
                workers=self.workers,
                chunks=0,
            )
            report.total_seconds = time.perf_counter() - started
            return np.zeros(0, dtype=np.uint8), report

        runtime_stats = None
        if self.workers == 1 or len(chunks) == 1:
            # Short-circuit: inline evaluation, no pool spawned — a lone
            # chunk (or B=0 above) must never pay worker start-up.
            outcomes = [self._evaluate_chunk(chunk) for chunk in chunks]
            workers_used = 1
        else:
            workers_used = min(self.workers, len(chunks))
            shipped = ship_compiled(self.compiled_device())
            try:
                with WorkerPool(
                    workers_used,
                    initializer=_worker_init,
                    initargs=(
                        shipped.payload,
                        shipped.device_id,
                        self.engine,
                        self.algorithm,
                        self.chunk_size,
                    ),
                ) as pool:
                    # WorkerPool.map preserves submission order, so the
                    # result vector is deterministic regardless of
                    # completion order.
                    outcomes = pool.map(_worker_chunk, chunks)
                runtime_stats = pool.stats
            finally:
                shipped.close()

        bits = np.concatenate([chunk_bits for chunk_bits, _ in outcomes])
        report = BatchReport(
            challenges=len(challenges),
            engine=self.engine,
            algorithm=self.algorithm,
            workers=workers_used,
            chunks=len(chunks),
        )
        for _, chunk_stats in outcomes:
            report.merge(chunk_stats)
        if runtime_stats is not None:
            # Fold the pool's counters (not its gauges) into the solver
            # counters so one report carries the whole story (tasks ==
            # chunks fanned out).
            for name, value in runtime_stats.snapshot().items():
                if value and name not in GAUGES:
                    report.count(f"runtime_{name}", value)
        # The merged per-chunk times double-count overlap under workers > 1;
        # the report's total is the end-to-end wall clock either way.
        report.total_seconds = time.perf_counter() - started
        return bits, report

    # ------------------------------------------------------------------
    # worker transport
    # ------------------------------------------------------------------
    def compiled_device(self) -> CompiledDevice:
        """The compiled artifact shipped to workers (compiled once, cached).

        The circuit engine needs the I–V tables; the max-flow engine ships
        capacities only.  An artifact compiles to itself.
        """
        if self._compiled is None:
            self._compiled = self.ppuf.compile(include_circuit=self.engine == "circuit")
        return self._compiled

    # ------------------------------------------------------------------
    # chunk evaluation (also runs inside pool workers)
    # ------------------------------------------------------------------
    def _evaluate_chunk(
        self, challenges: List[Challenge]
    ) -> Tuple[np.ndarray, SolveStats]:
        if self.engine == "circuit":
            return self._evaluate_chunk_circuit(challenges)
        return self._evaluate_chunk_maxflow(challenges)

    def _buffers(self, instances: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the reusable edge-table buffers sized for this chunk.

        The residual buffer carries the edge solvers' ``(B, 2E + 1)``
        layout: forward arcs, reverse arcs, then the pinned-zero sentinel
        column.  Leading-axis slices of a C-contiguous allocation stay
        contiguous, so the views satisfy the ``residual_out`` contract.
        """
        edges = self._topology.num_edges
        capacity = self._capacity_buffer
        if capacity is None or capacity.shape[0] < instances:
            size = max(instances, 2 * self.chunk_size)
            self._capacity_buffer = np.empty((size, edges), dtype=np.float64)
            self._residual_buffer = np.empty((size, 2 * edges + 1), dtype=np.float64)
            capacity = self._capacity_buffer
        return capacity[:instances], self._residual_buffer[:instances]

    def _evaluate_chunk_maxflow(self, challenges):
        """One ``(2C, E)`` capacity table over the shared CSR, one dispatch."""
        stats = SolveStats(algorithm=self.algorithm)
        ppuf = self.ppuf
        count = len(challenges)
        with stats.phase("prepare"):
            capacity, residual = self._buffers(2 * count)
            sources = np.fromiter(
                (challenge.source for challenge in challenges),
                dtype=np.int64, count=count,
            )
            sinks = np.fromiter(
                (challenge.sink for challenge in challenges),
                dtype=np.int64, count=count,
            )
            # Same selection arithmetic as Crossbar.bits_for_edges +
            # NetworkModel.capacities, lifted to the whole chunk: stack the
            # challenge bit vectors, gather per-edge control bits, and let
            # one np.where per network broadcast the per-bit capacity rows.
            bits = np.stack([challenge.bits for challenge in challenges])
            choose = bits[:, self._cells] == 1
            for half, network in enumerate((ppuf.network_a, ppuf.network_b)):
                np.copyto(
                    capacity[half * count:(half + 1) * count],
                    np.where(
                        choose,
                        network._capacities_for_bit(1),
                        network._capacities_for_bit(0),
                    ),
                )
            sources = np.tile(sources, 2)
            sinks = np.tile(sinks, 2)
        if self._spec.tensor_edge_fn is not None:
            values = self._spec.solve_tensor_edges(
                self._topology, capacity, sources, sinks,
                residual_out=residual, stats=stats,
            ).values
        else:
            values = self._solve_rows(capacity, sources, sinks, stats)
        with stats.phase("compare"):
            comparator = ppuf.comparator
            bits = (
                (values[:count] + comparator.offset) > values[count:]
            ).astype(np.uint8)
        return bits, stats

    def _solve_rows(self, capacity, sources, sinks, stats) -> np.ndarray:
        """Scalar exact solver: each table row scattered into one reused
        ``(n, n)`` capacity/residual pair and solved in place."""
        topology = self._topology
        dense = np.zeros((topology.n, topology.n), dtype=np.float64)
        scratch = np.empty_like(dense)
        values = np.empty(len(capacity), dtype=np.float64)
        for row in range(len(capacity)):
            dense[topology.edge_src, topology.edge_dst] = capacity[row]
            values[row] = self._spec.solve_matrix(
                dense, scratch, int(sources[row]), int(sinks[row]), stats=stats
            )
        return values

    def _evaluate_chunk_circuit(self, challenges):
        stats = SolveStats(algorithm=self.algorithm)
        ppuf = self.ppuf
        count = len(challenges)
        currents = np.empty((2, count), dtype=np.float64)
        with stats.phase("solve"):
            start = time.perf_counter()
            for index, challenge in enumerate(challenges):
                edge_bits = challenge.bits[self._cells]
                for half, network in enumerate((ppuf.network_a, ppuf.network_b)):
                    currents[half, index] = network.circuit_current(
                        edge_bits, challenge.source, challenge.sink
                    )
            stats.total_seconds += time.perf_counter() - start
        stats.solves += 2 * count
        stats.count("dc_solves", 2 * count)
        with stats.phase("compare"):
            comparator = ppuf.comparator
            bits = ((currents[0] + comparator.offset) > currents[1]).astype(np.uint8)
        return bits, stats


# ----------------------------------------------------------------------
# process-pool plumbing (module level so the pool can pickle it)
# ----------------------------------------------------------------------
_WORKER_EVALUATOR: Optional[BatchEvaluator] = None


def _worker_init(payload, device_id, engine, algorithm, chunk_size):
    global _WORKER_EVALUATOR
    # The worker maps the shipped pack once; the mapping outlives the
    # producer's unlink for the worker's lifetime.
    device = materialise_payload(payload, device_id)
    _WORKER_EVALUATOR = BatchEvaluator(
        device,
        engine=engine,
        algorithm=algorithm,
        workers=1,
        chunk_size=chunk_size,
    )


def _worker_chunk(challenges):
    return _WORKER_EVALUATOR._evaluate_chunk(challenges)
