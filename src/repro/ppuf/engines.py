"""Response engines: physical execution vs public simulation.

* ``"circuit"`` — the *execution*: a nonlinear DC solve of the crossbar at
  the challenge's bias configuration; the output is the steady-state source
  current.
* ``"maxflow"`` — the *public simulation model*: a max-flow computation on
  the complete graph with capacities equal to the per-edge saturation
  currents; any registered exact solver from :mod:`repro.flow.registry`
  may be named via ``algorithm``.

Fig. 6 of the paper is literally the disagreement between the two engines;
everything else (Table 1, Figs. 8–10) may use the fast max-flow engine once
that disagreement is shown to be < 1 %.

Engines live in a small dispatch table mirroring the solver registry, and
unknown engine names raise through the same
:func:`repro.flow.registry.unknown_name_error` shape as unknown algorithm
names — one wording for every bad lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.flow.registry import DEFAULT_ALGORITHM, SolveStats, unknown_name_error

#: Engine dispatch table: name -> fn(network, challenge, algorithm, stats).
ENGINES: Dict[str, Callable] = {}


def _maxflow_current(network, challenge, algorithm: str, stats: Optional[SolveStats]) -> float:
    edge_bits = network.crossbar.bits_for_edges(challenge.bits)
    return network.maxflow_current(
        edge_bits, challenge.source, challenge.sink,
        algorithm=algorithm, stats=stats,
    )


def _circuit_current(network, challenge, algorithm: str, stats: Optional[SolveStats]) -> float:
    # The execution path has no solver choice; ``algorithm`` is ignored and
    # telemetry counts DC solves instead of residual-graph work.
    edge_bits = network.crossbar.bits_for_edges(challenge.bits)
    if stats is None:
        return network.circuit_current(edge_bits, challenge.source, challenge.sink)
    import time

    start = time.perf_counter()
    with stats.phase("solve"):
        current = network.circuit_current(edge_bits, challenge.source, challenge.sink)
    stats.total_seconds += time.perf_counter() - start
    if not stats.algorithm:
        stats.algorithm = "circuit"
    stats.solves += 1
    stats.count("dc_solves")
    return current


ENGINES["maxflow"] = _maxflow_current
ENGINES["circuit"] = _circuit_current

#: Engine names accepted by :meth:`repro.ppuf.device.Ppuf.response`.
ENGINE_NAMES = tuple(ENGINES)


def check_engine(engine: str) -> str:
    """Validate an engine name, returning it unchanged.

    Shared by the per-challenge path here and the batched pipeline in
    :mod:`repro.ppuf.batch` so both reject unknown engines identically —
    and with the same error shape as unknown solver names.
    """
    if engine not in ENGINES:
        raise unknown_name_error("engine", engine, ENGINES)
    return engine


def network_current(
    network,
    challenge,
    engine: str,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    stats: Optional[SolveStats] = None,
) -> float:
    """Source current of one PPUF network for a challenge.

    Parameters
    ----------
    network:
        A :class:`repro.ppuf.compiled.NetworkModel` (a network of a live
        :class:`~repro.ppuf.device.Ppuf` or of a compiled device).
    challenge:
        A :class:`repro.ppuf.challenge.Challenge`.
    engine:
        ``"maxflow"`` or ``"circuit"``.
    algorithm:
        Registered exact solver name (maxflow engine only).
    stats:
        Optional :class:`~repro.flow.registry.SolveStats` filled with the
        solve's wall time and operation counts.
    """
    check_engine(engine)
    return ENGINES[engine](network, challenge, algorithm, stats)
