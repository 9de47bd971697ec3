"""Hash-sharded authentication fleet: one front door, N shard servers.

The population-scale tier of :mod:`repro.service`.  A fleet is:

* a :class:`~repro.service.fleet.topology.ShardMap` — rendezvous-hashing
  of ``device_id``s onto named shards (deterministic, minimal-motion
  membership changes, drain-then-remove);
* a :class:`~repro.service.fleet.supervisor.FleetSupervisor` — N
  ``repro serve`` worker subprocesses over one shared artifact pack,
  health-checked and restarted with seeded backoff;
* a :class:`~repro.service.fleet.router.FleetRouter` — the wire-level
  front door that pins each connection to its device's shard and merges
  fleet-wide ``STATS``;
* a :class:`~repro.service.fleet.mapfile.ShardMapFile` — the shared,
  versioned shard-map artifact that any number of routers and
  supervisors (on any host) publish, watch, and route identically from,
  enabling live ``fleet scale``/``drain``/``remove``;
* a load-generation harness
  (:func:`~repro.service.fleet.loadgen.generate_load`) for honest and
  hostile traffic at fleet scale.

Entry points: ``python -m repro fleet serve|stats|load|scale|drain|remove``, or

>>> from repro.service.fleet import FleetRouter, FleetSupervisor, ShardMap
"""

from repro.service.fleet.loadgen import LoadReport, generate_load, run_load
from repro.service.fleet.mapfile import (
    MAPFILE_FORMAT,
    ShardMapFile,
    decode_shard_map,
    encode_shard_map,
)
from repro.service.fleet.router import FleetRouter, RouterStats, probe_stats
from repro.service.fleet.supervisor import FleetSupervisor, ShardWorkerSpec
from repro.service.fleet.topology import (
    ACTIVE,
    DOWN,
    DRAINING,
    ShardDescriptor,
    ShardMap,
    default_shard_names,
    shard_score,
)

__all__ = [
    "ACTIVE",
    "DOWN",
    "DRAINING",
    "FleetRouter",
    "FleetSupervisor",
    "LoadReport",
    "MAPFILE_FORMAT",
    "RouterStats",
    "ShardDescriptor",
    "ShardMap",
    "ShardMapFile",
    "ShardWorkerSpec",
    "decode_shard_map",
    "default_shard_names",
    "encode_shard_map",
    "generate_load",
    "probe_stats",
    "run_load",
    "shard_score",
]
