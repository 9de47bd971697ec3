"""The fleet front door: one address, N shards behind it.

:class:`FleetRouter` is an asyncio TCP proxy speaking the same JSON-lines
wire protocol as a single server, so every existing client
(:class:`~repro.service.client.ServiceClient`, ``repro auth``) talks to a
fleet unchanged.  Per connection it:

1. relays each ``ENROLL`` as a single request/response round trip to the
   owning shard — the content-derived id is recomputed from the carried
   description (:func:`device_id_for`), so a connection that enrolls many
   devices lands every one on its own owner, and enrollment agrees with
   routing by construction;
2. on ``HELLO`` (which carries ``device_id`` outright) *pins* the
   connection to the owning shard
   (:meth:`~repro.service.fleet.topology.ShardMap.shard_for`) — session
   state (nonce, challenge, deadline) lives on one shard — forwards the
   frame, then splices bytes bidirectionally with bounded buffers (each
   chunk is written and drained before the next is read, so a slow peer
   backpressures instead of ballooning the router);
3. answers ``STATS`` itself by fanning the request out to every shard and
   folding the snapshots into ``ServerStats().snapshot()`` with the one
   exact merge (:func:`repro.metrics.merge`) — the merged counters are
   exactly the sum of what the shards observed.  A shard whose snapshot
   cannot merge is reported unhealthy; it never takes the reply down.

A connection whose shard is down gets one clean wire ``ERROR`` frame and
a close — never a hang; a shard that dies mid-session closes the spliced
connection, which the client surfaces as
:class:`~repro.errors.ConnectionLost` within its timeout.

The routing table can be *live*: constructed with a ``map_file``
(:class:`~repro.service.fleet.mapfile.ShardMapFile`), the router watches
the shared shard-map file and swaps its membership on every version
bump.  Reloads only affect where *new* sessions go — pinned connections
are raw byte splices over already-dialed sockets, so a scale-out or a
drain never drops a session in flight.  Any number of routers — other
processes, other hosts — watching the same file route identically,
because routing is a pure function of the (shared) shard names.
"""

from __future__ import annotations

import asyncio
import copy
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import MetricsError, ServiceError, ServiceTimeout
from repro.metrics import Metrics, merge
from repro.service import wire
from repro.service.fleet.mapfile import ShardMapFile
from repro.service.fleet.topology import ShardDescriptor, ShardMap
from repro.service.registry import device_id_for
from repro.service.stats import ServerStats

logger = logging.getLogger(__name__)

#: Splice chunk size — also the per-direction in-flight buffer bound.
SPLICE_CHUNK_BYTES = 64 * 1024

#: Wire verbs the router can pin to a shard (they identify a device).
ROUTABLE_TYPES = frozenset({wire.ENROLL, wire.HELLO})


@dataclass
class RouterStats(Metrics):
    """The router's own counters (shard counters live on the shards)."""

    connections_opened: int = 0
    connections_routed: int = 0
    shard_unavailable: int = 0
    unroutable_frames: int = 0
    protocol_errors: int = 0
    stats_fanouts: int = 0
    #: shard-map file reloads applied (version bumps seen while serving)
    map_reloads: int = 0
    splice_bytes: Dict[str, int] = field(
        default_factory=lambda: {"c2s": 0, "s2c": 0}
    )


class FleetRouter:
    """Hash-sharding front-door proxy over a :class:`ShardMap`.

    The map is shared by reference with the supervisor: when the
    supervisor restarts a crashed shard on a new ephemeral port and
    updates the map, the router routes new connections there with no
    handshake between the two.

    Parameters
    ----------
    shard_map:
        Live routing table (shared with a supervisor, or static).  May be
        omitted when ``map_file`` is given — the router then starts from
        the published map (or empty until the file appears).
    map_file:
        A :class:`~repro.service.fleet.mapfile.ShardMapFile` (or its
        path) to watch: every published version bump atomically replaces
        the routing membership without touching pinned connections.
        Give each router its own ``ShardMapFile`` instance — poll
        progress is per-instance.
    map_poll_interval:
        Seconds between map-file polls (only with ``map_file``).
    host, port:
        Front-door bind; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    connection_timeout:
        Idle cutoff [s] while waiting for a client's next pre-pin frame.
    shard_connect_timeout:
        Deadline [s] for dialing a shard before declaring it unavailable.
    stats_timeout:
        Per-shard deadline [s] for the ``STATS`` fan-out; a shard that
        misses it is reported unhealthy instead of stalling the reply.
    """

    def __init__(
        self,
        shard_map: Optional[ShardMap] = None,
        *,
        map_file: Optional[Union[str, os.PathLike, ShardMapFile]] = None,
        map_poll_interval: Optional[float] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        connection_timeout: Optional[float] = 300.0,
        shard_connect_timeout: float = 5.0,
        stats_timeout: float = 5.0,
    ):
        if shard_map is None and map_file is None:
            raise ServiceError("router needs a shard_map, a map_file, or both")
        if isinstance(map_file, ShardMapFile) or map_file is None:
            self.map_file = map_file
        else:
            self.map_file = ShardMapFile(map_file)
        self.map_poll_interval = map_poll_interval
        self.map_version: Optional[int] = None
        self.shard_map = shard_map if shard_map is not None else ShardMap()
        self.host = host
        self.port = port
        self.connection_timeout = connection_timeout
        self.shard_connect_timeout = shard_connect_timeout
        self.stats_timeout = stats_timeout
        self.stats = RouterStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._map_watch: Optional[asyncio.Task] = None
        self._connections: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetRouter":
        if self._server is not None:
            raise ServiceError("router already started")
        if self.map_file is not None:
            if self.map_file.exists():
                shard_map, version = self.map_file.load()
                self.shard_map.replace_all(shard_map.shards())
                self.map_version = version
            self._map_watch = asyncio.create_task(
                self.map_file.watch(
                    self._on_map_update, poll_interval=self.map_poll_interval
                )
            )
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=wire.MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _on_map_update(self, shard_map: ShardMap, version: int) -> None:
        """Apply a published membership change to *future* routing only.

        ``replace_all`` swaps the table under the shared map object;
        already-pinned connections are byte splices over sockets dialed
        earlier, so they complete against whatever shard they pinned to —
        exactly the drain semantics the two-phase lifecycle needs.
        """
        self.shard_map.replace_all(shard_map.shards())
        self.map_version = version
        self.stats.map_reloads += 1
        logger.info(
            "router reloaded shard map v%d (%d shards)", version, len(shard_map)
        )

    async def stop(self) -> None:
        if self._map_watch is not None:
            self._map_watch.cancel()
            try:
                await self._map_watch
            except asyncio.CancelledError:
                pass
            self._map_watch = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "FleetRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_opened += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._route_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # router stop() cancelling in-flight connections
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except ServiceTimeout:
            pass
        except Exception:  # noqa: BLE001 — one bad connection must not escape
            logger.exception("router connection handler failed")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve pre-pin frames until the connection pins to a shard."""
        while True:
            try:
                message = await wire.read_message(
                    reader, timeout=self.connection_timeout
                )
            except ServiceTimeout:
                await wire.write_message(
                    writer, {"type": wire.ERROR, "error": "connection idle timeout"}
                )
                return
            except ServiceError as error:
                self.stats.protocol_errors += 1
                await wire.write_message(
                    writer, {"type": wire.ERROR, "error": str(error)}
                )
                return
            if message is None:
                return
            message_type = message["type"]
            if message_type == wire.STATS:
                await wire.write_message(writer, await self._fleet_stats())
                continue
            if message_type == wire.ENROLL:
                await self._relay_enroll(message, writer)
                continue
            if message_type not in ROUTABLE_TYPES:
                self.stats.unroutable_frames += 1
                await wire.write_message(
                    writer,
                    {
                        "type": wire.ERROR,
                        "error": (
                            f"router cannot route {message_type!r}: open a "
                            "session with 'hello' or 'enroll' first"
                        ),
                    },
                )
                continue
            await self._pin_and_splice(message, reader, writer)
            return

    def _device_id_of(self, message: dict) -> str:
        if message["type"] == wire.HELLO:
            device_id = message.get("device_id")
            if not isinstance(device_id, str):
                raise ServiceError("hello requires a 'device_id' string")
            return device_id
        public = message.get("device")
        if not isinstance(public, dict):
            raise ServiceError("enroll requires a 'device' object")
        return device_id_for(public)

    async def _dial_shard(self, message: dict, writer: asyncio.StreamWriter):
        """Resolve the owner shard of ``message`` and connect to it.

        Returns ``(shard, reader, writer)`` or ``None`` after answering
        the client with a clean wire ``ERROR`` (bad frame, no routable
        shard, or the owner being down).
        """
        try:
            device_id = self._device_id_of(message)
            shard = self.shard_map.shard_for(device_id)
        except ServiceError as error:
            self.stats.protocol_errors += 1
            await wire.write_message(writer, {"type": wire.ERROR, "error": str(error)})
            return None
        try:
            upstream_reader, upstream_writer = await asyncio.wait_for(
                asyncio.open_connection(
                    shard.host, shard.port, limit=wire.MAX_LINE_BYTES
                ),
                timeout=self.shard_connect_timeout,
            )
        except (OSError, asyncio.TimeoutError):
            self.stats.shard_unavailable += 1
            await wire.write_message(
                writer,
                {
                    "type": wire.ERROR,
                    "error": f"shard {shard.name!r} unavailable; retry shortly",
                },
            )
            return None
        return shard, upstream_reader, upstream_writer

    async def _relay_enroll(
        self, message: dict, writer: asyncio.StreamWriter
    ) -> None:
        """One ENROLL round trip to the owner shard (no pinning).

        Enrollment must land on the shard that will later serve the
        device's sessions, even when one connection enrolls a whole
        population — so each frame is routed independently.
        """
        dialed = await self._dial_shard(message, writer)
        if dialed is None:
            return
        shard, upstream_reader, upstream_writer = dialed
        try:
            upstream_writer.write(wire.encode_message(message))
            await upstream_writer.drain()
            reply = await wire.read_message(
                upstream_reader, timeout=self.shard_connect_timeout
            )
        except (ServiceError, ConnectionResetError, BrokenPipeError):
            reply = None
        finally:
            upstream_writer.close()
            try:
                await upstream_writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        if reply is None:
            self.stats.shard_unavailable += 1
            reply = {
                "type": wire.ERROR,
                "error": f"shard {shard.name!r} dropped the enrollment",
            }
        await wire.write_message(writer, reply)

    async def _pin_and_splice(
        self,
        first_message: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        dialed = await self._dial_shard(first_message, writer)
        if dialed is None:
            return
        _, upstream_reader, upstream_writer = dialed
        self.stats.connections_routed += 1
        try:
            upstream_writer.write(wire.encode_message(first_message))
            await upstream_writer.drain()
            await asyncio.gather(
                self._splice("c2s", reader, upstream_writer),
                self._splice("s2c", upstream_reader, writer),
            )
        finally:
            upstream_writer.close()
            try:
                await upstream_writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _splice(
        self,
        direction: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Copy bytes one way until EOF; close the far side so its peer sees it."""
        try:
            while True:
                chunk = await reader.read(SPLICE_CHUNK_BYTES)
                if not chunk:
                    break
                self.stats.splice_bytes[direction] += len(chunk)
                writer.write(chunk)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # Half-close propagation: when one side stops talking, the
            # other must see EOF instead of waiting forever.
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass

    # ------------------------------------------------------------------
    # STATS fan-out
    # ------------------------------------------------------------------
    async def _shard_snapshot(self, shard: ShardDescriptor) -> dict:
        """One shard's STATS snapshot, or an unhealthy marker on failure."""
        entry = {**shard.to_dict(), "healthy": False}
        if shard.port == 0:
            # A ``fleet scale`` placeholder the supervisor hasn't bound
            # yet — nothing to dial, and that's expected, not an outage.
            entry["error"] = "not bound yet (awaiting supervisor spawn)"
            return entry
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    shard.host, shard.port, limit=wire.MAX_LINE_BYTES
                ),
                timeout=self.stats_timeout,
            )
        except (OSError, asyncio.TimeoutError) as error:
            entry["error"] = f"unreachable: {error}"
            return entry
        try:
            await wire.write_message(writer, {"type": wire.STATS})
            reply = await wire.read_message(reader, timeout=self.stats_timeout)
            if (
                reply is None
                or reply.get("type") != wire.STATS
                or not isinstance(reply.get("stats"), dict)
            ):
                entry["error"] = f"bad stats reply: {reply!r}"
                return entry
            entry["healthy"] = True
            entry["stats"] = reply["stats"]
        except (ServiceError, ConnectionResetError, BrokenPipeError) as error:
            entry["error"] = str(error)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        return entry

    async def _fleet_stats(self) -> dict:
        """The merged fleet snapshot plus per-shard detail.

        The reply's ``stats`` key is what a single-server STATS would
        carry — merged exactly across healthy shards — so existing
        clients (``ServiceClient.stats``) work against a fleet unchanged.
        ``fleet`` adds per-shard health and snapshots plus the router's
        own counters.
        """
        self.stats.stats_fanouts += 1
        shards = self.shard_map.shards()
        entries: List[dict] = await asyncio.gather(
            *(self._shard_snapshot(shard) for shard in shards)
        )
        merged = ServerStats().snapshot()
        for entry in entries:
            if not entry["healthy"]:
                continue
            # Fold into a copy: a snapshot that fails halfway must leave
            # no trace of itself in the fleet view.
            try:
                merged = merge(copy.deepcopy(merged), entry["stats"])
            except MetricsError as error:
                entry["healthy"] = False
                entry["error"] = f"unmergeable stats: {error}"
        return {
            "type": wire.STATS,
            "stats": merged,
            "fleet": {
                "shards": entries,
                "healthy_shards": sum(1 for e in entries if e["healthy"]),
                "router": self.stats.snapshot(),
                "map_version": self.map_version,
            },
        }
