"""Command-line interface.

``python -m repro <command>``:

* ``create``     fabricate a PPUF and save its variation state to JSON
* ``pack``       build/append/inspect artifact packs — the compiled
  evaluation artifacts of one device or a whole fleet in one mmap'd file
  (see :mod:`repro.ppuf.pack`)
* ``respond``    evaluate challenges on a saved PPUF (or a ``--pack``
  member)
* ``solvers``    list the registered max-flow solvers and capabilities
* ``protocol``   run a time-bounded authentication session against itself
* ``serve``      host the networked authentication service (see
  :mod:`repro.service`); ``--pack`` serves a packed fleet
* ``fleet``      scale it out: ``fleet serve`` runs N supervised shard
  servers behind one hash-sharding router, ``fleet stats`` merges
  fleet-wide telemetry, ``fleet load`` drives concurrent honest/hostile
  traffic (see :mod:`repro.service.fleet`)
* ``auth``       authenticate a saved PPUF (or a ``--pack`` member)
  against a running server
* ``experiments``  regenerate the paper's tables/figures (see
  :mod:`repro.experiments.all`)

Every entry point that solves max-flow takes ``--algorithm`` with any name
from the solver registry (:mod:`repro.flow.registry`).  Every command
that fans work out across processes (``respond --workers``, ``serve
--workers``, ``fleet load --processes``) rides the one execution runtime
(:mod:`repro.runtime`): supervised pools, per-task timeouts, and crash
containment behave identically everywhere.

The save format captures everything that defines the silicon (topology,
technology card, operating point, both variation samples), so a saved PPUF
answers identically across processes — which the test suite asserts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.errors import ReproError
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf import Ppuf


# ----------------------------------------------------------------------
# persistence (re-exported from repro.ppuf.io for backward compatibility)
# ----------------------------------------------------------------------
from repro.ppuf.io import (  # noqa: E402,F401
    load_crps,
    load_ppuf,
    ppuf_from_dict,
    ppuf_to_dict,
    save_crps,
    save_ppuf,
)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _command_create(arguments) -> int:
    rng = np.random.default_rng(arguments.seed)
    ppuf = Ppuf.create(arguments.nodes, arguments.grid, rng)
    save_ppuf(ppuf, arguments.output)
    print(
        f"created {arguments.nodes}-node PPUF (l={arguments.grid}, "
        f"seed={arguments.seed}) -> {arguments.output}"
    )
    return 0


def _pack_sources(arguments):
    """Yield compiled devices from the pack command's input flags (streaming)."""
    include_circuit = bool(getattr(arguments, "circuit", False))
    for path in arguments.ppuf:
        yield load_ppuf(path).compile(include_circuit=include_circuit)
    if arguments.registry:
        import os

        names = sorted(
            name
            for name in os.listdir(arguments.registry)
            if name.endswith(".json")
        )
        if not names:
            raise ReproError(
                f"registry directory {arguments.registry!r} holds no device JSON"
            )
        for name in names:
            ppuf = load_ppuf(os.path.join(arguments.registry, name))
            yield ppuf.compile(include_circuit=include_circuit)
    if arguments.create:
        rng = np.random.default_rng(arguments.seed)
        for _ in range(arguments.create):
            ppuf = Ppuf.create(arguments.nodes, arguments.grid, rng)
            yield ppuf.compile(include_circuit=include_circuit)


def _command_pack(arguments) -> int:
    from repro.ppuf.pack import ArtifactPack, append_pack, build_pack

    if arguments.pack_command == "inspect":
        pack = ArtifactPack(arguments.pack)
        if arguments.json:
            print(json.dumps({**pack.stats(), "ids": pack.ids()}, indent=2))
        else:
            stats = pack.stats()
            print(
                f"{stats['path']}: format {stats['format']}, "
                f"{stats['devices']} device(s), {stats['file_bytes']} bytes"
            )
            for device_id in pack.ids():
                header = pack.header(device_id)
                tables = "capacity+circuit" if header.get("circuit_tables") else "capacity"
                print(f"  {device_id[:16]}…  n={header['n']} l={header['l']} {tables}")
        return 0

    builder = build_pack if arguments.pack_command == "build" else append_pack
    if not (arguments.ppuf or arguments.registry or arguments.create):
        raise ReproError(
            "nothing to pack: pass --ppuf, --registry and/or --create"
        )
    count = builder(arguments.output, _pack_sources(arguments))
    verb = "packed" if arguments.pack_command == "build" else "appended"
    print(f"{verb} {count} device(s) -> {arguments.output}", file=sys.stderr)
    return 0


def _command_respond(arguments) -> int:
    from repro.ppuf import BatchEvaluator, CRP, CRPDataset

    if arguments.pack:
        ppuf = _pack_member(arguments.pack, None)
    else:
        ppuf = load_ppuf(arguments.ppuf)
    rng = np.random.default_rng(arguments.seed)
    if arguments.input:
        challenges = [crp.challenge for crp in load_crps(arguments.input)]
    else:
        space = ppuf.challenge_space()
        challenges = [space.random(rng) for _ in range(arguments.count)]

    if arguments.batch:
        evaluator = BatchEvaluator(
            ppuf,
            engine=arguments.engine,
            algorithm=arguments.algorithm or "batched_dinic",
            workers=arguments.workers,
        )
        bits, report = evaluator.evaluate(challenges)
        print(
            f"# evaluated {report.challenges} challenges in "
            f"{report.total_seconds:.3f} s ({report.throughput:.0f}/s; "
            f"engine={report.engine}, algorithm={report.algorithm}, "
            f"workers={report.workers}, chunks={report.chunks})",
            file=sys.stderr,
        )
        print(f"# solve stats: {json.dumps(report.snapshot())}", file=sys.stderr)
    else:
        from repro.flow import SolveStats

        stats = SolveStats()
        algorithm = arguments.algorithm or DEFAULT_ALGORITHM
        bits = [
            ppuf.response(c, engine=arguments.engine, algorithm=algorithm, stats=stats)
            for c in challenges
        ]
        if stats.solves:
            print(f"# solve stats: {json.dumps(stats.snapshot())}", file=sys.stderr)

    dataset = CRPDataset(
        [CRP(challenge, int(bit)) for challenge, bit in zip(challenges, bits)]
    )
    if arguments.output:
        save_crps(dataset, arguments.output)
        print(f"wrote {len(dataset)} CRPs -> {arguments.output}", file=sys.stderr)
    else:
        for crp in dataset:
            print(json.dumps(crp.to_dict()))
    return 0


def _command_solvers(arguments) -> int:
    from repro.flow import registered_solvers

    specs = registered_solvers()
    if arguments.json:
        print(json.dumps([spec.capabilities() for spec in specs], indent=2))
        return 0
    rows = [
        ("name", "kind", "batch", "tensor", "recursion-free", "complexity",
         "description")
    ]
    for spec in specs:
        rows.append(
            (
                spec.name,
                spec.kind,
                "yes" if spec.supports_batch else "no",
                spec.tensor_kind,
                "yes" if spec.recursion_free else "no",
                spec.complexity,
                spec.description,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    if arguments.markdown:
        header, body = rows[0], rows[1:]
        print("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
        print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in body:
            print("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    else:
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def _command_protocol(arguments) -> int:
    from repro.ppuf import AuthenticationSession, PpufProver, PpufVerifier

    ppuf = load_ppuf(arguments.ppuf)
    rng = np.random.default_rng(arguments.seed)
    session = AuthenticationSession(verifier=PpufVerifier(ppuf.network_a))
    result = session.run(
        PpufProver(ppuf.network_a),
        rng,
        rounds=arguments.rounds,
        algorithm=arguments.algorithm,
    )
    for index, record in enumerate(result.rounds):
        print(
            f"round {index}: value={record.claim_value:.6g} A "
            f"correct={record.claim_correct} "
            f"within_deadline={record.within_deadline} "
            f"algorithm={record.algorithm}"
        )
    print("ACCEPTED" if result.accepted else "REJECTED")
    return 0 if result.accepted else 1


def _install_stop_handlers(stop) -> None:
    """Route SIGTERM/SIGINT into ``stop()`` on the running loop.

    A supervisor drains a shard with SIGTERM; an operator drains a
    foreground server with Ctrl-C.  Both must end in ``server.stop()`` —
    which drains in-flight verifications — not in a KeyboardInterrupt
    traceback that tears the pool down mid-claim.
    """
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop)
        except (NotImplementedError, RuntimeError):  # non-Unix loops
            pass


def _emit_listening(port: int, **extra) -> None:
    """The machine-readable bind report: one JSON line on *stdout*.

    Harnesses (the fleet supervisor, CI scripts) read this instead of
    parsing the human banner on stderr.
    """
    print(json.dumps({"event": "listening", "port": port, **extra}), flush=True)


def _command_serve(arguments) -> int:
    import asyncio

    from repro.service import DeviceRegistry, PpufAuthServer

    registry = DeviceRegistry(arguments.registry, pack=arguments.pack)
    for path in arguments.enroll:
        device_id = registry.enroll_ppuf(load_ppuf(path))
        print(f"enrolled {path} as {device_id[:16]}…", file=sys.stderr)
    server = PpufAuthServer(
        registry,
        host=arguments.host,
        port=arguments.port,
        deadline_seconds=arguments.deadline,
        idle_timeout=arguments.idle_timeout,
        rounds=arguments.rounds,
        workers=arguments.workers,
        seed=arguments.seed,
        allow_enroll=not arguments.no_enroll,
        claim_batch_size=arguments.claim_batch,
        claim_batch_linger=arguments.claim_linger,
        connection_timeout=arguments.timeout if arguments.timeout > 0 else None,
        verify_timeout=(
            arguments.verify_timeout if arguments.verify_timeout > 0 else None
        ),
        max_connections=arguments.max_connections,
    )

    async def _serve() -> None:
        await server.start()
        stop_requested = asyncio.Event()
        _install_stop_handlers(stop_requested.set)
        _emit_listening(server.port, host=server.host, devices=len(registry))
        print(
            f"serving on {server.host}:{server.port} "
            f"({len(registry)} devices, {arguments.workers} verify workers)",
            file=sys.stderr,
        )
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop_requested.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            await server.stop()  # drains in-flight verifications
            print("server stopped", file=sys.stderr)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        # Signal handlers unavailable (rare loops): the legacy path.
        print("server stopped", file=sys.stderr)
    return 0


def _command_auth(arguments) -> int:
    from repro.service import (
        RetryPolicy,
        authenticate_device,
        enroll_device,
        fetch_stats,
    )

    retry = RetryPolicy(attempts=max(1, arguments.retries + 1))
    resilience = dict(timeout=arguments.timeout, retry=retry)
    if arguments.pack and arguments.enroll:
        raise ReproError(
            "--enroll needs the full public description; pass --ppuf "
            "(a compiled artifact carries only evaluation tables)"
        )
    if arguments.pack:
        ppuf = _pack_member(arguments.pack, arguments.device_id)
    else:
        ppuf = load_ppuf(arguments.ppuf)
    if arguments.enroll:
        device_id = enroll_device(arguments.host, arguments.port, ppuf, **resilience)
        print(f"enrolled as {device_id[:16]}…", file=sys.stderr)
    outcome = authenticate_device(
        arguments.host,
        arguments.port,
        ppuf,
        network=arguments.network,
        rounds=arguments.rounds,
        algorithm=arguments.algorithm,
        **resilience,
    )
    for entry in outcome.transcript:
        print(
            f"round {entry['round']}: value={entry['value']:.6g} A "
            f"(deadline {entry['deadline_seconds']:g} s)"
        )
    print(f"{'ACCEPTED' if outcome.accepted else 'REJECTED'} ({outcome.reason})")
    if arguments.stats:
        print(
            json.dumps(
                fetch_stats(arguments.host, arguments.port, **resilience), indent=2
            )
        )
    return 0 if outcome.accepted else 1


def _pack_member(pack_path: str, device_id):
    """Resolve one device out of a pack (unique-prefix ids accepted)."""
    from repro.ppuf.pack import ArtifactPack

    pack = ArtifactPack(pack_path)
    ids = pack.ids()
    if device_id is None:
        if len(ids) == 1:
            return pack.device(ids[0])
        raise ReproError(
            f"pack {pack_path!r} holds {len(ids)} devices; pick one with "
            "--device-id (a unique id prefix is enough)"
        )
    matches = [known for known in ids if known.startswith(device_id)]
    if len(matches) != 1:
        raise ReproError(
            f"--device-id {device_id!r} matches {len(matches)} device(s) in "
            f"{pack_path!r}; need exactly one"
        )
    return pack.device(matches[0])


def _command_fleet(arguments) -> int:
    handlers = {
        "serve": _fleet_serve,
        "route": _fleet_route,
        "stats": _fleet_stats,
        "load": _fleet_load,
        "scale": _fleet_scale,
        "drain": _fleet_drain,
        "remove": _fleet_remove,
    }
    return handlers[arguments.fleet_command](arguments)


def _fleet_serve(arguments) -> int:
    import asyncio

    from repro.service.fleet import (
        FleetRouter,
        FleetSupervisor,
        ShardMap,
        ShardWorkerSpec,
    )

    spec = ShardWorkerSpec(
        pack=arguments.pack,
        registry=arguments.registry,
        workers=arguments.workers,
        rounds=arguments.rounds,
        deadline_seconds=arguments.deadline,
        idle_timeout=arguments.idle_timeout,
        connection_timeout=arguments.timeout,
        verify_timeout=arguments.verify_timeout,
        max_connections=arguments.max_connections,
        allow_enroll=not arguments.no_enroll,
        seed=arguments.seed,
        host=arguments.host,
    )

    async def _run() -> None:
        shard_map = ShardMap()
        supervisor = FleetSupervisor(
            arguments.shards,
            spec,
            shard_map=shard_map,
            map_file=arguments.map_file,
            probe_interval=arguments.probe_interval,
        )
        # The router shares the supervisor's map by reference (instant
        # in-process propagation) and, with --map-file, additionally
        # watches the file so its map_version telemetry matches any
        # external router routing from the same artifact.
        router = FleetRouter(
            shard_map,
            map_file=arguments.map_file,
            host=arguments.host,
            port=arguments.port,
        )
        await supervisor.start()
        try:
            await router.start()
            stop_requested = asyncio.Event()
            _install_stop_handlers(stop_requested.set)
            _emit_listening(
                router.port,
                host=router.host,
                role="router",
                map_file=arguments.map_file,
                shards=[shard.to_dict() for shard in shard_map.shards()],
            )
            print(
                f"fleet front door on {router.host}:{router.port} "
                f"({arguments.shards} shards: "
                + ", ".join(
                    f"{s.name}@{s.port}" for s in shard_map.shards()
                )
                + ")",
                file=sys.stderr,
            )
            await stop_requested.wait()
        finally:
            await router.stop()
            await supervisor.stop()
            print("fleet stopped", file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("fleet stopped", file=sys.stderr)
    return 0


def _fleet_route(arguments) -> int:
    """A standalone front door routing from a shared shard-map file.

    This is the multi-host story: run ``fleet serve --map-file`` on the
    host that owns the workers and any number of ``fleet route`` processes
    elsewhere — they all watch the same file and route identically.
    """
    import asyncio

    from repro.service.fleet import FleetRouter

    async def _run() -> None:
        router = FleetRouter(
            map_file=arguments.map_file,
            map_poll_interval=arguments.poll_interval,
            host=arguments.host,
            port=arguments.port,
        )
        await router.start()
        try:
            stop_requested = asyncio.Event()
            _install_stop_handlers(stop_requested.set)
            _emit_listening(
                router.port,
                host=router.host,
                role="router",
                map_file=arguments.map_file,
            )
            print(
                f"fleet router on {router.host}:{router.port} routing from "
                f"{arguments.map_file} (v{router.map_version})",
                file=sys.stderr,
            )
            await stop_requested.wait()
        finally:
            await router.stop()
            print("router stopped", file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("router stopped", file=sys.stderr)
    return 0


def _open_map_file(path: str):
    from repro.service.fleet import ShardMapFile

    map_file = ShardMapFile(path)
    if not map_file.exists():
        raise ReproError(
            f"no shard-map file at {path!r}; start the fleet with "
            "'repro fleet serve --map-file' first"
        )
    return map_file


def _print_map(shard_map, version: int, **extra) -> None:
    print(
        json.dumps(
            {
                "version": version,
                **extra,
                "shards": [shard.to_dict() for shard in shard_map.shards()],
            },
            indent=2,
        )
    )


def _fleet_scale(arguments) -> int:
    """Mutate a *live* fleet to N serving shards through the map file.

    Scaling up publishes placeholder descriptors (``port=0``, local host,
    state ``down``) that the watching supervisor turns into spawned
    workers; scaling down marks the highest-named shards ``draining`` and
    the supervisor settles, removes and terminates them.  Either way no
    process restarts and no pinned session drops.
    """
    from repro.service.fleet import DRAINING, DOWN, ShardDescriptor

    if arguments.shards < 1:
        raise ReproError(f"a fleet needs >= 1 shard, got {arguments.shards}")
    map_file = _open_map_file(arguments.map_file)
    added: list = []
    draining: list = []
    removed: list = []

    def _scale(shard_map) -> None:
        names = {shard.name for shard in shard_map.shards()}

        def serving():
            return [s for s in shard_map.shards() if s.state != DRAINING]

        while len(serving()) < arguments.shards:
            index = 0
            while f"shard-{index}" in names:
                index += 1
            name = f"shard-{index}"
            names.add(name)
            shard_map.add(
                ShardDescriptor(
                    name=name, host=arguments.host, port=0, state=DOWN
                )
            )
            added.append(name)
        while len(serving()) > arguments.shards:
            victim = serving()[-1]
            if victim.port == 0:
                # a spawn-request placeholder nobody bound yet — cancel
                # it outright, there is nothing to drain
                shard_map.remove(victim.name)
                removed.append(victim.name)
            else:
                shard_map.drain(victim.name)
                draining.append(victim.name)

    shard_map, version = map_file.mutate(_scale)
    _print_map(shard_map, version, added=added, draining=draining, removed=removed)
    return 0


def _fleet_drain(arguments) -> int:
    """Mark one shard draining; the supervisor settles and removes it."""
    map_file = _open_map_file(arguments.map_file)

    def _drain(shard_map) -> None:
        if arguments.name not in shard_map:
            raise ReproError(f"unknown shard {arguments.name!r}")
        shard_map.drain(arguments.name)

    shard_map, version = map_file.mutate(_drain)
    _print_map(shard_map, version, draining=[arguments.name])
    return 0


def _fleet_remove(arguments) -> int:
    """Delete one shard from the map *now* (no settle wait — cuts sessions)."""
    map_file = _open_map_file(arguments.map_file)

    def _remove(shard_map) -> None:
        if arguments.name not in shard_map:
            raise ReproError(f"unknown shard {arguments.name!r}")
        shard_map.remove(arguments.name)

    shard_map, version = map_file.mutate(_remove)
    _print_map(shard_map, version, removed=[arguments.name])
    return 0


def _fleet_stats(arguments) -> int:
    import asyncio

    from repro.service import ServiceClient, wire as service_wire

    async def _fetch() -> dict:
        async with ServiceClient(
            arguments.host, arguments.port, timeout=arguments.timeout
        ) as client:
            return await client.request_ok({"type": service_wire.STATS})

    reply = asyncio.run(_fetch())
    print(json.dumps({k: v for k, v in reply.items() if k != "type"}, indent=2))
    fleet = reply.get("fleet")
    if arguments.require_healthy:
        if not isinstance(fleet, dict):
            print("error: endpoint reports no fleet detail", file=sys.stderr)
            return 1
        shards = fleet.get("shards", [])
        unhealthy = [s["name"] for s in shards if not s.get("healthy")]
        if unhealthy or not shards:
            print(
                f"error: unhealthy shards: {', '.join(unhealthy) or '(none up)'}",
                file=sys.stderr,
            )
            return 1
    return 0


def _fleet_load(arguments) -> int:
    from repro.service.fleet import generate_load

    devices = None
    if arguments.ppuf:
        devices = [load_ppuf(path) for path in arguments.ppuf]
        if arguments.enroll:
            from repro.service import enroll_device

            for device in devices:
                enroll_device(arguments.host, arguments.port, device)
    elif not arguments.pack:
        raise ReproError("fleet load needs --pack or --ppuf")
    report = generate_load(
        arguments.host,
        arguments.port,
        devices=devices,
        pack=arguments.pack if devices is None else None,
        clients=arguments.clients,
        duration_seconds=arguments.duration,
        hostile_fraction=arguments.hostile_fraction,
        rounds=arguments.rounds,
        algorithm=arguments.algorithm,
        timeout=arguments.timeout,
        processes=arguments.processes,
    )
    print(json.dumps(report.to_dict(), indent=2))
    if report.sessions == 0:
        print("error: no session completed", file=sys.stderr)
        return 1
    if report.hostile_rejected != report.hostile_sessions:
        forged = report.hostile_sessions - report.hostile_rejected
        print(f"error: {forged} hostile session(s) were ACCEPTED", file=sys.stderr)
        return 1
    return 0


def _command_experiments(arguments) -> int:
    from repro.experiments.all import run_all

    run_all(
        quick=arguments.quick,
        extended=arguments.extended,
        algorithms=tuple(arguments.algorithm) if arguments.algorithm else None,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    create = commands.add_parser("create", help="fabricate and save a PPUF")
    create.add_argument("--nodes", type=int, default=20)
    create.add_argument("--grid", type=int, default=4)
    create.add_argument("--seed", type=int, default=0)
    create.add_argument("--output", default="ppuf.json")
    create.set_defaults(handler=_command_create)

    pack = commands.add_parser(
        "pack", help="build, append to, or inspect a packed artifact fleet"
    )
    pack_commands = pack.add_subparsers(dest="pack_command", required=True)

    def _pack_inputs(subparser):
        subparser.add_argument("--output", default="fleet.pack")
        subparser.add_argument(
            "--ppuf",
            action="append",
            default=[],
            metavar="PPUF_JSON",
            help="compile and pack a saved PPUF (repeatable)",
        )
        subparser.add_argument(
            "--registry",
            default=None,
            metavar="DIR",
            help="compile and pack every device JSON under a registry directory",
        )
        subparser.add_argument(
            "--create",
            type=int,
            default=0,
            metavar="COUNT",
            help="fabricate COUNT fresh devices straight into the pack",
        )
        subparser.add_argument("--nodes", type=int, default=20)
        subparser.add_argument("--grid", type=int, default=4)
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--circuit",
            action="store_true",
            help="include circuit I-V tables (default: capacity-only rows)",
        )
        subparser.set_defaults(handler=_command_pack)

    _pack_inputs(pack_commands.add_parser("build", help="create a new pack"))
    _pack_inputs(
        pack_commands.add_parser(
            "append", help="append devices to an existing pack (never rewrites)"
        )
    )
    inspect = pack_commands.add_parser("inspect", help="summarise a pack")
    inspect.add_argument("pack", help="pack file to inspect")
    inspect.add_argument("--json", action="store_true", help="emit JSON")
    inspect.set_defaults(handler=_command_pack)

    respond = commands.add_parser("respond", help="evaluate random challenges")
    respond.add_argument("--ppuf", default="ppuf.json")
    respond.add_argument(
        "--pack",
        default=None,
        metavar="PACK",
        help="evaluate the device of a single-device artifact pack (from "
        "`repro pack build --ppuf X`) instead of --ppuf",
    )
    respond.add_argument("--count", type=int, default=5)
    respond.add_argument("--seed", type=int, default=0)
    respond.add_argument("--engine", choices=("maxflow", "circuit"), default="maxflow")
    respond.add_argument(
        "--batch",
        action="store_true",
        help="evaluate through the batched pipeline (repro.ppuf.batch)",
    )
    respond.add_argument(
        "--algorithm",
        default=None,
        help="registered solver name (default: 'batched_dinic' with "
        "--batch, 'dinic' otherwise; see `repro solvers`)",
    )
    respond.add_argument(
        "--workers", type=int, default=1, help="process count for --batch"
    )
    respond.add_argument(
        "--input",
        default=None,
        help="CRP JSON file to take challenges from (responses recomputed)",
    )
    respond.add_argument(
        "--output", default=None, help="write results as CRP JSON to this file"
    )
    respond.set_defaults(handler=_command_respond)

    solvers = commands.add_parser(
        "solvers", help="list registered max-flow solvers and their capabilities"
    )
    solvers.add_argument(
        "--markdown", action="store_true", help="emit a Markdown table (docs)"
    )
    solvers.add_argument("--json", action="store_true", help="emit JSON capabilities")
    solvers.set_defaults(handler=_command_solvers)

    protocol = commands.add_parser("protocol", help="run an authentication session")
    protocol.add_argument("--ppuf", default="ppuf.json")
    protocol.add_argument("--rounds", type=int, default=4)
    protocol.add_argument("--seed", type=int, default=0)
    protocol.add_argument(
        "--algorithm",
        default=DEFAULT_ALGORITHM,
        help="exact solver the prover answers with",
    )
    protocol.set_defaults(handler=_command_protocol)

    serve = commands.add_parser("serve", help="host the authentication service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7341)
    serve.add_argument(
        "--registry", default=None, help="directory of enrolled devices (persistent)"
    )
    serve.add_argument(
        "--pack",
        default=None,
        metavar="PACK",
        help="serve a packed artifact fleet (from `repro pack build`); "
        "verification slices the pack's mmap instead of loading per-device "
        "files",
    )
    serve.add_argument(
        "--enroll",
        action="append",
        default=[],
        metavar="PPUF_JSON",
        help="enroll a saved PPUF at startup (repeatable)",
    )
    serve.add_argument(
        "--deadline", type=float, default=5.0, help="per-round response deadline [s]"
    )
    serve.add_argument("--idle-timeout", type=float, default=60.0)
    serve.add_argument("--rounds", type=int, default=4)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="verification processes (0 = in-thread verification)",
    )
    serve.add_argument("--seed", type=int, default=None, help="challenge-sampling seed")
    serve.add_argument(
        "--no-enroll", action="store_true", help="reject wire enrollment requests"
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-connection idle read timeout [s] (0 disables)",
    )
    serve.add_argument(
        "--verify-timeout",
        type=float,
        default=60.0,
        help="per-claim verification cutoff [s] (0 disables)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=256,
        help="concurrent connection cap (excess gets a wire error)",
    )
    serve.add_argument(
        "--claim-batch",
        type=int,
        default=16,
        help="micro-batching bound: coalesce up to this many concurrent "
        "claims into one lockstep verification (1 dispatches every claim alone)",
    )
    serve.add_argument(
        "--claim-linger",
        type=float,
        default=0.002,
        help="max [s] a forming claim batch waits for company; bounds the "
        "latency a lone claim pays for micro-batching",
    )
    serve.set_defaults(handler=_command_serve)

    auth = commands.add_parser("auth", help="authenticate against a running server")
    auth.add_argument("--host", default="127.0.0.1")
    auth.add_argument("--port", type=int, default=7341)
    auth.add_argument("--ppuf", default="ppuf.json")
    auth.add_argument(
        "--pack",
        default=None,
        metavar="PACK",
        help="authenticate with a device from a packed fleet instead of "
        "--ppuf (pick one with --device-id)",
    )
    auth.add_argument(
        "--device-id",
        default=None,
        help="device to pull from --pack (a unique id prefix is enough; "
        "optional when the pack holds exactly one device)",
    )
    auth.add_argument("--network", choices=("a", "b"), default="a")
    auth.add_argument(
        "--rounds", type=int, default=None, help="request a round count (server caps)"
    )
    auth.add_argument(
        "--enroll", action="store_true", help="enroll the device before authenticating"
    )
    auth.add_argument(
        "--stats", action="store_true", help="print the server STATS snapshot afterwards"
    )
    auth.add_argument(
        "--algorithm",
        default=DEFAULT_ALGORITHM,
        help="exact solver the prover answers with",
    )
    auth.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-operation network timeout [s]",
    )
    auth.add_argument(
        "--retries",
        type=int,
        default=2,
        help="reconnect-and-retry count for idempotent verbs (claims are "
        "never retried)",
    )
    auth.set_defaults(handler=_command_auth)

    fleet = commands.add_parser(
        "fleet", help="run a hash-sharded authentication fleet"
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_serve = fleet_commands.add_parser(
        "serve",
        help="spawn N shard servers behind one front-door router",
    )
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument(
        "--port", type=int, default=7342, help="router bind port (0 = ephemeral)"
    )
    fleet_serve.add_argument(
        "--shards", type=int, default=2, help="shard worker process count"
    )
    fleet_serve.add_argument(
        "--pack",
        default=None,
        metavar="PACK",
        help="packed artifact fleet every shard maps read-only",
    )
    fleet_serve.add_argument(
        "--registry", default=None, help="device registry directory (shared)"
    )
    fleet_serve.add_argument(
        "--workers", type=int, default=0, help="verification processes per shard"
    )
    fleet_serve.add_argument("--rounds", type=int, default=4)
    fleet_serve.add_argument("--deadline", type=float, default=5.0)
    fleet_serve.add_argument("--idle-timeout", type=float, default=60.0)
    fleet_serve.add_argument("--timeout", type=float, default=300.0)
    fleet_serve.add_argument("--verify-timeout", type=float, default=60.0)
    fleet_serve.add_argument("--max-connections", type=int, default=256)
    fleet_serve.add_argument("--seed", type=int, default=None)
    fleet_serve.add_argument("--no-enroll", action="store_true")
    fleet_serve.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="seconds between shard health probes",
    )
    fleet_serve.add_argument(
        "--map-file",
        default=None,
        metavar="PATH",
        help="publish and reconcile the shard map through this shared file "
        "(enables live 'fleet scale/drain/remove' and external "
        "'fleet route' front doors)",
    )
    fleet_serve.set_defaults(handler=_command_fleet)

    fleet_route = fleet_commands.add_parser(
        "route",
        help="run a standalone front-door router off a shared shard-map file",
    )
    fleet_route.add_argument("--host", default="127.0.0.1")
    fleet_route.add_argument(
        "--port", type=int, default=7343, help="router bind port (0 = ephemeral)"
    )
    fleet_route.add_argument(
        "--map-file", required=True, metavar="PATH", help="shard-map file to watch"
    )
    fleet_route.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="seconds between map-file polls (default 0.25)",
    )
    fleet_route.set_defaults(handler=_command_fleet)

    fleet_scale = fleet_commands.add_parser(
        "scale",
        help="grow or shrink a live fleet to N serving shards via the map file",
    )
    fleet_scale.add_argument(
        "--map-file", required=True, metavar="PATH", help="shard-map file to mutate"
    )
    fleet_scale.add_argument(
        "--shards", type=int, required=True, help="target serving shard count"
    )
    fleet_scale.add_argument(
        "--host",
        default="127.0.0.1",
        help="host new placeholder shards should spawn on (must match the "
        "supervisor's --host)",
    )
    fleet_scale.set_defaults(handler=_command_fleet)

    fleet_drain = fleet_commands.add_parser(
        "drain",
        help="gracefully decommission one shard (settle, then remove)",
    )
    fleet_drain.add_argument("name", help="shard name, e.g. shard-0")
    fleet_drain.add_argument(
        "--map-file", required=True, metavar="PATH", help="shard-map file to mutate"
    )
    fleet_drain.set_defaults(handler=_command_fleet)

    fleet_remove = fleet_commands.add_parser(
        "remove",
        help="force-remove one shard now (cuts its pinned sessions)",
    )
    fleet_remove.add_argument("name", help="shard name, e.g. shard-0")
    fleet_remove.add_argument(
        "--map-file", required=True, metavar="PATH", help="shard-map file to mutate"
    )
    fleet_remove.set_defaults(handler=_command_fleet)

    fleet_stats = fleet_commands.add_parser(
        "stats", help="merged fleet STATS snapshot from the router"
    )
    fleet_stats.add_argument("--host", default="127.0.0.1")
    fleet_stats.add_argument("--port", type=int, default=7342)
    fleet_stats.add_argument("--timeout", type=float, default=30.0)
    fleet_stats.add_argument(
        "--require-healthy",
        action="store_true",
        help="exit non-zero unless every shard answered its STATS probe",
    )
    fleet_stats.set_defaults(handler=_command_fleet)

    fleet_load = fleet_commands.add_parser(
        "load", help="drive concurrent honest/hostile load at an endpoint"
    )
    fleet_load.add_argument("--host", default="127.0.0.1")
    fleet_load.add_argument("--port", type=int, default=7342)
    fleet_load.add_argument("--clients", type=int, default=16)
    fleet_load.add_argument("--duration", type=float, default=5.0)
    fleet_load.add_argument(
        "--pack",
        default=None,
        metavar="PACK",
        help="drive the devices of a packed fleet (pre-provisioned)",
    )
    fleet_load.add_argument(
        "--ppuf",
        action="append",
        default=[],
        metavar="PPUF_JSON",
        help="drive saved PPUF devices (repeatable; see --enroll)",
    )
    fleet_load.add_argument(
        "--enroll",
        action="store_true",
        help="enroll --ppuf devices through the endpoint first",
    )
    fleet_load.add_argument(
        "--hostile-fraction",
        type=float,
        default=0.0,
        help="fraction of clients that forge claim values (must be rejected)",
    )
    fleet_load.add_argument("--rounds", type=int, default=1)
    fleet_load.add_argument("--algorithm", default=DEFAULT_ALGORITHM)
    fleet_load.add_argument("--timeout", type=float, default=30.0)
    fleet_load.add_argument(
        "--processes",
        type=int,
        default=1,
        help="loadgen worker processes (escape the prover's GIL bound)",
    )
    fleet_load.set_defaults(handler=_command_fleet)

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("--quick", action="store_true")
    experiments.add_argument("--extended", action="store_true")
    experiments.add_argument(
        "--algorithm",
        action="append",
        default=None,
        metavar="NAME",
        help="solver(s) for the Fig. 7 timing sweep (repeatable; default: "
        "push_relabel + edmonds_karp)",
    )
    experiments.set_defaults(handler=_command_experiments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
