"""Execute a :class:`~repro.scenario.spec.ScenarioSpec`.

The runner builds the testbed and cascade the spec declares, schedules
each phase's per-peer work on seeded arrival offsets, composes the
declared fault plans onto a single
:class:`~repro.sim.faults.FaultInjector`, and closes with a durability
probe (write through every session, flush every tier, diff the origin
bytes).  The resulting ``metrics`` dict is pure simulation output — no
wall-clock — so a second run of the same spec + seed must reproduce it
bit-identically (the ``replay_identical`` gate runs the whole scenario
twice and compares).

The report envelope is::

    {"schema_version": 1, "benchmark": "scenario", "scenario": ...,
     "kind": "fleet", "driver": "fleet", "quick": ..., "seed": ...,
     "gates": [{name, ok, detail, params}], "ok": ..., "metrics": {...}}

which is exactly what ``bench_schema.json`` admits.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.scenario.arrivals import arrival_offsets
from repro.scenario.gates import evaluate_gates, validate_gates
from repro.scenario.spec import ImageSpec, ScenarioSpec, SpecError

__all__ = ["run_spec"]

MB = 1024 * 1024

#: Default retransmission ladder applied to every RPC hop when a spec
#: declares faults (sessions via ``harden_rpc``, cascade levels by
#: attribute — both reach the same RpcClient knobs).
_DEFAULT_HARDEN = {"timeout": 1.0, "max_retries": 8, "backoff": 2.0,
                   "max_timeout": 8.0}


# --------------------------------------------------------------------------
# Fleet runner: construction helpers
# --------------------------------------------------------------------------

def _materialize_image(fs, img: ImageSpec):
    from repro.vm.image import VmConfig, VmImage
    image = VmImage.create(
        fs, f"/images/{img.name}",
        VmConfig(name=img.name, memory_mb=img.memory_mb,
                 disk_gb=img.disk_gb, persistent=False, seed=img.seed),
        zero_fraction=img.zero_fraction)
    if img.metadata:
        image.generate_metadata()
    return image


def _harden_everything(spec: ScenarioSpec, sessions, cascade) -> None:
    """Arm the retransmission ladder on every RPC hop (client proxies
    via harden_rpc, cascade levels directly on their upstream client)."""
    knobs = dict(_DEFAULT_HARDEN)
    knobs.update(spec.sessions.harden or {})
    for session in sessions:
        session.harden_rpc(**knobs)
    for level in cascade:
        upstream = level.proxy.upstream
        for key in ("timeout", "max_retries", "backoff", "max_timeout"):
            if key in knobs:
                setattr(upstream, key, knobs[key])


def _attach_faults(spec: ScenarioSpec, env, testbed, endpoint, sessions,
                   cascade):
    """One injector bound to the standard target names + every layer
    port, with all declared plans merged onto it."""
    from repro.sim.chaos import attach_stack, layer_fault
    from repro.sim.faults import FaultInjector, FaultKind, FaultPlan

    injector = FaultInjector(env)
    injector.attach("wan", list(testbed.wan_segment))
    injector.attach("origin", endpoint.server)
    for i, session in enumerate(sessions):
        injector.attach(f"client:{i}", session.client_proxy)
        attach_stack(injector, f"s{i}", session.client_proxy)
    for k, level in enumerate(cascade, start=2):
        injector.attach(f"level:{k}", level.proxy)
        attach_stack(injector, f"l{k}", level.proxy)

    plan = FaultPlan([])
    for fault in spec.faults:
        if fault.kind == "link_flap":
            plan = plan.merged(FaultPlan.link_flap(
                fault.target, first_down=fault.at,
                down_for=fault.down_for, flaps=fault.flaps,
                period=fault.period or None))
        elif fault.kind == "server_outage":
            plan = plan.merged(FaultPlan.server_outage(
                fault.target, at=fault.at, down_for=fault.down_for))
        elif fault.kind == "server_crash":
            plan = plan.merged(FaultPlan.server_crash(
                fault.target, at=fault.at))
        elif fault.kind == "proxy_restart":
            plan = plan.merged(FaultPlan.proxy_restart(
                fault.target, at=fault.at, down_for=fault.down_for))
        elif fault.kind == "seeded_flaps":
            plan = plan.merged(FaultPlan.seeded_flaps(
                fault.target, seed=fault.seed or spec.seed,
                horizon=fault.horizon, mean_up=fault.mean_up,
                mean_down=fault.mean_down, start_after=fault.at))
        elif fault.kind == "layer":
            plan = plan.merged(layer_fault(
                FaultKind(fault.fault), fault.target, at=fault.at,
                arg=fault.arg))
        else:                             # pragma: no cover - spec rejects
            raise SpecError(f"unknown fault kind {fault.kind!r}")
    injector.schedule(plan)
    return injector


# --------------------------------------------------------------------------
# Fleet runner: one deterministic pass
# --------------------------------------------------------------------------

def _run_fleet_once(spec: ScenarioSpec) -> Dict:
    from repro.core.session import GvfsSession, LocalMount, Scenario, \
        ServerEndpoint, build_cascade
    from repro.net.topology import make_paper_testbed
    from repro.nfs.protocol import NFS_BLOCK_SIZE
    from repro.sim import AllOf
    from repro.storage.vfs import CHUNK_SIZE
    from repro.vm.cloning import CloneManager
    from repro.vm.image import VmImage
    from repro.vm.migration import MigrationManager
    from repro.vm.monitor import VmMonitor
    from repro.workloads.traces import IoTrace, TraceEvent, \
        trace_to_workload

    n = spec.topology.peers
    testbed = make_paper_testbed(n_compute=n)
    env = testbed.env
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    images = {img.name: _materialize_image(fs, img)
              for img in spec.topology.images}
    image_specs = {img.name: img for img in spec.topology.images}

    proxy_cfg = spec.sessions.proxy_config()
    client_cfg = spec.sessions.client_cache_config()
    cascade = build_cascade(testbed, endpoint,
                            spec.sessions.level_cache_configs(),
                            name=f"scn-{spec.name}", proxy_config=proxy_cfg)
    directory = (testbed.peer_directory()
                 if spec.sessions.mode == "cooperative" else None)
    sessions = [GvfsSession.build(
        testbed, Scenario.WAN_CACHED, endpoint=endpoint,
        compute_index=i, cache_config=client_cfg,
        via=cascade[0] if cascade else None,
        peer_directory=directory, proxy_config=proxy_cfg)
        for i in range(n)]

    monitors = [VmMonitor(env, testbed.compute[i]) for i in range(n)]
    managers = [CloneManager(env, monitors[i], sessions[i].mount,
                             LocalMount(testbed.compute[i].local))
                for i in range(n)]

    injector = None
    if spec.faults:
        _harden_everything(spec, sessions, cascade)
        injector = _attach_faults(spec, env, testbed, endpoint, sessions,
                                  cascade)

    def wan_bytes() -> int:
        return sum(link.bytes_sent for link in testbed.wan_segment)

    phases: List[Dict] = []
    vms: Dict[int, object] = {}           # peer -> last-booted VM
    integrity_ok = True

    # Durability-probe files exist origin-side before the run starts so
    # the mounts can open them mid-simulation.
    fs.mkdir("/probe")
    probe_payloads = []
    for i in range(n):
        fs.create(f"/probe/w{i}")
        probe_payloads.append(
            random.Random(f"{spec.seed}:probe:{i}").randbytes(
                4 * NFS_BLOCK_SIZE))

    # ---- phase implementations (all driver-generator fragments) ------

    def staggered(phase, work):
        """Run ``work(i)`` per peer on the phase's arrival offsets."""
        offsets = arrival_offsets(phase.arrival, n, spec.seed, phase.name)

        def one(i):
            yield env.timeout(offsets[i])
            yield from work(i)

        yield AllOf(env, [env.process(one(i)) for i in range(n)])

    def check_clones(phase, image) -> bool:
        # Size first, then chunk by chunk: no whole-image copies.
        origin = fs.lookup(image.memory_path).data

        def same(copy) -> bool:
            return copy.size == origin.size and all(
                copy.read(k * CHUNK_SIZE, CHUNK_SIZE)
                == origin.read(k * CHUNK_SIZE, CHUNK_SIZE)
                for k in range(origin.n_chunks()))

        return all(same(testbed.compute[i].local.fs.lookup(
            f"/clones/{phase.name}-p{i}/{VmImage.MEMORY_NAME}").data)
            for i in range(n))

    def clone_storm(phase, extra=None):
        nonlocal integrity_ok
        image = images[phase.image]
        t0, w0 = env.now, wan_bytes()

        def work(i):
            result = yield env.process(managers[i].clone(
                image.directory, f"/clones/{phase.name}-p{i}",
                clone_name=f"{phase.name}-p{i}"))
            vms[i] = result.vm

        yield from staggered(phase, work)
        integrity_ok = integrity_ok and check_clones(phase, image)
        row = {"phase": phase.name, "kind": phase.kind,
               "makespan_s": env.now - t0,
               "wan_bytes": wan_bytes() - w0,
               "cloned_mb": n * image.config.memory_bytes // MB}
        row.update(extra or {})
        phases.append(row)

    def trace_load(phase):
        t0, w0 = env.now, wan_bytes()

        def peer_trace(i) -> IoTrace:
            events = []
            size = int(phase.file_mb * MB)
            for j in range(phase.reads):
                events.append(TraceEvent("read", f"{phase.name}-f{j}",
                                         size, phase.read_fraction))
            for j in range(phase.writes):
                events.append(TraceEvent("write", f"{phase.name}-w{j}",
                                         size, phase.read_fraction))
            if phase.compute_s > 0:
                events.append(TraceEvent("compute",
                                         seconds=phase.compute_s))
            rng = random.Random(f"{spec.seed}:{phase.name}:p{i}")
            rng.shuffle(events)
            return IoTrace(application=f"{phase.name}-p{i}",
                           events=events)

        def work(i):
            workload = trace_to_workload(peer_trace(i), phase.name)
            yield env.process(workload.run(vms[i]))

        yield from staggered(phase, work)
        phases.append({"phase": phase.name, "kind": phase.kind,
                       "makespan_s": env.now - t0,
                       "wan_bytes": wan_bytes() - w0})

    def restart_clients(phase):
        t0 = env.now
        for session in sessions:
            yield env.process(session.cold_caches())
        phases.append({"phase": phase.name, "kind": phase.kind,
                       "makespan_s": env.now - t0, "wan_bytes": 0})

    def rollout(phase):
        """Golden-image rollout: fleet-wide invalidation (client
        proxies, every cascade level, the peer directory through its
        observers), then a storm on the new version."""
        for session in sessions:
            yield env.process(session.cold_caches())
        for level in cascade:
            # (Drained by the sessions' flushes; fetches may linger.)
            yield env.process(level.proxy.quiesce())
            level.proxy.invalidate_caches()
        yield from clone_storm(
            phase, extra={"invalidated_levels": len(cascade) + 1})

    def migration_wave(phase):
        """Every peer boots a VM from server-side state, then migrates
        it to its ring neighbour through the image server."""
        nonlocal integrity_ok
        img = image_specs[phase.image]
        # Per-peer VM state materialized origin-side (free of sim cost):
        # resume then streams it across the WAN through each mount.
        for i in range(n):
            _materialize_image(fs, ImageSpec(
                name=f"{phase.name}-p{i}", memory_mb=img.memory_mb,
                disk_gb=img.disk_gb, seed=img.seed + i,
                zero_fraction=img.zero_fraction,
                metadata=img.metadata))

        t0, w0 = env.now, wan_bytes()
        downtimes = [0.0] * n
        intact = [False] * n

        def work(i):
            vm_dir = f"/images/{phase.name}-p{i}"
            vm = yield env.process(monitors[i].resume(
                sessions[i].mount, vm_dir))
            dst = (i + 1) % n
            mover = MigrationManager(env, monitors[i], sessions[i],
                                     monitors[dst], sessions[dst])
            result = yield from mover.migrate(
                vm, vm_dir, dest_dir=f"/fleet/{phase.name}-p{i}-moved")
            downtimes[i] = result.downtime_seconds
            # The destination resumed from what the source suspended.
            moved = testbed.compute[dst].local.fs.lookup(
                f"/fleet/{phase.name}-p{i}-moved/{VmImage.MEMORY_NAME}").data
            payload = VmMonitor.suspend_payload(vm.config)
            intact[i] = moved.size == vm.config.memory_bytes and all(
                moved.read(k * CHUNK_SIZE, CHUNK_SIZE) == payload.chunk(k)
                for k in range(moved.n_chunks()))

        yield from staggered(phase, work)
        integrity_ok = integrity_ok and all(intact)
        phases.append({"phase": phase.name, "kind": phase.kind,
                       "makespan_s": env.now - t0,
                       "wan_bytes": wan_bytes() - w0,
                       "downtimes_s": downtimes,
                       "max_downtime_s": max(downtimes)})

    def flush(phase):
        t0 = env.now
        for session in sessions:
            yield env.process(session.flush())
        phases.append({"phase": phase.name, "kind": phase.kind,
                       "makespan_s": env.now - t0, "wan_bytes": 0})

    def durability_probe():
        """Write through every mount, flush every session (each
        drains every tier, client-ward → origin-ward), then diff the
        origin bytes block by block."""
        for i in range(n):
            handle = yield env.process(
                sessions[i].mount.open(f"/probe/w{i}"))
            yield env.process(handle.write(0, probe_payloads[i]))
        for session in sessions:
            yield env.process(session.flush())

    kinds = {"clone_storm": clone_storm, "trace_load": trace_load,
             "restart_clients": restart_clients, "rollout": rollout,
             "migration_wave": migration_wave, "flush": flush}

    def driver(env):
        for phase in spec.phases:
            yield from kinds[phase.kind](phase)
        yield from durability_probe()

    env.process(driver(env))
    env.run()

    lost = 0
    for i in range(n):
        server = fs.read(f"/probe/w{i}")
        lost += sum(
            1 for b in range(4)
            if server[b * NFS_BLOCK_SIZE:(b + 1) * NFS_BLOCK_SIZE]
            != probe_payloads[i][b * NFS_BLOCK_SIZE:
                                 (b + 1) * NFS_BLOCK_SIZE])

    metrics: Dict = {
        "peers": n,
        "mode": spec.sessions.mode,
        "depth": spec.sessions.depth,
        "phases": phases,
        "total_sim_seconds": env.now,
        "wan_bytes_total": wan_bytes(),
        "integrity_ok": integrity_ok,
        "lost_writes": lost,
        "levels": _cascade_rows(sessions[0], cascade),
        "sim_signature": [round(p["makespan_s"], 9) for p in phases]
        + [round(env.now, 9)],
    }
    metrics.update(_peer_metrics(sessions))
    if injector is not None:
        metrics["fault_timeline"] = [list(entry)
                                     for entry in injector.timeline]
    return metrics


def _cascade_rows(session, cascade) -> List[Dict]:
    """Per-level block-cache stats, client first, keyed by tier."""
    stacks = [session.client_proxy] + [lvl.proxy for lvl in cascade]
    rows = []
    for tier, stack in enumerate(stacks, start=1):
        counters = stack.stats_snapshot().get("block-cache", {})
        hits = counters.get("block_cache_hits", 0)
        misses = counters.get("block_cache_misses", 0)
        rows.append({"level": tier, "hits": hits, "misses": misses,
                     "hit_ratio": (hits / (hits + misses)
                                   if hits + misses else 0.0)})
    return rows


def _peer_metrics(sessions) -> Dict:
    totals = {"peer_hits": 0, "peer_misses": 0, "peer_stale": 0,
              "peer_bytes": 0}
    present = False
    for session in sessions:
        layer = session.client_proxy.layer("peer-cache")
        if layer is None:
            continue
        present = True
        for key in totals:
            totals[key] += getattr(layer.stats, key)
    if not present:
        return {"peer_stats": None, "peer_hit_ratio": 0.0}
    served = (totals["peer_hits"] + totals["peer_misses"]
              + totals["peer_stale"])
    return {"peer_stats": totals,
            "peer_hit_ratio": (totals["peer_hits"] / served
                               if served else 0.0)}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _format_fleet(spec: ScenarioSpec, metrics: Dict) -> str:
    lines = [f"scenario {spec.name} ({spec.sessions.mode}, depth "
             f"{spec.sessions.depth}, {metrics['peers']} peer(s), "
             f"seed {spec.seed})"]
    lines.append("    phase              kind             makespan(s)"
                 "   WAN-MB")
    for row in metrics["phases"]:
        lines.append(f"    {row['phase']:<18} {row['kind']:<15}"
                     f" {row['makespan_s']:>11.2f}"
                     f" {row['wan_bytes'] / MB:>8.1f}")
    lines.append(f"  total {metrics['total_sim_seconds']:.2f}s sim, "
                 f"{metrics['wan_bytes_total'] / MB:.1f} MB over the WAN, "
                 f"{metrics['lost_writes']} lost write block(s)")
    return "\n".join(lines)


def _format_gates(rows: List[Dict]) -> str:
    lines = ["  gates:"]
    for row in rows:
        mark = "PASS" if row["ok"] else "FAIL"
        lines.append(f"    [{mark}] {row['name']}: {row['detail']}")
    return "\n".join(lines)


def run_spec(spec: ScenarioSpec, quick: bool = False) -> Tuple[Dict, str]:
    """Run a scenario; returns ``(report_envelope, formatted_text)``.

    The envelope's ``ok`` is the conjunction of its gates — the CLI
    turns ``not ok`` into exit code 1, uniformly for every scenario.
    """
    if quick:
        spec = spec.quicked()
    validate_gates(spec.gates)

    metrics = _run_fleet_once(spec)
    if any(g.name == "replay_identical" for g in spec.gates):
        metrics["replay_identical"] = _run_fleet_once(spec) == metrics
    text = _format_fleet(spec, metrics)

    gate_rows = evaluate_gates(spec.gates, metrics)
    envelope = {
        "schema_version": 1,
        "benchmark": "scenario",
        "scenario": spec.name,
        "kind": spec.kind,
        "driver": "fleet",
        "quick": bool(quick),
        "seed": spec.seed,
        "gates": gate_rows,
        "ok": all(row["ok"] for row in gate_rows),
        "metrics": metrics,
    }
    return envelope, text + "\n" + _format_gates(gate_rows)
