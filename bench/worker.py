"""One repetition of one workload, in a fresh single-threaded process.

``run.py`` spawns this once per repetition so every repetition pays
what a CLI user pays — imports, content generation and the
``RandomContent`` / ``CompressionModel`` memos all start cold — and
reads the single JSON line printed on stdout.
"""

import signal
import time
from array import array

_PROCESS_START = time.perf_counter()


class Calibrator:
    """Times a fixed pure-Python kernel every ``PERIOD`` seconds, on
    the measured thread itself, for the life of the process.

    This sandbox's speed drifts by up to 2x over minutes and bursts by
    +40 % for seconds at a time, so raw host seconds of the same work
    spread 30-50 % between runs.  The kernel slows down with the
    simulator, so ``calibrated()`` re-expresses an interval in seconds
    *at the reference speed*: each stretch between two ticks counts as
    its length times ``REFERENCE_S / kernel time around that tick``.  On a
    host running at reference speed the result equals wall seconds.
    Cost: about 2.5 % of the run, the same in every run.
    """

    PERIOD = 0.05
    ITERATIONS = 20_000
    #: kernel time on this sandbox in its fast state (Python 3.11)
    REFERENCE_S = 1.20e-3

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(self.ITERATIONS):
            total += i * i % 7
        now = time.perf_counter()
        self.at.append(now)
        self.took.append(now - start)

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._tick()

    def calibrated(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at reference speed."""
        import numpy as np
        at, took = np.frombuffer(self.at), np.frombuffer(self.took)
        n = len(took)
        # Running median over 11 ticks: one tick that was itself
        # interrupted must not discount its whole stretch.
        smooth = np.array([np.median(took[max(0, i - 5):i + 6])
                           for i in range(n)])
        ticks = np.flatnonzero((at > start) & (at < end))
        # Each stretch runs at the speed of the tick that ends it; the
        # tail at the speed of the first tick after ``end``.
        tail = min(int(np.searchsorted(at, end)), n - 1)
        edges = np.concatenate(([start], at[ticks], [end]))
        speed = self.REFERENCE_S / smooth[np.append(ticks, tail)]
        return float(np.sum(np.diff(edges) * speed))


CALIBRATOR = Calibrator()
CALIBRATOR.start()

import argparse      # noqa: E402
import json          # noqa: E402
import math          # noqa: E402
import os            # noqa: E402
import resource      # noqa: E402
import sys           # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
# Import ``bench.*`` as a package: the script directory must not shadow
# the standard library's ``trace`` module.
if sys.path[0] == HERE:
    sys.path[0] = REPO
if SRC not in sys.path:
    sys.path.insert(1, SRC)

MB = 1024 * 1024


def percentile(sorted_values, q: float) -> float:
    """Nearest rank: the smallest sample with at least ``q`` of the
    samples at or below it."""
    if not len(sorted_values):
        return 0.0
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return float(sorted_values[rank - 1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# Additive counters, read from public fields at both ends of the region
# --------------------------------------------------------------------------

def origin_links(wl, testbed) -> list:
    """The links a byte crosses to reach or leave the origin tier: the
    shared WAN segment, or — for the farm, which sits on site links and
    has no WAN hop — every data server's access-link pair."""
    farm = getattr(wl, "farm", None)
    if farm is None:
        return list(testbed.wan_segment)
    compute = testbed.compute[0]
    links = []
    for node in farm.data_servers:
        links.append(testbed.route(compute, node.host).links[-1])
        links.append(testbed.route(node.host, compute).links[0])
    return links


def origin_bytes(wl, rec) -> int:
    return sum(link.bytes_sent for testbed in rec.testbeds
               for link in origin_links(wl, testbed))


def read_counters(wl, rec) -> dict:
    """Flat additive counters (everything a ratio is later built from)."""
    from repro.core.layers.stack import registered_stacks
    from bench.trace import LAYER_NAMES, stack_tier

    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for stack in registered_stacks():
        tier = stack_tier(stack)
        if tier == "core.srv":
            continue
        snap = stack.stats_snapshot()
        add(f"{tier}.front.requests", snap["front"]["requests"])
        for role, counters in snap.items():
            layer = LAYER_NAMES.get(role)
            if layer is None:
                continue
            for name, value in counters.items():
                add(f"{tier}.{layer}.{name}", value)
        cache = stack.block_cache
        if cache is not None:
            add(f"{tier}.blocks.evictions", cache.evictions)
        channel = stack.channel
        if channel is not None and tier == "core":
            add("chan.bytes_on_wire", channel.bytes_on_wire)
            add("chan.bytes_logical", channel.bytes_logical)
            add("chan.scp_bytes", channel.scp.bytes_transferred)
    for session in rec.sessions:
        mount = session.mount
        add("client.rpcs", mount.rpc.stats.calls)
        add("client.rpc_wait", mount.rpc.stats.time_waiting)
        add("client.cache_hits", mount.cache.hits)
        add("client.cache_misses", mount.cache.misses)
    for client in rec.seen["rpc"]:
        add("rpc.retransmissions", client.stats.retransmissions)
        add("rpc.fast_failures", client.stats.fast_failures)
    for server in rec.seen["server"]:
        add("server.calls", server.calls)
    for link in rec.seen["link"]:
        kind = "wan" if link.name.startswith("abilene") else "lan"
        add(f"{kind}.bytes", link.bytes_sent)
        add(f"{kind}.messages", link.messages_sent)
        add(f"{kind}.busy", link.busy_time)
        add(f"{kind}.outages", link.outages)
    for disk in rec.seen["disk"]:
        kind = rec.names[disk._bench_span].rsplit(".", 1)[-1]
        add(f"{kind}.busy", disk.busy_time)
        add(f"{kind}.bytes", disk.bytes_read + disk.bytes_written)
        add(f"{kind}.seeks", disk.seeks)
    farm = getattr(wl, "farm", None)
    origins = ([node.host for node in farm.data_servers] if farm is not None
               else [testbed.wan_server for testbed in rec.testbeds])
    for host in origins:
        add("origin.pagecache_hits", host.local.cache_hits)
        add("origin.pagecache_misses", host.local.cache_misses)
    return out


# --------------------------------------------------------------------------
# Per-layer metrics (traced repetition only)
# --------------------------------------------------------------------------

#: host self-time groups: metric -> path prefixes under ``repro/``
HOST_GROUPS = {
    "sim.host_self_s": ("sim/",),
    "sim.engine.host_self_s": ("sim/engine.py",),
    "net.host_self_s": ("net/",),
    "storage.host_self_s": ("storage/",),
    "nfs.host_self_s": ("nfs/",),
    "core.host_self_s": ("core/",),
    "core.blockcache.host_self_s": ("core/blockcache.py",),
    "middleware.host_self_s": ("middleware/",),
    "vm.host_self_s": ("vm/",),
    "workloads.host_self_s": ("workloads/",),
    "scenario.host_self_s": ("scenario/",),
}


def layer_metrics(wl, rec, delta, mark, makespan, wall, sampler,
                  rpc_ms, rpc_proc, task_s) -> dict:
    import numpy as np

    wan, lan = rec.name_id("net.wan"), rec.name_id("net.lan")
    table, attribution_error, covered = rec.span_table(mark["spans"])
    m = {}

    def c(key):
        return delta.get(key, 0)

    def span(column, *names):
        return rec.sum_of(table, column, *names)

    # -- sim / host ---------------------------------------------------------
    shares = sampler.shares()
    for metric, prefixes in HOST_GROUPS.items():
        m[metric] = wall * sum(share for where, share in shares.items()
                               if where.startswith(prefixes))
    m["sim.engine.events"] = wl.env.events_scheduled - mark["events"]
    m["sim.faults.strikes"] = wl.fault_strikes

    # -- net -------------------------------------------------------------------
    m["net.wan.bytes"] = c("wan.bytes")
    m["net.wan.messages"] = c("wan.messages")
    m["net.wan.busy_s"] = c("wan.busy")
    m["net.wan.queue_wait_s"] = max(
        span("incl", "net.wan") - rec.ideal[wan] + mark["ideal"][wan], 0.0)
    m["net.wan.utilization"] = ratio(c("wan.busy"), 2 * makespan)
    m["net.wan.outages"] = c("wan.outages")
    m["net.lan.bytes"] = c("lan.bytes")
    m["net.lan.queue_wait_s"] = max(
        span("incl", "net.lan") - rec.ideal[lan] + mark["ideal"][lan], 0.0)
    m["net.scp.bytes"] = c("chan.scp_bytes")
    m["net.compress.ratio"] = ratio(c("chan.bytes_logical"),
                                    c("chan.bytes_on_wire"))

    # -- storage -----------------------------------------------------------
    for kind in ("origin_disk", "compute_disk"):
        m[f"storage.{kind}.busy_s"] = c(f"{kind}.busy")
        m[f"storage.{kind}.bytes"] = c(f"{kind}.bytes")
    m["storage.origin_disk.seeks"] = c("origin_disk.seeks")
    m["storage.origin_pagecache.hit_ratio"] = ratio(
        c("origin.pagecache_hits"),
        c("origin.pagecache_hits") + c("origin.pagecache_misses"))

    # -- nfs ---------------------------------------------------------------
    m["nfs.client.rpcs"] = c("client.rpcs")
    m["nfs.client.rpc_wait_sim_s"] = c("client.rpc_wait")
    by_proc = {}
    names = np.asarray(rpc_proc)
    for ident in np.unique(names):
        by_proc[rec.names[ident]] = np.sort(rpc_ms[names == ident])
    empty = np.zeros(0)
    meta = [v for k, v in by_proc.items() if k not in ("READ", "WRITE")]
    meta = np.sort(np.concatenate(meta)) if meta else empty
    every = np.sort(rpc_ms)
    m["nfs.client.rpc_p50_ms"] = percentile(every, 0.50)
    m["nfs.client.rpc_p99_ms"] = percentile(every, 0.99)
    m["nfs.client.read_p50_ms"] = percentile(by_proc.get("READ", empty), 0.50)
    m["nfs.client.read_p99_ms"] = percentile(by_proc.get("READ", empty), 0.99)
    m["nfs.client.write_p99_ms"] = percentile(by_proc.get("WRITE", empty),
                                              0.99)
    m["nfs.client.meta_p99_ms"] = percentile(meta, 0.99)
    m["nfs.client.buffercache_hit_ratio"] = ratio(
        c("client.cache_hits"),
        c("client.cache_hits") + c("client.cache_misses"))
    m["nfs.rpc.retransmissions"] = c("rpc.retransmissions")
    m["nfs.rpc.fast_failures"] = c("rpc.fast_failures")
    m["nfs.server.calls"] = c("server.calls")
    m["nfs.server.sim_incl_s"] = span("incl", "nfs.server")

    # -- core (client stacks summed over sessions; l2 = next level) ----------
    m["core.front.requests"] = c("core.front.requests")
    m["core.zeromap.zero_filtered_reads"] = c(
        "core.zeromap.zero_filtered_reads")
    m["core.zeromap.sim_self_s"] = span("self", "core.zeromap")
    m["core.filechannel.fetches"] = c("core.filechannel.channel_fetches")
    m["core.filechannel.file_cache_reads"] = c(
        "core.filechannel.file_cache_reads")
    m["core.filechannel.bytes_on_wire"] = c("chan.bytes_on_wire")
    m["core.filechannel.sim_self_s"] = span(
        "self", "core.filechannel", "core.filechannel.fetch")
    hits = c("core.blocks.block_cache_hits")
    misses = c("core.blocks.block_cache_misses")
    m["core.blocks.hits"] = hits
    m["core.blocks.misses"] = misses
    m["core.blocks.hit_ratio"] = ratio(hits, hits + misses)
    m["core.blocks.coalesced_misses"] = c("core.blocks.coalesced_misses")
    m["core.blocks.evictions"] = c("core.blocks.evictions")
    m["core.blocks.absorbed_writes"] = c("core.blocks.absorbed_writes")
    m["core.blocks.writebacks"] = c("core.blocks.writebacks")
    m["core.blocks.merged_write_rpcs"] = c("core.blocks.merged_write_rpcs")
    m["core.blocks.sim_self_s"] = span(
        "self", "core.blocks", "core.blockcache.lookup",
        "core.blockcache.insert_many", "core.blockcache.read_many")
    m["core.blocks.flush_sim_s"] = span("incl", "core.blocks.flush")
    issued = c("core.readahead.prefetch_issued")
    m["core.readahead.issued"] = issued
    m["core.readahead.used"] = c("core.readahead.prefetch_used")
    m["core.readahead.accuracy"] = ratio(m["core.readahead.used"], issued)
    m["core.degraded.reads"] = c("core.degraded.degraded_reads")
    m["core.degraded.write_rejects"] = c(
        "core.degraded.degraded_write_rejects")
    m["core.terminal.forwarded"] = c("core.terminal.forwarded")
    m["core.terminal.sim_incl_s"] = span("incl", "core.terminal")
    peer_hits, peer_misses = c("core.peers.peer_hits"), c(
        "core.peers.peer_misses")
    m["core.peers.hits"] = peer_hits
    m["core.peers.misses"] = peer_misses
    m["core.peers.hit_ratio"] = ratio(
        peer_hits, peer_hits + peer_misses + c("core.peers.peer_stale"))
    m["core.peers.stale"] = c("core.peers.peer_stale")
    m["core.peers.bytes"] = c("core.peers.peer_bytes")
    m["core.checksum.verified"] = c("core.checksum.crcs_verified")
    m["core.checksum.repaired"] = c("core.checksum.corruptions_repaired")
    l2_hits = c("core.l2.blocks.block_cache_hits")
    l2_misses = c("core.l2.blocks.block_cache_misses")
    m["core.l2.hits"] = l2_hits
    m["core.l2.misses"] = l2_misses
    m["core.l2.hit_ratio"] = ratio(l2_hits, l2_hits + l2_misses)
    m["core.l2.demotions_in"] = c("core.l2.blocks.demotions_in")

    # -- middleware (zero where there is no farm) --------------------------
    farm = getattr(wl, "farm", None)
    snap = farm.farm_snapshot() if farm is not None else None
    calls = [s["calls"] for s in snap["servers"].values()] if snap else []
    clients = snap["clients"] if snap else {}
    m["middleware.farm.calls_max_share"] = ratio(max(calls, default=0),
                                                 sum(calls))
    m["middleware.farm.failovers"] = sum(
        clients.get(key, 0) for key in
        ("failovers", "aborted_attempts", "degraded_reads",
         "channel_failovers", "aborted_fetches"))
    recovery = snap["recovery"] if snap else []
    m["middleware.farm.rereplicated_ranges"] = sum(
        r["ranges_rebuilt"] for r in recovery)
    m["middleware.farm.recovery_sim_s"] = sum(
        r.get("seconds", 0.0) for r in recovery)
    m["middleware.farm.lost_acked_writes"] = (
        farm.audit_acknowledged_writes()["lost_blocks"] if farm else 0)
    m["middleware.sessions.create_p50_sim_s"] = percentile(
        rec.span_durations("middleware.sessions.create", mark["spans"]), 0.50)

    # -- user tasks and vm ---------------------------------------------------
    m["tasks.count"] = len(task_s)
    m["tasks.p50_sim_s"] = percentile(task_s, 0.50)
    clones = rec.results["clone"][mark["clones"]:]
    m["vm.clone.copy_memory_sim_s"] = sum(
        phases["copy_memory"] for phases in clones)
    m["vm.clone.resume_sim_s"] = sum(
        phases.get("resume", 0.0) for phases in clones)
    m["vm.migration.downtime_max_sim_s"] = max(
        rec.results["migration"], default=0.0)

    # -- the trace itself ------------------------------------------------------
    m["trace.spans"] = len(rec.s_name) - mark["spans"]
    m["trace.coverage"] = ratio(covered, makespan)
    m["trace.attribution_error"] = attribution_error
    return m


# --------------------------------------------------------------------------
# The repetition
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    import numpy as np
    from repro.core.layers.stack import enable_stack_reports
    from bench.trace import HostSampler, Recorder
    from bench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    rec = Recorder(spans=bool(args.spans))
    rec.install_boundary(task_points=cls.task_points)
    if args.spans:
        rec.install_layers()
    enable_stack_reports()
    wl = cls(args.seed, rec, smoke=bool(args.smoke))
    wl.setup()

    # ---- the timed region ---------------------------------------------------
    mark = rec.mark()
    mark["clones"] = len(rec.results["clone"])
    mark["ideal"] = rec.ideal.copy()
    mark["events"] = wl.env.events_scheduled if wl.env is not None else 0
    sim_start = wl.env.now if wl.env is not None else 0.0
    wan_start = origin_bytes(wl, rec)
    before = read_counters(wl, rec) if args.spans else {}
    sampler = HostSampler(os.path.join(SRC, "repro"), HERE)
    if args.spans:
        sampler.start()
    timed_start = time.perf_counter()
    wl.run()
    timed_end = time.perf_counter()
    wall = timed_end - timed_start
    if args.spans:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    CALIBRATOR.stop()
    # --------------------------------------------------------------------------

    env = wl.env
    makespan = env.now - sim_start
    events = env.events_scheduled - mark["events"]
    tasks = rec.tasks[mark["tasks"]:]
    task_s = sorted(done - arrival for _, arrival, done in tasks)
    rpc_ms = np.asarray(rec.rpc_ms[mark["rpcs"]:])
    checks = wl.checks()

    rpc_failed = rec.rpc_failed - mark["rpc_failed"]
    out = {
        "workload": wl.name, "seed": args.seed, "spans": bool(args.spans),
        "host": {
            "setup_s": CALIBRATOR.calibrated(_PROCESS_START, timed_start),
            "wall_s": CALIBRATOR.calibrated(timed_start, timed_end),
            "peak_rss_mb": peak_rss_mb},
        # Uncalibrated seconds, for the reader; never compared.
        "raw": {"setup_s": timed_start - _PROCESS_START, "wall_s": wall},
        "sim": {
            "sim_makespan_s": makespan,
            "sim_task_mean_s": ratio(sum(task_s), len(task_s)),
            "sim_task_max_s": task_s[-1] if task_s else 0.0,
            "sim_rpc_mean_ms": ratio(float(rpc_ms.sum()), len(rpc_ms)),
            "sim_wan_mb": (origin_bytes(wl, rec) - wan_start) / MB,
        },
        "counts": {"rpcs": len(rpc_ms), "tasks": len(tasks),
                   "events": events,
                   "ops": len(rpc_ms) + len(tasks) + wl.extra_ops,
                   "ops_failed": rpc_failed + wl.extra_failed},
        # Everything a traced repetition must reproduce bit for bit.
        "replay_exact": wl.replay_exact,
        "signature": [[kind, done - arrival] for kind, arrival, done in tasks]
        + [["makespan", makespan], ["events", events]],
        "checks": [[what, bool(ok), detail] for what, ok, detail in checks],
    }
    if args.spans:
        after = read_counters(wl, rec)
        delta = {key: value - before.get(key, 0)
                 for key, value in after.items()}
        out["layers"] = layer_metrics(
            wl, rec, delta, mark, makespan, out["host"]["wall_s"], sampler,
            rpc_ms, rec.rpc_proc[mark["rpcs"]:], task_s)
        if args.trace_out:
            rec.chrome_trace(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        # A timer left armed would kill the exiting interpreter once its
        # handlers are gone, and hide the real error behind a signal.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.setitimer(signal.ITIMER_PROF, 0.0)
    sys.exit(status)
