"""Observation from outside: boundary probes, layer spans, host sampler.

Nothing under ``src/`` is edited.  In the bench worker process only,
public entry points are rebound at class level (or, for a session's
kernel-client RPC hop, on the instance) with generator wrappers that
delegate through ``yield from`` — which adds **zero** simulation
events, so a traced run's simulated results are bit-identical to an
untraced run's (the runner checks this: ``trace.sim_identical``).

Two levels:

* the **boundary** (always on) is what a load generator would see: the
  latency and status of every RPC a session's kernel NFS client issues
  (``session.mount.rpc``), the WRITE bytes it was acknowledged (for the
  post-flush audit), and user-task completions.  End-to-end metrics
  come from here.
* the **layers** (``--trace 1`` only) record one span per call into
  each layer — ``(name, sim start, sim end, parent, request id)`` kept
  in columnar arrays and reduced once at exit — plus a CPU-time
  sampling profiler that charges host time to source files.

Wrappers never retain a yielded event: the engine recycles a fired
``Timeout`` only when ``sys.getrefcount(event) == 2``, so a stray
reference would silently change pool behaviour and host time.
"""

from __future__ import annotations

import json
import math
import signal
import zlib
from array import array
from collections import Counter, defaultdict

import numpy as np

BLOCK = 8192

#: ``ProxyLayer.ROLE`` -> the short layer name used in metric names.
LAYER_NAMES = {
    "attr-patch": "attrs", "metadata": "zeromap", "checksum": "checksum",
    "file-channel": "filechannel", "block-cache": "blocks",
    "readahead": "readahead", "fault-guard": "degraded",
    "peer-cache": "peers", "upstream-rpc": "terminal",
}


def stack_tier(stack) -> str:
    """``core`` for a session's client proxy, ``core.srv`` for the
    server-side forwarding proxy, ``core.l2`` for any cascade level in
    between."""
    name = stack.config.name
    if name.endswith(".client-proxy"):
        return "core"
    if name.endswith(".server-proxy"):
        return "core.srv"
    return "core.l2"


class Recorder:
    """Everything one worker process observes."""

    def __init__(self, spans: bool = False):
        self.spans_on = spans
        # -- boundary ------------------------------------------------------
        self.sessions = []            # every GvfsSession built
        self.testbeds = []            # every Testbed a session was built on
        self.rpc_proc = array("i")    # per kernel-client RPC: proc name id
        self.rpc_ms = array("d")      #   ... simulated latency, ms
        self.rpc_failed = 0           # timeouts / IO errors the guest saw
        self.acked = {}               # (fsid, fileid, block) -> (len, crc32)
        self.tasks = []               # (kind, sim arrival, sim ready)
        self.results = defaultdict(list)   # task kind -> what a call returned
        self._task_nesting = {}       # id(process) -> open task calls
        # -- spans -----------------------------------------------------------
        self.names = []
        self._name_ids = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_root = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._open = {}               # id(process) -> stack of open spans
        self.ideal = defaultdict(float)    # link name id -> unloaded seconds
        self.seen = defaultdict(list)      # kind -> objects first seen traced

    # ------------------------------------------------------------------ names
    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    # ------------------------------------------------------------------ spans
    def begin(self, name: int, now: float, pid: int) -> int:
        idx = len(self.s_name)
        stack = self._open.get(pid)
        if stack is None:
            self._open[pid] = [idx]
            parent, root = -1, idx
        else:
            parent = stack[-1]
            root = self.s_root[parent]
            stack.append(idx)
        self.s_name.append(name)
        self.s_parent.append(parent)
        self.s_root.append(root)
        self.s_start.append(now)
        self.s_end.append(math.nan)
        return idx

    def finish(self, idx: int, now: float, pid: int) -> None:
        self.s_end[idx] = now
        self._close(idx, pid)

    def _close(self, idx: int, pid: int) -> None:
        """Pop ``idx`` (left NaN-ended when its generator was discarded
        rather than finished — a parked process collected at exit)."""
        stack = self._open.get(pid)
        if not stack:
            return
        if stack[-1] == idx:            # the usual case: properly nested
            stack.pop()
        elif idx in stack:
            del stack[stack.index(idx):]
        if not stack:
            del self._open[pid]

    def traced(self, orig, span_name, env_of=None, after=None, task=None):
        """A generator wrapper around ``orig`` recording one span per
        call; ``span_name(self)`` returns a name id and ``after(self,
        result)`` sees a finished call.  ``task`` names a user-task
        kind: the call is then also recorded as a task unless it ran
        nested inside another task of the same process (a migration's
        inner clone, a clone's inner resume)."""
        rec = self
        nesting = rec._task_nesting

        def wrapper(self, *args, **kwargs):
            env = self.env if env_of is None else env_of(self, args)
            pid = id(env.active_process)
            start = env.now
            idx = rec.begin(span_name(self), start, pid) \
                if rec.spans_on else -1
            if task is not None:
                outer = nesting[pid] = nesting.get(pid, 0) + 1
            try:
                result = yield from orig(self, *args, **kwargs)
            except GeneratorExit:
                if idx >= 0:
                    rec._close(idx, pid)
                raise
            except BaseException:
                if idx >= 0:
                    rec.finish(idx, env.now, pid)
                raise
            finally:
                if task is not None:
                    if outer == 1:
                        del nesting[pid]
                    else:
                        nesting[pid] = outer - 1
            if idx >= 0:
                rec.finish(idx, env.now, pid)
            if task is not None and outer == 1:
                rec.tasks.append((task, start, env.now))
            if after is not None:
                after(self, result)
            return result

        wrapper.__name__ = getattr(orig, "__name__", "wrapper")
        wrapper.__wrapped__ = orig
        return wrapper

    def cached_name(self, describe, kind=None):
        """``span_name`` callable caching the name id on the instance;
        with ``kind``, the first sighting also registers the object in
        ``seen[kind]`` (how links, disks, servers and RPC clients built
        deep inside the program are found for their counters)."""
        rec = self

        def span_name(obj):
            try:
                return obj._bench_span
            except AttributeError:
                ident = obj._bench_span = rec.name_id(describe(obj))
                if kind is not None:
                    rec.seen[kind].append(obj)
                return ident
        return span_name

    # --------------------------------------------------------------- boundary
    def install_boundary(self, task_points: bool = False) -> None:
        """Register sessions as they are built and probe each one's
        kernel-client RPC hop.  ``task_points`` also records user tasks
        from the public entry points (for workloads driven by
        ``run_spec``, whose tasks are not visible to the caller)."""
        from repro.core.session import GvfsSession
        from repro.vm.cloning import CloneManager

        rec = self
        build = GvfsSession.build.__func__

        def registering_build(cls, testbed, *args, **kwargs):
            session = build(cls, testbed, *args, **kwargs)
            rec.sessions.append(session)
            if testbed not in rec.testbeds:
                rec.testbeds.append(testbed)
            rpc = getattr(session.mount, "rpc", None)
            if rpc is not None:
                rec._probe_mount_rpc(rpc)
            return session

        GvfsSession.build = classmethod(registering_build)

        # Keep the numbers, not the result objects (they hold live VMs).
        def keep_phases(obj, result):
            rec.results["clone"].append(result.phases)

        def keep_downtime(obj, result):
            rec.results["migration"].append(result.downtime_seconds)

        def tasked(kind):
            return kind if task_points else None

        # Clone results carry the per-phase split (copy_memory / resume).
        CloneManager.clone = self.traced(
            CloneManager.clone, self.cached_name(lambda o: "vm.clone"),
            after=keep_phases, task=tasked("clone"))
        if task_points:
            from repro.vm.migration import MigrationManager
            from repro.vm.monitor import VmMonitor
            from repro.workloads.base import Workload
            MigrationManager.migrate = self.traced(
                MigrationManager.migrate,
                self.cached_name(lambda o: "vm.migration"),
                after=keep_downtime, task="migration")
            VmMonitor.resume = self.traced(
                VmMonitor.resume,
                self.cached_name(lambda o: "vm.resume"),
                task="resume")
            Workload.run = self.traced(
                Workload.run,
                self.cached_name(lambda o: "workloads.run"),
                env_of=lambda obj, args: args[0].env, task="trace_load")

    def _probe_mount_rpc(self, rpc) -> None:
        """Rebind ``rpc.call`` on this one instance: latency, status and
        acknowledged WRITE bytes of every kernel-client RPC."""
        from repro.nfs.protocol import NfsProc, NfsStatus
        from repro.nfs.rpc import RpcTimeout

        rec = self
        orig = rpc.call                       # bound method
        env = rpc.env
        span = rec.name_id("nfs.client.rpc")
        proc_ids = {}

        def call(request, deadline=None):
            pid = id(env.active_process)
            start = env.now
            idx = rec.begin(span, start, pid) if rec.spans_on else -1
            try:
                reply = yield from orig(request, deadline)
            except GeneratorExit:
                if idx >= 0:
                    rec._close(idx, pid)
                raise
            except BaseException as exc:
                if idx >= 0:
                    rec.finish(idx, env.now, pid)
                if isinstance(exc, RpcTimeout):
                    rec.rpc_failed += 1
                raise
            now = env.now
            if idx >= 0:
                rec.finish(idx, now, pid)
            proc = request.proc
            ident = proc_ids.get(proc)
            if ident is None:
                ident = proc_ids[proc] = rec.name_id(proc.name)
            rec.rpc_proc.append(ident)
            rec.rpc_ms.append((now - start) * 1e3)
            if reply.status is NfsStatus.IO:
                rec.rpc_failed += 1
            elif proc is NfsProc.WRITE and reply.status is NfsStatus.OK:
                rec._note_acked_write(request)
            return reply

        rpc.call = call

    def _note_acked_write(self, request) -> None:
        """Remember the last acknowledged content of every whole block
        a WRITE covered (block-aligned, as the kernel client issues
        them); :func:`audit_acked_writes` diffs these against origin."""
        data, offset, fh = request.data, request.offset, request.fh
        if offset % BLOCK:
            return
        first = offset // BLOCK
        if len(data) <= BLOCK:
            self.acked[(fh.fsid, fh.fileid, first)] = (
                len(data), zlib.crc32(data))
            return
        view = memoryview(data)
        for i in range(0, len(data), BLOCK):
            chunk = view[i:i + BLOCK]
            self.acked[(fh.fsid, fh.fileid, first + i // BLOCK)] = (
                len(chunk), zlib.crc32(chunk))

    def mark(self) -> dict:
        """Positions separating set-up traffic from the timed region."""
        return {"rpcs": len(self.rpc_ms), "tasks": len(self.tasks),
                "spans": len(self.s_name), "rpc_failed": self.rpc_failed}

    # ----------------------------------------------------------------- layers
    def install_layers(self) -> None:
        """Rebind every layer's public entry point with a span wrapper."""
        from repro.core.blockcache import ProxyBlockCache
        from repro.core.channel import CascadedFileChannel, FileChannel
        from repro.core.layers.base import ProxyLayer
        from repro.core.layers.stack import ProxyStack
        from repro.middleware.farm import FarmOriginClient
        from repro.middleware.sessions import VmSessionManager
        from repro.net.link import Link
        from repro.nfs.rpc import LoopbackTransport, RpcClient
        from repro.nfs.server import NfsServer
        from repro.storage.disk import Disk
        from repro.storage.localfs import LocalFileSystem

        def rebind(cls, attr, describe, kind=None):
            setattr(cls, attr, self.traced(
                cls.__dict__[attr], self.cached_name(describe, kind)))

        rebind(ProxyStack, "handle", lambda s: f"{stack_tier(s)}.front")

        def layer_name(layer):
            return (f"{stack_tier(layer.stack)}."
                    f"{LAYER_NAMES.get(layer.ROLE, layer.ROLE)}")

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in [ProxyLayer, *subclasses(ProxyLayer)]:
            if "handle" in cls.__dict__:
                rebind(cls, "handle", layer_name)
            if "flush" in cls.__dict__ and cls is not ProxyLayer:
                # Second span name on the same object: not cached (rare).
                cls.flush = self.traced(
                    cls.__dict__["flush"],
                    lambda layer: self.name_id(layer_name(layer) + ".flush"))

        def rpc_name(client):
            hop = ("loop" if isinstance(client.out, LoopbackTransport)
                   else "net")
            return f"nfs.rpc.{hop}"

        rpc_span = self.cached_name(rpc_name, "rpc")
        traced_call = self.traced(RpcClient.__dict__["call"], rpc_span)
        plain_call = RpcClient.__dict__["call"]

        def call(client, request, deadline=None):
            # A probed mount hop already records its own span.
            if "call" in client.__dict__:
                return plain_call(client, request, deadline)
            return traced_call(client, request, deadline)
        RpcClient.call = call

        ideal = self.ideal
        link_span = self.cached_name(
            lambda l: "net.wan" if l.name.startswith("abilene")
            else "net.lan", "link")
        traced_transmit = self.traced(Link.__dict__["transmit"], link_span)

        def transmit(link, nbytes):
            # Unloaded time of this message; span time beyond it is
            # queueing (or an outage stall).
            ideal[link_span(link)] += (link.serialization_delay(nbytes)
                                       + link.latency)
            return traced_transmit(link, nbytes)
        Link.transmit = transmit

        rebind(NfsServer, "handle", lambda s: "nfs.server", "server")
        rebind(FileChannel, "fetch", lambda c: "core.filechannel.fetch")
        rebind(CascadedFileChannel, "fetch",
               lambda c: "core.filechannel.fetch")
        for op in ("lookup", "insert_many", "read_many"):
            # One name per (object, op): cache per op, not on the object.
            ident = self.name_id(f"core.blockcache.{op}")
            setattr(ProxyBlockCache, op, self.traced(
                ProxyBlockCache.__dict__[op], lambda c, ident=ident: ident))

        def disk_name(disk):
            host = disk.name
            if host.startswith("compute"):
                return "storage.compute_disk"
            if host.startswith(("wan-image-server", "data-server")):
                return "storage.origin_disk"
            return "storage.other_disk"
        disk_span = self.cached_name(disk_name, "disk")
        for op in ("read", "write"):
            setattr(Disk, op, self.traced(Disk.__dict__[op], disk_span))
        read_id = self.name_id("storage.localfs.read")
        write_id = self.name_id("storage.localfs.write")
        LocalFileSystem.timed_scan_inode = self.traced(
            LocalFileSystem.__dict__["timed_scan_inode"],
            lambda fs: read_id)
        LocalFileSystem.timed_write_inode = self.traced(
            LocalFileSystem.__dict__["timed_write_inode"],
            lambda fs: write_id)

        rebind(FarmOriginClient, "dispatch",
               lambda c: "middleware.farm.dispatch")
        rebind(VmSessionManager, "create_session",
               lambda m: "middleware.sessions.create")

    # -------------------------------------------------------------- reduction
    def span_table(self, first: int = 0):
        """Per-name reductions over spans ``first..``: count, inclusive
        and self seconds (self = span minus same-process child spans),
        plus the share of kernel-client RPC roots whose subtree self
        times fail to add up to the root's inclusive time."""
        n = len(self.s_name)
        name = np.frombuffer(self.s_name, dtype=np.intc)[first:]
        parent = np.frombuffer(self.s_parent, dtype=np.intc)[first:] - first
        root = np.frombuffer(self.s_root, dtype=np.intc)[first:] - first
        start = np.frombuffer(self.s_start, dtype=np.float64)[first:]
        end = np.frombuffer(self.s_end, dtype=np.float64)[first:]
        done = ~np.isnan(end)
        dur = np.where(done, end - start, 0.0)
        m = n - first
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=m) if m else np.zeros(0)
        self_s = dur - child
        k = len(self.names)
        table = {
            "count": np.bincount(name[done], minlength=k),
            "incl": np.bincount(name, weights=dur, minlength=k),
            "self": np.bincount(name, weights=self_s, minlength=k),
        }
        # Attribution check under kernel-client RPC roots.
        rpc = self._name_ids.get("nfs.client.rpc")
        worst = 0.0
        if rpc is not None and m:
            in_tree = root >= 0
            by_root = np.bincount(root[in_tree], weights=self_s[in_tree],
                                  minlength=m)
            roots = np.flatnonzero((parent < 0) & (name == rpc) & done)
            if len(roots):
                incl = dur[roots]
                err = np.abs(by_root[roots] - incl)
                scale = np.maximum(incl, 1e-12)
                worst = float(np.max(err / scale))
        # Coverage: union of root-span intervals.
        covered = 0.0
        top = np.flatnonzero((parent < 0) & done)
        if len(top):
            order = np.argsort(start[top], kind="stable")
            s, e = start[top][order], end[top][order]
            reach = np.maximum.accumulate(e)
            gap_start = np.concatenate(([True], s[1:] > reach[:-1]))
            seg_start = s[gap_start]
            seg_end = np.concatenate((reach[:-1][gap_start[1:]], reach[-1:]))
            covered = float(np.sum(seg_end - seg_start))
        return table, worst, covered

    def span_durations(self, name: str, first: int = 0):
        """Sorted durations of the finished spans called ``name``."""
        ident = self._name_ids.get(name)
        names = np.frombuffer(self.s_name, dtype=np.intc)[first:]
        start = np.frombuffer(self.s_start, dtype=np.float64)[first:]
        end = np.frombuffer(self.s_end, dtype=np.float64)[first:]
        pick = (names == ident) & ~np.isnan(end)
        return np.sort(end[pick] - start[pick])

    def sum_of(self, table, column: str, *names: str) -> float:
        total = 0.0
        for name in names:
            ident = self._name_ids.get(name)
            if ident is not None:
                total += float(table[column][ident])
        return total

    def chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace JSON (one complete event per
        span; ``tid`` is the request id = root span of the same process;
        timestamps are simulated microseconds)."""
        with open(path, "w") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            first = True
            for i in range(len(self.s_name)):
                end = self.s_end[i]
                if end != end:          # NaN: never finished
                    continue
                if not first:
                    out.write(",\n")
                first = False
                out.write(json.dumps({
                    "name": self.names[self.s_name[i]], "ph": "X",
                    "pid": 1, "tid": self.s_root[i],
                    "ts": self.s_start[i] * 1e6,
                    "dur": (end - self.s_start[i]) * 1e6,
                    "args": {"span": i, "parent": self.s_parent[i]}}))
            out.write("\n]}\n")


class HostSampler:
    """CPU-time sampling profiler: every ``interval`` seconds of process
    CPU time, charge one sample to the innermost frame that belongs to
    ``repro`` or to the benchmark.  Costs a few percent, unlike a
    deterministic profiler, so it can share the traced pass."""

    def __init__(self, repro_root: str, bench_root: str,
                 interval: float = 0.002):
        self.repro_root = repro_root
        self.bench_root = bench_root
        self.interval = interval
        self.samples = Counter()
        self._where = {}

    def _classify(self, filename: str):
        if filename.startswith(self.repro_root):
            return filename[len(self.repro_root):].lstrip("/")
        if filename.startswith(self.bench_root):
            return "<bench>"
        return None

    def _tick(self, signum, frame) -> None:
        where_of = self._where
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                where = where_of[filename]
            except KeyError:
                where = where_of[filename] = self._classify(filename)
            if where is not None:
                self.samples[where] += 1
                return
            frame = frame.f_back
        self.samples["<other>"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def shares(self) -> dict:
        """Share of samples per source file (relative to ``repro/``)."""
        total = sum(self.samples.values())
        return {where: count / total
                for where, count in self.samples.items()} if total else {}
