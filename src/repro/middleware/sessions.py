"""VM-session orchestration: the middleware loop of §2.

Ties the substrate together the way In-VIGO does: a user asks for an
execution environment; middleware leases a logical account, matches a
golden image, builds a GVFS session to the image server, clones the
image to a compute server, and hands back a live VM.  At session end it
signals the proxies to write back (middleware-driven consistency) and
releases the lease.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.core.consistency import ConsistencySignal, MiddlewareConsistency
from repro.core.session import GvfsSession, LocalMount, Scenario, ServerEndpoint
from repro.middleware.accounts import AccountManager, LogicalAccount
from repro.middleware.imageserver import ImageCatalog, ImageRequirements
from repro.net.topology import Testbed
from repro.vm.cloning import CloneManager, CloneResult
from repro.vm.image import VmImage
from repro.vm.monitor import VirtualMachine, VmMonitor

__all__ = ["VmSession", "VmSessionManager"]


@dataclass
class VmSession:
    """One user's live VM session."""

    user: str
    account: LogicalAccount
    image: VmImage
    gvfs: GvfsSession
    vm: Optional[VirtualMachine]
    clone: CloneResult
    compute_index: int
    #: The user's data-server session (None if no data server is wired).
    data_session: Optional[GvfsSession] = None
    closed: bool = False


class VmSessionManager:
    """Middleware front door: create and tear down VM sessions.

    When a ``data_endpoint`` is configured (Figure 1's data servers —
    "data management for both virtual machine images and user file
    systems"), each session also mounts the user's home directory from
    the data server and attaches it inside the VM, as the In-VIGO
    virtual workspace does (§2).
    """

    def __init__(self, testbed: Testbed,
                 endpoint: Optional[ServerEndpoint] = None,
                 scenario: Scenario = Scenario.WAN_CACHED,
                 data_endpoint: Optional[ServerEndpoint] = None,
                 account_pool_size: int = 16,
                 origin=None):
        self.testbed = testbed
        self.env = testbed.env
        self.scenario = scenario
        # ``origin`` (an ImageFarm, or any object with the same session
        # protocol) replaces the single image server with the replicated
        # data-server farm: sessions resolve their misses through it, and
        # its catalog (on the first replica, mirrored to the rest) becomes
        # the image catalog of record.
        self.origin = origin
        if origin is not None:
            if endpoint is not None:
                raise ValueError("endpoint and origin are mutually exclusive")
            self.endpoint = origin.endpoint
            self.catalog = origin.catalog
        else:
            self.endpoint = endpoint or ServerEndpoint(self.env,
                                                       testbed.wan_server)
            self.catalog = ImageCatalog(self.endpoint.export.fs)
        self.data_endpoint = data_endpoint
        # The logical-account pool bounds concurrent sessions; fleet
        # workloads size it to their expected peak.
        self.accounts = AccountManager(self.env,
                                       pool_size=account_pool_size)
        self.consistency = MiddlewareConsistency(self.env)
        self._next_compute = 0
        self._session_seq = 0
        self.sessions: List[VmSession] = []

    def provision_user_home(self, user: str) -> str:
        """Create the user's home tree on the data server (idempotent)."""
        if self.data_endpoint is None:
            raise RuntimeError("no data server configured")
        home = f"/home/{user}"
        fs = self.data_endpoint.export.fs
        if not fs.exists(home):
            fs.mkdir(home, parents=True)
        return home

    def _pick_compute(self) -> int:
        index = self._next_compute % len(self.testbed.compute)
        self._next_compute += 1
        return index

    def create_session(self, user: str, requirements: ImageRequirements,
                       compute_index: Optional[int] = None) -> Generator:
        """Process: build a complete session; returns :class:`VmSession`.

        Steps: lease identity -> match golden image -> wire GVFS ->
        clone -> resume.  The returned session's ``vm`` is live.
        """
        account = self.accounts.lease(user)
        image = self.catalog.best_match(requirements)
        index = (self._pick_compute() if compute_index is None
                 else compute_index)
        gvfs = GvfsSession.build(self.testbed, self.scenario,
                                 endpoint=None if self.origin else
                                 self.endpoint,
                                 compute_index=index, origin=self.origin)
        compute = self.testbed.compute[index]
        monitor = VmMonitor(self.env, compute)
        manager = CloneManager(self.env, monitor, gvfs.mount,
                               LocalMount(compute.local))
        self._session_seq += 1
        clone_name = f"{user}-vm{self._session_seq}"
        clone = yield self.env.process(manager.clone(
            image.directory, f"/sessions/{clone_name}",
            clone_name=clone_name))
        data_session = None
        if self.data_endpoint is not None and clone.vm is not None:
            home = self.provision_user_home(user)
            data_session = GvfsSession.build(
                self.testbed, self.scenario, endpoint=self.data_endpoint,
                compute_index=index)
            clone.vm.attach_user_data(data_session.mount, home)
        session = VmSession(user=user, account=account, image=image,
                            gvfs=gvfs, vm=clone.vm, clone=clone,
                            compute_index=index, data_session=data_session)
        self.sessions.append(session)
        return session

    def end_session(self, session: VmSession) -> Generator:
        """Process: flush session state and release the identity lease.

        The consistency point is middleware-driven: dirty write-back
        data (redo logs, user files) reaches the image server before
        the lease is released.
        """
        if session.closed:
            raise RuntimeError("session already closed")
        yield self.env.process(session.gvfs.flush())
        if session.data_session is not None:
            yield self.env.process(session.data_session.flush())
            if session.data_session.client_proxy is not None:
                yield self.env.process(self.consistency.signal(
                    session.data_session.client_proxy,
                    ConsistencySignal.FLUSH))
        if session.gvfs.client_proxy is not None:
            yield self.env.process(self.consistency.signal(
                session.gvfs.client_proxy, ConsistencySignal.FLUSH))
        self.accounts.release(session.user)
        if session.vm is not None:
            session.vm.running = False
        session.closed = True

    @property
    def active_sessions(self) -> int:
        return sum(1 for s in self.sessions if not s.closed)

    # ---------------------------------------------------------------- telemetry
    def session_telemetry(self, deep: bool = True) -> List[dict]:
        """Per-session proxy telemetry, one entry per session.

        Surfaces each session's per-layer
        ``stats_snapshot(deep=deep)`` — with ``deep=True`` the
        snapshot descends the whole cascade (intermediate cache levels
        and the server-side forwarding proxy included), so middleware
        sees exactly where every session's requests were absorbed.
        Sessions without a client proxy (LAN/WAN uncached) report only
        their identity fields.
        """
        entries = []
        for index, session in enumerate(self.sessions):
            entry: dict = {"session": index, "user": session.user,
                           "compute_index": session.compute_index,
                           "closed": session.closed}
            if session.gvfs.client_proxy is not None:
                entry["layers"] = session.gvfs.client_proxy.stats_snapshot(
                    deep=deep)
            if (session.data_session is not None
                    and session.data_session.client_proxy is not None):
                entry["data_layers"] = (
                    session.data_session.client_proxy.stats_snapshot(deep=deep))
            entries.append(entry)
        return entries

    def fleet_snapshot(self, deep: bool = True) -> dict:
        """The manager-level telemetry document: per-session snapshots
        plus fleet-wide per-layer counter totals (upstream levels
        excluded from the totals — shared cascade levels would be
        double-counted per session)."""
        sessions = self.session_telemetry(deep=deep)
        totals: Dict[str, Dict[str, int]] = {}
        for entry in sessions:
            for role, counters in entry.get("layers", {}).items():
                if role == "upstream":
                    continue
                bucket = totals.setdefault(role, {})
                for key, value in counters.items():
                    if isinstance(value, dict):
                        continue   # per-session detail, not a counter
                    bucket[key] = bucket.get(key, 0) + value
        return {"sessions": len(self.sessions),
                "active_sessions": self.active_sessions,
                "per_session": sessions,
                "layer_totals": totals}

    def format_fleet_report(self, deep: bool = True) -> str:
        """Human-readable fleet telemetry (the CLI's ``--fleet-report``)."""
        snap = self.fleet_snapshot(deep=deep)
        lines = [f"fleet: {snap['sessions']} session(s), "
                 f"{snap['active_sessions']} active"]
        for role, counters in snap["layer_totals"].items():
            shown = {k: v for k, v in counters.items() if v}
            body = ("  ".join(f"{k}={v}" for k, v in shown.items())
                    if shown else "(idle)")
            lines.append(f"  {role:<14} {body}")
        return "\n".join(lines)
