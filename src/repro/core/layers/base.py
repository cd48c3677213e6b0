"""The uniform layer interface of the composable GVFS proxy stack.

Each of the paper's user-level extensions — attribute patching,
meta-data interpretation, the file-based data channel, the block-based
disk cache, readahead, degraded-mode fault handling — is one
:class:`ProxyLayer` in a :class:`~repro.core.layers.stack.ProxyStack`.
A layer sees the same NFS RPC protocol on both faces: ``handle`` takes
a request and returns a reply, either served locally or delegated to
``self.next`` (the layer below it, closer to the upstream server).

The layer contract:

* ``handle(request)`` is a simulation *process* (generator).  The
  default implementation is a pure pass-through — ``yield from
  self.next.handle(request)`` — which adds **zero** simulation events,
  so interposing a pass-through layer never perturbs timing.
* The lifecycle hooks mirror the middleware operations of the
  monolithic proxy: ``flush`` (write dirty state upstream), ``crash``
  (synchronous: lose in-memory state, release any gates), ``recover``
  (process: rebuild state from persistent journals), ``quiesce``
  (process: wait out in-flight fetches), and ``invalidate`` (drop
  clean cached state).  ``invalidate_guard`` lets a layer veto an
  invalidation that would race in-flight work.  Defaults are no-ops
  that add no events.
* Per-layer counters live in a small dataclass named by the class
  attribute ``Stats``, read as ``stack.layer(role).stats``; the stack
  aggregates them only into ``stats_snapshot()`` /
  ``format_stack_report()``.
* ``inject_fault(kind, arg)`` is the **fault port**: the chaos
  machinery (:mod:`repro.sim.faults`, :mod:`repro.sim.chaos`) strikes
  a named layer through it.  Layers opt in per kind; the base class
  implements the per-RPC-procedure kinds (blackhole / delay /
  duplicate / restore) for subclasses that set ``FAULT_PROCS`` and
  call ``apply_proc_faults`` from their ``handle``.  A layer with no
  armed faults adds **zero** events — ``proc_faults`` stays ``None``
  until the first injection, so the happy path is one attribute test.

Layers are wired by :meth:`ProxyStack.__init__`, which calls
``attach(stack, next_layer)``; ``self.stack`` gives access to shared
session state (the upstream RPC client, the live ``ProxyConfig``, and
cross-layer helpers such as the cached meta-data map).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Dict, Generator, Optional

__all__ = ["ProxyLayer", "counter_names"]


def counter_names(bag) -> list:
    """Counter field names of a stats bag (dataclass or plain object)."""
    if is_dataclass(bag):
        return [f.name for f in fields(bag)]
    return [name for name in vars(bag) if not name.startswith("_")]


class ProxyLayer:
    """One composable extension in a GVFS proxy stack."""

    #: Role name used for layer lookup and in stack reports.
    ROLE: str = "layer"
    #: Dataclass of this layer's counters (None = the layer keeps none).
    Stats: Optional[type] = None
    #: Subclasses that route RPCs through ``apply_proc_faults`` set this
    #: so the base fault port accepts the per-proc fault kinds.
    FAULT_PROCS: bool = False

    def __init__(self):
        self.stack = None
        self.next: Optional[ProxyLayer] = None
        self.stats = self.Stats() if self.Stats is not None else None
        # Per-proc fault state, armed lazily by inject_fault: proc name
        # -> {"gate": Event|None, "delay": float, "duplicate": bool}.
        self.proc_faults: Optional[Dict[str, dict]] = None

    def attach(self, stack, next_layer: Optional["ProxyLayer"]) -> None:
        """Wire this layer into ``stack`` above ``next_layer``."""
        self.stack = stack
        self.next = next_layer

    # ---------------------------------------------------------- conveniences
    @property
    def env(self):
        return self.stack.env

    @property
    def config(self):
        """The stack's live config (re-read on every access: middleware
        may replace it, e.g. to arm a dirty high-water mark)."""
        return self.stack.config

    # ------------------------------------------------------------ the handle
    def handle(self, request) -> Generator:
        """Process: service one RPC call or delegate it downward.

        The default pass-through adds no simulation events.
        """
        return (yield from self.next.handle(request))

    # ------------------------------------------------------------- fault port
    def inject_fault(self, kind: str, arg=None) -> None:
        """Synchronous: apply a layer-scoped fault (or its repair).

        The base class implements the per-proc kinds for layers that
        set ``FAULT_PROCS``; subclasses extend this for kinds that only
        make sense against their own state (e.g. ``corrupt-frame`` on a
        block cache) and delegate unknown kinds back here.
        """
        if not self.FAULT_PROCS:
            raise ValueError(
                f"layer {self.ROLE!r} accepts no fault kind {kind!r}")
        if kind == "blackhole-proc":
            fault = self._proc_fault(str(arg))
            if fault.get("gate") is None:
                fault["gate"] = self.env.event()
        elif kind == "restore-proc":
            self._clear_proc_fault(str(arg))
        elif kind == "delay-proc":
            proc, delay = arg
            self._proc_fault(str(proc))["delay"] = float(delay)
        elif kind == "duplicate-proc":
            self._proc_fault(str(arg))["duplicate"] = True
        else:
            raise ValueError(
                f"layer {self.ROLE!r} accepts no fault kind {kind!r}")

    def _proc_fault(self, proc: str) -> dict:
        if self.proc_faults is None:
            self.proc_faults = {}
        return self.proc_faults.setdefault(proc, {})

    def _clear_proc_fault(self, proc: str) -> None:
        if self.proc_faults is None:
            return
        fault = self.proc_faults.pop(proc, None)
        if fault:
            gate = fault.get("gate")
            if gate is not None and not gate.triggered:
                gate.succeed()
        if not self.proc_faults:
            self.proc_faults = None

    def apply_proc_faults(self, request) -> Generator:
        """Process: park, delay, or flag duplication for ``request``.

        Returns True when the caller should deliver the request twice
        (the duplicate flag is one-shot).  A blackholed proc parks here
        until ``restore-proc`` releases the gate — from the remote
        caller's perspective the RPC has vanished, and its own timeout
        ladder decides when to give up.  With no armed faults this is
        one dict probe and zero events.
        """
        fault = (self.proc_faults.get(request.proc.name)
                 if self.proc_faults else None)
        if fault is None:
            return False
        gate = fault.get("gate")
        if gate is not None:
            self._bump_fault("procs_blackholed")
            yield gate
        delay = fault.get("delay")
        if delay:
            self._bump_fault("procs_delayed")
            yield self.env.timeout(delay)
        if fault.get("duplicate"):
            fault["duplicate"] = False
            self._bump_fault("procs_duplicated")
            return True
        return False

    def _bump_fault(self, name: str) -> None:
        if self.stats is not None and hasattr(self.stats, name):
            setattr(self.stats, name, getattr(self.stats, name) + 1)

    # -------------------------------------------------------------- lifecycle
    def flush(self) -> Generator:
        """Process: push this layer's dirty state upstream."""
        return
        yield  # pragma: no cover - makes the no-op a generator

    def crash(self) -> None:
        """Synchronous: the proxy process died — drop in-memory state
        and release any gates so waiters retry instead of wedging."""

    def recover(self) -> Generator:
        """Process: restart after :meth:`crash`; may return recovered
        state (lists from several layers are concatenated by the stack)."""
        return None
        yield  # pragma: no cover - makes the no-op a generator

    def quiesce(self) -> Generator:
        """Process: wait out this layer's in-flight fetches."""
        return
        yield  # pragma: no cover - makes the no-op a generator

    def invalidate_guard(self) -> Optional[str]:
        """Reason this layer cannot be invalidated right now, or None.

        The stack collects every guard *before* mutating any layer, so a
        refused invalidation leaves the whole stack untouched.
        """
        return None

    def invalidate(self) -> None:
        """Synchronous: drop clean cached state (cold-cache setup)."""

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self, deep: bool = False) -> Dict[str, int]:
        """This layer's counters; ``deep`` also asks for whatever
        structured detail a subclass keeps beside them."""
        if self.stats is None:
            return {}
        return {name: getattr(self.stats, name)
                for name in counter_names(self.stats)}

    def reset(self) -> None:
        """Zero this layer's counters (and any component counters a
        subclass owns, e.g. the block cache's hit/miss counts)."""
        if self.stats is not None:
            for name in counter_names(self.stats):
                setattr(self.stats, name, 0)
