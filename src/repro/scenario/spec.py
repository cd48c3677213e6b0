"""The declarative scenario schema.

A scenario is pure data: frozen dataclasses parsed from a plain dict
(YAML, JSON, or a ``SPEC`` dict in a ``.py`` file — see
:mod:`repro.scenario.loader`).  Parsing is strict — an unknown key
anywhere in the document raises :class:`SpecError` naming the offending
path, so a typo'd gate or phase field fails at load time instead of
silently running a different experiment.

``ScenarioSpec.to_dict`` emits the *normalized* form: every field
explicit, defaults filled in.  ``from_dict(spec.to_dict()) == spec``
holds for any spec, which is what the round-trip tests pin down.

Two scenario kinds share the envelope:

``fleet``
    The native runner (:mod:`repro.scenario.runner`): topology +
    sessions + phases + faults, gated by the named assertions in
    :mod:`repro.scenario.gates`.
``bench``
    A legacy ``*bench`` driver (faultbench, chaosbench, farmbench) run
    through the same report envelope; ``bench.driver`` names it and
    ``bench.params`` forwards keyword arguments.

Every spec may carry a ``quick`` section: a partial document deep-merged
over the spec when the run is invoked with ``--quick`` (dicts merge
recursively, lists and scalars replace), so one file describes both the
CI smoke scale and the full nightly scale.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.sim.faults import LAYER_KINDS

__all__ = [
    "ArrivalSpec",
    "BenchSpec",
    "FaultSpec",
    "GateSpec",
    "ImageSpec",
    "PhaseSpec",
    "ScenarioSpec",
    "SessionSpec",
    "SpecError",
    "TopologySpec",
    "deep_merge",
]

SCENARIO_KINDS = ("fleet", "bench")
SESSION_MODES = ("inclusive", "cooperative")
ARRIVAL_KINDS = ("fixed", "uniform", "poisson", "diurnal")
MB = 1024 * 1024
PHASE_KINDS = ("clone_storm", "trace_load", "restart_clients", "rollout",
               "migration_wave", "flush")
FAULT_KINDS = ("link_flap", "server_outage", "server_crash",
               "proxy_restart", "seeded_flaps", "layer")

#: Phase kinds that boot VMs other phases can replay traces on.
_VM_SOURCES = ("clone_storm", "rollout")
#: ``FaultSpec.fault`` values (``kind: layer``).
_LAYER_FAULTS = sorted(kind.value for kind in LAYER_KINDS)
#: Layer roles of every caching proxy the runner builds (``kind: layer``
#: targets are ``<stack>/<role>``); cooperative client proxies add
#: ``peer-cache``.
_STACK_ROLES = ("attr-patch", "metadata", "file-channel", "block-cache",
                "readahead", "fault-guard", "upstream-rpc")
#: Which of ``ScenarioSpec.fault_targets`` each fault kind strikes.
_TARGET_FAMILY = {"link_flap": "link", "seeded_flaps": "link",
                  "server_outage": "server", "server_crash": "server",
                  "proxy_restart": "proxy", "layer": "layer"}


class SpecError(ValueError):
    """A scenario document failed to parse or validate."""


def _abbreviated(names: List[str], keep: int = 6) -> str:
    if len(names) <= keep:
        return str(names)
    return f"{names[:keep]} … ({len(names)} in all)"


# --------------------------------------------------------------------------
# Strict dict -> dataclass construction
# --------------------------------------------------------------------------

def _require_mapping(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected a mapping, got "
                        f"{type(data).__name__}")
    return data


def _build(cls, data, where: str, nested=None):
    """Construct dataclass ``cls`` from ``data``, rejecting unknown keys.

    ``nested`` maps a field name to a ``(builder, is_list)`` pair for
    fields holding nested spec objects.
    """
    data = _require_mapping(data, where)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {unknown}; "
                        f"expected a subset of {sorted(names)}")
    kwargs = {}
    for key, value in data.items():
        builder = (nested or {}).get(key)
        if builder is not None:
            build, is_list = builder
            if is_list:
                if not isinstance(value, (list, tuple)):
                    raise SpecError(f"{where}.{key}: expected a list")
                value = tuple(build(item, f"{where}.{key}[{i}]")
                              for i, item in enumerate(value))
            else:
                value = build(value, f"{where}.{key}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SpecError(f"{where}: {exc}") from None


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge: mappings merge key-wise, everything else
    (lists included) replaces.  Returns a new dict; inputs untouched."""
    out = dict(base)
    for key, value in override.items():
        if (isinstance(value, dict) and isinstance(out.get(key), dict)):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# --------------------------------------------------------------------------
# Leaf specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageSpec:
    """One golden image materialized on the origin server."""

    name: str
    memory_mb: int = 16
    disk_gb: float = 0.125
    seed: int = 1
    zero_fraction: float = 0.5
    #: Generate ``.gvfs`` meta-data (zero maps + file-channel handles);
    #: off by default so reads flow block-wise through the cache tiers.
    metadata: bool = False

    @classmethod
    def from_dict(cls, data, where: str = "image") -> "ImageSpec":
        spec = _build(cls, data, where)
        if not spec.name:
            raise SpecError(f"{where}: image needs a name")
        if spec.memory_mb < 1:
            raise SpecError(f"{where}: memory_mb must be >= 1")
        return spec

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TopologySpec:
    """The testbed: N LAN peers behind the calibrated WAN."""

    peers: int = 1
    #: A validated constant: older specs spell ``link_mode: exact``.
    link_mode: str = "exact"
    images: Tuple[ImageSpec, ...] = ()

    @classmethod
    def from_dict(cls, data, where: str = "topology") -> "TopologySpec":
        spec = _build(cls, data, where,
                      nested={"images": (ImageSpec.from_dict, True)})
        if spec.peers < 1:
            raise SpecError(f"{where}: peers must be >= 1")
        if spec.link_mode == "fluid":
            raise SpecError(
                f"{where}.link_mode: 'fluid' was removed in PR 14 (it saved "
                f"7 % of events and CPU on a 64-session storm, under the "
                f"10 % bar set for keeping it); 'exact' is the only link "
                f"model")
        if spec.link_mode != "exact":
            raise SpecError(f"{where}.link_mode: must be 'exact', got "
                            f"{spec.link_mode!r}")
        names = [img.name for img in spec.images]
        if len(set(names)) != len(names):
            raise SpecError(f"{where}: duplicate image names in {names}")
        return spec

    def to_dict(self) -> dict:
        return {"peers": self.peers, "link_mode": self.link_mode,
                "images": [img.to_dict() for img in self.images]}


@dataclass(frozen=True)
class SessionSpec:
    """Per-peer session + cascade construction knobs."""

    mode: str = "inclusive"             # inclusive | cooperative
    depth: int = 1                      # cascade depth incl. client proxy
    #: A validated constant: older specs spell ``eviction: lru``.
    eviction: str = "lru"
    client_cache_mb: int = 16
    #: Intermediate-level cache sizes, client-ward first; when shorter
    #: than ``depth - 1`` the last entry repeats origin-ward.
    level_cache_mb: Tuple[int, ...] = ()
    #: Unset, every proxy the spec builds runs ``ProxyConfig``'s own
    #: default read path; 0 disables readahead.
    readahead_depth: int = ProxyConfig.readahead_depth
    #: ``GvfsSession.harden_rpc`` keyword overrides; ``None`` means
    #: "default ladder, applied automatically when faults are declared".
    harden: Optional[dict] = None

    @classmethod
    def from_dict(cls, data, where: str = "sessions") -> "SessionSpec":
        spec = _build(cls, data, where)
        if spec.mode == "exclusive":
            raise SpecError(
                f"{where}.mode: 'exclusive' was removed in PR 23 (DEMOTE "
                f"cascades cost fleet_rollout +1.5 % / +1.2 % makespan at "
                f"seeds 42 / 7 for no WAN bytes saved; the level above "
                f"dropped 93 % of the demoted blocks); choose from "
                f"{list(SESSION_MODES)}")
        if spec.mode not in SESSION_MODES:
            raise SpecError(f"{where}.mode: must be one of "
                            f"{list(SESSION_MODES)}, got {spec.mode!r}")
        if spec.eviction in ("lfu", "2q"):
            raise SpecError(
                f"{where}.eviction: {spec.eviction!r} was removed in PR 23 "
                f"(on fleet_rollout at seeds 42 / 7 lfu cost +2.1 % / "
                f"+2.1 % makespan and 2q moved it by under 0.2 %, WAN "
                f"bytes within 0.3 % for both); 'lru' is the only in-set "
                f"policy")
        if spec.eviction != "lru":
            raise SpecError(f"{where}.eviction: must be 'lru', got "
                            f"{spec.eviction!r}")
        if spec.depth < 1:
            raise SpecError(f"{where}: depth must be >= 1")
        if len(spec.level_cache_mb) > spec.depth - 1:
            raise SpecError(
                f"{where}.level_cache_mb: lists "
                f"{len(spec.level_cache_mb)} sizes but depth {spec.depth} "
                f"has {spec.depth - 1} intermediate level(s); the extra "
                f"would be ignored")
        if spec.client_cache_mb < 1:
            raise SpecError(f"{where}: client_cache_mb must be >= 1")
        if spec.harden is not None:
            _require_mapping(spec.harden, f"{where}.harden")
            from repro.core.session import GvfsSession
            known = list(inspect.signature(
                GvfsSession.harden_rpc).parameters)[1:]    # drop self
            unknown = sorted(set(spec.harden) - set(known))
            if unknown:
                raise SpecError(
                    f"{where}.harden.{unknown[0]}: unknown key; expected "
                    f"a subset of {sorted(known)}")
        # This spec is what constructs every proxy's configuration, so
        # a value the config classes refuse is a load error naming its
        # key, not a ValueError halfway into a run.
        for key, build in (("readahead_depth", spec.proxy_config),
                           ("level_cache_mb", spec.level_cache_configs)):
            try:
                build()
            except (TypeError, ValueError) as exc:
                raise SpecError(f"{where}.{key}: {exc}") from None
        return spec

    def proxy_config(self) -> ProxyConfig:
        """The policy template of every proxy the spec builds (client
        proxies and cascade levels alike)."""
        return ProxyConfig(readahead_depth=self.readahead_depth)

    def client_cache_config(self) -> ProxyCacheConfig:
        return ProxyCacheConfig(capacity_bytes=self.client_cache_mb * MB,
                                n_banks=8, associativity=4)

    def level_cache_configs(self) -> List[ProxyCacheConfig]:
        """Intermediate-level cache geometries, client-ward first."""
        sizes = list(self.level_cache_mb) or [
            max(4 * self.client_cache_mb, 64)]
        while len(sizes) < self.depth - 1:  # last entry repeats origin-ward
            sizes.append(sizes[-1])
        return [ProxyCacheConfig(capacity_bytes=mb * MB, n_banks=16,
                                 associativity=4)
                for mb in sizes[:self.depth - 1]]

    def to_dict(self) -> dict:
        return {"mode": self.mode, "depth": self.depth,
                "eviction": self.eviction,
                "client_cache_mb": self.client_cache_mb,
                "level_cache_mb": list(self.level_cache_mb),
                "readahead_depth": self.readahead_depth,
                "harden": dict(self.harden) if self.harden else None}


@dataclass(frozen=True)
class ArrivalSpec:
    """When each peer joins a phase (offsets from the phase start).

    ``fixed``
        Peer ``i`` arrives at ``i * stagger_s``.
    ``uniform``
        Seeded uniform draws over ``[0, window_s]``, sorted.
    ``poisson``
        A seeded Poisson process of rate ``rate_per_s``.
    ``diurnal``
        Inverse-CDF samples of a day-shaped intensity curve over
        ``window_s``: load peaks at fraction ``peak`` of the window,
        concentrated by ``sharpness`` (higher = spikier rush hour).
    """

    kind: str = "fixed"
    stagger_s: float = 0.0
    window_s: float = 0.0
    rate_per_s: float = 0.0
    peak: float = 0.5
    sharpness: float = 2.0

    @classmethod
    def from_dict(cls, data, where: str = "arrival") -> "ArrivalSpec":
        spec = _build(cls, data, where)
        if spec.kind not in ARRIVAL_KINDS:
            raise SpecError(f"{where}: kind must be one of "
                            f"{list(ARRIVAL_KINDS)}, got {spec.kind!r}")
        if spec.kind in ("uniform", "diurnal") and spec.window_s <= 0:
            raise SpecError(f"{where}: {spec.kind} arrivals need "
                            "window_s > 0")
        if spec.kind == "poisson" and spec.rate_per_s <= 0:
            raise SpecError(f"{where}: poisson arrivals need "
                            "rate_per_s > 0")
        return spec

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PhaseSpec:
    """One step of the scenario timeline."""

    name: str
    kind: str
    image: str = ""                     # clone_storm / rollout / migration
    arrival: ArrivalSpec = ArrivalSpec()
    # trace_load shape (per peer):
    reads: int = 0
    writes: int = 0
    compute_s: float = 0.0
    file_mb: int = 1
    read_fraction: float = 1.0

    @classmethod
    def from_dict(cls, data, where: str = "phase") -> "PhaseSpec":
        spec = _build(cls, data, where,
                      nested={"arrival": (ArrivalSpec.from_dict, False)})
        if not spec.name:
            raise SpecError(f"{where}: phase needs a name")
        if spec.kind not in PHASE_KINDS:
            raise SpecError(f"{where}: kind must be one of "
                            f"{list(PHASE_KINDS)}, got {spec.kind!r}")
        if spec.kind in ("clone_storm", "rollout", "migration_wave") \
                and not spec.image:
            raise SpecError(f"{where}: {spec.kind} needs an image")
        if spec.kind == "trace_load" and spec.reads + spec.writes == 0 \
                and spec.compute_s <= 0:
            raise SpecError(f"{where}: trace_load needs reads, writes "
                            "or compute_s")
        return spec

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "image": self.image,
                "arrival": self.arrival.to_dict(), "reads": self.reads,
                "writes": self.writes, "compute_s": self.compute_s,
                "file_mb": self.file_mb,
                "read_fraction": self.read_fraction}


@dataclass(frozen=True)
class FaultSpec:
    """One composed fault-plan element (see :mod:`repro.sim.faults`).

    ``target`` uses the runner's standard names: ``wan`` (the WAN duplex
    segment), ``origin`` (the image server), ``client:<i>`` (peer i's
    client proxy), ``level:<k>`` (cascade level k, client proxy = 1) —
    or, for ``kind: layer``, a chaos name like ``s0/block-cache`` /
    ``l2/upstream-rpc`` (:mod:`repro.sim.chaos`).
    """

    kind: str
    target: str = "wan"
    at: float = 0.0
    down_for: float = 0.0
    flaps: int = 1
    period: float = 0.0                 # 0 -> link_flap default (2x down)
    fault: str = ""                     # layer fault kind value
    arg: object = None
    seed: int = 0
    horizon: float = 0.0
    mean_up: float = 60.0
    mean_down: float = 2.0

    @classmethod
    def from_dict(cls, data, where: str = "fault") -> "FaultSpec":
        spec = _build(cls, data, where)
        if spec.kind not in FAULT_KINDS:
            raise SpecError(f"{where}: kind must be one of "
                            f"{list(FAULT_KINDS)}, got {spec.kind!r}")
        if spec.kind in ("link_flap", "server_outage", "proxy_restart") \
                and spec.down_for <= 0:
            raise SpecError(f"{where}: {spec.kind} needs down_for > 0")
        if spec.kind == "seeded_flaps" and spec.horizon <= 0:
            raise SpecError(f"{where}: seeded_flaps needs horizon > 0")
        if spec.kind == "layer" and spec.fault not in _LAYER_FAULTS:
            raise SpecError(f"{where}.fault: layer faults need one of "
                            f"{_LAYER_FAULTS}, got {spec.fault!r}")
        return spec

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GateSpec:
    """One named acceptance assertion (see :mod:`repro.scenario.gates`)."""

    name: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data, where: str = "gate") -> "GateSpec":
        if isinstance(data, str):       # shorthand: `- zero_lost_writes`
            data = {"name": data}
        spec = _build(cls, data, where)
        if not spec.name:
            raise SpecError(f"{where}: gate needs a name")
        _require_mapping(spec.params, f"{where}.params")
        return spec

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class BenchSpec:
    """A legacy bench driver run through the scenario envelope."""

    driver: str = ""
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data, where: str = "bench") -> "BenchSpec":
        spec = _build(cls, data, where)
        _require_mapping(spec.params, f"{where}.params")
        return spec

    def to_dict(self) -> dict:
        return {"driver": self.driver, "params": dict(self.params)}


# --------------------------------------------------------------------------
# The scenario
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """A full declarative scenario document."""

    name: str
    kind: str = "fleet"
    description: str = ""
    seed: int = 0
    topology: TopologySpec = TopologySpec()
    sessions: SessionSpec = SessionSpec()
    phases: Tuple[PhaseSpec, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    gates: Tuple[GateSpec, ...] = ()
    bench: BenchSpec = BenchSpec()
    quick: dict = field(default_factory=dict)

    # -- parsing -----------------------------------------------------------
    @classmethod
    def from_dict(cls, data, where: str = "scenario") -> "ScenarioSpec":
        spec = _build(cls, data, where, nested={
            "topology": (TopologySpec.from_dict, False),
            "sessions": (SessionSpec.from_dict, False),
            "phases": (PhaseSpec.from_dict, True),
            "faults": (FaultSpec.from_dict, True),
            "gates": (GateSpec.from_dict, True),
            "bench": (BenchSpec.from_dict, False),
        })
        if not spec.name:
            raise SpecError(f"{where}: scenario needs a name")
        if spec.kind not in SCENARIO_KINDS:
            raise SpecError(f"{where}: kind must be one of "
                            f"{list(SCENARIO_KINDS)}, got {spec.kind!r}")
        _require_mapping(spec.quick, f"{where}.quick")
        spec.validate(where)
        return spec

    def validate(self, where: str = "scenario") -> None:
        """Cross-field checks beyond per-section parsing."""
        if self.kind == "bench":
            if not self.bench.driver:
                raise SpecError(f"{where}: bench scenarios need "
                                "bench.driver")
            if self.phases or self.faults:
                raise SpecError(f"{where}: bench scenarios carry no "
                                "phases/faults — the driver owns its "
                                "workload")
            from repro.scenario.runner import (bench_param_names,
                                               load_baseline)
            try:
                known = bench_param_names(self.bench.driver)
            except SpecError as exc:
                raise SpecError(f"{where}.bench.driver: {exc}") from None
            unknown = sorted(set(self.bench.params) - set(known))
            if unknown:
                raise SpecError(
                    f"{where}.bench.params.{unknown[0]}: unknown key; "
                    f"expected a subset of {known}")
            if self.bench.params.get("baseline"):
                try:
                    load_baseline(self.bench.params["baseline"])
                except SpecError as exc:
                    raise SpecError(
                        f"{where}.bench.params.baseline: {exc}") from None
            return
        if not self.phases:
            raise SpecError(f"{where}: fleet scenarios need at least "
                            "one phase")
        images = {img.name for img in self.topology.images}
        seen = set()
        booted = False
        for i, phase in enumerate(self.phases):
            tag = f"{where}.phases[{i}] ({phase.name})"
            if phase.name in seen:
                raise SpecError(f"{tag}: duplicate phase name")
            seen.add(phase.name)
            if phase.image and phase.image not in images:
                raise SpecError(f"{tag}: unknown image {phase.image!r}; "
                                f"topology declares {sorted(images)}")
            if phase.kind == "trace_load" and not booted:
                raise SpecError(f"{tag}: trace_load needs a preceding "
                                "clone_storm or rollout to boot VMs")
            if phase.kind in _VM_SOURCES:
                booted = True
        targets = self.fault_targets() if self.faults else {}
        for i, fault in enumerate(self.faults):
            allowed = targets[_TARGET_FAMILY[fault.kind]]
            if fault.target not in allowed:
                raise SpecError(
                    f"{where}.faults[{i}].target: {fault.kind} cannot "
                    f"strike {fault.target!r}; with {self.topology.peers} "
                    f"peer(s) at depth {self.sessions.depth} it takes one "
                    f"of {_abbreviated(allowed)}")

    def fault_targets(self) -> dict:
        """The names the fleet runner attaches to its fault injector,
        by what can strike them: ``link`` (flaps), ``server`` (outage,
        crash), ``proxy`` (restart) and ``layer`` (``<stack>/<role>``
        fault ports)."""
        peers = range(self.topology.peers)
        levels = range(2, self.sessions.depth + 1)
        client_roles = _STACK_ROLES + (
            ("peer-cache",) if self.sessions.mode == "cooperative" else ())
        return {
            "link": ["wan"],
            "server": ["origin"],
            "proxy": [f"client:{i}" for i in peers]
            + [f"level:{k}" for k in levels],
            "layer": [f"s{i}/{role}" for i in peers for role in client_roles]
            + [f"l{k}/{role}" for k in levels for role in _STACK_ROLES],
        }

    # -- normalization -----------------------------------------------------
    def to_dict(self) -> dict:
        """The normalized document: every field explicit."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "seed": self.seed,
            "topology": self.topology.to_dict(),
            "sessions": self.sessions.to_dict(),
            "phases": [p.to_dict() for p in self.phases],
            "faults": [f.to_dict() for f in self.faults],
            "gates": [g.to_dict() for g in self.gates],
            "bench": self.bench.to_dict(),
            "quick": dict(self.quick),
        }

    # -- profiles ----------------------------------------------------------
    def quicked(self) -> "ScenarioSpec":
        """The spec with its ``quick`` profile deep-merged in.

        Dicts merge recursively; lists and scalars replace.  A spec
        without a quick section is its own quick profile (the driver's
        ``quick`` flag still reaches bench drivers).
        """
        if not self.quick:
            return self
        base = self.to_dict()
        override = base.pop("quick")
        merged = deep_merge(base, override)
        merged["quick"] = {}
        return ScenarioSpec.from_dict(merged, where=f"{self.name}.quick")

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return dataclasses.replace(self, seed=seed)
