"""Runner: end-to-end fleet runs, determinism, arrival processes."""

import dataclasses

import pytest

from repro.core.layers import (disable_stack_reports, enable_stack_reports,
                               registered_stacks)
from repro.core.session import GvfsSession
from repro.scenario.arrivals import arrival_offsets
from repro.scenario.loader import load_spec
from repro.scenario.runner import run_spec
from repro.scenario.schema import validate_report
from repro.scenario.spec import ArrivalSpec, ScenarioSpec

TINY_FLEET = {
    "name": "tiny",
    "kind": "fleet",
    "seed": 5,
    "topology": {"peers": 1,
                 "images": [{"name": "img", "memory_mb": 4,
                             "disk_gb": 0.0625, "metadata": True}]},
    "sessions": {"mode": "inclusive", "depth": 1, "client_cache_mb": 8},
    "phases": [
        {"name": "storm", "kind": "clone_storm", "image": "img"},
        {"name": "load", "kind": "trace_load", "reads": 2, "writes": 1,
         "file_mb": 0.25, "compute_s": 0.5},
    ],
    "gates": ["zero_lost_writes", "integrity",
              {"name": "makespan_ceiling",
               "params": {"phase": "storm", "max_s": 10000}}],
}


@pytest.fixture(scope="module")
def tiny_run():
    return run_spec(ScenarioSpec.from_dict(TINY_FLEET), quick=True)


def test_fleet_run_passes_gates(tiny_run):
    envelope, text = tiny_run
    assert envelope["ok"] is True
    assert envelope["benchmark"] == "scenario"
    assert envelope["kind"] == "fleet"
    assert {g["name"] for g in envelope["gates"]} == {
        "zero_lost_writes", "integrity", "makespan_ceiling"}
    assert all(g["ok"] for g in envelope["gates"])
    assert envelope["metrics"]["lost_writes"] == 0
    assert envelope["metrics"]["integrity_ok"] is True
    assert [p["phase"] for p in envelope["metrics"]["phases"]] == [
        "storm", "load"]
    assert "[PASS]" in text


def test_fleet_envelope_matches_schema(tiny_run):
    envelope, _ = tiny_run
    assert validate_report(envelope) == []


def test_fleet_run_is_bit_identical(tiny_run):
    first, _ = tiny_run
    second, _ = run_spec(ScenarioSpec.from_dict(TINY_FLEET), quick=True)
    assert first == second


def test_seed_perturbs_signature():
    # Fixed staggers are seed-independent, so give the storm a seeded
    # arrival process; the offsets (and hence the signature) must move.
    doc = dict(TINY_FLEET)
    doc["phases"] = [{"name": "storm", "kind": "clone_storm",
                      "image": "img",
                      "arrival": {"kind": "uniform", "window_s": 40.0}}]
    spec = ScenarioSpec.from_dict(doc)
    base, _ = run_spec(spec, quick=True)
    other, _ = run_spec(spec.with_seed(6), quick=True)
    assert other["seed"] == 6
    assert (other["metrics"]["sim_signature"]
            != base["metrics"]["sim_signature"])


def test_failing_gate_flips_ok():
    doc = dict(TINY_FLEET)
    doc["gates"] = [{"name": "makespan_ceiling",
                     "params": {"phase": "storm", "max_s": 0.001}}]
    envelope, text = run_spec(ScenarioSpec.from_dict(doc), quick=True)
    assert envelope["ok"] is False
    assert envelope["gates"][0]["ok"] is False
    assert "[FAIL]" in text


# --- arrival processes -------------------------------------------------


def _arrival(**kw):
    return ArrivalSpec.from_dict(kw)


def test_fixed_arrivals():
    offs = arrival_offsets(_arrival(kind="fixed", stagger_s=2.0), 3,
                           seed=0, key="k")
    assert offs == [0.0, 2.0, 4.0]


@pytest.mark.parametrize("kw", [
    dict(kind="uniform", window_s=30.0),
    dict(kind="poisson", rate_per_s=0.5),
    dict(kind="diurnal", window_s=60.0, peak=0.3, sharpness=2.0),
])
def test_random_arrivals_deterministic_sorted_nonnegative(kw):
    a = _arrival(**kw)
    offs = arrival_offsets(a, 8, seed=3, key="k")
    assert offs == arrival_offsets(a, 8, seed=3, key="k")
    assert offs != arrival_offsets(a, 8, seed=4, key="k")
    assert offs == sorted(offs)
    assert len(offs) == 8
    assert all(o >= 0.0 for o in offs)


def test_windowed_arrivals_stay_in_window():
    for kind in ("uniform", "diurnal"):
        a = _arrival(kind=kind, window_s=30.0)
        offs = arrival_offsets(a, 16, seed=1, key="k")
        assert all(0.0 <= o <= 30.0 for o in offs)


# -- the composed stack: migrations checked, readahead where it now runs --------

MIGRATION_CELL = {
    "name": "mig",
    "kind": "fleet",
    "seed": 3,
    "topology": {"peers": 2,
                 "images": [{"name": "img", "memory_mb": 2,
                             "disk_gb": 0.0625}]},
    "sessions": {"mode": "inclusive", "depth": 2, "client_cache_mb": 8},
    "phases": [{"name": "wave", "kind": "migration_wave", "image": "img",
                "arrival": {"kind": "fixed", "stagger_s": 2.0}}],
    "gates": ["zero_lost_writes", "integrity"],
}


def test_integrity_gate_checks_what_a_migration_resumed_from(monkeypatch):
    envelope, _ = run_spec(ScenarioSpec.from_dict(MIGRATION_CELL))
    assert envelope["ok"] is True

    def shallow_flush(self):
        """The parent commit's: stop at the client proxy."""
        yield self.env.process(self.mount.flush_all())
        yield self.env.process(self.client_proxy.flush())

    monkeypatch.setattr(GvfsSession, "flush", shallow_flush)
    envelope, text = run_spec(ScenarioSpec.from_dict(MIGRATION_CELL))
    gates = {g["name"]: g["ok"] for g in envelope["gates"]}
    assert gates == {"zero_lost_writes": False, "integrity": False}, text


# -- the converted smoke specs: green as shipped, red without the mechanism --

def _gates(envelope):
    return {(g["name"], g["params"].get("phase")): g["ok"]
            for g in envelope["gates"]}


def _without_replay(spec, **session_changes):
    return dataclasses.replace(
        spec, sessions=dataclasses.replace(spec.sessions, **session_changes),
        gates=tuple(g for g in spec.gates if g.name != "replay_identical"))


@pytest.mark.parametrize("name", ["cascade_smoke", "coop_smoke",
                                  "fault_smoke"])
def test_converted_smoke_specs_pass_every_gate(name):
    spec = load_spec(name)
    assert spec.kind == "fleet"
    envelope, text = run_spec(spec, quick=True)
    assert envelope["ok"] is True, text
    assert envelope["metrics"]["replay_identical"] is True
    assert validate_report(envelope) == []


def test_cascade_smoke_at_depth_1_fails_the_reclone_ceiling():
    """No level above the client: the client-cold re-clone crosses the
    WAN again, and the one gate that says so goes red."""
    spec = _without_replay(load_spec("cascade_smoke").quicked(), depth=1)
    envelope, text = run_spec(spec)
    assert _gates(envelope) == {("integrity", None): True,
                                ("wan_bytes_ceiling", "reclone"): False}, text


def test_coop_smoke_without_peers_fails_both_peer_gates():
    """Siloed clients fetch one image each: no peer hits, and the cold
    storm moves one image per peer over the WAN."""
    spec = _without_replay(load_spec("coop_smoke").quicked(),
                           mode="inclusive")
    envelope, text = run_spec(spec)
    gates = _gates(envelope)
    assert gates[("integrity", None)] is True
    assert gates[("peer_hit_min", None)] is False, text
    assert gates[("wan_bytes_ceiling", "cold_storm")] is False, text


def _restart_level_at(at, keep_client_restart=True):
    """fault_smoke with its level restart moved to ``at`` seconds."""
    spec = load_spec("fault_smoke")
    faults = [dataclasses.replace(f, at=at) if f.target == "level:2" else f
              for f in spec.faults
              if keep_client_restart or f.target != "client:0"]
    return dataclasses.replace(
        spec, faults=tuple(faults),
        gates=tuple(g for g in spec.gates if g.name != "replay_identical"))


def test_fault_smoke_with_the_level_restart_at_40s_fails_integrity():
    """Fleet proxies run without the dirty-frame journal: restarted at
    40 s, the level still holds the wave's absorbed writes and loses
    them, and the migrated memory no longer matches its source."""
    envelope, text = run_spec(_restart_level_at(40.0))
    assert _gates(envelope) == {("zero_lost_writes", None): True,
                                ("integrity", None): False}, text


def test_level_restart_mid_whole_file_fetch_completes():
    """At 43 s the level restarts between its install of a migrated
    memory image and the end of its fetch; the client's fetch used to
    resolve the lost entry and raise KeyError."""
    envelope, text = run_spec(_restart_level_at(
        43.0, keep_client_restart=False))
    timeline = envelope["metrics"]["fault_timeline"]
    assert [43.0, "proxy-crash", "level:2"] in timeline, text
    assert _gates(envelope)[("zero_lost_writes", None)] is True, text


def test_declared_fault_targets_are_what_the_runner_attaches(monkeypatch):
    """``ScenarioSpec.fault_targets`` is what load-time validation
    trusts; it must name exactly the injector's bindings."""
    from repro.sim.faults import FaultInjector
    attached = []
    schedule = FaultInjector.schedule

    def recording(self, plan):
        attached.append(sorted(self._targets))
        return schedule(self, plan)

    monkeypatch.setattr(FaultInjector, "schedule", recording)
    for mode in ("inclusive", "cooperative"):
        doc = {**MIGRATION_CELL,
               "sessions": {**MIGRATION_CELL["sessions"], "mode": mode},
               "phases": [{"name": "storm", "kind": "clone_storm",
                           "image": "img"}],
               "faults": [{"kind": "layer", "target": "l2/block-cache",
                           "fault": "delay-proc", "arg": ["READ", 0.01]}]}
        spec = ScenarioSpec.from_dict(doc)
        run_spec(spec)
        declared = spec.fault_targets()
        assert attached.pop() == sorted(
            name for family in declared.values() for name in family)


def test_fleet_rollout_quick_reads_ahead_and_leaves_nothing_behind():
    """Cooperative peers, a shared level, a WAN flap and a fleet-wide
    invalidation — with every proxy running the default read path."""
    spec = load_spec("fleet_rollout").quicked()
    spec = dataclasses.replace(spec, gates=tuple(
        g for g in spec.gates if g.name != "replay_identical"))
    enable_stack_reports()
    try:
        envelope, text = run_spec(spec)
        stacks = [s for s in registered_stacks()
                  if s.layer("readahead") is not None]
    finally:
        disable_stack_reports()
    assert envelope["ok"] is True, text
    metrics = envelope["metrics"]
    assert metrics["fault_timeline"]            # the flap struck
    assert len(stacks) == metrics["peers"] + 1  # the clients and the level
    for stack in stacks:
        name = stack.config.name
        ledger = stack.layer("readahead").stats
        assert ledger.prefetch_issued > 0, name
        assert (ledger.prefetch_used + ledger.prefetch_failed
                <= ledger.prefetch_issued), name
        # Quiesced: no fetch gate, no whole-file fetch, no dirty frame.
        assert not stack.layer("block-cache").gates, name
        assert not stack.layer("file-channel").fetching, name
        assert stack.dirty_state() == (0, 0), name
    directory = stacks[-1].layer("peer-cache").member.directory
    assert not directory._pending               # no reservation left over
    # The rollout invalidated with windows barely landed: nothing of
    # the old image was served afterwards, by a cache or by a peer.
    assert metrics["integrity_ok"] is True
    assert metrics["peer_stats"]["peer_stale"] == 0
    assert metrics["peer_stats"]["peer_hits"] > 0
