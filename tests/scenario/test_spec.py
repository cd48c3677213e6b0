"""Spec schema: strict parsing, normalization round-trip, quick merge."""

from pathlib import Path

import pytest

from repro.core.config import ProxyConfig
from repro.scenario.spec import (
    ArrivalSpec,
    ScenarioSpec,
    SpecError,
    deep_merge,
)

MINIMAL_FLEET = {
    "name": "t",
    "kind": "fleet",
    "topology": {"peers": 1, "images": [{"name": "img", "memory_mb": 4}]},
    "phases": [{"name": "storm", "kind": "clone_storm", "image": "img"}],
}

MINIMAL_BENCH = {
    "name": "b",
    "kind": "bench",
    "bench": {"driver": "faultbench", "params": {"scenarios": ["wan_blip"]}},
}


def test_round_trip_is_identity():
    for doc in (MINIMAL_FLEET, MINIMAL_BENCH):
        spec = ScenarioSpec.from_dict(doc)
        normalized = spec.to_dict()
        again = ScenarioSpec.from_dict(normalized)
        assert again == spec
        assert again.to_dict() == normalized


def test_normalized_form_is_fully_explicit():
    spec = ScenarioSpec.from_dict(MINIMAL_FLEET)
    doc = spec.to_dict()
    assert doc["seed"] == 0
    assert doc["sessions"]["mode"] == "inclusive"
    assert doc["topology"]["images"][0]["zero_fraction"] == 0.5
    assert doc["phases"][0]["arrival"]["kind"] == "fixed"


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(bogus=1), "bogus"),
    (lambda d: d["topology"].update(hosts=2), "hosts"),
    (lambda d: d["topology"]["images"][0].update(sise=1), "sise"),
    (lambda d: d["phases"][0].update(imgae="img"), "imgae"),
    (lambda d: d["phases"][0].update(
        arrival={"kind": "fixed", "stagger": 1}), "stagger"),
])
def test_unknown_keys_rejected_at_every_level(mutate, fragment):
    import copy
    doc = copy.deepcopy(MINIMAL_FLEET)
    mutate(doc)
    with pytest.raises(SpecError, match=fragment):
        ScenarioSpec.from_dict(doc)


@pytest.mark.parametrize("doc, fragment", [
    ({**MINIMAL_FLEET, "kind": "party"}, "kind"),
    ({**MINIMAL_FLEET, "phases": []}, "phase"),
    ({**MINIMAL_FLEET, "phases": [
        {"name": "x", "kind": "clone_storm", "image": "ghost"}]}, "ghost"),
    ({**MINIMAL_FLEET, "phases": [
        {"name": "x", "kind": "trace_load", "reads": 1}]}, "trace_load"),
    ({**MINIMAL_FLEET, "phases": [
        {"name": "x", "kind": "clone_storm", "image": "img"},
        {"name": "x", "kind": "clone_storm", "image": "img"}]},
     "duplicate"),
    ({**MINIMAL_BENCH, "bench": {"driver": ""}}, "driver"),
    ({**MINIMAL_FLEET,
      "faults": [{"kind": "link_flap", "target": "wan", "at": 1.0}]},
     "down_for"),
    ({**MINIMAL_FLEET,
      "faults": [{"kind": "link_flap", "target": "level:2", "at": 1.0,
                  "down_for": 1.0}]}, "depth"),
    ({**MINIMAL_FLEET,
      "topology": {**MINIMAL_FLEET["topology"], "link_mode": "fluid"}},
     "topology.link_mode: 'fluid' was removed in PR 14"),
    ({**MINIMAL_FLEET,
      "topology": {**MINIMAL_FLEET["topology"], "link_mode": "plasma"}},
     "topology.link_mode: must be 'exact'"),
    ({**MINIMAL_FLEET, "sessions": {"harden": {"timeuot": 2.0}}},
     "sessions.harden.timeuot: unknown key"),
    ({**MINIMAL_FLEET, "sessions": {"harden": {"self": 1}}},
     "sessions.harden.self: unknown key"),
])
def test_validation_errors(doc, fragment):
    with pytest.raises(SpecError, match=fragment):
        ScenarioSpec.from_dict(doc)


_DEPTH_2 = {**MINIMAL_FLEET,
            "topology": {**MINIMAL_FLEET["topology"], "peers": 2},
            "sessions": {"depth": 2}}
_FLAP = {"kind": "link_flap", "target": "wan", "at": 1.0, "down_for": 1.0}


@pytest.mark.parametrize("doc, message", [
    ({**_DEPTH_2, "faults": [_FLAP, {"kind": "proxy_restart",
                                     "target": "level:5", "down_for": 1.0}]},
     r"scenario.faults\[1\].target: proxy_restart cannot strike 'level:5'"),
    ({**_DEPTH_2, "faults": [{"kind": "proxy_restart", "target": "client:9",
                              "down_for": 1.0}]},
     r"scenario.faults\[0\].target: proxy_restart cannot strike 'client:9'"),
    ({**_DEPTH_2, "faults": [{"kind": "layer", "target": "s7/block-cache",
                              "fault": "corrupt-frame"}]},
     r"scenario.faults\[0\].target: layer cannot strike 's7/block-cache'"),
    # No peer directory in inclusive mode, so no peer-cache layer.
    ({**_DEPTH_2, "faults": [{"kind": "layer", "target": "s0/peer-cache",
                              "fault": "delay-proc"}]},
     r"scenario.faults\[0\].target: layer cannot strike 's0/peer-cache'"),
    ({**_DEPTH_2, "faults": [{**_FLAP, "target": "origin"}]},
     r"scenario.faults\[0\].target: link_flap cannot strike 'origin'.*"
     r"\['wan'\]"),
    ({**_DEPTH_2, "faults": [{"kind": "layer", "target": "s0/block-cache",
                              "fault": "nonsense"}]},
     r"scenario.faults\[0\].fault: layer faults need one of .*'nonsense'"),
    ({**_DEPTH_2, "sessions": {"depth": 2, "level_cache_mb": [64, 32, 16]}},
     "scenario.sessions.level_cache_mb: lists 3 sizes but depth 2 has 1"),
], ids=["level-past-depth", "client-past-peers", "layer-stack-past-peers",
        "layer-role-not-built", "kind-target-mismatch", "layer-fault-kind",
        "level-sizes-past-depth"])
def test_fault_targets_and_level_sizes_checked_at_load(doc, message):
    """Each died in ``_attach_faults`` (or was silently ignored) only
    after the testbed and every image had been built."""
    with pytest.raises(SpecError, match=message):
        ScenarioSpec.from_dict(doc)


def test_arrival_validation():
    with pytest.raises(SpecError, match="window_s"):
        ArrivalSpec.from_dict({"kind": "uniform"})
    with pytest.raises(SpecError, match="rate_per_s"):
        ArrivalSpec.from_dict({"kind": "poisson"})
    assert ArrivalSpec.from_dict({"kind": "diurnal",
                                  "window_s": 10}).window_s == 10


def test_deep_merge_semantics():
    base = {"a": {"b": 1, "c": [1, 2]}, "d": 5}
    override = {"a": {"c": [9]}, "e": 7}
    merged = deep_merge(base, override)
    assert merged == {"a": {"b": 1, "c": [9]}, "d": 5, "e": 7}
    assert base == {"a": {"b": 1, "c": [1, 2]}, "d": 5}  # untouched


def test_quick_profile_deep_merges():
    doc = {
        **MINIMAL_FLEET,
        "sessions": {"depth": 2, "client_cache_mb": 32},
        "quick": {"topology": {"peers": 1},
                  "sessions": {"client_cache_mb": 8}},
    }
    spec = ScenarioSpec.from_dict(doc)
    quick = spec.quicked()
    # Overridden scalar replaced, sibling fields survive the merge.
    assert quick.sessions.client_cache_mb == 8
    assert quick.sessions.depth == 2
    # Untouched sections carried over, quick section consumed.
    assert quick.topology.images == spec.topology.images
    assert quick.quick == {}
    # A spec without a quick section is its own quick profile.
    assert ScenarioSpec.from_dict(MINIMAL_FLEET).quicked() \
        == ScenarioSpec.from_dict(MINIMAL_FLEET)


def test_quick_profile_list_replacement():
    doc = {
        **MINIMAL_FLEET,
        "quick": {"phases": [{"name": "mini", "kind": "clone_storm",
                              "image": "img"}]},
    }
    quick = ScenarioSpec.from_dict(doc).quicked()
    assert [p.name for p in quick.phases] == ["mini"]


def test_with_seed():
    spec = ScenarioSpec.from_dict(MINIMAL_FLEET)
    assert spec.with_seed(99).seed == 99
    assert spec.with_seed(99).topology == spec.topology


def test_gate_shorthand_and_params():
    doc = {**MINIMAL_FLEET,
           "gates": ["zero_lost_writes",
                     {"name": "makespan_ceiling",
                      "params": {"phase": "storm", "max_s": 10}}]}
    spec = ScenarioSpec.from_dict(doc)
    assert [g.name for g in spec.gates] == ["zero_lost_writes",
                                            "makespan_ceiling"]
    assert spec.gates[1].params["max_s"] == 10


def test_unset_readahead_depth_is_the_proxy_default():
    """One place the default lives: a spec that says nothing runs the
    proxy's own read path, and the key still pins or disables it."""
    unset = ScenarioSpec.from_dict(MINIMAL_FLEET).sessions
    assert unset.proxy_config() == ProxyConfig()
    assert unset.proxy_config().readahead_depth > 0
    # ... through the normalized form and the quick merge too.
    again = ScenarioSpec.from_dict(
        ScenarioSpec.from_dict(MINIMAL_FLEET).to_dict()).quicked()
    assert again.sessions.proxy_config() == ProxyConfig()
    for depth in (0, 3):
        pinned = ScenarioSpec.from_dict(
            {**MINIMAL_FLEET, "sessions": {"readahead_depth": depth}})
        assert pinned.sessions.proxy_config().readahead_depth == depth
        assert pinned.to_dict()["sessions"]["readahead_depth"] == depth


def test_no_scenario_in_the_library_pins_readahead():
    """The CI matrix is green under the default, not around it."""
    library = Path(__file__).resolve().parents[2] / "scenarios"
    specs = sorted(library.glob("*.yaml"))
    assert specs
    for path in specs:
        assert "readahead_depth" not in path.read_text(), path.name
