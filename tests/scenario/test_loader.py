"""Loader: format dispatch, library resolution, load-time gate checks."""

import json

import pytest

from repro.scenario.loader import SCENARIO_DIR, list_specs, load_spec
from repro.scenario.spec import ScenarioSpec, SpecError

DOC = {
    "name": "loader-t",
    "kind": "bench",
    "bench": {"driver": "faultbench", "params": {"scenarios": ["wan_blip"]}},
}


_FLEET = {"name": "t", "kind": "fleet",
          "topology": {"images": [{"name": "img", "memory_mb": 4}]},
          "phases": [{"name": "storm", "kind": "clone_storm",
                      "image": "img"}]}


def test_load_json_spec(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(DOC))
    spec = load_spec(str(path))
    assert spec.name == "loader-t"
    assert spec.bench.driver == "faultbench"


def test_load_yaml_spec(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "t.yaml"
    path.write_text(yaml.safe_dump(DOC))
    assert load_spec(str(path)) == ScenarioSpec.from_dict(DOC)


def test_load_py_spec(tmp_path):
    path = tmp_path / "t.py"
    path.write_text(f"SPEC = {DOC!r}\n")
    assert load_spec(str(path)) == ScenarioSpec.from_dict(DOC)


def test_py_spec_without_binding_rejected(tmp_path):
    path = tmp_path / "t.py"
    path.write_text("NOT_SPEC = {}\n")
    with pytest.raises(SpecError, match="SPEC"):
        load_spec(str(path))


def test_unknown_name_lists_library(tmp_path):
    with pytest.raises(SpecError, match="no scenario"):
        load_spec("no-such-scenario-anywhere")


def test_unknown_gate_fails_at_load_time(tmp_path):
    doc = {**DOC, "gates": ["not_a_gate"]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError, match="not_a_gate"):
        load_spec(str(path))


def test_gate_missing_required_param_fails_at_load_time(tmp_path):
    doc = {**DOC, "gates": [{"name": "makespan_ceiling",
                             "params": {"phase": "x"}}]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError, match="max_s"):
        load_spec(str(path))


def test_quick_profile_gates_validated_too(tmp_path):
    doc = {**DOC, "quick": {"gates": ["bogus_gate"]}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError, match="bogus_gate"):
        load_spec(str(path))


def test_harden_keys_checked_at_load(tmp_path):
    """A typo'd ``harden`` key fails in the loader, not as a TypeError
    from ``harden_rpc`` after the testbed and images are built."""
    doc = {**_FLEET,
           "sessions": {"harden": {"timeout": 2.0, "breaker_threshold": 4}}}
    path = tmp_path / "harden.json"
    path.write_text(json.dumps(doc))
    assert load_spec(str(path)).sessions.harden["timeout"] == 2.0
    doc["sessions"]["harden"] = {"timeuot": 2.0}
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError,
                       match="sessions.harden.timeuot: unknown key"):
        load_spec(str(path))


@pytest.mark.parametrize("sessions, message", [
    ({"readahead_depth": -1},
     "sessions.readahead_depth: readahead_depth must be >= 0"),
    ({"eviction": "mru"}, "sessions.eviction: must be 'lru', got 'mru'"),
    ({"depth": 2, "level_cache_mb": [0]},
     "sessions.level_cache_mb: capacity too small"),
    ({"eviction": "lfu"}, "sessions.eviction: 'lfu' was removed in PR 23"),
    ({"eviction": "2q"}, "sessions.eviction: '2q' was removed in PR 23"),
    ({"mode": "exclusive"},
     "sessions.mode: 'exclusive' was removed in PR 23"),
    ({"depth": 2, "level_cache_mb": [64, 32, 16]},
     "sessions.level_cache_mb: lists 3 sizes but depth 2 has 1 "
     "intermediate level"),
])
def test_session_config_values_checked_at_load(tmp_path, capsys, sessions,
                                               message):
    """``SessionSpec`` builds the proxy and cache configurations, so a
    value those classes refuse fails in the loader with its spec path
    (and exits 2 from ``scenario check``), not as a bare ValueError
    after the testbed and images are built."""
    from repro.cli import main
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps({**_FLEET, "sessions": sessions}))
    with pytest.raises(SpecError, match=message):
        load_spec(str(path))
    for action in ("check", "run"):
        assert main(["scenario", action, str(path)]) == 2
        assert message in capsys.readouterr().err


def test_session_spec_builds_the_configs_the_runner_uses():
    sessions = ScenarioSpec.from_dict({**_FLEET, "sessions": {
        "depth": 3, "eviction": "lru", "client_cache_mb": 8,
        "level_cache_mb": [32], "readahead_depth": 4}}).sessions
    assert sessions.proxy_config().readahead_depth == 4
    client = sessions.client_cache_config()
    assert client.capacity_bytes == 8 << 20
    # The last level size repeats origin-ward.
    assert [c.capacity_bytes for c in sessions.level_cache_configs()] \
        == [32 << 20, 32 << 20]


def test_bench_params_checked_against_the_driver_at_load(tmp_path, capsys):
    """A typo'd ``bench.params`` key or driver fails in the loader with
    its path, not as a TypeError traceback from ``run_*``."""
    from repro.cli import main
    doc = {"name": "t", "kind": "bench",
           "bench": {"driver": "farmbench", "params": {"cels": ["4"]}}}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError, match=r"bench\.params\.cels: unknown "
                                        r"key; expected a subset of "
                                        r"\['baseline', 'cells', 'seed', "
                                        r"'sessions'\]"):
        load_spec(str(path))
    for action in ("check", "run"):
        assert main(["scenario", action, str(path)]) == 2
        assert "bench.params.cels" in capsys.readouterr().err
    # ... in a quick profile too.
    doc["bench"]["params"] = {}
    doc["quick"] = {"bench": {"params": {"sesions": 4}}}
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError, match=r"bench\.params\.sesions"):
        load_spec(str(path))
    for retired in ("fleetbench", "perf", "cascadebench", "coopbench"):
        doc = {"name": "t", "kind": "bench", "bench": {"driver": retired}}
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecError, match="bench.driver: unknown bench "
                                            f"driver '{retired}'"):
            load_spec(str(path))
        assert main(["scenario", "check", str(path)]) == 2


@pytest.mark.parametrize("content, message", [
    (None, "bench.params.baseline: no such file"),
    ("not json {", "bench.params.baseline: .* is not JSON"),
], ids=["missing", "not-json"])
def test_bench_baseline_checked_at_load(tmp_path, capsys, content, message):
    """A baseline that cannot be read fails ``scenario check`` and
    ``scenario run`` with its spec path before any storm runs — not as
    a traceback after one — in the quick profile as well."""
    from repro.cli import main
    baseline = tmp_path / "nope.json"
    if content is not None:
        baseline.write_text(content)
    farm = {"driver": "farmbench", "params": {"baseline": str(baseline)}}
    docs = [{"name": "t", "kind": "bench", "bench": farm},
            {"name": "t", "kind": "bench", "bench": {"driver": "farmbench"},
             "quick": {"bench": {"params": farm["params"]}}}]
    path = tmp_path / "farm.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecError, match=message):
            load_spec(str(path))
        for action in ("check", "run"):
            assert main(["scenario", action, str(path)]) == 2
            assert "bench.params.baseline" in capsys.readouterr().err


def test_bench_param_names_follow_the_run_signatures():
    """The accepted keys are each driver's ``run_*`` keywords plus the
    adapter's own — the keys the library specs and docs use."""
    from repro.scenario.runner import bench_param_names
    assert bench_param_names("faultbench") == ["scenarios", "seed"]
    assert bench_param_names("chaosbench") == ["seed"]
    assert bench_param_names("farmbench") == [
        "baseline", "cells", "seed", "sessions"]


def test_frozen_benchmark_spec_still_loads():
    """``bench/specs/fleet_day.yaml`` cannot change and spells
    ``link_mode: exact`` and ``eviction: lru``; the loader must keep
    accepting it, through the round trip ``bench/workloads.py`` makes."""
    pytest.importorskip("yaml")
    path = SCENARIO_DIR.parent / "bench" / "specs" / "fleet_day.yaml"
    assert "link_mode: exact" in path.read_text()
    assert "eviction: lru" in path.read_text()
    spec = load_spec(str(path))
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_library_specs_all_load_and_round_trip():
    yaml = pytest.importorskip("yaml")
    specs = list_specs()
    names = [s.name for s in specs]
    # One CI cell and one nightly cell per library spec, no more, no
    # fewer: a scenario cannot be added or deleted without its cells.
    workflows = SCENARIO_DIR.parent / ".github" / "workflows"
    for workflow in ("ci.yml", "nightly.yml"):
        jobs = yaml.safe_load((workflows / workflow).read_text())["jobs"]
        matrices = [job["strategy"]["matrix"]["scenario"]
                    for job in jobs.values()
                    if "scenario" in job.get("strategy", {}).get("matrix", {})]
        assert matrices == [names], workflow
    for spec in specs:
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        # quick profile of every library spec must itself be valid
        spec.quicked()


def test_bare_name_resolution_matches_path():
    path = SCENARIO_DIR / "fault_smoke.yaml"
    assert load_spec("fault_smoke") == load_spec(str(path))
