"""Every archived BENCH report must satisfy the shared JSON schema."""

import json
from pathlib import Path

import pytest

from repro.scenario.schema import (
    SchemaError,
    assert_valid_report,
    bench_schema,
    validate_report,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"

VALID_SCENARIO = {
    "schema_version": 1,
    "benchmark": "scenario",
    "scenario": "t",
    "kind": "fleet",
    "driver": "fleet",
    "quick": True,
    "seed": 0,
    "gates": [{"name": "integrity", "ok": True, "detail": "ok",
               "params": {}}],
    "ok": True,
    "metrics": {"lost_writes": 0},
}


def _bench_reports():
    if not RESULTS_DIR.is_dir():
        return []
    return sorted(RESULTS_DIR.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", _bench_reports(),
                         ids=lambda p: p.name)
def test_archived_reports_validate(path):
    doc = json.loads(path.read_text())
    assert validate_report(doc) == [], f"{path.name} violates schema"


def test_results_dir_is_populated():
    # The parametrization above silently collects nothing if results/
    # moves; pin the expectation so that failure is loud.
    assert len(_bench_reports()) >= 1


def test_valid_scenario_envelope_accepted():
    assert_valid_report(VALID_SCENARIO)


@pytest.mark.parametrize("mutate, why", [
    (lambda d: d.pop("gates"), "missing gates"),
    (lambda d: d.pop("ok"), "missing ok"),
    (lambda d: d.update(extra=1), "unknown envelope key"),
    (lambda d: d.update(kind="party"), "bad kind"),
    (lambda d: d["gates"][0].pop("detail"), "gate missing detail"),
    (lambda d: d["gates"][0].update(verdict=1), "unknown gate key"),
    (lambda d: d.update(schema_version=2), "wrong schema version"),
])
def test_invalid_scenario_envelopes_rejected(mutate, why):
    import copy
    doc = copy.deepcopy(VALID_SCENARIO)
    mutate(doc)
    assert validate_report(doc) != [], why
    with pytest.raises(SchemaError):
        assert_valid_report(doc)


def test_schema_loads_and_is_cached():
    assert bench_schema() is bench_schema()
    assert bench_schema()["properties"]["kind"] == {"const": "fleet"}
