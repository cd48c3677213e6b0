"""Farm benchmark: storm driver, report gates, failure detection."""

import copy

import pytest

from repro.experiments import farmbench


@pytest.fixture(scope="module")
def tiny_report():
    """A tiny but complete farmbench report (8 sessions; one baseline
    cell and one crash cell), shared by the gate tests."""
    return farmbench.run_farmbench(sessions=8,
                                   cells=[(1, False), (4, True)])


def test_report_shape(tiny_report):
    assert tiny_report["bench"] == "pr9"
    assert set(tiny_report["cells"]) == {"s1", "s4-crash"}
    for cell in tiny_report["cells"].values():
        assert cell["completed_sessions"] == 8
        assert cell["clone_mean_seconds"] > 0
        assert cell["sim_seconds"] > 0


def test_crash_cell_survives_with_failovers(tiny_report):
    cell = tiny_report["cells"]["s4-crash"]
    assert cell["failover_events"] > 0
    assert cell["recovery_complete"]
    assert cell["audit"]["lost_blocks"] == 0
    assert cell["audit"]["acked_blocks"] == 8 * farmbench.CHECKPOINT_BLOCKS


def test_crash_spares_the_primary(tiny_report):
    cell = tiny_report["cells"]["s4-crash"]
    calls = cell["server_calls"]
    assert calls["data-server0"] > 0
    assert (rec["server"] == "data-server1"
            for rec in cell["recovery"])


def test_check_report_passes_clean_tiny_report(tiny_report):
    assert farmbench.check_report(tiny_report) == []


def test_check_report_flags_lost_acknowledged_writes(tiny_report):
    doctored = copy.deepcopy(tiny_report)
    audit = doctored["cells"]["s4-crash"]["audit"]
    audit["lost_blocks"] = 3
    audit["lost_examples"] = [[7, 0]]
    failures = farmbench.check_report(doctored)
    assert any("lost" in f for f in failures)


def test_check_report_flags_zero_failovers(tiny_report):
    doctored = copy.deepcopy(tiny_report)
    doctored["cells"]["s4-crash"]["failover_events"] = 0
    failures = farmbench.check_report(doctored)
    assert any("failover" in f for f in failures)


def test_check_report_flags_slow_speedup(tiny_report):
    doctored = copy.deepcopy(tiny_report)
    doctored["speedups"] = {"s4": 1.0}
    failures = farmbench.check_report(doctored)
    assert any("speedup" in f for f in failures)


def test_check_report_baseline_regression_bound(tiny_report):
    baseline = copy.deepcopy(tiny_report)
    slow = copy.deepcopy(tiny_report)
    slow["cells"]["s1"]["sim_seconds"] *= 2
    assert farmbench.check_report(tiny_report, baseline=baseline) == []
    failures = farmbench.check_report(slow, baseline=baseline)
    assert any("baseline" in f for f in failures)


def test_run_farmbench_rejects_bad_cells():
    with pytest.raises(ValueError):
        farmbench.run_farmbench(sessions=4, cells=[(0, False)])
    with pytest.raises(ValueError):
        farmbench.run_farmbench(sessions=4, cells=[(1, True)])


def test_placement_determinism_probe():
    det = farmbench.run_placement_determinism(seed=3)
    assert det["identical"]
    assert det["entries"] > 0


def test_format_report_mentions_cells(tiny_report):
    text = farmbench.format_report(tiny_report)
    assert "s1" in text and "s4-crash" in text
    assert "placement" in text.lower()
