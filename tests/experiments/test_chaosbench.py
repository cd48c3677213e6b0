"""Chaosbench: the seeded (layer × fault × workload) sweep holds its
three guarantees in quick mode, the negative control shows the verify
layer is load-bearing, and single cells behave as advertised."""

from repro.experiments.chaosbench import (
    check_report,
    format_report,
    run_chaosbench,
    run_golden_check,
    run_negative_control,
    _cells,
    _run_cell,
)


def test_quick_sweep_holds_every_guarantee():
    report = run_chaosbench(quick=True)
    assert check_report(report) == []
    assert report["n_cells"] == 20
    for cell in report["cells"].values():
        assert cell["corrupted_bytes_served"] == 0
        assert cell["lost_writes"] == 0
        assert cell["engaged_markers"]       # the fault struck its target
        assert not cell["offtarget_markers"]  # ...and only its target
        assert cell["replay_identical"]
    # Negative control: with the verify layer absent, the same injected
    # corruption reaches the reader — the layer is load-bearing.
    assert report["negative_control"]["corrupted_bytes_served"] > 0
    # Golden control: the layer's clean path is timing-invisible.
    assert report["golden"]["identical"]
    text = format_report(report)
    assert "chaosbench" in text and "negative control" in text


def test_cell_matrix_is_seeded_and_deterministic():
    a = _cells(quick=True, seed=17)
    b = _cells(quick=True, seed=17)
    assert a == b
    assert len(a) == 20
    assert len({c["name"] for c in a}) == len(a)      # names are unique
    workloads = {c["workload"] for c in a}
    assert workloads == {"cold_read", "warm_peer", "warm_l2", "upload"}


def test_single_corruption_cell_catches_and_repairs():
    cell = next(c for c in _cells(quick=True, seed=17)
                if c["kind"].value == "corrupt-frame")
    result = _run_cell(cell, cell["workload"], quick=True, seed=17)
    assert result["corrupted_bytes_served"] == 0
    assert result["corruptions_caught"] >= 1
    assert result["corruptions_repaired"] == result["corruptions_caught"]


def test_negative_control_and_golden_check_run_standalone():
    control = run_negative_control(quick=True, seed=17)
    assert control["checksum_layer"] == "absent"
    assert control["corrupted_bytes_served"] > 0
    golden = run_golden_check(quick=True, seed=17)
    assert golden["identical"]
