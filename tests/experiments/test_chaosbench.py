"""Chaos sweep: the seeded (layer × fault × workload) sweep holds its
three guarantees, the negative control shows the verify layer is
load-bearing, and single cells behave as advertised."""

from tests.experiments.chaos_sweep import (
    RECOVERY_BOUND_S,
    cells,
    run_cell,
    run_golden_check,
    run_negative_control,
    run_sweep,
)


def test_quick_sweep_holds_every_guarantee():
    results = run_sweep()
    assert len(results) == 20
    for name, cell in results.items():
        assert cell["corrupted_bytes_served"] == 0, name
        assert cell["lost_writes"] == 0, name
        assert cell["engaged_markers"], name       # the fault struck its target
        assert not cell["offtarget_markers"], name  # ...and only its target
        if cell["kind"] == "corrupt-frame":
            assert cell["corruptions_caught"] > 0, name
            assert (cell["corruptions_repaired"]
                    == cell["corruptions_caught"]), name
        else:
            assert cell["corruptions_caught"] == 0, name
        assert cell["verify_unrepaired"] == 0, name
        assert cell["slowdown_s"] <= RECOVERY_BOUND_S, name
        assert cell["replay_identical"], name


def test_cell_matrix_is_seeded_and_deterministic():
    a = cells(seed=17)
    assert a == cells(seed=17)
    assert len(a) == 20
    assert len({c["name"] for c in a}) == len(a)      # names are unique
    workloads = {c["workload"] for c in a}
    assert workloads == {"cold_read", "warm_peer", "warm_l2", "upload"}


def test_single_corruption_cell_catches_and_repairs():
    cell = next(c for c in cells() if c["kind"].value == "corrupt-frame")
    result = run_cell(cell, cell["workload"])
    assert result["corrupted_bytes_served"] == 0
    assert result["corruptions_caught"] >= 1
    assert result["corruptions_repaired"] == result["corruptions_caught"]


def test_negative_control_and_golden_check_run_standalone():
    # With the verify layer absent, the same injected corruption
    # reaches the reader: the layer is load-bearing.
    assert run_negative_control()["corrupted_bytes_served"] > 0
    # The layer's clean path is timing-invisible.
    golden = run_golden_check()
    assert golden["identical"]
    assert golden["crcs_verified"] > 0
    assert golden["corrupted_bytes_served"] == 0
