"""Coopbench driver smoke tests (single quick cells)."""

from repro.experiments.coopbench import _run_coop_cell


def test_cooperative_cell_beats_siloed_peers():
    coop = _run_coop_cell("cooperative", depth=1, n_peers=2, quick=True)
    silo = _run_coop_cell("inclusive", depth=1, n_peers=2, quick=True)
    assert coop["integrity_ok"] and silo["integrity_ok"]
    assert coop["peer_hits"] > 0
    assert coop["directory"]["hits"] == coop["peer_hits"]
    # The point of the peer directory: the cold storm crosses the WAN
    # once per block, not once per peer.
    coop_cold, silo_cold = coop["phases"][0], silo["phases"][0]
    assert coop_cold["phase"] == silo_cold["phase"] == "cold_storm"
    assert coop_cold["wan_bytes"] < silo_cold["wan_bytes"]
    assert coop_cold["makespan_s"] < silo_cold["makespan_s"]


def test_exclusive_cell_demotes_and_stays_correct():
    cell = _run_coop_cell("exclusive", depth=2, n_peers=1, quick=True)
    assert cell["integrity_ok"]
    assert cell["demotions_out"] > 0
    assert cell["demotions_in"] <= cell["demotions_out"]
    assert cell["peer_hits"] == 0            # no directory in this mode
