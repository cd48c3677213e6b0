"""Cascade depth x eviction-policy sweep (PR 5's BENCH table).

Claims checked here (quick scale; the archived BENCH_pr5.json carries
the full-scale sweep):

* Every intermediate level of a cold-clone cascade serves hits — the
  tiered-restart discipline means a depth-d cascade absorbs a tier-j
  cold restart from tier j+1.
* Scan-resistant policies (2Q, LFU) beat LRU at the capacity-
  constrained first intermediate level, where one-shot scan images
  contend with the hot golden image.
* A depth-1 cascade is bit-identical in simulated time to the plain
  caching proxy (depth 2 against a hand-wired second level is pinned in
  tests/core/test_second_level.py and test_layer_stack.py).
"""

from conftest import once

from repro.experiments.cascadebench import (
    check_report,
    format_report,
    run_cascadebench,
)


def _ratio(cell, level):
    return next(row["hit_ratio"] for row in cell["levels"]
                if row["level"] == level)


def test_cascade_sweep(benchmark, save_table):
    box = {}

    def run_all():
        box["report"] = run_cascadebench(quick=True)

    once(benchmark, run_all)
    report = box["report"]
    save_table("cascade_sweep", format_report(report))

    # The smoke gate's guarantees hold.
    assert check_report(report) == []

    cells = {(c["workload"], c["depth"], c["policy"]): c
             for c in report["cells"]}

    # Every cold-clone intermediate level serves hits, at every depth.
    for depth in (2, 3, 4):
        for policy in ("lru", "lfu", "2q"):
            cell = cells["cold_clone", depth, policy]
            for level in range(2, depth + 1):
                assert _ratio(cell, level) > 0.0

    # Scan resistance: 2Q and LFU retain the hot image at the
    # constrained level where LRU lets one-shot scans displace it.
    for depth in (2, 3, 4):
        lru = _ratio(cells["cold_clone", depth, "lru"], 2)
        assert _ratio(cells["cold_clone", depth, "2q"], 2) > lru
        assert _ratio(cells["cold_clone", depth, "lfu"], 2) > lru

    # The cascade machinery is pure generalization.
    eq = report["equivalence"]
    assert eq["depth1"]["clone_seconds_identical"]
    assert eq["depth1"]["total_identical"]
