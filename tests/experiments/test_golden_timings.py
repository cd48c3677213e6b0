"""Tier-1 golden simulated-time check.

Runs the three cheapest golden workloads in quick mode and requires their
full simulated-time traces to be **bit-identical** to the recorded
signatures in ``benchmarks/golden_timings.json``.  Any change to the
engine, the proxy stack, or the cache layers that shifts a single
event lands here first; regenerate the signatures only via
``python tests/experiments/golden.py --update`` when a change
*intends* to alter simulated results.
"""

import json

from tests.experiments import golden
from tests.experiments.golden import WORKLOADS, load_golden


def _check(name):
    expected = load_golden()[f"{name}@quick"]
    sample = WORKLOADS[name](quick=True)
    assert sample.signature == expected, (
        f"{name}@quick simulated-time signature drifted: "
        f"expected {expected}, got {sample.signature}")


def test_cold_clone_quick_signature_is_golden():
    _check("cold_clone")


def test_flush_storm_quick_signature_is_golden():
    _check("flush_storm")


def test_clone_storm_quick_signature_is_golden():
    _check("clone_storm")


def test_every_golden_key_has_a_workload():
    """No signature may sit in the file unchecked and unowned: the keys
    are exactly each helper workload at both scales."""
    assert set(load_golden()) == {key for name in WORKLOADS
                                  for key in (name, f"{name}@quick")}


def test_script_names_a_drifted_key_and_update_restores_it(
        tmp_path, monkeypatch, capsys):
    """The helper's ``__main__`` on a temp copy holding the cheapest
    workload: a doctored value exits 1 naming the key, ``--update``
    rewrites the recorded signatures exactly."""
    monkeypatch.setattr(golden, "WORKLOADS",
                        {"flush_storm": WORKLOADS["flush_storm"]})
    recorded = {key: signature for key, signature in load_golden().items()
                if key.startswith("flush_storm")}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"comment": "kept", "signatures": recorded}))
    assert golden.main([], path=path) == 0
    doctored = dict(recorded, flush_storm=[0.0] + recorded["flush_storm"][1:])
    path.write_text(json.dumps({"comment": "kept", "signatures": doctored}))
    assert golden.main([], path=path) == 1
    err = capsys.readouterr().err
    assert "flush_storm:" in err and "flush_storm@quick" not in err
    assert golden.main(["--update"], path=path) == 0
    assert json.loads(path.read_text()) == {"comment": "kept",
                                            "signatures": recorded}
