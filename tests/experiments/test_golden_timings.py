"""Tier-1 golden simulated-time check.

Runs the three cheapest perf workloads in quick mode and requires their
full simulated-time traces to be **bit-identical** to the recorded
signatures in ``benchmarks/golden_timings.json``.  Any change to the
engine, the proxy stack, or the cache layers that shifts a single
event lands here first; regenerate the signatures only via
``python -m repro.cli perf --update-golden`` when a change *intends*
to alter simulated results.
"""

from repro.experiments.perf import WORKLOADS, load_golden


def _check(name):
    golden = load_golden().get(f"{name}@quick")
    assert golden is not None, f"no golden signature for {name}@quick"
    sample = WORKLOADS[name](quick=True)
    assert sample.sim_signature == golden, (
        f"{name}@quick simulated-time signature drifted: "
        f"expected {golden}, got {sample.sim_signature}")


def test_cold_clone_quick_signature_is_golden():
    _check("cold_clone")


def test_flush_storm_quick_signature_is_golden():
    _check("flush_storm")


def test_clone_storm_quick_signature_is_golden():
    _check("clone_storm")
