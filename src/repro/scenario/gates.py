"""The named-assertion vocabulary for scenario reports.

A gate is a pure predicate over the run's ``metrics`` dict: it never
re-runs anything, so the same gates evaluate identically in the CLI, in
CI, and when re-checking a stored ``BENCH_*.json``.  Every gate returns
``(ok, detail)`` — the detail string is the one-line explanation that
ends up in the report envelope and on stderr when the gate fails.

Vocabulary (params in braces):

``zero_lost_writes``
    The end-of-run durability probe found every flushed byte at the
    origin (``metrics["lost_writes"] == 0``).
``integrity``
    Every cloned guest image matched its golden bytes, and every
    migrated VM's memory copy what its source suspended.
``replay_identical``
    Running the same spec + seed twice produced bit-identical metrics.
``makespan_ceiling {phase, max_s}``
    A phase's simulated makespan stays under a ceiling.
``throughput_floor {phase, min_mb_per_s}``
    A clone phase's aggregate MB/s (cloned bytes / makespan) stays
    above a floor.
``wan_bytes_ceiling {max_mb[, phase]}``
    Total (or per-phase) WAN traffic stays under a ceiling.
``peer_hit_min {min_hits[, min_ratio]}``
    Cooperative peer caches served at least ``min_hits`` blocks
    (and optionally at least ``min_ratio`` of lookups).
``golden_signature {signature}``
    The run's timing signature (phase makespans + final clock) equals a
    pinned golden value.
``downtime_ceiling {phase, max_s}``
    The worst per-VM downtime in a migration wave stays under a
    ceiling.
``check_report``
    (bench scenarios) the wrapped driver's own ``check_report`` gates
    all passed — ``metrics["check_failures"]`` is empty.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.scenario.spec import GateSpec, SpecError

__all__ = ["GATES", "evaluate_gates", "validate_gates"]


def _phase_row(metrics: dict, params: dict, gate: str) -> dict:
    name = params.get("phase", "")
    for row in metrics.get("phases", []):
        if row.get("phase") == name:
            return row
    raise SpecError(f"gate {gate}: no phase named {name!r} in metrics")


def _zero_lost_writes(metrics: dict, params: dict) -> Tuple[bool, str]:
    lost = metrics.get("lost_writes")
    if lost is None:
        return False, "run recorded no durability probe"
    return lost == 0, f"{lost} lost write block(s) after full flush"


def _integrity(metrics: dict, params: dict) -> Tuple[bool, str]:
    ok = metrics.get("integrity_ok")
    if ok is None:
        return False, "run recorded no integrity check"
    return bool(ok), "cloned and migrated images match their sources" \
        if ok else "cloned or migrated image bytes diverged"


def _replay_identical(metrics: dict, params: dict) -> Tuple[bool, str]:
    ok = metrics.get("replay_identical")
    if ok is None:
        return False, "run recorded no replay comparison"
    return bool(ok), "second seeded run bit-identical" if ok \
        else "second seeded run diverged"


def _makespan_ceiling(metrics: dict, params: dict) -> Tuple[bool, str]:
    row = _phase_row(metrics, params, "makespan_ceiling")
    max_s = float(params["max_s"])
    got = float(row["makespan_s"])
    return got <= max_s, (f"phase {row['phase']} makespan {got:.2f}s "
                          f"vs ceiling {max_s:.2f}s")


def _throughput_floor(metrics: dict, params: dict) -> Tuple[bool, str]:
    row = _phase_row(metrics, params, "throughput_floor")
    floor = float(params["min_mb_per_s"])
    makespan = float(row["makespan_s"])
    mb = float(row.get("cloned_mb", 0.0))
    rate = mb / makespan if makespan > 0 else 0.0
    return rate >= floor, (f"phase {row['phase']} {rate:.3f} MB/s vs "
                           f"floor {floor:.3f} MB/s")


def _wan_bytes_ceiling(metrics: dict, params: dict) -> Tuple[bool, str]:
    max_bytes = float(params["max_mb"]) * 1024 * 1024
    if "phase" in params:
        row = _phase_row(metrics, params, "wan_bytes_ceiling")
        got = float(row.get("wan_bytes", 0.0))
        label = f"phase {row['phase']}"
    else:
        got = float(metrics.get("wan_bytes_total", 0.0))
        label = "total"
    return got <= max_bytes, (f"{label} WAN bytes {got / 1e6:.1f} MB vs "
                              f"ceiling {params['max_mb']} MB")


def _peer_hit_min(metrics: dict, params: dict) -> Tuple[bool, str]:
    stats = metrics.get("peer_stats")
    if not stats:
        return False, "run recorded no peer-cache stats"
    hits = int(stats.get("peer_hits", 0))
    min_hits = int(params.get("min_hits", 1))
    ok = hits >= min_hits
    detail = f"{hits} peer hit(s) vs floor {min_hits}"
    if "min_ratio" in params:
        ratio = float(metrics.get("peer_hit_ratio", 0.0))
        ok = ok and ratio >= float(params["min_ratio"])
        detail += f", hit ratio {ratio:.3f} vs {params['min_ratio']}"
    return ok, detail


def _golden_signature(metrics: dict, params: dict) -> Tuple[bool, str]:
    want = params["signature"]
    got = metrics.get("sim_signature")
    return got == want, ("timing signature matches golden" if got == want
                         else f"signature {got} != golden {want}")


def _downtime_ceiling(metrics: dict, params: dict) -> Tuple[bool, str]:
    row = _phase_row(metrics, params, "downtime_ceiling")
    max_s = float(params["max_s"])
    got = float(row.get("max_downtime_s", float("inf")))
    return got <= max_s, (f"phase {row['phase']} worst downtime "
                          f"{got:.2f}s vs ceiling {max_s:.2f}s")


def _check_report(metrics: dict, params: dict) -> Tuple[bool, str]:
    failures = metrics.get("check_failures")
    if failures is None:
        return False, "run recorded no check_report result"
    if failures:
        return False, "; ".join(str(f) for f in failures)
    return True, "driver check_report passed"


GATES = {
    "zero_lost_writes": _zero_lost_writes,
    "integrity": _integrity,
    "replay_identical": _replay_identical,
    "makespan_ceiling": _makespan_ceiling,
    "throughput_floor": _throughput_floor,
    "wan_bytes_ceiling": _wan_bytes_ceiling,
    "peer_hit_min": _peer_hit_min,
    "golden_signature": _golden_signature,
    "downtime_ceiling": _downtime_ceiling,
    "check_report": _check_report,
}

_REQUIRED_PARAMS = {
    "makespan_ceiling": ("phase", "max_s"),
    "throughput_floor": ("phase", "min_mb_per_s"),
    "wan_bytes_ceiling": ("max_mb",),
    "golden_signature": ("signature",),
    "downtime_ceiling": ("phase", "max_s"),
}


def validate_gates(gates) -> None:
    """Reject unknown gate names / missing params at spec-load time."""
    for gate in gates:
        if gate.name not in GATES:
            raise SpecError(f"unknown gate {gate.name!r}; vocabulary: "
                            f"{sorted(GATES)}")
        for param in _REQUIRED_PARAMS.get(gate.name, ()):
            if param not in gate.params:
                raise SpecError(f"gate {gate.name}: missing required "
                                f"param {param!r}")


def evaluate_gates(gates, metrics: dict) -> List[Dict]:
    """Evaluate every gate; returns report rows [{name, ok, detail,
    params}] in spec order."""
    validate_gates(gates)
    rows = []
    for gate in gates:
        ok, detail = GATES[gate.name](metrics, gate.params)
        rows.append({"name": gate.name, "ok": bool(ok),
                     "detail": detail, "params": dict(gate.params)})
    return rows


def default_gates_for(kind: str):
    """Gates applied when a spec declares none."""
    if kind == "bench":
        return (GateSpec(name="check_report"),)
    return ()
