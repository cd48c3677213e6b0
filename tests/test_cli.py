"""Tests for the command-line front end."""

import pytest

from repro.cli import BENCH_TARGETS, build_parser, main


def test_parser_accepts_known_targets():
    parser = build_parser()
    for target in [*BENCH_TARGETS, "all"]:
        args = parser.parse_args(["bench", target])
        assert args.target == target


def test_parser_rejects_unknown_target():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_exposes_exactly_four_commands():
    """``scenario run`` is the one way to run a scenario: no
    per-driver subcommand may come back beside it."""
    import argparse
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"bench", "scenario", "info", "report"}


def test_info_command_prints_calibration(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Calibration constants" in out
    assert "38 ms RTT" in out
    assert "gzip" in out


def test_bench_zero_runs_and_reports(capsys):
    assert main(["bench", "zero"]) == 0
    out = capsys.readouterr().out
    assert "65537 NFS reads" in out
    assert "92" in out


def test_scenario_list_shows_library(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("cascade_smoke", "coop_smoke", "fault_smoke",
                 "fleet_rollout"):
        assert name in out


def test_scenario_check_ok_and_unknown(capsys):
    assert main(["scenario", "check", "fleet_rollout"]) == 0
    out = capsys.readouterr().out
    assert "fleet_rollout: OK" in out and "gates:" in out
    assert main(["scenario", "check", "no_such_spec"]) == 2
    assert "no scenario" in capsys.readouterr().err


def test_scenario_run_unknown_spec_is_usage_error(capsys):
    assert main(["scenario", "run", "no_such_spec"]) == 2
    assert "no scenario" in capsys.readouterr().err


def test_scenario_run_invalid_spec_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "kind": "fleet", "bogus": 1}')
    assert main(["scenario", "run", str(bad)]) == 2
    assert "bogus" in capsys.readouterr().err


def _tiny_spec(tmp_path, max_s):
    import json
    doc = {
        "name": "cli-tiny",
        "kind": "fleet",
        "topology": {"peers": 1,
                     "images": [{"name": "img", "memory_mb": 4,
                                 "disk_gb": 0.0625, "metadata": True}]},
        "sessions": {"client_cache_mb": 8},
        "phases": [{"name": "storm", "kind": "clone_storm",
                    "image": "img"}],
        "gates": [{"name": "makespan_ceiling",
                   "params": {"phase": "storm", "max_s": max_s}}],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_scenario_run_gate_failure_needs_check_flag(capsys, tmp_path):
    path = _tiny_spec(tmp_path, max_s=0.001)   # gate must fail
    assert main(["scenario", "run", str(path), "--quick"]) == 0
    assert "[FAIL] makespan_ceiling" in capsys.readouterr().out
    assert main(["scenario", "run", str(path), "--quick", "--check"]) == 1
    captured = capsys.readouterr()
    assert "gates failed" in captured.err
    assert "makespan_ceiling" in captured.err


def test_scenario_run_writes_validated_envelope(capsys, tmp_path):
    import json
    path = _tiny_spec(tmp_path, max_s=10000.0)
    out_file = tmp_path / "BENCH_tiny.json"
    assert main(["scenario", "run", str(path), "--quick", "--check",
                 "--out", str(out_file)]) == 0
    envelope = json.loads(out_file.read_text())
    assert envelope["benchmark"] == "scenario"
    assert envelope["scenario"] == "cli-tiny"
    assert envelope["ok"] is True
    from repro.scenario.schema import validate_report
    assert validate_report(envelope) == []
