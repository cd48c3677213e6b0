#!/usr/bin/env python3
"""Self-test of the benchmark itself, at smoke sizes (< 60 s in all).

    python3 bench/selftest.py --smoke        # or: pytest bench/

Checks that the harness — not the system under test — behaves: the
suite runs and verifies at smoke sizes, a second run of the same seed
reproduces every simulated metric and counter, another seed moves the
makespan, no module here imports the driver package the roadmap wants
deleted, and every emitted metric name is well-formed and explained in
the README glossary.  Outside tier-1's ``testpaths`` on purpose.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

#: Per-layer metrics measured on the host clock (everything else in a
#: traced run is simulated time or a count, and must repeat exactly).
HOST_CLOCK = re.compile(r"host_self_s$|^trace\.overhead_ratio$"
                        r"|^sim\.engine\.events_per_wall_s$")
#: ``farm_storm`` cannot replay bit for bit (see ``workloads.FarmStorm``).
INEXACT = {"farm_storm"}


@functools.lru_cache(maxsize=None)
def suite(seed: int, trace: str) -> dict:
    """One smoke run of all five workloads; the parsed ``--out`` report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--seed", str(seed), "--seconds", "0", "--trace", trace,
             "--out", out],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        with open(out) as f:
            return json.load(f)["workloads"]


def contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def test_smoke_suite_verifies_and_emits_every_declared_metric():
    spec = contract()
    declared = ([m["name"] for m in spec["end_to_end"]]
                + [m["name"] for m in spec["per_layer"]])
    report = suite(42, "both")
    assert sorted(report) == sorted(w["name"] for w in spec["workloads"])
    for name, result in report.items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == declared, name
        assert result["metrics"]["trace.sim_identical"]["value"] == 1 \
            or name in INEXACT, name


def test_same_seed_repeats_every_simulated_metric_and_counter():
    first, second = suite(42, "both"), suite(42, "1")
    for name in first:
        if name in INEXACT:
            continue
        for metric, row in second[name]["metrics"].items():
            if HOST_CLOCK.search(metric):
                continue
            assert row["value"] == first[name]["metrics"][metric]["value"], \
                (name, metric)


def test_another_seed_moves_the_makespan():
    first, other = suite(42, "both"), suite(43, "0")
    for name in first:
        assert (first[name]["metrics"]["sim_makespan_s"]["value"]
                != other[name]["metrics"]["sim_makespan_s"]["value"]), name


def test_no_module_imports_the_driver_package():
    banned = ("repro.experiments", "repro.cli")
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(HERE, filename)) as f:
            tree = ast.parse(f.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                assert not name.startswith(banned), (filename, name)


def test_every_name_is_well_formed_and_in_the_glossary():
    spec = contract()
    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert f"`{name}`" in readme, f"{name} missing from README glossary"


def main(argv=None) -> int:
    if (argv if argv is not None else sys.argv[1:]) != ["--smoke"]:
        print(__doc__)
        return 2
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
