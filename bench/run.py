#!/usr/bin/env python3
"""The repository's benchmark: five fixed workloads, two clocks.

    python3 bench/run.py                          # all five, end-to-end
    python3 bench/run.py --trace both             # ... plus per-layer
    python3 bench/run.py --workload compile_wb --seed 7 --trace 1

Every repetition runs in a fresh single-threaded subprocess
(``worker.py``); repetitions of different workloads interleave
(A B C D E, A B C D E, ...) so slow drift of the host hits all of them
alike.  Host-clock metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``)
are medians over the untraced repetitions; simulated-clock metrics
(``sim_*``) are deterministic per seed and must agree across
repetitions.  ``--trace 1`` runs one plain and one traced repetition
per workload and reports the per-layer metrics, the tracing overhead
and whether the traced run's simulated results were bit-identical.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root; ``bench/README.md`` is the glossary.  The last
line printed is one JSON object: for a single workload
``{"correct", "attempted", "failed", "metrics"}``, for several a map of
workload name to that object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Even a workload longer than ``--seconds`` repeats: one repetition
#: cannot tell the work from a burst of host interference.
MIN_REPS = 2
#: One invocation must end well inside the harness's 180 s cap.
INVOCATION_BUDGET_S = 150.0
#: A closed-loop RPC tree's self times must add up to its root.
ATTRIBUTION_TOLERANCE = 1e-6


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def fingerprint() -> dict:
    """Where the host numbers were taken (recorded, never compared)."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg": list(os.getloadavg()),
            "started_unix": time.time()}


def run_worker(workload: str, seed: int, spans: bool, smoke: bool,
               trace_out: str = "") -> dict:
    """One repetition in a fresh process; raises on any failure."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--spans", str(int(spans)),
           "--smoke", str(int(smoke))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=INVOCATION_BUDGET_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited "
                           f"{done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def same_simulation(a: dict, b: dict) -> bool:
    """Did two repetitions simulate the same thing, bit for bit?"""
    return a["sim"] == b["sim"] and a["signature"] == b["signature"]


def spread(values: list) -> dict:
    """Median, quartiles and n of one host metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values), "reps": values}


class WorkloadRun:
    """Repetitions and verdicts of one workload."""

    def __init__(self, name: str):
        self.name = name
        self.reps = []            # untraced repetitions
        self.plain = None         # --trace 1: the untraced reference
        self.traced = None        # --trace 1: the traced repetition
        self.problems = []

    @property
    def timed_s(self) -> float:
        return sum(rep["raw"]["wall_s"] for rep in self.reps)

    def untraced(self) -> list:
        return self.reps or [self.plain]

    def every(self) -> list:
        return self.untraced() + ([self.traced] if self.traced else [])

    def verify(self) -> None:
        """Fold every repetition's output checks, the cross-repetition
        determinism check and the trace checks into ``problems``."""
        every = self.every()
        for rep in every:
            for what, ok, detail in rep["checks"]:
                if not ok:
                    self.problems.append(f"{what}: {detail}")
            if rep["counts"]["ops_failed"]:
                self.problems.append(
                    f"{rep['counts']['ops_failed']} failed operation(s)")
        first = every[0]
        for rep in every[1:]:
            # A workload that cannot replay exactly says so (and why)
            # in ``workloads.py``; its repetitions are not compared.
            if first["replay_exact"] and not same_simulation(first, rep):
                kind = "traced" if rep is self.traced else "repeated"
                self.problems.append(
                    f"{kind} run did not replay the first run's simulation")
        if self.traced:
            error = self.traced["layers"]["trace.attribution_error"]
            if error > ATTRIBUTION_TOLERANCE:
                self.problems.append(
                    f"per-layer self times miss an RPC root's inclusive "
                    f"time by {error:.2e} relative")

    def end_to_end(self, contract: dict) -> dict:
        rows = {}
        first = self.untraced()[0]
        for spec in contract["end_to_end"]:
            name = spec["name"]
            if name in first["host"]:
                row = spread([rep["host"][name] for rep in self.untraced()])
                width = row["q3"] - row["q1"]
                row["unresolved"] = bool(
                    row["median"] and width / row["median"] > spec["bound"])
                # The work is deterministic, so every slowdown of the
                # timed region is host interference (this sandbox shows
                # multi-second +40 % bursts): the least-disturbed
                # repetition is the steady estimate of ``wall_s``.
                row["value"] = row["min" if name == "wall_s" else "median"]
                if name in first["raw"]:
                    row["raw"] = [rep["raw"][name] for rep in self.untraced()]
            else:
                row = {"value": first["sim"][name]}
            row["unit"] = spec["unit"]
            rows[name] = row
        return rows

    def per_layer(self, contract: dict) -> dict:
        layers = dict(self.traced["layers"])
        untraced_wall = statistics.median(
            rep["host"]["wall_s"] for rep in self.untraced())
        layers["trace.overhead_ratio"] = (
            self.traced["host"]["wall_s"] / untraced_wall)
        layers["sim.engine.events_per_wall_s"] = (
            layers["sim.engine.events"] / untraced_wall)
        layers["trace.sim_identical"] = int(same_simulation(
            self.untraced()[0], self.traced))
        missing = [s["name"] for s in contract["per_layer"]
                   if s["name"] not in layers]
        extra = sorted(set(layers) - {s["name"]
                                      for s in contract["per_layer"]})
        if missing or extra:
            raise RuntimeError(f"per-layer metrics out of step with "
                               f"BENCHMARK.json: missing {missing}, "
                               f"undeclared {extra}")
        return {s["name"]: {"value": layers[s["name"]], "unit": s["unit"]}
                for s in contract["per_layer"]}

    def counts(self) -> tuple:
        return (sum(rep["counts"]["ops"] for rep in self.every()),
                sum(rep["counts"]["ops_failed"] for rep in self.every()))


def print_rows(title: str, rows: dict) -> None:
    print(f"  {title}")
    for name, row in rows.items():
        line = f"    {name:<40} {row['value']:>16.6f} {row['unit']}"
        if "n" in row:
            line += (f"   median {row['median']:.4f}  q1 {row['q1']:.4f}"
                     f"  q3 {row['q3']:.4f}  n={row['n']}")
            if "raw" in row:
                line += "  raw " + "/".join(f"{v:.2f}" for v in row["raw"])
            if row["unresolved"]:
                line += "   UNRESOLVED (spread exceeds bound)"
        print(line)


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=",".join(names),
                        help="comma-separated subset of: " + ", ".join(names))
    parser.add_argument("--seed", type=int, default=42,
                        help="feeds image content, arrival and farm "
                             "placement seeds (default 42; 7 is the "
                             "documented held-out seed)")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="keep repeating a workload until its timed "
                             "regions add up to this much host time")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics from untraced runs; "
                             "1: per-layer metrics from one traced run; "
                             "both: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (selftest only; not comparable)")
    parser.add_argument("--out", default="",
                        help="also write the full report as JSON here")
    parser.add_argument("--trace-out", default="",
                        help="directory for Chrome-trace JSON of the traced "
                             "runs (<workload>.trace.json)")
    args = parser.parse_args(argv)
    chosen = args.workload.split(",")
    unknown = [w for w in chosen if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")

    env = fingerprint()
    started = time.perf_counter()
    runs = {name: WorkloadRun(name) for name in chosen}

    if args.trace in ("0", "both"):
        # Interleaved repetitions: one pass over the workloads that
        # still owe measured time, until none does.
        owing = list(chosen)
        while owing:
            for name in list(owing):
                rep_started = time.perf_counter()
                runs[name].reps.append(
                    run_worker(name, args.seed, False, args.smoke))
                now = time.perf_counter()
                # A single-workload invocation (the harness's form) must
                # also end inside the harness's time cap.
                out_of_time = (len(chosen) == 1 and now - started
                               + (now - rep_started) > INVOCATION_BUDGET_S)
                measured = (runs[name].timed_s >= args.seconds
                            and len(runs[name].reps) >= MIN_REPS)
                if measured or out_of_time:
                    owing.remove(name)
    if args.trace in ("1", "both"):
        if args.trace_out:
            os.makedirs(args.trace_out, exist_ok=True)
        for name in chosen:
            if args.trace == "1":
                runs[name].plain = run_worker(name, args.seed, False,
                                              args.smoke)
            trace_out = (os.path.join(args.trace_out, f"{name}.trace.json")
                         if args.trace_out else "")
            runs[name].traced = run_worker(name, args.seed, True,
                                           args.smoke, trace_out)

    report = {"env": env, "seed": args.seed, "smoke": args.smoke,
              "workloads": {}}
    results = {}
    for name, run in runs.items():
        run.verify()
        metrics = {}
        print(f"{name}  (seed {args.seed})")
        if args.trace in ("0", "both"):
            rows = run.end_to_end(contract)
            print_rows("end to end", rows)
            metrics.update(rows)
        if args.trace in ("1", "both"):
            rows = run.per_layer(contract)
            print_rows("per layer (one traced run)", rows)
            metrics.update(rows)
        sample = run.untraced()[0]["counts"]
        attempted, failed = run.counts()
        print(f"  samples: {sample['rpcs']} kernel-client RPCs, "
              f"{sample['tasks']} tasks, {sample['events']} events per run; "
              f"ops {attempted}, ops_failed {failed}")
        for problem in run.problems:
            print(f"  FAILED: {problem}")
        results[name] = {
            "correct": not run.problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()}}
        report["workloads"][name] = {
            **results[name], "detail": metrics, "problems": run.problems,
            "counts": sample}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
