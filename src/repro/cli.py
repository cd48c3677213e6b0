"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``bench <target>``
    Regenerate one of the paper's figures/tables and print its table.
    Targets: ``fig3`` ``fig4`` ``fig5`` ``fig6`` ``table1`` ``zero``
    ``pipelined`` ``all``.  ``--readahead-depth`` /
    ``--write-coalesce-bytes`` / ``--write-pipeline-depth`` retune the
    proxies' pipelined I/O for any target.
``perf``
    Measure wall-clock simulator throughput (events/sec, blocks/sec)
    on fixed workloads and assert simulated-time invariance against
    golden timings.  ``--out BENCH_pr2.json`` archives the numbers;
    ``--baseline`` computes speedups against an earlier archive.
``faultbench``
    Run the fault-injection scenarios (WAN blips, server crash
    mid-flush, proxy restart with/without the dirty-frame journal) and
    check the recovery guarantees: zero lost writes with the journal,
    deterministic replay for a fixed seed.  ``--out
    results/BENCH_pr3.json`` archives the metrics; exit code 1 when a
    guarantee is violated (the CI fault-smoke gate).
``chaosbench``
    Run the layer-targeted chaos sweep: >= 24 seeded (layer x fault x
    workload) cells on a cascade-with-peers rig, asserting zero
    corrupted bytes served (the checksum layer catches and repairs
    injected corruption), zero lost acknowledged writes, a layer-local
    blast radius and bounded recovery — plus the checksum-off negative
    control and the bit-identical happy-path timing check.  ``--out
    results/BENCH_pr8.json`` archives the sweep; exit code 1 when a
    guarantee is violated (the CI chaos-smoke gate).
``cascadebench``
    Sweep proxy-cache cascade depth (1-4) and eviction policy
    (lru/lfu/2q) over cold-clone and kernel-compile workloads,
    recording per-level hit ratios, and check the cascade guarantees:
    every level serves hits, and depth-1/depth-2 cascades match the
    plain proxy / SecondLevelCache bit-identically on simulated time.
    ``--out results/BENCH_pr5.json`` archives the sweep; exit code 1
    when a guarantee is violated (the CI cascade-smoke gate).
``farmbench``
    Run the clone storm against the sharded image-server farm (1 vs 4
    vs 16 replicated data servers, with and without a mid-storm
    data-server crash) and check the farm guarantees: measurable storm
    speedup at 4 and 16 servers, zero lost acknowledged writes and
    observed failovers under the crash, bounded re-replication,
    deterministic placement, and bit-identical farm-disabled golden
    timings.  ``--out results/BENCH_pr9.json`` archives the report;
    exit code 1 when a guarantee is violated (the CI farm-smoke gate).
``scenario run/list/check``
    The declarative scenario engine (:mod:`repro.scenario`): ``run``
    executes one spec from ``scenarios/`` (or a path) end to end —
    topology, sessions, phases, faults, gates — and emits the unified
    ``BENCH_*.json`` envelope; ``--quick`` applies the spec's quick
    profile, ``--check`` turns failed gates into exit code 1 (the CI
    scenario-smoke matrix runs ``scenario run <spec> --quick
    --check``).  ``list`` prints the spec library; ``check`` validates
    a spec (including its quick profile) without running it.
``info``
    Print the calibration constants shared by every experiment.
``report``
    Assemble the archived benchmark tables under ``results/`` into one
    reproduction report (exit code 1 while sections are missing).

Every bench subcommand shares one gate discipline: the driver's
``check_report`` failures print to stderr and yield exit code 1;
malformed arguments yield exit code 2; a clean run exits 0.

The heavy lifting lives in :mod:`repro.experiments` and
:mod:`repro.scenario`; this is a thin front end so a checkout is
usable without pytest.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict


def _bench_fig3() -> str:
    from repro.analysis.tables import format_figure3
    from repro.core.session import Scenario
    from repro.experiments.appbench import run_application_benchmark
    from repro.workloads.specseis import SpecSeis
    results = {s.value: run_application_benchmark(s, SpecSeis, runs=1)
               for s in [Scenario.LOCAL, Scenario.LAN, Scenario.WAN,
                         Scenario.WAN_CACHED]}
    return format_figure3(results)


def _bench_fig4() -> str:
    from repro.analysis.tables import format_figure4
    from repro.core.session import Scenario
    from repro.experiments.appbench import run_application_benchmark
    from repro.workloads.latex import LatexBenchmark
    results = {s.value: run_application_benchmark(s, LatexBenchmark, runs=1)
               for s in [Scenario.LOCAL, Scenario.LAN, Scenario.WAN,
                         Scenario.WAN_CACHED]}
    return format_figure4(results)


def _bench_fig5() -> str:
    from repro.analysis.tables import format_figure5
    from repro.core.session import Scenario
    from repro.experiments.appbench import run_application_benchmark
    from repro.workloads.kernelcompile import KernelCompile
    results = {s.value: run_application_benchmark(s, KernelCompile, runs=2)
               for s in [Scenario.LOCAL, Scenario.LAN, Scenario.WAN,
                         Scenario.WAN_CACHED]}
    return format_figure5(results)


def _bench_fig6() -> str:
    from repro.analysis.tables import format_figure6
    from repro.experiments.clonebench import (CloneScenario,
                                              run_cloning_benchmark)
    results = {s.value: run_cloning_benchmark(s)
               for s in [CloneScenario.LOCAL, CloneScenario.WAN_S1,
                         CloneScenario.WAN_S2, CloneScenario.WAN_S3]}
    return format_figure6(results)


def _bench_table1() -> str:
    from repro.analysis.tables import format_table1
    from repro.experiments.clonebench import (CloneScenario,
                                              run_cloning_benchmark,
                                              run_parallel_cloning)
    seq_cold = run_cloning_benchmark(CloneScenario.WAN_S1,
                                     cold_between=True).total_seconds
    seq_warm = run_cloning_benchmark(CloneScenario.WAN_S1,
                                     warm=True).total_seconds
    par_cold = run_parallel_cloning().total_seconds
    par_warm = run_parallel_cloning(warm=True).total_seconds
    return format_table1(seq_cold, seq_warm, par_cold, par_warm)


def _bench_zero() -> str:
    from repro.core.metadata import generate_metadata
    from repro.core.session import GvfsSession, Scenario, ServerEndpoint
    from repro.net.topology import make_paper_testbed
    from repro.vm.image import VmConfig, VmImage
    from repro.vm.monitor import VmMonitor
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    VmImage.create(endpoint.export.fs, "/images/postboot",
                   VmConfig(name="postboot", memory_mb=512, disk_gb=0.25,
                            persistent=True, seed=73), zero_fraction=0.92)
    generate_metadata(endpoint.export.fs, "/images/postboot/mem.vmss",
                      actions=[])
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint)
    monitor = VmMonitor(testbed.env, testbed.compute[0])

    def driver(env):
        yield env.process(monitor.resume(session.mount, "/images/postboot"))

    testbed.env.process(driver(testbed.env))
    testbed.env.run()
    stats = session.client_proxy.stats
    reads = session.mount.rpc.stats.by_proc.get("READ", 0)
    return (f"512 MB post-boot resume: {reads} NFS reads issued, "
            f"{stats.zero_filtered_reads} filtered as zero-filled "
            f"({stats.zero_filtered_reads / (512 * 128):.1%}; "
            f"paper: 60,452 of 65,750 ≈ 92%)")


def _bench_pipelined() -> str:
    from repro.core.config import pipeline_overrides
    from repro.experiments.pipelinedbench import (format_pipelined_io,
                                                  run_flush_comparison,
                                                  run_read_sweep)
    # The sweep and flush comparison set their own knobs per point, so
    # the process-wide overrides are folded in explicitly: an overridden
    # readahead depth joins the sweep, write knobs retune the flush.
    overrides = pipeline_overrides()
    depths = sorted({0, 1, 4, 8, 16} | {overrides.get("readahead_depth", 8)})
    flush = run_flush_comparison(
        coalesce_bytes=overrides.get("write_coalesce_bytes", 64 * 1024),
        pipeline_depth=overrides.get("write_pipeline_depth", 4))
    return format_pipelined_io(run_read_sweep(depths=depths), flush)


BENCH_TARGETS: Dict[str, Callable[[], str]] = {
    "fig3": _bench_fig3,
    "fig4": _bench_fig4,
    "fig5": _bench_fig5,
    "fig6": _bench_fig6,
    "table1": _bench_table1,
    "zero": _bench_zero,
    "pipelined": _bench_pipelined,
}


def _cmd_bench(args) -> int:
    from repro.core.config import (ProxyConfig, pipeline_overrides,
                                   set_pipeline_overrides)
    try:
        set_pipeline_overrides(
            readahead_depth=args.readahead_depth,
            write_coalesce_bytes=args.write_coalesce_bytes,
            write_pipeline_depth=args.write_pipeline_depth)
        ProxyConfig(**pipeline_overrides())   # fail fast on bad values
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = (list(BENCH_TARGETS) if args.target == "all"
               else [args.target])
    for target in targets:
        start = time.time()
        table = BENCH_TARGETS[target]()
        print(table)
        print(f"[{target}: regenerated in {time.time() - start:.0f}s "
              "wall clock]\n")
    return 0


def _write_json(doc, out: str) -> None:
    import json
    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[written to {out}]")


def _finish_report(doc, failures, out, label) -> int:
    """The uniform tail of every bench subcommand: archive, then turn
    check_report failures into stderr + exit code 1."""
    if out:
        _write_json(doc, out)
    if failures:
        print(f"error: {label} violated:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1
    return 0


def _run_bench_cmd(driver: str, params, quick: bool, out, label,
                   seed: int = 0) -> int:
    """Run a legacy bench through the scenario engine's adapter so the
    CLI and the scenario matrix share one execution + gate path."""
    from repro.scenario.runner import run_bench_driver
    try:
        report, failures, text = run_bench_driver(driver, params, quick,
                                                  seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return _finish_report(report, failures, out, label)


def _cmd_perf(args) -> int:
    from repro.experiments import perf
    from repro.scenario.runner import perf_gate_failures
    names = (args.workloads.split(",") if args.workloads
             else list(perf.WORKLOADS))
    unknown = [n for n in names if n not in perf.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; "
              f"choose from {sorted(perf.WORKLOADS)}", file=sys.stderr)
        return 2
    golden_path = args.golden or perf.GOLDEN_PATH
    report = perf.run_harness(names, quick=args.quick,
                              golden_path=None if args.update_golden
                              else golden_path,
                              baseline_path=args.baseline)
    if args.update_golden:
        perf.save_golden(
            {perf._golden_key(n, args.quick): s.sim_signature
             for n, s in report.samples.items()}, golden_path)
        print(f"[golden timings updated in {golden_path}]")
    print(perf.format_report(report))
    return _finish_report(report.to_dict(),
                          perf_gate_failures(report, args.max_slowdown),
                          args.out, "perf guarantees")


def _cmd_faultbench(args) -> int:
    params = {}
    if args.scenario:
        params["scenarios"] = args.scenario.split(",")
    return _run_bench_cmd("faultbench", params, args.quick, args.out,
                          "recovery guarantees", seed=args.seed)


def _cmd_chaosbench(args) -> int:
    return _run_bench_cmd("chaosbench", {}, args.quick, args.out,
                          "chaos guarantees", seed=args.seed)


def _cmd_coopbench(args) -> int:
    params = {}
    if args.modes:
        params["modes"] = args.modes.split(",")
    if args.depths:
        params["depths"] = [int(d) for d in args.depths.split(",")]
    if args.peers:
        params["peers"] = [int(p) for p in args.peers.split(",")]
    return _run_bench_cmd("coopbench", params, args.quick, args.out,
                          "cooperative-caching guarantees")


def _cmd_cascadebench(args) -> int:
    params = {}
    if args.depths:
        params["depths"] = [int(d) for d in args.depths.split(",")]
    if args.policies:
        params["policies"] = args.policies.split(",")
    if args.workloads:
        params["workloads"] = args.workloads.split(",")
    return _run_bench_cmd("cascadebench", params, args.quick, args.out,
                          "cascade guarantees")


def _cmd_farmbench(args) -> int:
    params = {"sessions": args.sessions}
    if args.cells:
        params["cells"] = args.cells.split(",")
    if args.baseline:
        params["baseline"] = args.baseline
    return _run_bench_cmd("farmbench", params, args.quick, args.out,
                          "farm guarantees", seed=args.seed)


# --------------------------------------------------------------------------
# Declarative scenarios
# --------------------------------------------------------------------------

def _cmd_scenario_list(args) -> int:
    from repro.scenario.loader import list_specs
    from repro.scenario.spec import SpecError
    try:
        specs = list_specs()
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for spec in specs:
        quick = " [quick profile]" if spec.quick else ""
        print(f"{spec.name:<16} {spec.kind:<6} "
              f"{spec.description or spec.bench.driver}{quick}")
    return 0


def _cmd_scenario_check(args) -> int:
    from repro.scenario.loader import load_spec
    from repro.scenario.spec import SpecError
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gates = [g.name for g in spec.gates] or (
        ["check_report"] if spec.kind == "bench" else [])
    print(f"{spec.name}: OK ({spec.kind}, "
          f"{len(spec.phases)} phase(s), {len(spec.faults)} fault(s), "
          f"gates: {', '.join(gates) or 'none'})")
    return 0


def _cmd_scenario_run(args) -> int:
    from repro.scenario.loader import load_spec
    from repro.scenario.runner import run_spec
    from repro.scenario.schema import validate_report
    from repro.scenario.spec import SpecError
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        envelope, text = run_spec(spec, quick=args.quick)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.out:
        _write_json(envelope, args.out)
    errors = validate_report(envelope)
    if errors:
        print("error: report envelope violates bench_schema.json:\n  "
              + "\n  ".join(errors), file=sys.stderr)
        return 1
    if args.check and not envelope["ok"]:
        failed = [f"{g['name']}: {g['detail']}"
                  for g in envelope["gates"] if not g["ok"]]
        print(f"error: scenario {spec.name} gates failed:\n  "
              + "\n  ".join(failed), file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import assemble_report
    report = assemble_report(args.results_dir)
    print(report.text)
    if report.missing:
        print(f"[{len(report.missing)} section(s) missing — run "
              "`pytest benchmarks/ --benchmark-only` first]")
        return 1
    return 0


def _cmd_info(args) -> int:
    from repro.net.compress import GZIP
    from repro.net.topology import LAN_2003, WAN_2003
    from repro.nfs.protocol import NFS_BLOCK_SIZE
    from repro.net.ssh import DEFAULT_TCP_WINDOW
    from repro.storage.disk import SCSI_2003
    print("Calibration constants (shared by every experiment):")
    print(f"  LAN: {LAN_2003.latency * 1e3:.1f} ms one-way, "
          f"{LAN_2003.bandwidth / 1.25e5:.0f} Mbit/s")
    print(f"  WAN: {WAN_2003.latency * 1e3:.1f} ms one-way "
          f"(~{2 * WAN_2003.latency * 1e3:.0f} ms RTT), "
          f"{WAN_2003.bandwidth / 1.25e5:.0f} Mbit/s raw")
    print(f"  TCP window: {DEFAULT_TCP_WINDOW // 1024} KiB "
          f"(~{DEFAULT_TCP_WINDOW / (2 * WAN_2003.latency) / 1e6:.1f} MB/s "
          "per WAN stream)")
    print(f"  NFS rsize/wsize: {NFS_BLOCK_SIZE // 1024} KB")
    print(f"  disk: {SCSI_2003.positioning * 1e3:.1f} ms positioning, "
          f"{SCSI_2003.bandwidth / 1e6:.0f} MB/s")
    print(f"  gzip: {GZIP.compress_bps / 1e6:.1f} MB/s compress, "
          f"{GZIP.decompress_bps / 1e6:.0f} MB/s decompress")
    return 0


def _add_stack_report_flag(sub) -> None:
    sub.add_argument("--stack-report", action="store_true",
                     help="print the per-layer proxy stack stats report "
                          "after the run (one block per proxy that saw "
                          "traffic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Distributed File System Support for "
                    "Virtual Machines in Grid Computing' (HPDC 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="regenerate a figure/table")
    bench.add_argument("target", choices=[*BENCH_TARGETS, "all"])
    bench.add_argument("--readahead-depth", type=int, default=None,
                       metavar="N",
                       help="override proxy sequential-readahead depth "
                            "(blocks fetched ahead; 0 disables)")
    bench.add_argument("--write-coalesce-bytes", type=int, default=None,
                       metavar="B",
                       help="override max bytes merged into one upstream "
                            "WRITE during proxy flush (0 = per-block)")
    bench.add_argument("--write-pipeline-depth", type=int, default=None,
                       metavar="W",
                       help="override concurrent upstream WRITEs during "
                            "proxy flush")
    _add_stack_report_flag(bench)
    bench.set_defaults(func=_cmd_bench)

    perf = sub.add_parser(
        "perf",
        help="measure wall-clock simulator throughput (events/s, "
             "blocks/s) on fixed workloads and check simulated-time "
             "invariance against golden timings")
    perf.add_argument("--workloads", default=None, metavar="W1,W2",
                      help="comma-separated workload names "
                           "(default: all; see docs/performance.md)")
    perf.add_argument("--out", default=None, metavar="FILE",
                      help="write the measurements as JSON "
                           "(e.g. BENCH_pr2.json)")
    perf.add_argument("--baseline", default=None, metavar="FILE",
                      help="earlier BENCH_*.json to compute speedups "
                           "against")
    perf.add_argument("--golden", default=None, metavar="FILE",
                      help="golden simulated-time signatures "
                           "(default: benchmarks/golden_timings.json)")
    perf.add_argument("--update-golden", action="store_true",
                      help="record current simulated times as golden "
                           "instead of checking them")
    perf.add_argument("--quick", action="store_true",
                      help="shrunken workloads (CI smoke scale)")
    perf.add_argument("--max-slowdown", type=float, default=None,
                      metavar="X",
                      help="fail (exit 1) when any workload's wall clock "
                           "regresses more than X times vs --baseline "
                           "(CI gate; baseline scale must match)")
    _add_stack_report_flag(perf)
    perf.set_defaults(func=_cmd_perf)

    fault = sub.add_parser(
        "faultbench",
        help="run fault-injection scenarios and check recovery "
             "guarantees (zero lost writes with the journal, "
             "deterministic replay)")
    fault.add_argument("--scenario", default=None, metavar="S1,S2",
                       help="comma-separated scenario names (default: all; "
                            "wan_blip, server_crash, proxy_restart)")
    fault.add_argument("--seed", type=int, default=11, metavar="N",
                       help="fault-plan seed (same seed => same timeline)")
    fault.add_argument("--quick", action="store_true",
                       help="shrunken workloads (CI smoke scale)")
    fault.add_argument("--out", default=None, metavar="FILE",
                       help="write the metrics as JSON "
                            "(e.g. results/BENCH_pr3.json)")
    _add_stack_report_flag(fault)
    fault.set_defaults(func=_cmd_faultbench)

    cascade = sub.add_parser(
        "cascadebench",
        help="sweep cache-cascade depth x eviction policy and check "
             "the cascade guarantees (every level serves hits; "
             "depth-1/2 match the plain proxy / SecondLevelCache "
             "bit-identically)")
    cascade.add_argument("--depths", default=None, metavar="D1,D2",
                         help="comma-separated cascade depths "
                              "(default: 1,2,3,4; depth counts the "
                              "client proxy)")
    cascade.add_argument("--policies", default=None, metavar="P1,P2",
                         help="comma-separated eviction policies "
                              "(default: lru,lfu,2q)")
    cascade.add_argument("--workloads", default=None, metavar="W1,W2",
                         help="comma-separated workloads (default: "
                              "cold_clone,kernel_compile)")
    cascade.add_argument("--quick", action="store_true",
                         help="shrunken workloads (CI smoke scale)")
    cascade.add_argument("--out", default=None, metavar="FILE",
                         help="write the sweep as JSON "
                              "(e.g. results/BENCH_pr5.json)")
    _add_stack_report_flag(cascade)
    cascade.set_defaults(func=_cmd_cascadebench)

    coop = sub.add_parser(
        "coopbench",
        help="sweep proxy organization (inclusive / exclusive-demotion "
             "/ cooperative peer caching) x cascade depth x peer count "
             "over a clone-storm + golden-rollout workload, plus the "
             "adaptive level-sizing probe; checks the PR-7 guarantees")
    coop.add_argument("--modes", default=None, metavar="M1,M2",
                      help="subset of modes "
                           "(inclusive,exclusive,cooperative)")
    coop.add_argument("--depths", default=None, metavar="D1,D2",
                      help="cascade depths to sweep (default 1,2,3)")
    coop.add_argument("--peers", default=None, metavar="N1,N2",
                      help="peer counts to sweep (default 1,2,4)")
    coop.add_argument("--quick", action="store_true",
                      help="CI-scale images and storms")
    coop.add_argument("--out", default=None, metavar="FILE",
                      help="write the sweep as JSON "
                           "(e.g. results/BENCH_pr7.json)")
    _add_stack_report_flag(coop)
    coop.set_defaults(func=_cmd_coopbench)

    chaos = sub.add_parser(
        "chaosbench",
        help="run the layer-targeted chaos sweep (corrupt frames, "
             "blackholed/delayed/duplicated RPC procs, stalled and "
             "dropped uploads) and check the integrity guarantees: "
             "zero corrupted bytes served, zero lost acknowledged "
             "writes, layer-local blast radius, bounded recovery, "
             "deterministic replay")
    chaos.add_argument("--seed", type=int, default=17, metavar="N",
                       help="sweep seed (same seed => same cells, same "
                            "timelines)")
    chaos.add_argument("--quick", action="store_true",
                       help="shrunken workloads (CI smoke scale)")
    chaos.add_argument("--out", default=None, metavar="FILE",
                       help="write the sweep as JSON "
                            "(e.g. results/BENCH_pr8.json)")
    _add_stack_report_flag(chaos)
    chaos.set_defaults(func=_cmd_chaosbench)

    farmp = sub.add_parser(
        "farmbench",
        help="clone storm against the sharded image-server farm "
             "(1 vs 4 vs 16 replicated data servers, with and without "
             "a mid-storm data-server crash) and the farm guarantees: "
             "storm speedup at 4 and 16 servers, zero lost "
             "acknowledged writes and observed failovers under the "
             "crash, bounded re-replication, deterministic placement, "
             "bit-identical farm-disabled golden timings")
    farmp.add_argument("--sessions", type=int, default=None, metavar="N",
                       help="sessions per storm cell "
                            "(default: 1000, or 48 with --quick)")
    farmp.add_argument("--cells", default=None, metavar="C1,C2",
                       help="comma-separated cells, each N or N+crash "
                            "(default: 1,4,16,4+crash,16+crash; quick: "
                            "1,4,4+crash)")
    farmp.add_argument("--seed", type=int, default=0, metavar="N",
                       help="placement seed (same seed => same map)")
    farmp.add_argument("--quick", action="store_true",
                       help="shrunken storm (CI smoke scale)")
    farmp.add_argument("--out", default=None, metavar="FILE",
                       help="write the report as JSON "
                            "(e.g. results/BENCH_pr9.json)")
    farmp.add_argument("--baseline", default=None, metavar="FILE",
                       help="earlier farmbench JSON; fail on >25%% "
                            "storm slowdown in any cell")
    farmp.set_defaults(func=_cmd_farmbench)

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenario engine: run/list/check specs from "
             "scenarios/ (one spec drives topology, sessions, phases, "
             "faults and gates, and emits the unified BENCH envelope)")
    scenario_sub = scenario.add_subparsers(dest="action", required=True)

    srun = scenario_sub.add_parser(
        "run", help="run one scenario spec end to end")
    srun.add_argument("spec", metavar="SPEC",
                      help="spec name from scenarios/ (e.g. fault_smoke) "
                           "or a path to a .yaml/.json/.py spec file")
    srun.add_argument("--quick", action="store_true",
                      help="apply the spec's quick profile "
                           "(CI smoke scale)")
    srun.add_argument("--check", action="store_true",
                      help="exit 1 when any gate fails (CI mode; "
                           "without it the run only reports)")
    srun.add_argument("--out", default=None, metavar="FILE",
                      help="write the report envelope as JSON "
                           "(e.g. results/BENCH_fault_smoke.json)")
    _add_stack_report_flag(srun)
    srun.set_defaults(func=_cmd_scenario_run)

    slist = scenario_sub.add_parser(
        "list", help="list the scenario library")
    slist.set_defaults(func=_cmd_scenario_list)

    scheck = scenario_sub.add_parser(
        "check", help="validate a spec (and its quick profile) without "
                      "running it")
    scheck.add_argument("spec", metavar="SPEC")
    scheck.set_defaults(func=_cmd_scenario_check)

    info = sub.add_parser("info", help="print calibration constants")
    info.set_defaults(func=_cmd_info)

    report = sub.add_parser("report",
                            help="assemble the reproduction report from "
                                 "archived benchmark tables")
    report.add_argument("--results-dir", default="results")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "stack_report", False):
        from repro.core.layers import enable_stack_reports
        enable_stack_reports()
        try:
            rc = args.func(args)
            from repro.core.layers import (format_cascade_reports,
                                           format_stack_reports)
            text = format_stack_reports()
            if text:
                print("\nper-layer proxy stack reports\n" + text)
            cascades = format_cascade_reports()
            if cascades:
                print("\naggregated cascade reports\n" + cascades)
        finally:
            from repro.core.layers import disable_stack_reports
            disable_stack_reports()
        return rc
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
