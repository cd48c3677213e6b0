"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``bench <target>``
    Regenerate one of the paper's figures/tables and print its table.
    Targets: ``fig3`` ``fig4`` ``fig5`` ``fig6`` ``table1`` ``zero``
    ``pipelined`` ``all``.
``scenario run/list/check``
    The declarative scenario engine (:mod:`repro.scenario`): ``run``
    executes one spec from ``scenarios/`` (or a path) end to end —
    topology, sessions, phases, faults, gates — and emits the unified
    ``BENCH_*.json`` envelope; ``--quick`` applies the spec's quick
    profile, ``--check`` turns failed gates into exit code 1 (the CI
    scenario-smoke matrix runs ``scenario run <spec> --quick
    --check``).  This is the one way to run a bench driver (fault,
    chaos, farm): a ``kind: bench`` spec names it and
    ``seed`` + ``bench.params`` parameterise it (docs/scenarios.md).
    ``list`` prints the spec library; ``check`` validates a spec
    (including its quick profile) without running it.
``info``
    Print the calibration constants shared by every experiment.
``report``
    Assemble the archived benchmark tables under ``results/`` into one
    reproduction report (exit code 1 while sections are missing).

One gate discipline throughout: failed gates (a bench driver's
``check_report`` failures included) print to stderr and yield exit
code 1; malformed arguments or specs yield exit code 2; a clean run
exits 0.

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
    filtered = session.client_proxy.layer("metadata").stats.zero_filtered_reads
    reads = session.mount.rpc.stats.by_proc.get("READ", 0)
    return (f"512 MB post-boot resume: {reads} NFS reads issued, "
            f"{filtered} filtered as zero-filled "
            f"({filtered / (512 * 128):.1%}; "
            f"paper: 60,452 of 65,750 ≈ 92%)")


def _bench_pipelined() -> str:
    from repro.experiments.pipelinedbench import (format_pipelined_io,
                                                  run_flush_comparison,
                                                  run_read_sweep)
    return format_pipelined_io(run_read_sweep(), run_flush_comparison())


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
    _add_stack_report_flag(bench)
    bench.set_defaults(func=_cmd_bench)

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
