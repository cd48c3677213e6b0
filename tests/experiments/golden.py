"""The golden simulated-time workloads and their signature file.

Five fixed workloads whose full simulated-time traces are recorded in
``benchmarks/golden_timings.json`` (each at full scale and ``@quick``).
Engine, proxy-stack and cache optimizations must keep every signature
bit-identical; the tier-1 tests check three quick ones on every run,
and this file run as a script checks all ten::

    PYTHONPATH=src python tests/experiments/golden.py            # exit 1 on drift
    PYTHONPATH=src python tests/experiments/golden.py --update   # rewrite them

Use ``--update`` only when a change *intends* to alter simulated
results.  Wall-clock measurement is ``bench/run.py``'s job, not this
file's.

Workloads
---------
``cold_clone``
    Two sequential WAN clonings of one golden image with every cache
    flushed in between (each cloning starts cold).
``warm_clone``
    Three sequential WAN clonings without cache flushes: one cold pass
    that warms the proxy disk cache, then two warm clonings.
``kernel_compile``
    One cold run of the kernel-compile application benchmark under
    WAN+C (Figure 5's first bar), flush included.
``flush_storm``
    A write-back session absorbs a burst of dirty blocks over several
    files, then the middleware signals a flush: exercises coalesced
    write-back (``dirty_runs``/``read_many``) and the RPC write path.
    A small warm-up burst runs first; :meth:`ProxyStack.reset`
    separates it from the measured phase instead of rebuilding the
    session.
``clone_storm``
    One site absorbing a staggered burst of full VM sessions (lease,
    match, GVFS, clone, resume, flush, release) through the session
    manager.  The image carries no meta-data, so every block crosses
    the WAN.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

#: Location of the golden simulated-time signatures.
GOLDEN_PATH = (Path(__file__).resolve().parents[2] / "benchmarks"
               / "golden_timings.json")

_BLOCK = 8192


class Sample(NamedTuple):
    """What one workload run leaves behind, all of it deterministic."""

    signature: List[float]  # full simulated-time trace (golden-checked)
    events: int             # engine events scheduled over the run
    blocks: int             # 8 KiB blocks moved through the disk models


def _disk_blocks(testbed) -> int:
    """8 KiB blocks moved through every disk model in the testbed."""
    hosts = [*testbed.compute, testbed.lan_server, testbed.wan_server]
    total = sum(h.local.disk.bytes_read + h.local.disk.bytes_written
                for h in hosts)
    return total // _BLOCK


def _run_cold_clone(quick: bool = False) -> Sample:
    from repro.experiments.clonebench import (CloneScenario,
                                              _cloning_testbed,
                                              run_cloning_benchmark)
    testbed = _cloning_testbed(n_compute=1)
    n = 1 if quick else 2
    r = run_cloning_benchmark(CloneScenario.WAN_S1, n_clones=n,
                              cold_between=True, testbed=testbed)
    return Sample(list(r.clone_seconds) + [testbed.env.now],
                  testbed.env.events_scheduled, _disk_blocks(testbed))


def _run_warm_clone(quick: bool = False) -> Sample:
    from repro.experiments.clonebench import (CloneScenario,
                                              _cloning_testbed,
                                              run_cloning_benchmark)
    testbed = _cloning_testbed(n_compute=1)
    n = 2 if quick else 3
    r = run_cloning_benchmark(CloneScenario.WAN_S1, n_clones=n,
                              testbed=testbed)
    return Sample(list(r.clone_seconds) + [testbed.env.now],
                  testbed.env.events_scheduled, _disk_blocks(testbed))


def _run_kernel_compile(quick: bool = False) -> Sample:
    from repro.core.session import Scenario
    from repro.experiments.appbench import run_application_benchmark
    from repro.net.topology import make_paper_testbed
    from repro.workloads.kernelcompile import KernelCompile
    from repro.workloads.latex import LatexBenchmark
    testbed = make_paper_testbed()
    factory = (lambda: LatexBenchmark(iterations=1)) if quick \
        else KernelCompile
    r = run_application_benchmark(Scenario.WAN_CACHED, factory, runs=1,
                                  testbed=testbed)
    signature = [p.seconds for p in r.runs[0].phases] + [r.flush_seconds,
                                                         testbed.env.now]
    return Sample(signature, testbed.env.events_scheduled,
                  _disk_blocks(testbed))


def _run_flush_storm(quick: bool = False) -> Sample:
    from repro.core.config import ProxyCacheConfig
    from repro.core.session import GvfsSession, Scenario, ServerEndpoint
    from repro.net.topology import Testbed
    from repro.sim import Environment
    env = Environment()
    testbed = Testbed(env, n_compute=1)
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    fs.mkdir("/storm", parents=True)
    n_files = 2 if quick else 8
    n_blocks = 64 if quick else 256
    for i in range(n_files):
        fs.create(f"/storm/f{i}", size=n_blocks * _BLOCK)
    cache = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                             n_banks=32, associativity=4)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=cache,
                                metadata=False)
    marks: List[float] = []

    def storm(env, blocks_per_file: int):
        files = []
        for i in range(n_files):
            f = yield env.process(session.mount.open(f"/storm/f{i}"))
            files.append(f)
        # Interleaved dirty bursts across the files (several runs each).
        for blk in range(blocks_per_file):
            for f in files:
                yield env.process(f.write(blk * _BLOCK,
                                          bytes([1 + blk % 251]) * _BLOCK))
        yield env.process(session.flush())

    def driver(env):
        # Warm-up burst, then a uniform stack reset (every layer and
        # component counter) instead of a session rebuild.
        yield env.process(storm(env, 8 if quick else 16))
        session.client_proxy.reset()
        marks.append(env.now)
        yield env.process(storm(env, n_blocks))
        marks.append(env.now)

    env.process(driver(env))
    env.run()
    return Sample([marks[0], marks[1], env.now], env.events_scheduled,
                  _disk_blocks(testbed))


def _run_clone_storm(quick: bool = False) -> Sample:
    from repro.core.session import ServerEndpoint
    from repro.middleware.imageserver import ImageRequirements
    from repro.middleware.sessions import VmSessionManager
    from repro.net.topology import make_paper_testbed
    from repro.sim import AllOf
    from repro.vm.image import VmConfig
    sessions = 6 if quick else 24
    memory_mb, stagger = 4, 0.25
    testbed = make_paper_testbed(n_compute=4)
    env = testbed.env
    manager = VmSessionManager(
        testbed, endpoint=ServerEndpoint(env, testbed.wan_server),
        account_pool_size=sessions)
    manager.catalog.register(
        "storm-golden",
        VmConfig(name="storm-golden", memory_mb=memory_mb, disk_gb=0.01,
                 persistent=False, seed=17),
        zero_fraction=0.5, generate_metadata=False)
    requirements = ImageRequirements(min_memory_mb=memory_mb)
    clone_seconds: List[float] = []

    def one_user(env, index):
        yield env.timeout(index * stagger)
        # The name's length is in the wire sizes: renaming moves the
        # signature.
        session = yield env.process(manager.create_session(
            f"site0-user{index}", requirements))
        clone_seconds.append(session.clone.total_seconds)
        yield env.process(manager.end_session(session))

    def driver(env):
        yield AllOf(env, [env.process(one_user(env, i))
                          for i in range(sessions)])

    env.process(driver(env))
    env.run()
    return Sample(clone_seconds + [env.now], env.events_scheduled,
                  _disk_blocks(testbed))


WORKLOADS: Dict[str, Callable[..., Sample]] = {
    "cold_clone": _run_cold_clone,
    "warm_clone": _run_warm_clone,
    "kernel_compile": _run_kernel_compile,
    "flush_storm": _run_flush_storm,
    "clone_storm": _run_clone_storm,
}


def load_golden(path=GOLDEN_PATH) -> Dict[str, List[float]]:
    with open(path) as f:
        return json.load(f)["signatures"]


def main(argv=None, path=GOLDEN_PATH) -> int:
    parser = argparse.ArgumentParser(
        description="check every golden simulated-time signature "
                    "(exit 1 on drift)")
    parser.add_argument("--update", action="store_true",
                        help="record the current simulated times as "
                             "golden instead of checking them")
    args = parser.parse_args(argv)
    with open(path) as f:
        doc = json.load(f)
    # Every key the file holds: each workload at both scales.
    fresh = {name + scale: run(quick=bool(scale)).signature
             for name, run in WORKLOADS.items() for scale in ("", "@quick")}
    if args.update:
        doc["signatures"] = fresh
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[golden timings rewritten in {path}]")
        return 0
    drifted = [key for key in fresh if doc["signatures"].get(key) != fresh[key]]
    for key in drifted:
        print(f"{key}: simulated-time signature drifted: expected "
              f"{doc['signatures'].get(key)}, got {fresh[key]}",
              file=sys.stderr)
    print(f"golden simulated-time check: {len(fresh) - len(drifted)} of "
          f"{len(fresh)} signatures bit-identical")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
