"""Application-execution experiments (§4.2): Figures 3, 4 and 5.

A 512 MB-RAM / 2 GB-disk VM (plain/persistent disk mode) holds the
benchmark applications and datasets; its state files live on the image
server of the chosen scenario.  The VM is already running (the paper
measures in-VM execution time, not instantiation), caches start cold —
"un-mounting and mounting the virtual file system, and flushing the
proxy caches" — and consecutive runs stay warm, as in Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.config import ProxyConfig
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import Testbed, make_paper_testbed
from repro.nfs.client import MountOptions
from repro.vm.image import VmConfig, VmImage
from repro.vm.monitor import VirtualMachine
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["AppBenchResult", "run_application_benchmark"]

#: The application VM of §4.2.1.
APP_VM_CONFIG = VmConfig(name="appvm", memory_mb=512, disk_gb=2.0,
                         os_name="Red Hat Linux 7.3", persistent=True,
                         seed=11)


@dataclass
class AppBenchResult:
    """Per-run phase times of one benchmark under one scenario."""

    scenario: Scenario
    workload: str
    runs: List[WorkloadResult] = field(default_factory=list)
    #: Time of the middleware-driven flush of dirty write-back state at
    #: session end (the paper's ~160 s for the LaTeX session).
    flush_seconds: float = 0.0
    #: The session the runs executed under, for post-run cache-stat
    #: inspection (cascade experiments read per-level hit ratios).
    session: Optional[GvfsSession] = None

    def run_total(self, run: int = 0) -> float:
        return self.runs[run].total_seconds

    def phase(self, name: str, run: int = 0) -> float:
        return self.runs[run].phase_seconds(name)


def _image_home(testbed: Testbed, scenario: Scenario,
                endpoint: Optional[ServerEndpoint]):
    """Filesystem that holds the VM image for this scenario."""
    if scenario is Scenario.LOCAL:
        return testbed.compute[0].local.fs
    assert endpoint is not None
    return endpoint.export.fs


def run_application_benchmark(scenario: Scenario,
                              workload_factory: Callable[[], Workload],
                              runs: int = 1,
                              testbed: Optional[Testbed] = None,
                              mount_options: Optional[MountOptions] = None,
                              endpoint: Optional[ServerEndpoint] = None,
                              via=None,
                              cache_config=None,
                              cold_between: bool = False,
                              proxy_config: ProxyConfig = ProxyConfig(),
                              ) -> AppBenchResult:
    """Run ``runs`` consecutive executions of a workload in a VM under
    ``scenario``; returns per-run phase timings.

    The first run starts with cold caches; later runs inherit warm
    state (Figure 5's cold/warm pair is ``runs=2``).  ``cold_between``
    instead cold-restarts the *client* (kernel caches, guest page
    cache, client proxy caches) before every run — intermediate cascade
    levels interposed with ``via`` (the client-ward ``CascadeLevel``
    ``build_cascade`` returned) stay warm, which is how the cascade
    experiments measure per-level locality.  ``endpoint`` reuses a caller-built
    image-server side (required when ``via`` points at a cascade built
    against it).  ``proxy_config`` is the client proxy's policy (see
    ``GvfsSession.build``).
    """
    testbed = testbed or make_paper_testbed()
    env = testbed.env

    if endpoint is None and scenario is not Scenario.LOCAL:
        host = (testbed.lan_server if scenario is Scenario.LAN
                else testbed.wan_server)
        endpoint = ServerEndpoint(env, host)
    image = VmImage.create(_image_home(testbed, scenario, endpoint),
                           "/images/appvm", APP_VM_CONFIG)
    session = GvfsSession.build(testbed, scenario, endpoint=endpoint,
                                mount_options=mount_options, via=via,
                                cache_config=cache_config,
                                proxy_config=proxy_config)

    sample = workload_factory()
    result = AppBenchResult(scenario=scenario, workload=sample.name)

    def driver(env):
        disk_file = yield env.process(session.mount.open(image.disk_path))
        vm = VirtualMachine(env, testbed.compute[0], APP_VM_CONFIG,
                            disk_file, redo=None)
        if sample.guest_cache_bytes is not None:
            vm._guest_cache_capacity = max(
                sample.guest_cache_bytes // vm.block_size, 16)
        # Cold-cache setup for the first run.
        yield env.process(session.cold_caches())
        vm.drop_guest_caches()
        for run_index in range(runs):
            if cold_between and run_index:
                yield env.process(session.cold_caches())
                vm.drop_guest_caches()
            workload = workload_factory()
            run_result = yield env.process(workload.run(vm))
            result.runs.append(run_result)
        # Leave the session consistent (flush dirty write-back state);
        # reported separately, like the paper's write-back flush time.
        t0 = env.now
        yield env.process(session.flush())
        result.flush_seconds = env.now - t0

    env.process(driver(env))
    env.run()
    result.session = session
    return result
