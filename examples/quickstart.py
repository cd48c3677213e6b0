#!/usr/bin/env python
"""Quickstart: a GVFS session end to end in ~60 lines.

Builds the paper's testbed, publishes a golden VM image on the WAN
image server, wires a WAN+C session (kernel client -> caching proxy ->
SSH tunnel -> server proxy -> NFS server), and reads the VM's memory
state through the whole chain — demonstrating zero-block filtering, the
compressed file channel, and the proxy disk cache.

Run:  python examples/quickstart.py
"""

from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import make_paper_testbed
from repro.vm.image import VmConfig, VmImage


def main() -> None:
    # 1. The testbed of §4.1: compute server at UF, image server at
    #    Northwestern, ~38 ms RTT across Abilene.
    testbed = make_paper_testbed()
    env = testbed.env

    # 2. Middleware publishes a golden image and pre-processes its
    #    memory state: a zero-block map plus the
    #    compress/remote-copy/uncompress/read-locally action list.
    endpoint = ServerEndpoint(env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=32,
                                    disk_gb=0.1, seed=1))
    meta = image.generate_metadata()
    print(f"golden image: {image.config.memory_mb} MB memory, "
          f"{meta.n_zero_blocks}/{meta.n_blocks} blocks zero-filled")

    # 3. Build the per-user session: this is what Grid middleware does
    #    when a user's computation is scheduled on the compute server.
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint)

    # 4. Read the whole memory state through the chain, as a VM resume
    #    would, and verify every byte against the golden copy.
    def resume_like_read(env):
        f = yield env.process(session.mount.open("/images/golden/mem.vmss"))
        golden = image.memory_inode.data
        offset = 0
        t0 = env.now
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            assert data == golden.read(offset, len(data)), "corruption!"
            offset += len(data)
        print(f"read {offset >> 20} MB through the proxy chain "
              f"in {env.now - t0:.1f} simulated seconds")

    env.process(resume_like_read(env))
    env.run()

    # 5. What the extensions did for us.
    #    Counters live in the layer that owns them, keyed by role.
    layers = session.client_proxy.stats_snapshot()
    channel = session.client_proxy.channel
    print("zero-filtered reads : "
          f"{layers['metadata']['zero_filtered_reads']}")
    print("file-cache reads    : "
          f"{layers['file-channel']['file_cache_reads']}")
    print("channel fetches     : "
          f"{layers['file-channel']['channel_fetches']} "
          f"({channel.bytes_on_wire >> 10} KB on the wire for "
          f"{channel.bytes_logical >> 20} MB of state)")
    print(f"forwarded upstream  : {layers['upstream-rpc']['forwarded']} calls")


if __name__ == "__main__":
    main()
