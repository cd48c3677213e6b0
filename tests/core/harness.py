"""Shared wiring for GVFS core integration tests: a small testbed with
a seeded image server and session builders per scenario."""

from repro.core.blockcache import ProxyBlockCache
from repro.core.config import CachePolicy, ProxyCacheConfig, ProxyConfig
from repro.core.filecache import ProxyFileCache
from repro.core.layers import (
    AttrPatchLayer,
    BlockCacheLayer,
    DegradedModeLayer,
    FileChannelLayer,
    ProxyStack,
    ReadaheadLayer,
    UpstreamRpcLayer,
    ZeroMapLayer,
)
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
    direct_file_channel,
)
from repro.net.ssh import ScpTransfer, SshTunnel
from repro.net.topology import Testbed
from repro.nfs.client import MountOptions
from repro.nfs.rpc import RpcClient
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage

#: A small, fast test cache geometry (64 MB, 32 banks, 4-way).
SMALL_CACHE = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                               n_banks=32, associativity=4)

#: Proxy policy with sequential readahead off, so each test read is
#: exactly one upstream block.
NO_READAHEAD = ProxyConfig(readahead_depth=0)


class ComposedSecondLevel:
    """The wiring of ``build_cascade(testbed, endpoint, [config])``, but
    with the proxy built as a raw ProxyStack from an explicit layer
    list (no CascadeLevel, no GvfsProxy involved)."""

    def __init__(self, testbed, endpoint, cache_config,
                 name="second-level"):
        env = testbed.env
        self.env = env
        self.testbed = testbed
        self.endpoint = endpoint
        self.host = testbed.lan_server
        tunnel_out = SshTunnel(env, testbed.lan_server_route(),
                               name=f"{name}.out")
        tunnel_back = SshTunnel(env, testbed.lan_server_route_back(),
                                name=f"{name}.back")
        upstream = RpcClient(env, endpoint.proxy, tunnel_out, tunnel_back,
                             name=f"{name}.rpc")
        self.block_cache = ProxyBlockCache(env, self.host.local, cache_config,
                                           name=f"{name}.blocks")
        file_cache = ProxyFileCache(env, self.host.local,
                                    name=f"{name}.files")
        scp = ScpTransfer(env, testbed.lan_server_route_back(),
                          name=f"{name}.scp")
        self.channel = direct_file_channel(env, endpoint, self.host,
                                           file_cache, scp)
        self.proxy = ProxyStack(
            env, upstream,
            ProxyConfig(name=name, cache=cache_config, metadata=True),
            [AttrPatchLayer(), ZeroMapLayer(),
             FileChannelLayer(self.channel),
             BlockCacheLayer(self.block_cache), ReadaheadLayer(),
             DegradedModeLayer(), UpstreamRpcLayer()])


class Rig:
    """Testbed + WAN image server + one session."""

    def __init__(self, scenario=Scenario.WAN_CACHED, n_compute=1,
                 cache_config=SMALL_CACHE, mount_options=None,
                 metadata=True, image_mb=4, via_second_level=False,
                 proxy_config=ProxyConfig()):
        self.testbed = Testbed(Environment(), n_compute=n_compute)
        self.env = self.testbed.env
        self.endpoint = ServerEndpoint(self.env, self.testbed.wan_server)
        self.second_level = (build_cascade(self.testbed, self.endpoint,
                                           [SMALL_CACHE],
                                           proxy_config=proxy_config).top
                             if via_second_level else None)
        self.image = VmImage.create(
            self.endpoint.export.fs, "/images/golden",
            VmConfig(name="golden", memory_mb=image_mb, disk_gb=0.01, seed=7))
        self.sessions = [
            GvfsSession.build(self.testbed, scenario, endpoint=self.endpoint,
                              compute_index=i, cache_config=cache_config,
                              mount_options=mount_options, metadata=metadata,
                              via=self.second_level,
                              proxy_config=proxy_config)
            for i in range(n_compute)]
        self.session = self.sessions[0]
        self.mount = self.session.mount

    def run(self, gen):
        box = {}

        def wrapper(env):
            box["value"] = yield env.process(gen)
            box["t"] = env.now

        self.env.process(wrapper(self.env))
        self.env.run()
        return box["value"], box["t"]
