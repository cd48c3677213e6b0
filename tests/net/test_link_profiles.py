"""Per-hop link profiles: named calibrations for added hosts and
cascade levels (rack vs site vs WAN)."""

import pytest

from repro.net.topology import (
    LAN_2003,
    LINK_PROFILES,
    NetworkConditions,
    RACK_2003,
    SITE_2003,
    WAN_2003,
    make_paper_testbed,
    resolve_profile,
)


def test_profile_table_contents():
    assert LINK_PROFILES == {"lan": LAN_2003, "rack": RACK_2003,
                             "site": SITE_2003, "wan": WAN_2003}
    # Rack is the fast local hop; site adds delay at LAN port speed.
    assert RACK_2003.bandwidth > LAN_2003.bandwidth
    assert SITE_2003.latency > LAN_2003.latency
    assert SITE_2003.bandwidth == LAN_2003.bandwidth


def test_resolve_profile_by_name_and_passthrough():
    assert resolve_profile("rack") is RACK_2003
    custom = NetworkConditions(latency=0.002, bandwidth=5e6)
    assert resolve_profile(custom) is custom


def test_resolve_profile_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_profile("dialup")
    with pytest.raises(ValueError):
        resolve_profile(None)


def test_add_host_default_uses_lan_conditions():
    testbed = make_paper_testbed()
    host = testbed.add_host("cache-a")
    route = testbed.route(host, testbed.lan_server)
    assert route.links[0].latency == LAN_2003.latency
    assert route.links[0].bandwidth == LAN_2003.bandwidth


def test_add_host_with_profile_conditions():
    testbed = make_paper_testbed()
    rack = testbed.add_host("rack-cache", conditions=RACK_2003)
    site = testbed.add_host("site-cache", conditions=SITE_2003)
    r_rack = testbed.route(testbed.compute[0], rack)
    r_site = testbed.route(testbed.compute[0], site)
    # The destination's access (down) link carries its own calibration;
    # the source keeps the plain LAN access link.
    assert r_rack.links[-1].bandwidth == RACK_2003.bandwidth
    assert r_rack.links[-1].latency == RACK_2003.latency
    assert r_site.links[-1].latency == SITE_2003.latency
    assert r_rack.links[0].bandwidth == LAN_2003.bandwidth


def test_cascade_spec_profile_threads_to_host_link():
    from repro.core.session import (CascadeLevelSpec, ServerEndpoint,
                                    build_cascade)
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    cascade = build_cascade(testbed, endpoint, levels=[
        CascadeLevelSpec(profile="rack", name="rack-l2"),
        CascadeLevelSpec(profile="site", name="site-l3"),
    ])
    assert len(cascade) == 2
    rack_host = cascade[0].host
    site_host = cascade[1].host
    assert rack_host is not testbed.lan_server
    rack_link = testbed.route(testbed.compute[0], rack_host).links[-1]
    site_link = testbed.route(rack_host, site_host).links[-1]
    assert rack_link.bandwidth == RACK_2003.bandwidth
    assert site_link.latency == SITE_2003.latency


def test_cascade_spec_profile_conflicts_with_pinned_host():
    from repro.core.session import (CascadeLevelSpec, ServerEndpoint,
                                    build_cascade)
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    with pytest.raises(ValueError):
        build_cascade(testbed, endpoint, levels=[
            CascadeLevelSpec(host=testbed.lan_server, profile="rack")])


def test_cascade_profiled_level_still_serves_traffic():
    """A rack-profiled cascade level carries a session end to end."""
    from repro.core.session import (CascadeLevelSpec, GvfsSession, Scenario,
                                    ServerEndpoint, build_cascade)
    testbed = make_paper_testbed()
    env = testbed.env
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    fs.mkdir("/data", parents=True)
    fs.create("/data/blob", size=256 * 1024)
    cascade = build_cascade(testbed, endpoint, levels=[
        CascadeLevelSpec(profile="rack")])
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, via=cascade[0],
                                metadata=False)
    got = {}

    def driver(env):
        f = yield env.process(session.mount.open("/data/blob"))
        data = yield env.process(f.read(0, 64 * 1024))
        got["n"] = len(data)

    env.process(driver(env))
    env.run()
    assert got["n"] == 64 * 1024
    snap = cascade[0].proxy.stats_snapshot()
    assert any(counters.get("forwarded", 0) or counters.get("requests", 0)
               for counters in snap.values() if isinstance(counters, dict))
