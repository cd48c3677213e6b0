"""Per-hop link profiles: named calibrations for added hosts (rack vs
site vs WAN), as the replicated origin farm attaches its servers."""

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

