"""Tests for hosts and the paper testbed wiring."""

import pytest

from repro.net.topology import LAN_2003, WAN_2003, Host, Testbed, make_paper_testbed
from repro.sim import Environment


def test_host_compute_holds_cpu():
    env = Environment()
    host = Host(env, "h", cpus=1, cpu_speed=2.0)
    times = []

    def proc(env):
        yield host.compute(4.0)  # scaled by speed 2.0 -> 2 s
        times.append(env.now)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert times == [pytest.approx(2.0), pytest.approx(4.0)]


def test_host_multi_cpu_runs_parallel():
    env = Environment()
    host = Host(env, "h", cpus=2)
    times = []

    def proc(env):
        yield host.compute(3.0)
        times.append(env.now)

    for _ in range(2):
        env.process(proc(env))
    env.run()
    assert times == [pytest.approx(3.0), pytest.approx(3.0)]


def test_testbed_routes_have_expected_latency():
    tb = make_paper_testbed()
    lan = tb.route(tb.compute[0], tb.lan_server)
    wan = tb.wan_route()
    assert lan.latency == pytest.approx(2 * LAN_2003.latency)
    assert wan.latency == pytest.approx(2 * LAN_2003.latency + WAN_2003.latency)
    # WAN RTT lands near the Abilene-era ~38 ms.
    assert 0.030 < 2 * wan.latency < 0.045


def test_testbed_wan_bottleneck_is_access_link():
    tb = make_paper_testbed()
    assert tb.wan_route().bottleneck_bandwidth == pytest.approx(LAN_2003.bandwidth)


def test_testbed_parallel_compute_nodes_share_wan_segment():
    tb = make_paper_testbed(n_compute=8)
    assert len(tb.compute) == 8
    fwd_links = {id(l) for i in range(8) for l in [tb.wan_route(i).links[1]]}
    assert len(fwd_links) == 1  # the shared Abilene hop


def test_testbed_routes_back_use_reverse_direction():
    tb = make_paper_testbed()
    fwd = tb.wan_route().links[1]
    rev = tb.wan_route_back().links[1]
    assert fwd is tb.wan_segment[0]
    assert rev is tb.wan_segment[1]


def test_lan_server_to_wan_server_route():
    tb = make_paper_testbed()
    r = tb.route(tb.lan_server, tb.wan_server, via_wan=True)
    assert r.links[1] is tb.wan_segment[0]
    back = tb.route(tb.wan_server, tb.lan_server, via_wan=True)
    assert back.links[1] is tb.wan_segment[1]


def test_testbed_requires_compute_node():
    with pytest.raises(ValueError):
        Testbed(Environment(), n_compute=0)
