"""Reference-model equivalence for ``Link.transmit``.

The production link sleeps once per uncontended hop; the oracle in
``reference_link.py`` is the three-event model it replaced.  Both run
the same seeded random schedules — 1-3 hop routes, mixed sizes,
simultaneous arrivals, interrupts in every phase (with a
retransmission after each), ``fail``/``restore`` with and without
``drop_on_fail`` — and every simulated instant and link counter must
compare equal with ``==``: no interval may move, only sequence numbers.
"""

import random

import pytest

from repro.net.link import Link, Route
from repro.sim import Environment, Interrupt

from tests.net.reference_link import ReferenceLink

SIZES = (0, 100, 1500, 8192, 32768, 65536, 1 << 20)
SCHEDULES = 240
BLOCK = 20


def make_plan(seed: int) -> dict:
    """One random schedule as plain data, so both models replay it."""
    rng = random.Random(seed)
    n_links = rng.randint(2, 5)
    links = [{"latency": rng.choice((0.0, rng.uniform(1e-4, 4e-2))),
              "bandwidth": rng.uniform(2e5, 5e7),
              "drop_on_fail": rng.random() < 0.3}
             for _ in range(n_links)]
    horizon = rng.uniform(0.5, 3.0)
    bursts = [rng.uniform(0.0, horizon) for _ in range(rng.randint(1, 4))]
    messages = []
    for _ in range(rng.randint(15, 60)):
        hops = rng.sample(range(n_links), rng.randint(1, min(3, n_links)))
        start = (rng.choice(bursts) if rng.random() < 0.5
                 else rng.uniform(0.0, horizon))
        nbytes = rng.choice(SIZES) + rng.choice((0, rng.randint(0, 999)))
        strike = None
        if rng.random() < 0.35:
            # Aim at one phase of the first hop when unloaded; under
            # contention the same instant lands in the queue instead.
            first = links[hops[0]]
            ser = (nbytes + 160) / first["bandwidth"]
            phase = rng.choice(("queue", "serialize", "propagate", "late"))
            if phase == "queue":
                strike = start + ser * rng.uniform(0.0, 0.05)
            elif phase == "serialize":
                strike = start + ser * rng.uniform(0.05, 0.99)
            elif phase == "propagate" and first["latency"]:
                # Never the very instant serialization ends: which of
                # two same-instant events runs first is tie order.
                strike = start + ser + first["latency"] * rng.uniform(0.01, 1)
            else:
                strike = start + rng.uniform(0.0, 0.5)
        messages.append({"hops": hops, "start": start, "nbytes": nbytes,
                         "strike": strike})
    outages = []
    for index in range(n_links):
        t = 0.0
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            down = t + rng.uniform(0.0, horizon)
            up = down + rng.uniform(1e-4, 0.6)
            outages.append((index, down, up))
            t = up
    return {"links": links, "messages": messages, "outages": outages}


def run_plan(link_cls, plan: dict) -> dict:
    env = Environment()
    links = []
    for i, spec in enumerate(plan["links"]):
        link = link_cls(env, spec["latency"], spec["bandwidth"], name=f"l{i}")
        link.drop_on_fail = spec["drop_on_fail"]
        links.append(link)
    outcome = {}

    def sender(index, message):
        route = Route([links[h] for h in message["hops"]])
        yield env.timeout(message["start"])
        attempts = 0
        while True:
            try:
                yield from route.transmit(message["nbytes"])
                break
            except Interrupt:
                # A hardened RPC client would retransmit; so do we.
                attempts += 1
                outcome[index, "interrupted", attempts] = env.now
        outcome[index, "arrived"] = env.now

    def striker(proc, when):
        yield env.timeout(when)
        if proc.is_alive:
            proc.interrupt("rpc timeout")

    def flap(link, down, up):
        yield env.timeout(down)
        link.fail()
        yield env.timeout(up - down)
        link.restore()

    for index, message in enumerate(plan["messages"]):
        proc = env.process(sender(index, message))
        if message["strike"] is not None:
            env.process(striker(proc, message["strike"]))
    for index, down, up in plan["outages"]:
        env.process(flap(links[index], down, up))
    env.run()
    outcome["links"] = [
        (l.bytes_sent, l.messages_sent, l.busy_time, l.drops, l.outages,
         l.queue_length) for l in links]
    outcome["events"] = env.events_scheduled
    return outcome


@pytest.mark.parametrize("block", range(SCHEDULES // BLOCK))
def test_one_wakeup_link_matches_three_event_reference(block):
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        plan = make_plan(seed)
        got = run_plan(Link, plan)
        want = run_plan(ReferenceLink, plan)
        del got["events"], want["events"]     # the one thing meant to differ
        assert got == want, f"schedule {seed} diverged"


def test_schedules_exercise_every_hazard():
    """The plans above are not vacuous: across them messages queue,
    are interrupted, stall behind outages and are dropped."""
    interrupted = stalled = dropped = queued = cheaper = 0
    for seed in range(0, SCHEDULES, 4):
        plan = make_plan(seed)
        want = run_plan(ReferenceLink, plan)
        got = run_plan(Link, plan)
        interrupted += sum(1 for key in want if "interrupted" in key)
        dropped += sum(link[3] for link in want["links"])
        stalled += sum(link[4] for link in want["links"])
        unloaded = {
            i: m["start"] + sum(
                (m["nbytes"] + 160) / plan["links"][h]["bandwidth"]
                + plan["links"][h]["latency"] for h in m["hops"])
            for i, m in enumerate(plan["messages"])}
        queued += sum(1 for i, t in unloaded.items()
                      if want.get((i, "arrived"), 0.0) > t * (1 + 1e-9))
        cheaper += want["events"] - got["events"]
    assert interrupted > 50 and dropped > 5 and stalled > 20 and queued > 100
    assert cheaper > 0


def _sender(env, link, done, tag, nbytes):
    """One message on a 1 MB/s link; ``nbytes`` counts the header in."""
    try:
        yield from link.transmit(nbytes - 160)
        done.append((tag, env.now))
    except Interrupt:
        done.append((tag, "interrupted", env.now, link.queue_length))


def test_interrupt_while_queued_leaves_the_queue():
    env = Environment()
    link = Link(env, latency=0.01, bandwidth=1e6)
    done = []
    env.process(_sender(env, link, done, "a", 10_000))
    b = env.process(_sender(env, link, done, "b", 1000))
    env.process(_sender(env, link, done, "c", 1000))
    env.run(until=0.004)
    assert link.queue_length == 2
    b.interrupt()
    env.run()
    assert done == [("b", "interrupted", 0.004, 1),
                    ("a", 0.01 + 0.01), ("c", (0.01 + 0.001) + 0.01)]
    assert link.busy_time == 0.01 + 0.001 and link.messages_sent == 2


def test_interrupt_mid_serialization_frees_the_transmitter_at_once():
    env = Environment()
    link = Link(env, latency=0.01, bandwidth=1e6)
    done = []
    a = env.process(_sender(env, link, done, "a", 10_000))
    env.process(_sender(env, link, done, "b", 1000))
    env.run(until=0.004)
    a.interrupt()
    env.run()
    # b is granted at the interrupt instant, not at a's planned end, and
    # the aborted serialization is never charged to the link.
    assert done == [("a", "interrupted", 0.004, 0),
                    ("b", (0.004 + 0.001) + 0.01)]
    assert link.busy_time == 0.001
    assert link.bytes_sent == 1000 - 160 and link.queue_length == 0


def test_interrupt_mid_propagation_undoes_nothing():
    env = Environment()
    link = Link(env, latency=0.01, bandwidth=1e6)
    done = []
    a = env.process(_sender(env, link, done, "a", 1000))
    env.run(until=0.005)
    a.interrupt()
    env.process(_sender(env, link, done, "b", 1000))
    env.run()
    assert done == [("a", "interrupted", 0.005, 0),
                    ("b", (0.005 + 0.001) + 0.01)]
    assert link.busy_time == 0.001 + 0.001      # a's serialization stands
    assert link.messages_sent == 1


def test_uncontended_hop_costs_one_event():
    env = Environment()
    link = Link(env, latency=0.01, bandwidth=1e6)
    env.process(link.transmit(8192))
    env.run()
    assert env.events_scheduled == 3    # bootstrap, arrival, process end


def test_outage_during_serialization_stalls_until_repair():
    env = Environment()
    link = Link(env, latency=0.01, bandwidth=1e6)
    times = []

    def send():
        yield from link.transmit(10_000 - 160)
        times.append(env.now)

    def flap():
        yield env.timeout(0.005)
        link.fail()
        yield env.timeout(0.001)
        link.restore()          # back up before serialization ends
        yield env.timeout(0.003)
        link.fail()             # down when it ends (t = 0.010)
        yield env.timeout(0.5)
        link.restore()

    env.process(send())
    env.process(flap())
    env.run()
    assert times == [(((0.005 + 0.001) + 0.003) + 0.5) + 0.01]
