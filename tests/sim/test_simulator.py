"""Tests for the discrete-event simulator and protocol nodes."""

import pytest

from repro.errors import ConvergenceError, ProtocolError, SimulationError
from repro.sim import Message, NetworkTopology, ProtocolNode, Simulator


class Echo(ProtocolNode):
    """Replies 'pong' to every 'ping'."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.pings = 0
        self.pongs = 0

    def on_ping(self, message):
        self.pings += 1
        self.send(message.src, "pong")

    def on_pong(self, message):
        self.pongs += 1


def make_pair():
    topo = NetworkTopology.from_edges([("a", "b")])
    sim = Simulator(topo)
    a, b = Echo("a"), Echo("b")
    sim.add_node(a)
    sim.add_node(b)
    return sim, a, b


class TestRegistration:
    def test_duplicate_node_rejected(self):
        sim, a, b = make_pair()
        with pytest.raises(SimulationError, match="duplicate"):
            sim.add_node(Echo("a"))

    def test_node_must_be_topology_vertex(self):
        sim, *_ = make_pair()
        with pytest.raises(SimulationError, match="not a vertex"):
            sim.add_node(Echo("ghost"))

    def test_well_known_node_needs_no_vertex(self):
        sim, a, b = make_pair()
        bank = Echo("bank")
        sim.add_node(bank, well_known=True)
        a.send("bank", "ping")
        sim.run_until_quiescent()
        assert bank.pings == 1

    def test_double_attach_rejected(self):
        sim, a, _ = make_pair()
        with pytest.raises(SimulationError, match="already attached"):
            a.attach(sim)


class TestDelivery:
    def test_ping_pong(self):
        sim, a, b = make_pair()
        a.send("b", "ping")
        processed = sim.run_until_quiescent()
        assert b.pings == 1
        assert a.pongs == 1
        assert processed == 2

    def test_non_neighbor_send_rejected(self):
        topo = NetworkTopology.from_edges([("a", "b"), ("b", "c")])
        sim = Simulator(topo)
        for name in "abc":
            sim.add_node(Echo(name))
        with pytest.raises(
            SimulationError,
            match="'a' cannot send to non-neighbour 'c'; "
            "only the bank is reachable without a link",
        ):
            sim.node("a").send("c", "ping")

    def test_send_to_unregistered_vertex_rejected(self):
        topo = NetworkTopology.from_edges([("a", "b")])
        sim = Simulator(topo)
        sim.add_node(Echo("a"))
        with pytest.raises(SimulationError, match="message to unknown node 'b'"):
            sim.node("a").send("b", "ping")

    def test_bank_traffic_takes_unit_delay(self):
        """A well-known endpoint needs no link, and its channel takes
        one tick whatever the topology's link delays are."""
        topo = NetworkTopology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", delay=5.0)
        sim = Simulator(topo)
        a, bank = Echo("a"), Echo("bank")
        sim.add_node(a)
        sim.add_node(Echo("b"))
        sim.add_node(bank, well_known=True)
        a.send("bank", "ping")
        sim.run_until_quiescent()
        assert (bank.pings, a.pongs) == (1, 1)
        assert sim.now == 2.0

    def test_unknown_handler_raises(self):
        sim, a, b = make_pair()
        a.send("b", "mystery")
        with pytest.raises(ProtocolError, match="no handler"):
            sim.run_until_quiescent()

    def test_fifo_per_link(self):
        received = []

        class Collector(ProtocolNode):
            def on_data(self, message):
                received.append(message.payload["n"])

        topo = NetworkTopology.from_edges([("s", "r")])
        sim = Simulator(topo)
        sender = ProtocolNode("s")
        sim.add_node(sender)
        sim.add_node(Collector("r"))
        for n in range(10):
            sender.send("r", "data", n=n)
        sim.run_until_quiescent()
        assert received == list(range(10))

    def test_time_advances_by_link_delay(self):
        topo = NetworkTopology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", delay=5.0)
        sim = Simulator(topo)
        a, b = Echo("a"), Echo("b")
        sim.add_node(a)
        sim.add_node(b)
        a.send("b", "ping")
        sim.run_until_quiescent()
        assert sim.now == 10.0  # ping at 5, pong back at 10

    def test_event_budget_enforced(self):
        class Chatter(ProtocolNode):
            def on_ping(self, message):
                self.send(message.src, "ping")

        topo = NetworkTopology.from_edges([("a", "b")])
        sim = Simulator(topo)
        sim.add_node(Chatter("a"))
        sim.add_node(Chatter("b"))
        sim.node("a").send("b", "ping")
        with pytest.raises(ConvergenceError, match="did not quiesce"):
            sim.run_until_quiescent(max_events=100)


class TestFiltersAndHooks:
    def test_outbound_filter_drop(self):
        sim, a, b = make_pair()
        a.outbound = lambda message: None
        a.send("b", "ping")
        sim.run_until_quiescent()
        assert b.pings == 0
        drops = [e for e in sim.trace.events if e.kind.value == "drop"]
        assert len(drops) == 1

    def test_inbound_filter_replace(self):
        sim, a, b = make_pair()
        b.inbound = lambda message: message.altered(tag=True)
        seen = {}
        b.on_ping = lambda message: seen.update(message.payload)
        a.send("b", "ping")
        sim.run_until_quiescent()
        assert seen == {"tag": True}

    def test_start_hooks_scheduled(self):
        started = []

        class Starter(ProtocolNode):
            def start(self):
                started.append(self.node_id)

        topo = NetworkTopology.from_edges([("a", "b")])
        sim = Simulator(topo)
        sim.add_node(Starter("a"))
        sim.add_node(Starter("b"))
        sim.start()
        sim.run_until_quiescent()
        assert started == ["a", "b"]

    def test_schedule_local_negative_delay_rejected(self):
        sim, a, _ = make_pair()
        with pytest.raises(SimulationError, match="negative"):
            a.schedule(-1.0, lambda: None)

    def test_metrics_counters(self):
        sim, a, b = make_pair()
        a.send("b", "ping")
        sim.run_until_quiescent()
        assert sim.metrics.node("a").messages_sent == 1
        assert sim.metrics.node("b").messages_received == 1
        assert sim.metrics.node("b").messages_sent == 1
        assert sim.metrics.total_messages == 2
        assert sim.metrics.events_processed == 2

    def test_detached_node_has_no_sim(self):
        node = ProtocolNode("lonely")
        with pytest.raises(SimulationError, match="not attached"):
            node.sim
