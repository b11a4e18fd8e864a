"""Tests for batched delivery: the inbox, ordering, and node hooks."""

import pytest

from repro.errors import SimulationError
from repro.sim import Message, NetworkTopology, ProtocolNode, Simulator
from repro.sim.events import DeliveryInbox


class Recorder(ProtocolNode):
    """Collects payloads and batch boundaries."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []
        self.batches = []

    def deliver_batch(self, messages):
        self.batches.append([m.payload.get("n") for m in messages])
        super().deliver_batch(messages)

    def on_data(self, message):
        self.seen.append(message.payload["n"])


def star(batch_delivery=True):
    topo = NetworkTopology.from_edges([("a", "c"), ("b", "c")])
    sim = Simulator(topo, batch_delivery=batch_delivery)
    nodes = {name: Recorder(name) for name in "abc"}
    for node in nodes.values():
        sim.add_node(node)
    return sim, nodes


class TestDeliveryInbox:
    def test_first_message_opens_slot(self):
        inbox = DeliveryInbox()
        assert inbox.add(1.0, "x", "m1") is True
        assert inbox.add(1.0, "x", "m2") is False
        assert inbox.add(2.0, "x", "m3") is True
        assert inbox.pending == 3
        assert inbox.collect(1.0, "x") == ("m1", "m2")
        assert inbox.pending == 1

    def test_collect_missing_slot_raises(self):
        with pytest.raises(SimulationError, match="no pending"):
            DeliveryInbox().collect(1.0, "x")


class TestBatchedDelivery:
    def test_same_instant_messages_coalesce(self):
        sim, nodes = star()
        nodes["a"].send("c", "data", n=1)
        nodes["b"].send("c", "data", n=2)
        processed = sim.run_until_quiescent()
        # Two messages, one delivery event.
        assert processed == 1
        assert nodes["c"].batches == [[1, 2]]
        assert nodes["c"].seen == [1, 2]

    def test_send_order_preserved_within_batch(self):
        sim, nodes = star()
        for n in range(6):
            (nodes["a"] if n % 2 else nodes["b"]).send("c", "data", n=n)
        sim.run_until_quiescent()
        assert nodes["c"].seen == list(range(6))

    def test_different_instants_stay_separate(self):
        topo = NetworkTopology()
        for name in "abc":
            topo.add_node(name)
        topo.add_link("a", "c", delay=1.0)
        topo.add_link("b", "c", delay=2.0)
        sim = Simulator(topo)
        nodes = {name: Recorder(name) for name in "abc"}
        for node in nodes.values():
            sim.add_node(node)
        nodes["a"].send("c", "data", n=1)
        nodes["b"].send("c", "data", n=2)
        sim.run_until_quiescent()
        assert nodes["c"].batches == [[1], [2]]

    def test_per_message_metrics_unchanged(self):
        sim, nodes = star()
        nodes["a"].send("c", "data", n=1)
        nodes["b"].send("c", "data", n=2)
        sim.run_until_quiescent()
        assert sim.metrics.node("c").messages_received == 2
        assert sim.metrics.total_messages == 2

    def test_inbound_filter_applies_per_message(self):
        sim, nodes = star()
        nodes["c"].inbound = lambda m: None if m.payload["n"] == 1 else m
        nodes["a"].send("c", "data", n=1)
        nodes["b"].send("c", "data", n=2)
        sim.run_until_quiescent()
        assert nodes["c"].seen == [2]

    def test_unbatched_mode_matches_seed_behaviour(self):
        sim, nodes = star(batch_delivery=False)
        nodes["a"].send("c", "data", n=1)
        nodes["b"].send("c", "data", n=2)
        processed = sim.run_until_quiescent()
        # One event per message, each delivered as a batch of one.
        assert processed == 2
        assert nodes["c"].batches == [[1], [2]]
        assert nodes["c"].seen == [1, 2]


class TestMulticastSizing:
    def test_multicast_shares_one_size(self):
        sim, nodes = star()
        payload_vector = tuple((i, float(i), ("p", "q")) for i in range(5))
        nodes["c"].multicast(("a", "b"), "data", n=0, vector=payload_vector)
        sim.run_until_quiescent()
        sent = sim.metrics.node("c")
        assert sent.messages_sent == 2
        # Both copies accounted with the same (full) payload size.
        assert sent.payload_units_sent % 2 == 0

    def test_size_cache_not_inherited_by_altered(self):
        message = Message(src="a", dst="b", kind="x", payload={"v": (1, 2, 3)})
        assert message.size == 3
        altered = message.altered(v=(1,))
        assert altered.size == 1
