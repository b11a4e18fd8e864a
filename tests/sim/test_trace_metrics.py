"""Tests for the overhead metrics."""

from repro.sim import MetricsRegistry


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.record_send("a", payload_units=3)
        metrics.record_send("a", payload_units=2)
        metrics.record_receive("b")
        metrics.record_computation("a")
        metrics.record_computation("a", as_checker=True)
        assert metrics.node("a").messages_sent == 2
        assert metrics.node("a").payload_units_sent == 5
        assert metrics.node("b").messages_received == 1
        assert metrics.node("a").computations == 1
        assert metrics.node("a").checker_computations == 1

    def test_aggregates(self):
        metrics = MetricsRegistry()
        metrics.record_send("a", 2)
        metrics.record_send("b", 4)
        metrics.record_computation("a")
        summary = metrics.summary()
        assert summary["total_messages"] == 2
        assert summary["total_payload_units"] == 6
        assert summary["total_computations"] == 1
        assert summary["total_checker_computations"] == 0

    def test_as_dict(self):
        metrics = MetricsRegistry()
        metrics.record_send("a")
        d = metrics.node("a").as_dict()
        assert d["messages_sent"] == 1

    def test_per_node_view_is_copy(self):
        metrics = MetricsRegistry()
        metrics.record_send("a")
        view = metrics.per_node
        view.clear()
        assert metrics.node("a").messages_sent == 1

