"""Telemetry of the dynamic-topology subsystem.

Reconvergence must be observable: every epoch of either churn driver
emits one ``churn.epoch`` marker plus the same ``churn`` counter deltas
on the default bus (and into ``telemetry.jsonl`` when a sink is
attached), the faithful epoch runner also emits ``mirror.epoch``
markers when the mirrors anchor and a ``churn.flags`` count, and the
sweep status renderer surfaces churn progress.
"""

import random

from repro.faithful.epochs import run_checked_churn
from repro.obs import BUS, JsonlSink, feed_status, read_feed, render_status
from repro.obs.trace import aggregate_counters
from repro.routing import figure1_graph
from repro.routing.dynamic import run_dynamic_fpss
from repro.sim.churn import ChurnEvent, ChurnSchedule, random_churn_schedule
from repro.workloads import random_biconnected_graph


def two_epoch_schedule(graph):
    return random_churn_schedule(
        graph, random.Random(3), epochs=2, events_per_epoch=1
    )


class TestEpochMarkers:
    def test_dynamic_run_emits_one_marker_per_epoch(self):
        graph = random_biconnected_graph(8, random.Random(1))
        schedule = two_epoch_schedule(graph)
        with BUS.capture() as sink:
            run_dynamic_fpss(graph, schedule)
        markers = [e for e in sink.events if e.kind == "marker"
                   and e.name == "churn.epoch"]
        assert [m.attrs["epoch"] for m in markers] == [1, 2]
        for marker, events in zip(markers, schedule.epochs):
            assert marker.attrs["events"] == [e.describe() for e in events]
            assert marker.attrs["reconvergence_messages"] >= 0

    def test_counters_aggregate_per_run(self):
        graph = random_biconnected_graph(8, random.Random(1))
        schedule = two_epoch_schedule(graph)
        with BUS.capture() as sink:
            run_dynamic_fpss(graph, schedule)
        totals = aggregate_counters(sink.events)
        assert totals["churn.epochs"] == 2
        assert totals["churn.events"] == schedule.event_count
        assert totals["churn.reconvergence_messages"] > 0

    def test_checked_churn_emits_mirror_epoch_markers(self):
        schedule = ChurnSchedule.single(
            ChurnEvent(kind="cost", node="C", cost=2.0)
        )
        with BUS.capture() as sink:
            run_checked_churn(figure1_graph(), schedule)
        bumps = [e for e in sink.events if e.kind == "marker"
                 and e.name == "mirror.epoch"]
        # One marker per anchoring: epoch 0's construction, then the
        # epoch's re-anchor boundary.
        assert [b.attrs["epoch"] for b in bumps] == [0, 1]
        totals = aggregate_counters(sink.events)
        assert totals["churn.epochs"] == 1
        assert totals["churn.reconvergence_events"] > 0

    def test_both_drivers_emit_one_marker_and_the_same_counters(self):
        """A checked epoch emits the plain engine's ``churn.epoch``
        marker and counter names, plus its flag count."""
        graph = figure1_graph()
        schedule = ChurnSchedule.single(
            ChurnEvent(kind="cost", node="C", cost=2.0),
            ChurnEvent(kind="link-up", link=("A", "C")),
        )
        captured = {}
        for driver, run in (
            ("plain", run_dynamic_fpss),
            ("checked", run_checked_churn),
        ):
            with BUS.capture() as sink:
                run(graph, schedule)
            markers = [e for e in sink.events if e.kind == "marker"
                       and e.name == "churn.epoch"]
            assert [m.attrs["epoch"] for m in markers] == [1]
            assert markers[0].attrs["events"] == [
                e.describe() for e in schedule.epochs[0]
            ]
            captured[driver] = {
                name: value
                for name, value in aggregate_counters(sink.events).items()
                if name.startswith("churn.")
            }
        plain, checked = captured["plain"], captured["checked"]
        assert set(plain) == {
            "churn.epochs", "churn.events",
            "churn.reconvergence_events", "churn.reconvergence_messages",
        }
        assert set(checked) == set(plain) | {"churn.flags"}
        for totals in (plain, checked):
            assert totals["churn.epochs"] == 1
            assert totals["churn.events"] == 2
        assert checked["churn.flags"] == 0

    def test_checked_epochs_report_reconvergence_like_the_plain_engine(self):
        """A checked epoch records messages and simulated time from its
        events to its checkpoint, as ``EpochReport`` does, and its
        ``churn`` counter record carries the messages."""
        schedule = ChurnSchedule.single(
            ChurnEvent(kind="cost", node="C", cost=2.0)
        )
        with BUS.capture() as sink:
            run = run_checked_churn(figure1_graph(), schedule)
        plain = run_dynamic_fpss(figure1_graph(), schedule).epochs[0]
        report = run.epochs[0]
        # 9 flood relays (2|E| - (n - 1) = 14 - 5), the plain engine's
        # 18 table updates for the same epoch, and 26 checker-copy
        # bundles.
        assert plain.reconvergence_messages == 18
        assert report.reconvergence_messages == 9 + 18 + 26
        # 3 ticks of flood, the plain engine's 3 ticks of repair, and
        # 1 tick for the last checker copies.
        assert plain.reconvergence_time == 3.0
        assert report.reconvergence_time == 3.0 + 3.0 + 1.0
        totals = aggregate_counters(sink.events)
        assert totals["churn.reconvergence_messages"] == 53

    def test_markers_reach_a_jsonl_sink(self, tmp_path):
        graph = random_biconnected_graph(6, random.Random(4))
        schedule = two_epoch_schedule(graph)
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(str(path))
        BUS.attach(sink)
        try:
            run_dynamic_fpss(graph, schedule)
        finally:
            BUS.detach(sink)
            sink.close()
        events = read_feed(str(path))
        names = [e.name for e in events if e.kind == "marker"]
        assert names.count("churn.epoch") == 2

    def test_silent_without_a_sink(self):
        """The default bus is disabled unless observed: a plain run
        must not pay for (or leak) any telemetry."""
        graph = random_biconnected_graph(6, random.Random(4))
        assert not BUS.enabled
        run_dynamic_fpss(graph, two_epoch_schedule(graph))
        assert not BUS.enabled


class TestStatusRendering:
    def test_render_status_surfaces_churn_progress(self):
        with BUS.capture() as sink:
            graph = random_biconnected_graph(8, random.Random(1))
            run_dynamic_fpss(graph, two_epoch_schedule(graph))
        totals = aggregate_counters(sink.events)
        status = feed_status([])
        status.counters.update(totals)
        rendered = render_status(status)
        assert "churn: 2 reconvergence epoch(s)" in rendered
        assert "reconvergence messages" in rendered

    def test_render_status_counts_checked_events(self):
        """The status line of a 2-event checked epoch counts its
        events, not only its epoch."""
        schedule = ChurnSchedule.single(
            ChurnEvent(kind="cost", node="C", cost=2.0),
            ChurnEvent(kind="link-up", link=("A", "C")),
        )
        with BUS.capture() as sink:
            run = run_checked_churn(figure1_graph(), schedule)
        status = feed_status([])
        status.counters.update(aggregate_counters(sink.events))
        messages = run.epochs[0].reconvergence_messages
        assert (
            f"churn: 1 reconvergence epoch(s), 2 events, {messages} "
            f"reconvergence messages"
        ) in render_status(status)

    def test_render_status_stays_quiet_without_churn(self):
        rendered = render_status(feed_status([]))
        assert "churn:" not in rendered
