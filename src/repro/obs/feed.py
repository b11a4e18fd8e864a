"""The sweep telemetry feed: writer, status reduction, and following.

A sweep publishes its lifecycle to ``telemetry.jsonl`` inside the
artifact directory.  The protocol is *workers enqueue, the parent
serializes*: scenario workers capture their telemetry into an
in-memory ring (:func:`repro.experiments.runner.run_scenario_traced`)
and ship an aggregated counter block back with the result; only the
parent process ever writes the feed, so pooled and serial runs emit
record-equivalent feeds (same records per cell; only inter-cell order
and wall stamps differ).

Record vocabulary (``kind`` / meaning):

``sweep_start``
    Grid shape: total cells, pending vs reused, workers, sweep name.
``cell_start``
    A cell was dispatched (serial: immediately before it runs; pooled:
    when it is submitted to the pool).
``cell_finish`` / ``cell_error``
    A cell completed; carries the content key, scenario id, probe,
    ``wall_time``, and the merged telemetry counters captured in the
    worker (``KernelStats`` deltas, simulator ``MetricsRegistry``
    deltas).  Errors additionally carry ``error_class`` and the error
    message.
``cell_reused``
    A cell was satisfied from a ``--resume`` store without running.
``sweep_finish``
    Totals at the end of the run.

:func:`feed_status` reduces any prefix of a feed — including one cut
mid-record by a crash — to a :class:`FeedStatus`; rate and ETA are
computed from the wall stamps *in the records* (the consumer never
reads a clock, keeping it lint-clean outside the sink allowlist).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .events import EventBus, JsonlSink, TelemetryEvent, read_feed

KIND_SWEEP_START = "sweep_start"
KIND_SWEEP_FINISH = "sweep_finish"
KIND_CELL_START = "cell_start"
KIND_CELL_FINISH = "cell_finish"
KIND_CELL_ERROR = "cell_error"
KIND_CELL_REUSED = "cell_reused"

#: The feed file written beside the other sweep artifacts.
FEED_FILENAME = "telemetry.jsonl"


def feed_path(directory_or_file: str) -> str:
    """Resolve a CLI argument to a feed file path.

    Accepts either the feed file itself or an artifact directory
    containing ``telemetry.jsonl``.
    """
    if os.path.isdir(directory_or_file):
        return os.path.join(directory_or_file, FEED_FILENAME)
    return directory_or_file


class SweepFeed:
    """Parent-side writer of one sweep's ``telemetry.jsonl``.

    Owns a private :class:`~repro.obs.events.EventBus` (its own
    sequence numbering) with one JSONL sink attached, so feed records
    never interleave with library instrumentation on the default bus.
    """

    def __init__(self, directory: str, stamp_wall: bool = True) -> None:
        """Open (append) the feed inside ``directory``."""
        self.path = os.path.join(directory, FEED_FILENAME)
        self._bus = EventBus()
        self._sink = JsonlSink(self.path, stamp_wall=stamp_wall)
        self._bus.attach(self._sink)
        self._name = "sweep"

    def close(self) -> None:
        """Close the underlying sink."""
        self._bus.detach(self._sink)
        self._sink.close()

    def __enter__(self) -> "SweepFeed":
        """Context-manager support (closes on exit)."""
        return self

    def __exit__(self, *_exc) -> None:
        """Close the feed."""
        self.close()

    # -- record emission ----------------------------------------------

    def sweep_start(
        self,
        name: str,
        total: int,
        pending: int,
        reused: int,
        workers: int,
    ) -> None:
        """Record the grid shape at the start of a run."""
        self._name = name
        self._bus.emit(
            KIND_SWEEP_START,
            name,
            attrs={
                "total": total,
                "pending": pending,
                "reused": reused,
                "workers": workers,
            },
        )

    def cell_start(self, spec) -> None:
        """Record that one cell was dispatched."""
        self._bus.emit(
            KIND_CELL_START,
            spec.scenario_id(),
            attrs={"key": spec.content_key(), "probe": spec.probe},
        )

    def cell_result(self, result, counters: Optional[Dict[str, int]] = None) -> None:
        """Record one completed cell (finish or error, from its result)."""
        attrs: Dict[str, object] = {
            "key": result.spec.content_key(),
            "probe": result.spec.probe,
            "wall_time": result.wall_time,
            "counters": dict(counters or {}),
        }
        if result.ok:
            self._bus.emit(KIND_CELL_FINISH, result.scenario_id, attrs=attrs)
        else:
            error = result.error or ""
            attrs["error_class"] = error.split(":", 1)[0]
            attrs["error"] = error
            self._bus.emit(KIND_CELL_ERROR, result.scenario_id, attrs=attrs)

    def cell_reused(self, result) -> None:
        """Record a cell satisfied from a resume store."""
        self._bus.emit(
            KIND_CELL_REUSED,
            result.scenario_id,
            attrs={
                "key": result.spec.content_key(),
                "probe": result.spec.probe,
                "ok": result.ok,
            },
        )

    def sweep_finish(self, completed: int, failures: int) -> None:
        """Record the run's final totals (named after sweep_start)."""
        self._bus.emit(
            KIND_SWEEP_FINISH,
            self._name,
            attrs={"completed": completed, "failures": failures},
        )


# ---------------------------------------------------------------------------
# consumption: status reduction and rendering
# ---------------------------------------------------------------------------


@dataclass
class FeedStatus:
    """Everything ``repro status`` reports, reduced from one feed."""

    name: str = ""
    #: Total cells of the grid (0 when no sweep_start record survived).
    total: int = 0
    reused: int = 0
    started: int = 0
    finished: int = 0
    errors: int = 0
    workers: int = 1
    #: True once a sweep_finish record is present.
    complete: bool = False
    #: Sum of per-cell wall_time over completed cells.
    scenario_time: float = 0.0
    #: Wall span covered by the feed's record stamps (0 if unstamped).
    elapsed: float = 0.0
    #: Completed cells (finish+error) per wall second; 0 if unknown.
    rate: float = 0.0
    #: Estimated seconds to completion; None when the rate is unknown.
    eta: Optional[float] = None
    #: error_class -> count over cell_error records.
    error_classes: Dict[str, int] = field(default_factory=dict)
    #: probe -> error count over cell_error records.
    probe_errors: Dict[str, int] = field(default_factory=dict)
    #: (content key, error_class) per cell_error record, feed order.
    failed_cells: List[Tuple[str, str]] = field(default_factory=list)
    #: Merged counter totals over every completed cell.
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Cells done by any means (finished, errored, or reused)."""
        return self.finished + self.errors + self.reused

    @property
    def remaining(self) -> int:
        """Cells not yet completed (0 when total is unknown)."""
        return max(0, self.total - self.completed)

    @property
    def in_flight(self) -> int:
        """Dispatched cells with no completion record yet."""
        return max(0, self.started - self.finished - self.errors)

    def to_json_obj(self) -> Dict[str, object]:
        """JSON-ready view (``repro status --format json``)."""
        return {
            "name": self.name,
            "total": self.total,
            "reused": self.reused,
            "started": self.started,
            "finished": self.finished,
            "errors": self.errors,
            "completed": self.completed,
            "remaining": self.remaining,
            "in_flight": self.in_flight,
            "workers": self.workers,
            "complete": self.complete,
            "scenario_time": self.scenario_time,
            "elapsed": self.elapsed,
            "rate": self.rate,
            "eta": self.eta,
            "error_classes": dict(sorted(self.error_classes.items())),
            "probe_errors": dict(sorted(self.probe_errors.items())),
            "failed_cells": [list(pair) for pair in self.failed_cells],
            "counters": dict(sorted(self.counters.items())),
        }


def feed_status(events: Sequence[TelemetryEvent]) -> FeedStatus:
    """Reduce feed records (any prefix of a run) to a :class:`FeedStatus`.

    Robust to mid-run truncation: counts only reflect records that
    fully made it to disk, which is exactly the "at most the in-flight
    cells are invisible" contract of the JSONL sink.
    """
    status = FeedStatus()
    stamps: List[float] = []
    for event in events:
        if event.wall_time is not None:
            stamps.append(event.wall_time)
        attrs = event.attrs
        if event.kind == KIND_SWEEP_START:
            status.name = event.name
            status.total = int(attrs.get("total", 0))  # type: ignore[arg-type]
            status.workers = int(attrs.get("workers", 1))  # type: ignore[arg-type]
        elif event.kind == KIND_CELL_START:
            status.started += 1
        elif event.kind == KIND_CELL_REUSED:
            # Counted from the records themselves (not sweep_start's
            # declared total) so a truncated prefix never over-reports.
            status.reused += 1
        elif event.kind in (KIND_CELL_FINISH, KIND_CELL_ERROR):
            if event.kind == KIND_CELL_FINISH:
                status.finished += 1
            else:
                status.errors += 1
                error_class = str(attrs.get("error_class", "")) or "unknown"
                status.error_classes[error_class] = (
                    status.error_classes.get(error_class, 0) + 1
                )
                probe = str(attrs.get("probe", "")) or "unknown"
                status.probe_errors[probe] = (
                    status.probe_errors.get(probe, 0) + 1
                )
                status.failed_cells.append(
                    (str(attrs.get("key", "")), error_class)
                )
            status.scenario_time += float(attrs.get("wall_time", 0.0))  # type: ignore[arg-type]
            counters = attrs.get("counters")
            if isinstance(counters, dict):
                for key, value in counters.items():
                    status.counters[str(key)] = status.counters.get(
                        str(key), 0
                    ) + int(value)  # type: ignore[arg-type]
        elif event.kind == KIND_SWEEP_FINISH:
            status.complete = True
    # Rate and ETA need at least two wall stamps a positive interval
    # apart: a just-started feed (one record) or one killed within the
    # stamp resolution has no measurable elapsed time, and dividing by
    # it would report a nonsense rate.  Such feeds keep rate == 0.0 and
    # eta is None, which renders as "n/a".
    if len(stamps) >= 2:
        status.elapsed = max(stamps) - min(stamps)
    done = status.finished + status.errors
    if done and status.elapsed > 0:
        status.rate = done / status.elapsed
        if status.total:
            status.eta = status.remaining / status.rate
    return status


def render_status(status: FeedStatus, top_counters: int = 8) -> str:
    """Human-readable multi-line status block."""
    lines = [
        f"sweep '{status.name or '?'}': "
        f"{status.completed}/{status.total or '?'} cells done "
        f"({status.finished} ok, {status.errors} errors, "
        f"{status.reused} reused), {status.in_flight} in flight, "
        f"{status.workers} worker(s)"
        + (", finished" if status.complete else ", running"),
    ]
    if status.rate:
        lines.append(
            f"rate:  {status.rate:.2f} cells/s over {status.elapsed:.1f}s "
            f"({status.scenario_time:.2f}s scenario time)"
        )
        if status.eta is not None and not status.complete:
            lines.append(f"eta:   ~{status.eta:.0f}s for {status.remaining} cells")
    elif not status.complete:
        # Just started or killed instantly: no measurable interval yet.
        lines.append("rate:  n/a (fewer than two timestamped records)")
        if status.remaining:
            lines.append(f"eta:   n/a for {status.remaining} cells")
    if status.error_classes:
        parts = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(status.error_classes.items())
        )
        lines.append(f"error classes: {parts}")
    if status.probe_errors:
        parts = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(status.probe_errors.items())
        )
        lines.append(f"errors by probe: {parts}")
    if status.failed_cells:
        shown = status.failed_cells[:top_counters]
        lines.append("failed cells:")
        for key, error_class in shown:
            lines.append(f"  [{error_class}] {key}")
        if len(status.failed_cells) > len(shown):
            lines.append(
                f"  ... and {len(status.failed_cells) - len(shown)} more"
            )
    churn_epochs = status.counters.get("churn.epochs", 0)
    if churn_epochs:
        lines.append(
            f"churn: {churn_epochs} reconvergence epoch(s), "
            f"{status.counters.get('churn.events', 0)} events, "
            f"{status.counters.get('churn.reconvergence_messages', 0)} "
            f"reconvergence messages"
        )
    flows_settled = status.counters.get("bank.flows_settled", 0)
    net_transfers = status.counters.get("bank.net_transfers", 0)
    if flows_settled or net_transfers:
        lines.append(
            f"settlement: {flows_settled} flow(s) settled into "
            f"{net_transfers} net transfer(s) "
            f"({status.counters.get('bank.transfer_records', 0)} per-flow "
            f"records), "
            f"{status.counters.get('bank.forced_settlements', 0)} forced, "
            f"{status.counters.get('bank.deposit_draws', 0)} deposit draw(s)"
        )
    if status.counters:
        ranked = sorted(
            status.counters.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_counters]
        lines.append("top counters:")
        for name, value in ranked:
            lines.append(f"  {name:<40} {value}")
    return "\n".join(lines)


def render_event(event: TelemetryEvent) -> str:
    """One human-readable feed line (``repro tail``)."""
    bits = [f"#{event.seq:<5}", f"{event.kind:<12}", event.name]
    if event.sim_time is not None:
        bits.append(f"t={event.sim_time:g}")
    for key in ("key", "probe", "error_class", "wall_time"):
        value = event.attrs.get(key)
        if value is not None:
            if isinstance(value, float):
                bits.append(f"{key}={value:.3f}")
            else:
                bits.append(f"{key}={value}")
    extras = {
        k: v
        for k, v in event.attrs.items()
        if k not in ("key", "probe", "error_class", "wall_time", "counters")
    }
    if extras:
        bits.append(
            " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
        )
    return "  ".join(str(b) for b in bits)


class FeedFollower:
    """Incremental reader of a live feed (``repro tail --follow``).

    Re-reads the file on each :meth:`poll` and yields only records not
    seen before, keyed by position.  A torn final line is simply not
    yielded yet; it is picked up once the writer completes it.
    """

    def __init__(self, path: str) -> None:
        """Follow the feed at ``path`` (which may not exist yet)."""
        self.path = path
        self._seen = 0

    def poll(self) -> List[TelemetryEvent]:
        """Records appended since the previous poll."""
        events = read_feed(self.path)
        fresh = events[self._seen:]
        self._seen = len(events)
        return fresh

    def follow(
        self, poll_interval: float = 0.5, max_polls: Optional[int] = None
    ) -> Iterator[TelemetryEvent]:
        """Yield records as they appear, sleeping between polls.

        ``max_polls`` bounds the loop for tests; ``None`` follows until
        the consumer stops iterating (e.g. KeyboardInterrupt).
        """
        polls = 0
        while max_polls is None or polls < max_polls:
            for event in self.poll():
                yield event
            polls += 1
            if max_polls is not None and polls >= max_polls:
                return
            time.sleep(poll_interval)
