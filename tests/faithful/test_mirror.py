"""Unit tests for the checker's principal mirror."""

import pytest

from repro.faithful import FlagKind, PrincipalMirror
from repro.routing import (
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
    RouteEntry,
    encode_route_vector,
)


@pytest.fixture
def mirror():
    """Checker 'c' mirroring principal 'p' in a triangle c-p-q."""
    m = PrincipalMirror("c", "p")
    m.start_phase2(
        principal_neighbors=("c", "q"),
        declared_cost=2.0,
        known_costs={"c": 1.0, "p": 2.0, "q": 3.0},
    )
    return m


def initial_vector_of(mirror):
    """The first expected broadcast (direct routes of 'p')."""
    return mirror._expected[KIND_RT_UPDATE][0]


def observe_initial(mirror):
    """Observe both initial broadcasts exactly as predicted."""
    for kind in (KIND_RT_UPDATE, KIND_PRICE_UPDATE):
        mirror.observe_broadcast(kind, mirror._expected[kind][0])


class TestLifecycle:
    def test_initial_expected_broadcasts_queued(self, mirror):
        # start_phase2 predicts the principal's unconditional initial
        # announcements of both vectors.
        assert len(mirror._expected[KIND_RT_UPDATE]) == 1
        assert len(mirror._expected[KIND_PRICE_UPDATE]) == 1

    def test_initial_routes_are_direct(self, mirror):
        vector = dict(
            (dest, (cost, tuple(path)))
            for dest, cost, path in initial_vector_of(mirror)
        )
        assert vector == {
            "c": (0.0, ("p", "c")),
            "q": (0.0, ("p", "q")),
        }


class TestBroadcastObservation:
    def test_matching_broadcast_passes(self, mirror):
        expected = initial_vector_of(mirror)
        mirror.observe_broadcast(KIND_RT_UPDATE, expected)
        assert mirror.flags == []

    def test_mismatched_broadcast_flagged(self, mirror):
        fake = encode_route_vector({"q": RouteEntry(9.0, ("p", "q"))})
        mirror.observe_broadcast(KIND_RT_UPDATE, fake)
        assert mirror.flags[0].kind is FlagKind.BROADCAST_MISMATCH

    def test_unexpected_broadcast_flagged(self, mirror):
        expected = initial_vector_of(mirror)
        mirror.observe_broadcast(KIND_RT_UPDATE, expected)
        mirror.observe_broadcast(KIND_RT_UPDATE, expected)  # nothing pending
        assert mirror.flags[0].kind is FlagKind.UNEXPECTED_BROADCAST


class TestCopies:
    def test_spoofed_author_ignored_and_flagged(self, mirror):
        mirror.apply_copy(KIND_RT_UPDATE, "stranger", ())
        assert mirror.flags[0].kind is FlagKind.SPOOFED_COPY
        # The spoof was not applied: no new expected broadcast.
        assert len(mirror._expected[KIND_RT_UPDATE]) == 1

    def test_unknown_kind_flagged(self, mirror):
        mirror.apply_copy("weird-kind", "q", ())
        assert mirror.flags[0].kind is FlagKind.SPOOFED_COPY

    def test_copy_return_matches_ledger(self, mirror):
        vector = encode_route_vector({"x": RouteEntry(1.0, ("c", "x"))})
        mirror.record_sent(KIND_RT_UPDATE, vector)
        mirror.apply_copy(KIND_RT_UPDATE, "c", vector)
        assert all(f.kind is not FlagKind.COPY_FORGERY for f in mirror.flags)

    def test_copy_forgery_detected(self, mirror):
        sent = encode_route_vector({"x": RouteEntry(1.0, ("c", "x"))})
        altered = encode_route_vector({"x": RouteEntry(5.0, ("c", "x"))})
        mirror.record_sent(KIND_RT_UPDATE, sent)
        mirror.apply_copy(KIND_RT_UPDATE, "c", altered)
        assert any(f.kind is FlagKind.COPY_FORGERY for f in mirror.flags)

    def test_copy_of_unsent_message_flagged(self, mirror):
        vector = encode_route_vector({"x": RouteEntry(1.0, ("c", "x"))})
        mirror.apply_copy(KIND_RT_UPDATE, "c", vector)
        assert mirror.flags[0].kind is FlagKind.COPY_FORGERY

    def test_copy_updates_replay_and_expectations(self, mirror):
        # q tells p about destination z.
        vector = encode_route_vector(
            {"z": RouteEntry(0.0, ("q", "z")), "p": RouteEntry(0.0, ("q", "p"))}
        )
        mirror.apply_copy(KIND_RT_UPDATE, "q", vector)
        # Ingesting alone predicts nothing; the batch boundary replays.
        assert len(mirror._expected[KIND_RT_UPDATE]) == 1
        assert mirror.flush_pending() is True
        assert mirror.flush_pending() is False  # nothing left pending
        # The replay must now predict a new announcement containing z.
        assert len(mirror._expected[KIND_RT_UPDATE]) == 2
        latest = dict(
            (dest, tuple(path))
            for dest, cost, path in mirror._expected[KIND_RT_UPDATE][-1]
        )
        assert latest["z"] == ("p", "q", "z")


class TestCheckpoint:
    def test_clean_checkpoint_after_all_observed(self, mirror):
        observe_initial(mirror)
        assert mirror.checkpoint_flags() == []

    def test_suppressed_update_flagged(self, mirror):
        flags = mirror.checkpoint_flags()
        kinds = {f.kind for f in flags}
        assert FlagKind.SUPPRESSED_UPDATE in kinds

    def test_missing_copy_flagged(self, mirror):
        observe_initial(mirror)
        mirror.record_sent(KIND_RT_UPDATE, ())
        flags = mirror.checkpoint_flags()
        assert any(f.kind is FlagKind.COPY_MISSING for f in flags)

    def test_digests_available(self, mirror):
        assert len(mirror.routing_digest()) == 64
        assert len(mirror.pricing_digest()) == 64
