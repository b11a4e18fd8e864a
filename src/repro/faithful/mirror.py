"""Checker-side mirrors of a principal's computation (Figure 2).

Reproduces: Section 4.2/4.3 of Shneidman & Parkes (PODC'04) — "the
checker nodes execute a redundant computation that mirrors what the
principal is computing, and must receive a complete set of the
messages received by the principal."  A :class:`PrincipalMirror` is one
checker's clone of one neighbouring principal: it replays the
principal's :class:`~repro.routing.kernel.ReplayKernel` on the copies
the principal forwards, predicts every broadcast the principal should
make (as the *delta* an obedient principal would encode), and
accumulates :class:`~repro.faithful.audit.Flag` observations when
reality and replay disagree.

Why replay is exact
-------------------
The principal's suggested specification processes inputs in arrival
order and, per [PRINC1]/[PRINC2], *first* forwards a copy of each input
to all checkers and *then* recomputes and broadcasts.  On a FIFO link,
each checker therefore sees the copy of input ``m`` before any
broadcast that ``m`` triggered, so applying copies in arrival order —
with the relaxation deferred to the same batch boundaries the
principal used — reconstructs the principal's state at every broadcast
instant.  The checker's own messages to the principal are also
copy-returned (the checker verifies them against a ground-truth
ledger), keeping the replay ordered identically to the principal's
receive order.

One replay path
---------------
Every mirror replays through a :class:`~repro.routing.kernel.
SharedKernel` replay log: one replayed kernel plus the op log that
advanced it.  Because a principal's copies reach all of its checkers
identically, a mirror normally follows the log its host's
:class:`~repro.routing.kernel.MirrorKernelPool` keeps for the
principal: the expensive replayed kernel is then one instance per
principal per simulated host, while every mirror *verifies* its own ops
against the log and reuses the recorded predictions.  When the
principal is obedient it leads the log itself: its own computation
appends each op before any copy of it reaches a checker, so its
mirrors only ever verify (the principal's ``comp`` *is* the log's
kernel).  Otherwise the log is advanced by whichever mirror reaches
its frontier first.  Per-mirror state shrinks to the own-sent ledger,
the expected-broadcast queue per update kind, the deferred-flush flag,
and a log cursor.

A mirror with no pool, or whose seed the pool refused, starts a log of
its own (:meth:`~repro.routing.kernel.SharedKernel.seeded`) and stays
at its frontier.  The first op that diverges from a shared log —
different copies to different checkers, selectively dropped copies, a
lazy checker — forks the mirror onto a new log of its own that
replays its *own* verified prefix
(:meth:`~repro.routing.kernel.SharedKernel.fork_at`).  So does an op
that reaches the frontier of a log its principal leads: only the
principal writes there, so no mirror can mutate the principal's state.
So the flags and
digests each mirror produces equal those of a mirror that replayed
alone from the start, in every case (property-tested against
``shared_checking=False`` in ``tests/faithful/test_shared_mirror.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..routing.fpss import encode_full_tables
from ..routing.graph import Cost
from ..routing.kernel import (
    UPDATE_KINDS,
    KernelStats,
    ReplayKernel,
    SharedKernel,
)
from ..obs.events import BUS
from ..obs.trace import emit_counters, emit_marker
from ..sim.messages import NodeId
from .audit import Flag, FlagKind


class PrincipalMirror:
    """One checker's replayed clone of one principal.

    :meth:`apply_copy` only ingests a forwarded copy; the relaxation
    runs in :meth:`flush_pending`, at the principal's delivery-batch
    boundary (a batch of one when delivery is unbatched).

    Parameters
    ----------
    checker_id:
        The node doing the checking (a neighbour of the principal).
    principal_id:
        The node being checked.
    """

    def __init__(self, checker_id: NodeId, principal_id: NodeId) -> None:
        self.checker_id = checker_id
        self.principal_id = principal_id
        #: The replay log this mirror follows (None before phase 2).
        self._log: Optional[SharedKernel] = None
        #: Whether the log is this mirror's own (started unpooled, or
        #: forked) rather than one its pool shares.
        self._owns_log = False
        #: This mirror's position in the op log.
        self._cursor = 0
        self.flags: List[Flag] = []
        #: Broadcast vectors the replay says the principal must emit
        #: next, one FIFO queue per update kind.
        self._expected: Dict[str, Deque[Tuple]] = {
            kind: deque() for kind in UPDATE_KINDS
        }
        #: Ground-truth ledger of updates this checker sent to the
        #: principal, awaiting copy-return.
        self._awaiting_copy: Deque[Tuple[str, Tuple]] = deque()
        #: Copies ingested but not yet replayed.
        self._replay_pending = False
        #: Relaxations this mirror executed itself (not satisfied from
        #: a shared log); telemetry reports the delta per checkpoint.
        self.replays_run = 0
        self._replays_emitted = 0
        self._flags_emitted = 0
        #: Whether the mirror joined across a fresh link this epoch and
        #: so expects the principal's full-table resend.
        self._fresh = False

    @property
    def comp(self) -> Optional[ReplayKernel]:
        """The replayed computation, or None before phase 2.

        Non-materialising: while following a shared log the returned
        object may be *ahead* of this mirror's cursor (another checker
        advanced it).  Use it for identity/None checks and static
        attributes (``neighbors``); read table state through
        :meth:`computation`, which settles the mirror to its own
        position first.
        """
        return self._log.kernel if self._log is not None else None

    def computation(self) -> ReplayKernel:
        """The replayed kernel *at this mirror's own position*.

        At the frontier (the common case — every quiescence point, and
        always on a log of the mirror's own) this is the log's kernel
        itself; behind the frontier (e.g. a lazy checker that stopped
        replaying) the mirror forks onto a log replaying its own
        verified prefix, so the state it exposes is exactly what a
        mirror replaying alone would hold.
        """
        assert self._log is not None, "mirror has not started phase 2"
        if self._cursor != self._log.frontier:
            self._fork()
        return self._log.kernel

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start_phase2(
        self,
        principal_neighbors: Sequence[NodeId],
        declared_cost: Cost,
        known_costs: Dict[NodeId, Cost],
        shared: Optional[SharedKernel] = None,
    ) -> None:
        """Initialise the replay for the second construction phase.

        ``known_costs`` is the converged DATA1 from phase 1 (common to
        all nodes once the phase-1 checkpoint green-lights), which the
        principal's computation reads during relaxation.  With
        ``shared`` the mirror follows that log; the caller (see
        :meth:`~repro.routing.kernel.MirrorKernelPool.acquire`) is
        responsible for only passing a log whose seed matches these
        arguments — the sharing invariant.  Without it the mirror
        starts a log of its own from these arguments.
        """
        self.flags = []
        for expected in self._expected.values():
            expected.clear()
        self._awaiting_copy.clear()
        self._replay_pending = False
        self._cursor = 0
        self.replays_run = 0
        self._replays_emitted = 0
        self._flags_emitted = 0
        self._owns_log = shared is None
        if shared is None:
            shared = SharedKernel.seeded(
                self.principal_id, principal_neighbors, declared_cost, known_costs
            )
        self._log = shared
        # The log already replicated the principal's start_phase2
        # (reset, settle, unconditional initial announcements); queue
        # the recorded predictions.
        self._expect(shared.initial_route, shared.initial_price)

    def take_over(self, log: SharedKernel, owns: bool) -> None:
        """Join a principal's replay across a fresh link, at ``log``'s
        frontier.

        ``log`` is the state the principal's other checkers verified:
        the pooled log, or (``owns``) a fork of another checker's log.
        The epoch's re-anchor op (:meth:`reanchor`) follows.
        """
        self._log = log
        self._owns_log = owns
        self._cursor = log.frontier
        self._fresh = True

    def reanchor(
        self,
        principal_neighbors: Tuple[NodeId, ...],
        declared_cost: Cost,
        changes: Tuple[Tuple[NodeId, Cost], ...],
    ) -> None:
        """Submit this checker's re-anchor op for a checked epoch.

        The op is derived from this checker's own handshake and DATA1;
        a hit verifies the epoch's change, a mismatch forks the mirror
        onto a log of its own, as for any other op.  The epoch's flags
        start empty (the last epoch's were collected at its
        checkpoint).  A mirror that gained its principal across a fresh
        link first expects the principal's full-table resend, then the
        settled deltas.
        """
        self.flags = []
        self._flags_emitted = 0
        assert self._log is not None
        op = (principal_neighbors, declared_cost, changes)
        result = self._log.anchor(self._cursor, *op)
        if result is None:
            self._fork()
            result = self._log.anchor(self._cursor, *op)
            assert result is not None
        self._cursor, route_delta, price_delta, ran = result
        if ran:
            self.replays_run += 1
        if self._fresh:
            self._fresh = False
            self._expect(*encode_full_tables(self._log.kernel))
        self._expect(route_delta, price_delta)

    def own_fork(self) -> SharedKernel:
        """A new log replaying this mirror's verified prefix, for a
        checker that takes over the replay without a pool."""
        assert self._log is not None
        return self._log.fork_at(self._cursor)

    def _expect(self, *deltas: Optional[Tuple]) -> None:
        """Queue each table's predicted broadcast (None: unchanged).

        ``deltas`` are in :data:`UPDATE_KINDS` order, the order a
        settle returns them.
        """
        for kind, delta in zip(UPDATE_KINDS, deltas, strict=True):
            if delta is not None:
                self._expected[kind].append(delta)

    def _flag(self, kind: FlagKind, **detail) -> None:
        self.flags.append(
            Flag.make(
                kind,
                checker=self.checker_id,
                principal=self.principal_id,
                phase="construction-2",
                **detail,
            )
        )

    def _fork(self) -> None:
        """Leave the shared log for a log of its own at this cursor."""
        assert self._log is not None
        self._log = self._log.fork_at(self._cursor)
        self._owns_log = True
        if BUS.enabled:
            # Forks are rare (a deviant principal treating checkers
            # unequally, or a lazy checker behind the frontier) and
            # worth a lifecycle marker each.
            emit_marker(
                "mirror.fork",
                checker=str(self.checker_id),
                principal=str(self.principal_id),
                cursor=self._cursor,
            )

    # ------------------------------------------------------------------
    # ledger of the checker's own messages to the principal
    # ------------------------------------------------------------------

    def record_sent(self, kind: str, encoded_vector: Tuple) -> None:
        """The checker sent this update to the principal; expect a copy."""
        self._awaiting_copy.append((kind, tuple(encoded_vector)))

    def _match_returned_copy(self, kind: str, encoded_vector: Tuple) -> None:
        """Verify a copy-return of the checker's own message."""
        if not self._awaiting_copy:
            self._flag(FlagKind.COPY_FORGERY, reason="copy of unsent message")
            return
        expected_kind, expected_vector = self._awaiting_copy.popleft()
        if expected_kind != kind or expected_vector != tuple(encoded_vector):
            self._flag(
                FlagKind.COPY_FORGERY,
                reason="copy does not match the message actually sent",
            )

    # ------------------------------------------------------------------
    # inputs: forwarded copies
    # ------------------------------------------------------------------

    def apply_copy(
        self,
        orig_kind: str,
        orig_src: NodeId,
        encoded_vector: Tuple,
    ) -> None:
        """Ingest one input the principal claims to have received.

        Implements [CHECK1]/[CHECK2]: copies from non-checkers of the
        principal are ignored (and flagged as spoofs); the checker's
        own copy-returns are validated against the ledger; everything
        else is ingested into the replayed computation exactly as the
        principal's handler would.

        The relaxation runs once per batch via :meth:`flush_pending`,
        mirroring the principal's own batch boundary — copies of one
        principal batch travel in one bundle on the FIFO link, so the
        checker's batch boundary coincides with the principal's.
        """
        comp = self.comp
        if comp is None:
            return
        if orig_src not in comp.neighbors:
            self._flag(FlagKind.SPOOFED_COPY, claimed_author=orig_src)
            return
        if orig_src == self.checker_id:
            self._match_returned_copy(orig_kind, encoded_vector)
        if orig_kind not in UPDATE_KINDS:
            self._flag(FlagKind.SPOOFED_COPY, claimed_message_kind=orig_kind)
            return

        # ``tuple`` of a tuple is the identical object, so honest
        # multicast payloads keep their identity and the shared-log
        # verification below stays an ``is`` check on the hot path.
        rows = tuple(encoded_vector)
        assert self._log is not None
        if not self._log.ingest(self._cursor, orig_kind, orig_src, rows):
            # This checker's stream differs from the logged one (a
            # deviant principal treats its checkers unequally): fork
            # onto the verified prefix, whose frontier is the cursor.
            self._fork()
            self._log.ingest(self._cursor, orig_kind, orig_src, rows)
        self._cursor += 1
        self._replay_pending = True

    def flush_pending(self) -> bool:
        """Run a pending replay, if any; True if one actually ran here.

        The replay relaxes the mirrored tables once and queues the
        broadcasts the principal must make.  Called by the checker
        before observing a broadcast from the principal and at every
        batch boundary, so the expected-broadcast queues are always
        current when compared.  Returns False both when nothing was
        pending and when the log already held this flush and its
        predictions (no kernel work executed by this mirror) — callers
        use the result for work accounting.
        """
        if not self._replay_pending:
            return False
        self._replay_pending = False
        assert self._log is not None
        result = self._log.flush(self._cursor)
        if result is None:
            # The log holds an *apply* where this mirror flushes: its
            # batch boundaries diverged from the leader's stream.
            self._fork()
            result = self._log.flush(self._cursor)
            assert result is not None
        self._cursor, route_delta, price_delta, ran = result
        self._expect(route_delta, price_delta)
        if ran:
            self.replays_run += 1
        return ran

    # ------------------------------------------------------------------
    # observations: the principal's actual broadcasts
    # ------------------------------------------------------------------

    def observe_broadcast(self, kind: str, encoded_vector: Tuple) -> None:
        """Compare an actual broadcast of either kind against the replay."""
        expected = self._expected[kind]
        if not expected:
            self._flag(FlagKind.UNEXPECTED_BROADCAST, message_kind=kind)
            return
        if expected.popleft() != tuple(encoded_vector):
            self._flag(FlagKind.BROADCAST_MISMATCH, message_kind=kind)

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------

    def checkpoint_flags(self) -> List[Flag]:
        """Quiescence-time consistency checks (suppression, drops).

        At a network quiescence point every in-flight message has been
        delivered, so any still-pending expected broadcast means the
        principal suppressed an update, and any unreturned ledger entry
        means it dropped a checker copy.
        """
        for kind, expected in self._expected.items():
            if expected:
                self._flag(
                    FlagKind.SUPPRESSED_UPDATE,
                    message_kind=kind,
                    pending=len(expected),
                )
                expected.clear()
        if self._awaiting_copy:
            self._flag(
                FlagKind.COPY_MISSING, pending=len(self._awaiting_copy)
            )
            self._awaiting_copy.clear()
        if BUS.enabled:
            self._emit_checkpoint_counters()
        return list(self.flags)

    def _emit_checkpoint_counters(self) -> None:
        """Emit one ``mirror`` counter-delta record for this checkpoint.

        Per-replay emission would swamp the feed (one record per batch
        per mirror); instead replays and flags accrue on the mirror and
        the deltas since the previous checkpoint ride on a single
        record, so summing records still yields exact totals.
        """
        delta = {
            "checkpoints": 1,
            "replays": self.replays_run - self._replays_emitted,
            "flags": len(self.flags) - self._flags_emitted,
        }
        self._replays_emitted = self.replays_run
        self._flags_emitted = len(self.flags)
        emit_counters(
            "mirror", {key: value for key, value in delta.items() if value}
        )

    # ------------------------------------------------------------------
    # bank material
    # ------------------------------------------------------------------

    def private_kernel_stats(self) -> Optional[KernelStats]:
        """Counters of this mirror's own log kernel, if it has one.

        Non-``None`` exactly when the mirror follows a log of its own —
        started without sharing (seed mismatch, reference mode) or
        forked off a shared log.  Mirrors on a pooled log return
        ``None``: their work is accounted on the pooled
        :class:`~repro.routing.kernel.SharedKernel` (or, on a log its
        principal leads, on the principal's ``comp``), and per-mirror
        collection would multiply it.
        """
        if self._owns_log and self._log is not None:
            return self._log.kernel.stats
        return None

    def routing_digest(self) -> str:
        """Hash of the mirrored DATA2 (BANK1 material)."""
        return self.computation().routing_digest()

    def pricing_digest(self) -> str:
        """Hash of the mirrored DATA3* (BANK2 material)."""
        return self.computation().pricing_digest()
