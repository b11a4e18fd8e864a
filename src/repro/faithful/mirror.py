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

Shared vs. per-neighbour replay
-------------------------------
Because a principal's copies reach all of its checkers identically, a
mirror may be started with a :class:`~repro.routing.kernel.
SharedKernel` (``shared=``): the expensive replayed kernel is then one
instance per principal per simulated host, advanced by whichever
mirror reaches the op-log frontier first, while every other mirror
*verifies* its own ops against the log and reuses the recorded
predictions.  Per-mirror state shrinks to the own-sent ledger, the
expected-broadcast queues, the deferred-flush flag, and a log cursor.
The first op that diverges from the log — different copies to
different checkers, selectively dropped copies, a lazy checker — forks
the mirror onto a private kernel replaying its *own* verified prefix,
so the flags and digests each mirror produces are bit-identical to the
per-neighbour replay in every case (property-tested in
``tests/faithful/test_shared_mirror.py``).  A mirror started without
``shared`` runs the per-neighbour replay directly — the retained
reference path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..routing.fpss import (
    FPSSComputation,
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
)
from ..routing.graph import Cost
from ..routing.kernel import (
    OP_DIVERGED,
    OP_EXTENDED,
    ReplayKernel,
    SharedKernel,
)
from ..obs.events import BUS
from ..obs.trace import emit_counters, emit_marker
from ..sim.messages import NodeId
from .audit import Flag, FlagKind


class PrincipalMirror:
    """One checker's replayed clone of one principal.

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
        #: Private replayed kernel (per-neighbour mode, or a fork off a
        #: shared kernel after divergence).
        self._private: Optional[ReplayKernel] = None
        #: Shared kernel this mirror follows, if any.
        self._shared: Optional[SharedKernel] = None
        #: This mirror's position in the shared op log.
        self._cursor = 0
        self.flags: List[Flag] = []
        #: Broadcast vectors the replay says the principal must emit
        #: next, in order (separate queues per message kind).
        self._expected_route: Deque[Tuple] = deque()
        self._expected_price: Deque[Tuple] = deque()
        #: Ground-truth ledger of updates this checker sent to the
        #: principal, awaiting copy-return.
        self._awaiting_copy: Deque[Tuple[str, Tuple]] = deque()
        #: Copies ingested but not yet replayed (batched delivery).
        self._replay_pending = False
        #: Relaxations this mirror executed itself (not satisfied from
        #: a shared log); telemetry reports the delta per checkpoint.
        self.replays_run = 0
        self._replays_emitted = 0
        self._flags_emitted = 0

    @property
    def comp(self) -> Optional[ReplayKernel]:
        """The effective replayed computation, or None before phase 2.

        Non-materialising: while following a shared kernel the returned
        object may be *ahead* of this mirror's cursor (another checker
        advanced it).  Use it for identity/None checks and static
        attributes (``neighbors``); read table state through
        :meth:`computation`, which settles the mirror to its own
        position first.
        """
        if self._private is not None:
            return self._private
        if self._shared is not None:
            return self._shared.kernel
        return None

    def computation(self) -> ReplayKernel:
        """The replayed kernel *at this mirror's own position*.

        At the frontier (the common case — every quiescence point) this
        is the shared kernel itself; behind the frontier (e.g. a lazy
        checker that stopped replaying) the mirror forks onto a private
        kernel replaying its own verified prefix, so the state it
        exposes is exactly what its per-neighbour replay would hold.
        """
        if self._private is not None:
            return self._private
        shared = self._shared
        assert shared is not None, "mirror has not started phase 2"
        if self._cursor == shared.frontier:
            return shared.kernel
        self._fork()
        assert self._private is not None
        return self._private

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
        ``shared`` the mirror follows that kernel's op log instead of
        replaying privately; the caller (see
        :meth:`~repro.routing.kernel.MirrorKernelPool.acquire`) is
        responsible for only passing a kernel whose seed matches these
        arguments — the sharing invariant.
        """
        self.flags = []
        self._expected_route.clear()
        self._expected_price.clear()
        self._awaiting_copy.clear()
        self._replay_pending = False
        self._cursor = 0
        self.replays_run = 0
        self._replays_emitted = 0
        self._flags_emitted = 0
        if shared is not None:
            self._shared = shared
            self._private = None
            # The shared kernel already replicated the principal's
            # start_phase2 (reset, settle, unconditional initial
            # announcements); queue the recorded predictions.
            self._expected_route.append(shared.initial_route)
            self._expected_price.append(shared.initial_price)
            return
        self._shared = None
        comp = FPSSComputation(
            self.principal_id, principal_neighbors, declared_cost
        )
        for node, cost in known_costs.items():
            comp.note_cost_declaration(node, cost)
        # Replicate the principal's start_phase2: reset tables, settle
        # once, and announce both vectors unconditionally (a delta
        # against the empty baseline).
        comp.reset_phase2()
        route_delta, price_delta = comp.settle()
        self._private = comp
        self._expected_route.append(route_delta or ())
        self._expected_price.append(price_delta or ())

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
        """Leave the shared log for a private kernel at this cursor."""
        shared = self._shared
        assert shared is not None
        self._private = shared.fork_at(self._cursor)
        self._shared = None
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
        defer: bool = False,
    ) -> bool:
        """Replay one input the principal claims to have received.

        Implements [CHECK1]/[CHECK2]: copies from non-checkers of the
        principal are ignored (and flagged as spoofs); the checker's
        own copy-returns are validated against the ledger; everything
        else is applied to the replayed computation exactly as the
        principal's handler would.

        ``defer=True`` (batched delivery) only ingests the copy; the
        relaxation runs once per batch via :meth:`flush_pending`,
        mirroring the principal's own batch boundary — copies of one
        principal batch share an arrival instant on the FIFO link, so
        the checker's batch boundary coincides with the principal's.

        Returns True when this call executed kernel work itself
        (ingestion at the shared frontier, or any private replay) and
        False when it was satisfied from the shared op log — the
        metrics-relevant distinction.
        """
        comp = self.comp
        if comp is None:
            return False
        if orig_src not in comp.neighbors:
            self._flag(FlagKind.SPOOFED_COPY, claimed_author=orig_src)
            return False
        if orig_src == self.checker_id:
            self._match_returned_copy(orig_kind, encoded_vector)
        if orig_kind not in (KIND_RT_UPDATE, KIND_PRICE_UPDATE):
            self._flag(FlagKind.SPOOFED_COPY, claimed_message_kind=orig_kind)
            return False

        # ``tuple`` of a tuple is the identical object, so honest
        # multicast payloads keep their identity and the shared-log
        # verification below stays an ``is`` check on the hot path.
        rows = tuple(encoded_vector)
        ran = self._ingest(orig_kind, orig_src, rows)
        if defer:
            self._replay_pending = True
            return ran
        return self._replay() or ran

    def _ingest(self, orig_kind: str, orig_src: NodeId, rows: Tuple) -> bool:
        """Apply one copy to the private kernel or the shared log."""
        private = self._private
        if private is None and self._shared is not None:
            outcome = self._shared.ingest(self._cursor, orig_kind, orig_src, rows)
            if outcome is not OP_DIVERGED:
                self._cursor += 1
                return outcome is OP_EXTENDED
            # This checker's stream differs from the logged one (a
            # deviant principal treats its checkers unequally): fork
            # onto the verified prefix and continue privately.
            self._fork()
            private = self._private
        assert private is not None
        if orig_kind == KIND_RT_UPDATE:
            private.apply_route_delta(orig_src, rows)
        else:
            private.apply_avoid_delta(orig_src, rows)
        return True

    def _replay(self) -> bool:
        """Relax the mirrored tables once; queue expected broadcasts.

        Returns True when the relaxation actually ran here (False when
        the shared log already held this flush and its predictions).
        """
        private = self._private
        if private is None and self._shared is not None:
            result = self._shared.flush(self._cursor)
            if result is not None:
                self._cursor, route_delta, price_delta, ran = result
                if route_delta is not None:
                    self._expected_route.append(route_delta)
                if price_delta is not None:
                    self._expected_price.append(price_delta)
                if ran:
                    self.replays_run += 1
                return ran
            # The log holds an *apply* where this mirror flushes: its
            # batch boundaries diverged from the leader's stream.
            self._fork()
            private = self._private
        assert private is not None
        route_delta, price_delta = private.settle()
        if route_delta is not None:
            self._expected_route.append(route_delta)
        if price_delta is not None:
            self._expected_price.append(price_delta)
        self.replays_run += 1
        return True

    def flush_pending(self) -> bool:
        """Run a deferred replay, if any; True if one actually ran here.

        Called by the checker before observing a broadcast from the
        principal and at every batch boundary, so the expected-
        broadcast queues are always current when compared.  Returns
        False both when nothing was pending and when the pending flush
        was satisfied from the shared log (no kernel work executed by
        this mirror) — callers use the result for work accounting.
        """
        if not self._replay_pending:
            return False
        self._replay_pending = False
        return self._replay()

    # ------------------------------------------------------------------
    # observations: the principal's actual broadcasts
    # ------------------------------------------------------------------

    def observe_route_broadcast(self, encoded_vector: Tuple) -> None:
        """Compare an actual routing broadcast against the replay."""
        if not self._expected_route:
            self._flag(FlagKind.UNEXPECTED_BROADCAST, message_kind=KIND_RT_UPDATE)
            return
        expected = self._expected_route.popleft()
        if expected != tuple(encoded_vector):
            self._flag(FlagKind.BROADCAST_MISMATCH, message_kind=KIND_RT_UPDATE)

    def observe_price_broadcast(self, encoded_vector: Tuple) -> None:
        """Compare an actual pricing broadcast against the replay."""
        if not self._expected_price:
            self._flag(FlagKind.UNEXPECTED_BROADCAST, message_kind=KIND_PRICE_UPDATE)
            return
        expected = self._expected_price.popleft()
        if expected != tuple(encoded_vector):
            self._flag(FlagKind.BROADCAST_MISMATCH, message_kind=KIND_PRICE_UPDATE)

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
        if self._expected_route:
            self._flag(
                FlagKind.SUPPRESSED_UPDATE,
                message_kind=KIND_RT_UPDATE,
                pending=len(self._expected_route),
            )
            self._expected_route.clear()
        if self._expected_price:
            self._flag(
                FlagKind.SUPPRESSED_UPDATE,
                message_kind=KIND_PRICE_UPDATE,
                pending=len(self._expected_price),
            )
            self._expected_price.clear()
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

    def private_kernel_stats(self):
        """Counters of this mirror's private kernel, if it has one.

        Non-``None`` exactly when the mirror replays per neighbour —
        started without sharing (seed mismatch, reference mode) or
        forked off a shared log.  Shared mirrors return ``None``: their
        work is accounted on the pooled :class:`~repro.routing.kernel.
        SharedKernel`, and per-mirror collection would multiply it.
        """
        return self._private.stats if self._private is not None else None

    def routing_digest(self) -> str:
        """Hash of the mirrored DATA2 (BANK1 material)."""
        return self.computation().routing_digest()

    def pricing_digest(self) -> str:
        """Hash of the mirrored DATA3* (BANK2 material)."""
        return self.computation().pricing_digest()
