"""Collusion: the boundary of the paper's solution concept.

The paper designs for "ex post Nash (without collusion)" (Section 1).
This module makes the *boundary* of that guarantee executable: a
coalition consisting of a deviant principal together with **all** of
its checkers can evade the catch-and-punish machinery, because every
piece of evidence against a principal originates at its checkers.

Concretely, a :class:`ComplicitCheckerMixin` node runs the ordinary
checker path, but its mirror of the protected principal is a
:class:`SilentMirror`: it replays, compares and reports digests like
any other, and never raises a flag.  A principal whose own tables stay
internally consistent (e.g. the false-route announcer, which computes
honestly but *announces* shaded costs) then passes BANK1/BANK2: its
digests match its mirrors, and the only witnesses — the checkers —
stay silent.

This is not a bug in the reproduction; it is the paper's explicit
knowledge assumption surfaced as an experiment (benchmarks
``test_bench_collusion.py``).  Theorem 1's unilateral-deviation
guarantee remains intact: every coalition here has at least two
members.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from ..routing.graph import Cost
from ..sim.crypto import SigningAuthority
from ..sim.messages import NodeId
from .audit import FlagKind
from .manipulations import DeviationSpec, _deviant_class
from .mirror import PrincipalMirror
from .node import FaithfulRoutingNode


class SilentMirror(PrincipalMirror):
    """A mirror that never flags its principal."""

    def _flag(self, kind: FlagKind, **detail) -> None:
        """Witness nothing."""


class ComplicitCheckerMixin:
    """A checker that shields one principal from scrutiny.

    The class attribute ``protected`` names the coalition's principal,
    whose mirror is a :class:`SilentMirror`.  The node behaves
    faithfully in every other respect (its own tables, its own
    announcements, its checker duties toward other neighbours), so
    nothing else in the network can incriminate it.
    """

    protected: NodeId = None

    def make_mirror(self, principal: NodeId) -> PrincipalMirror:
        """A silent mirror for the protected principal."""
        if principal == self.protected:
            return SilentMirror(self.node_id, principal)
        return super().make_mirror(principal)


def coalition_factory(
    deviant_spec: DeviationSpec,
    principal: NodeId,
    accomplices: Iterable[NodeId],
):
    """A FaithfulNodeFactory wiring a full checker coalition.

    ``principal`` runs ``deviant_spec``; every node in ``accomplices``
    (which must cover *all* of the principal's neighbours for the
    evasion to work — one honest checker suffices to catch it) runs the
    complicit-checker behaviour.
    """
    accomplice_set: FrozenSet[NodeId] = frozenset(accomplices)
    deviant_cls = _deviant_class(FaithfulRoutingNode, deviant_spec)
    complicit_cls = type(
        "ComplicitChecker",
        (ComplicitCheckerMixin, FaithfulRoutingNode),
        {"protected": principal},
    )

    def factory(
        node_id: NodeId, cost: Cost, signing: SigningAuthority
    ) -> FaithfulRoutingNode:
        if node_id == principal:
            return deviant_cls(node_id, cost, signing)
        if node_id in accomplice_set:
            return complicit_cls(node_id, cost, signing)
        return FaithfulRoutingNode(node_id, cost, signing)

    return factory
