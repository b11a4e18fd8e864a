"""The rational-manipulation catalogue for the routing case study.

Section 4.3 enumerates the manipulations that remain possible after
FPSS's own problem partitioning:

1. drop, change, or spoof forwarded routing-table update messages
   ([PRINC1] message passing);
2. miscompute LCPs / drop, change, spoof new LCP updates ([PRINC1]
   computation);
3. drop, change, or spoof forwarded pricing-table update messages
   ([PRINC2] message passing);
4. miscompute pricing tables / manipulate pricing updates ([PRINC2]
   computation);

plus the information-revelation lie of Example 1 (misdeclaring one's
transit cost) and the execution-phase frauds (payment under-reporting,
packet dropping, off-LCP routing) that the bank's settlement exists to
stop.

Each manipulation is a *mixin* overriding exactly one deviation seam of
:class:`~repro.routing.fpss.FPSSNode` or
:class:`~repro.faithful.node.FaithfulRoutingNode`, so the same
deviation can be installed in the plain protocol (where it profits) and
in the faithful protocol (where it is caught).  The computation
manipulations (2 and 4) override the broadcast seams
``announce_routes`` / ``announce_prices``, which receive wire rows:
the honest settled delta, or the full tables resent across a fresh
link.  Rewriting or dropping rows there covers every routing and
pricing message the node sends, so its checkers, who predict the
honest delta, see each altered broadcast.  The
:class:`DeviationSpec` registry records, for every manipulation, which
external-action classes it touches — the input the IC/CC/AC and
strong-CC/strong-AC verifiers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Tuple, Type

from ..errors import MechanismError
from ..routing.fpss import FPSSNode
from ..routing.graph import Cost
from ..sim.crypto import SigningAuthority
from ..sim.messages import NodeId
from ..specs.actions import ActionClass
from .node import FaithfulRoutingNode


class DeviationMixin:
    """Base for manipulation mixins; parameters land in ``dev_params``."""

    dev_params: Dict[str, Any] = {}

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one deviation parameter."""
        return self.dev_params.get(key, default)


# ----------------------------------------------------------------------
# information revelation
# ----------------------------------------------------------------------


class CostLieMixin(DeviationMixin):
    """Example 1: declare a transit cost other than the true one.

    A *consistent* misreport of private type information — precisely
    the deviation VCG strategyproofness neutralises.  Parameters:
    ``declared`` (absolute) or ``factor`` (multiplier on truth).
    """

    def declared_cost(self) -> Cost:
        """Announce the configured lie instead of the true cost."""
        declared = self.param("declared")
        if declared is not None:
            return float(declared)
        return self.true_cost * float(self.param("factor", 1.0))


# ----------------------------------------------------------------------
# construction-phase computation (manipulations 2 and 4)
# ----------------------------------------------------------------------


class FalseRouteAnnouncerMixin(DeviationMixin):
    """Announce routing vectors with shaded (understated) path costs.

    Claiming that destinations are cheaper to reach through you raises
    the VCG payment ``p_k = c_k + d^{-k} - d`` that sources compute for
    you (their ``d`` falls while ``d^{-k}`` is untouched — FPSS's
    partitioning keeps your announcements out of your own avoidance
    entries, but not out of the plain routing entries).  Profitable in
    plain FPSS; in the faithful extension every checker's replay
    predicts the honest vector, so the first shaded broadcast raises a
    BROADCAST_MISMATCH flag and BANK1 restarts the phase.
    """

    def announce_routes(self, rows, recipients=None) -> None:
        """Scale every announced path cost by the shade factor."""
        shade = float(self.param("shade", 0.5))
        super().announce_routes(_scale_row_costs(rows, shade), recipients)


class RouteSuppressMixin(DeviationMixin):
    """Compute correctly but never announce LCP updates.

    The "drop new LCP updates" half of manipulation 2.  Checkers
    predict each announcement, so the pending expectation surfaces as a
    SUPPRESSED_UPDATE flag at the BANK1 quiescence checkpoint.
    """

    def announce_routes(self, rows, recipients=None) -> None:
        """Suppress the announcement entirely (fresh-link resends too)."""
        return None


class FalsePriceAnnouncerMixin(DeviationMixin):
    """Announce avoidance/pricing vectors with inflated costs.

    Manipulation 4's "change pricing update" arm: inflating the
    avoidance costs you relay raises the ``d^{-k}`` other nodes compute
    and hence the payments they make — to *other* transit nodes on
    your announcements, or (two hops out) back to you via relaxation
    chains.  Caught exactly like the route announcer.
    """

    def announce_prices(self, rows, recipients=None) -> None:
        """Scale every announced avoidance cost by the inflate factor."""
        inflate = float(self.param("inflate", 2.0))
        super().announce_prices(_scale_row_costs(rows, inflate), recipients)


# ----------------------------------------------------------------------
# construction-phase message passing (manipulations 1 and 3)
# ----------------------------------------------------------------------


def _scale_row_costs(vector, scale: float) -> Tuple:
    """Every row of a wire delta with its cost scaled.

    Withdrawal rows (``cost is None``) carry no cost and pass through.
    """
    return tuple(
        row if row[-2] is None else row[:-2] + (row[-2] * scale, row[-1])
        for row in vector
    )


class CopyDropMixin(DeviationMixin):
    """Drop the checker copies of received updates ([PRINC1]/[PRINC2]).

    The sending checker's ledger entry is never copy-returned
    (COPY_MISSING), and the other checkers' mirrors diverge from the
    sender's — caught at BANK1/BANK2 either way.
    """

    def forward_copy_to_checkers(self, orig_kind, orig_src, vector) -> None:
        """Drop the checker copies of the configured kinds."""
        kinds = self.param("kinds")
        if kinds is None or orig_kind in kinds:
            return None
        super().forward_copy_to_checkers(orig_kind, orig_src, vector)


class CopyAlterMixin(DeviationMixin):
    """Forward altered checker copies (change arm of manipulations 1/3).

    The original sender validates its copy-return against ground truth
    (COPY_FORGERY), and mirrors fed the altered copy disagree with the
    sender's mirror at the digest comparison.
    """

    def forward_copy_to_checkers(self, orig_kind, orig_src, vector) -> None:
        """Forward copies with every row's cost scaled."""
        altered = _scale_row_costs(vector, float(self.param("scale", 2.0)))
        super().forward_copy_to_checkers(orig_kind, orig_src, altered)


class CopySpoofMixin(DeviationMixin):
    """Fabricate checker copies that were never received (spoof arm).

    The claimed author is one of the principal's checkers, so the
    CHECK2 tag rule does not discard it — but that very checker knows
    it never sent the message (COPY_FORGERY against its ledger), and
    the mirrors of the remaining checkers absorb the spoof and diverge
    from the author's mirror, failing the digest comparison.
    """

    def forward_copy_to_checkers(self, orig_kind, orig_src, vector) -> None:
        """Forward honestly, then fabricate one copy in a victim's name."""
        super().forward_copy_to_checkers(orig_kind, orig_src, vector)
        if getattr(self, "_spoofed_once", False):
            return
        self._spoofed_once = True
        victim = self.param("claimed_author")
        if victim is None:
            others = [n for n in self.neighbors if n != orig_src]
            victim = others[0] if others else orig_src
        forged = _scale_row_costs(vector, float(self.param("scale", 0.25)))
        super().forward_copy_to_checkers(orig_kind, victim, forged)


# ----------------------------------------------------------------------
# checkpoint reporting
# ----------------------------------------------------------------------


class RoutingDigestLieMixin(DeviationMixin):
    """Report a fabricated DATA2 digest at BANK1."""

    def report_routing_digest(self) -> str:
        """Report a fabricated digest."""
        return "0" * 64


class PricingDigestLieMixin(DeviationMixin):
    """Report a fabricated DATA3* digest at BANK2."""

    def report_pricing_digest(self) -> str:
        """Report a fabricated digest."""
        return "f" * 64


class LazyCheckerMixin(DeviationMixin):
    """Skip the checker's redundant computation ([CHECK1]/[CHECK2]).

    The stale mirror digest disagrees with the principal's group at
    BANK1, restarting the phase — so shirking checker duty is itself a
    computational deviation with negative payoff, which is how the
    specification keeps *checkers* faithful (partitioning argument).
    """

    def on_checker_copy(self, message) -> None:
        """Ignore the copy (skip the redundant computation)."""
        return None


# ----------------------------------------------------------------------
# execution phase
# ----------------------------------------------------------------------


class ChargeUnderstateMixin(DeviationMixin):
    """Accumulate DATA4 from understated prices (footnote 7 scenario).

    The node's *certified* pricing digest was honest, but it charges
    itself less than the certified table when originating traffic.
    Caught at settlement: the first-hop checker recomputes the expected
    charges from its mirrored pricing table.
    """

    def compute_charges(self, destination, volume):
        """Charge DATA4 a scaled-down fraction of the honest prices."""
        honest = super().compute_charges(destination, volume)
        factor = float(self.param("factor", 0.25))
        return {payee: amount * factor for payee, amount in honest.items()}


class PaymentUnderreportMixin(DeviationMixin):
    """Report a scaled-down DATA4 to the bank."""

    def report_payments(self):
        """Report a scaled-down DATA4 to the bank."""
        factor = float(self.param("factor", 0.5))
        return {
            payee: amount * factor
            for payee, amount in super().report_payments().items()
        }


class PacketDropMixin(DeviationMixin):
    """Silently drop transiting packets, pocketing the saved effort."""

    def should_forward(self, origin, destination, volume) -> bool:
        """Never forward transiting packets."""
        return False


class MisrouteMixin(DeviationMixin):
    """Forward own traffic off the certified lowest-cost path."""

    def choose_first_hop(self, destination):
        """Send own traffic to any neighbour off the certified LCP."""
        honest = super().choose_first_hop(destination)
        for neighbor in self.neighbors:
            if neighbor != honest:
                return neighbor
        return honest


class TransitMisrouteMixin(DeviationMixin):
    """Divert *transiting* traffic off the certified path.

    Unlike :class:`MisrouteMixin` (which diverts the node's own
    originated flows), this deviation breaks other nodes' flows
    mid-path.  The wrong next hop is itself a checker of the deviator,
    so the packet is flagged on arrival, and the certified-path walk at
    settlement denies the deviator its transit payment.
    """

    def choose_next_hop(self, origin, destination):
        """Divert transiting traffic off the certified path."""
        honest = super().choose_next_hop(origin, destination)
        for neighbor in self.neighbors:
            if neighbor != honest and neighbor != origin:
                return neighbor
        return honest


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

IR = ActionClass.INFORMATION_REVELATION
MP = ActionClass.MESSAGE_PASSING
COMP = ActionClass.COMPUTATION


@dataclass(frozen=True)
class DeviationSpec:
    """One catalogued manipulation: mixin + classification + defaults."""

    name: str
    mixin: Type[DeviationMixin]
    classes: FrozenSet[ActionClass]
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Whether the deviation is expressible in the plain protocol
    #: (checker-copy manipulations need the faithful machinery).
    plain_capable: bool = True
    #: Whether the deviation acts during construction (and is thus
    #: caught by checkpoints) or during execution (settlement).
    stage: str = "construction"

    def with_params(self, **params: Any) -> "DeviationSpec":
        """A copy with overridden parameters."""
        merged = dict(self.params)
        merged.update(params)
        return DeviationSpec(
            name=self.name,
            mixin=self.mixin,
            classes=self.classes,
            params=merged,
            plain_capable=self.plain_capable,
            stage=self.stage,
        )


#: All catalogued manipulations, keyed by name.
DEVIATION_CATALOGUE: Dict[str, DeviationSpec] = {
    spec.name: spec
    for spec in (
        DeviationSpec("cost-lie", CostLieMixin, frozenset({IR}),
                      {"factor": 5.0}),
        DeviationSpec("false-route-announce", FalseRouteAnnouncerMixin,
                      frozenset({COMP}), {"shade": 0.5}),
        DeviationSpec("route-suppress", RouteSuppressMixin,
                      frozenset({COMP}), {}),
        DeviationSpec("false-price-announce", FalsePriceAnnouncerMixin,
                      frozenset({COMP}), {"inflate": 2.0}),
        DeviationSpec("copy-drop", CopyDropMixin, frozenset({MP}),
                      {}, plain_capable=False),
        DeviationSpec("copy-alter", CopyAlterMixin, frozenset({MP}),
                      {"scale": 2.0}, plain_capable=False),
        DeviationSpec("copy-spoof", CopySpoofMixin, frozenset({MP}),
                      {"scale": 0.25}, plain_capable=False),
        DeviationSpec("routing-digest-lie", RoutingDigestLieMixin,
                      frozenset({COMP}), {}, plain_capable=False),
        DeviationSpec("pricing-digest-lie", PricingDigestLieMixin,
                      frozenset({COMP}), {}, plain_capable=False),
        DeviationSpec("lazy-checker", LazyCheckerMixin,
                      frozenset({COMP}), {}, plain_capable=False),
        DeviationSpec("charge-understate", ChargeUnderstateMixin,
                      frozenset({COMP}), {"factor": 0.25},
                      stage="execution"),
        DeviationSpec("payment-underreport", PaymentUnderreportMixin,
                      frozenset({COMP}), {"factor": 0.5},
                      stage="execution"),
        DeviationSpec("packet-drop", PacketDropMixin,
                      frozenset({COMP}), {}, stage="execution"),
        DeviationSpec("misroute", MisrouteMixin,
                      frozenset({COMP}), {}, stage="execution"),
        DeviationSpec("transit-misroute", TransitMisrouteMixin,
                      frozenset({COMP}), {}, stage="execution"),
        DeviationSpec("joint-copy-alter-and-understate",
                      type("JointMixin", (CopyAlterMixin, ChargeUnderstateMixin), {}),
                      frozenset({MP, COMP}),
                      {"scale": 2.0, "factor": 0.25}, plain_capable=False),
    )
}


def _deviant_class(base: type, spec: DeviationSpec) -> type:
    """Compose a deviant node class: mixin first so seams resolve to it."""
    return type(
        f"{spec.mixin.__name__}_{base.__name__}",
        (spec.mixin, base),
        {"dev_params": dict(spec.params)},
    )


def faithful_deviant_factory(spec: DeviationSpec, target: NodeId):
    """A FaithfulNodeFactory installing ``spec`` on ``target`` only."""
    deviant_cls = _deviant_class(FaithfulRoutingNode, spec)

    def factory(
        node_id: NodeId, cost: Cost, signing: SigningAuthority
    ) -> FaithfulRoutingNode:
        if node_id == target:
            return deviant_cls(node_id, cost, signing)
        return FaithfulRoutingNode(node_id, cost, signing)

    return factory


def plain_deviant_factory(spec: DeviationSpec, target: NodeId):
    """A PlainNodeFactory installing ``spec`` on ``target`` only."""
    if not spec.plain_capable:
        raise MechanismError(
            f"deviation {spec.name!r} has no counterpart in plain FPSS "
            "(it manipulates the faithful extension's checker machinery)"
        )
    deviant_cls = _deviant_class(FPSSNode, spec)

    def factory(node_id: NodeId, cost: Cost) -> FPSSNode:
        if node_id == target:
            return deviant_cls(node_id, cost)
        return FPSSNode(node_id, cost)

    return factory


def construction_deviations() -> Tuple[DeviationSpec, ...]:
    """Catalogue entries acting during the construction phases."""
    return tuple(
        spec
        for spec in DEVIATION_CATALOGUE.values()
        if spec.stage == "construction"
    )


def execution_deviations() -> Tuple[DeviationSpec, ...]:
    """Catalogue entries acting during the execution phase."""
    return tuple(
        spec for spec in DEVIATION_CATALOGUE.values() if spec.stage == "execution"
    )
