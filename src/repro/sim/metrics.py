"""Counters for protocol overhead accounting.

The paper warns that phase checkpoints and checker redundancy add
computational and communication complexity (Section 3.9); experiment E7
quantifies exactly that, and these counters are its instrumentation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional

NodeId = Hashable


@dataclass
class NodeMetrics:
    """Per-node counters."""

    messages_sent: int = 0
    messages_received: int = 0
    payload_units_sent: int = 0
    computations: int = 0
    checker_computations: int = 0
    #: Messages this node's inbound or outbound filter suppressed.
    messages_dropped: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used in reports."""
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "payload_units_sent": self.payload_units_sent,
            "computations": self.computations,
            "checker_computations": self.checker_computations,
            "messages_dropped": self.messages_dropped,
        }


class MetricsRegistry:
    """Aggregates :class:`NodeMetrics` across a simulation."""

    def __init__(self) -> None:
        self._per_node: Dict[NodeId, NodeMetrics] = defaultdict(NodeMetrics)
        self.events_processed: int = 0
        self._by_kind: Dict[str, int] = defaultdict(int)
        #: Messages the pre-coalescing checker-copy path would have
        #: sent: one per forwarded copy per checker.  The coalesced
        #: implementation bundles a whole delivery batch's copies into
        #: one multicast, so the actual checker-copy message count must
        #: stay strictly below this on any batched run — the per-batch
        #: accounting gate of the checked-tier benchmarks.
        self.uncoalesced_copy_sends: int = 0

    def node(self, node_id: NodeId) -> NodeMetrics:
        """The (auto-created) counters for one node."""
        return self._per_node[node_id]

    @property
    def per_node(self) -> Mapping[NodeId, NodeMetrics]:
        """Read-only view of all node counters."""
        return dict(self._per_node)

    # ------------------------------------------------------------------
    # recording helpers
    # ------------------------------------------------------------------

    def record_send(
        self,
        node_id: NodeId,
        payload_units: int = 1,
        kind: Optional[str] = None,
    ) -> None:
        """Count one outgoing message."""
        metrics = self._per_node[node_id]
        metrics.messages_sent += 1
        metrics.payload_units_sent += payload_units
        if kind is not None:
            self._by_kind[kind] += 1

    def record_uncoalesced_copies(self, count: int) -> None:
        """Count messages the per-copy checker path would have sent."""
        self.uncoalesced_copy_sends += count

    def messages_of_kind(self, kind: str) -> int:
        """Messages sent with this wire kind across all nodes."""
        return self._by_kind[kind]

    def record_receive(self, node_id: NodeId, count: int = 1) -> None:
        """Count ``count`` delivered messages (one delivery batch)."""
        self._per_node[node_id].messages_received += count

    def record_computation(self, node_id: NodeId, as_checker: bool = False) -> None:
        """Count one mechanism computation (table recomputation etc.)."""
        metrics = self._per_node[node_id]
        if as_checker:
            metrics.checker_computations += 1
        else:
            metrics.computations += 1

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Messages sent across all nodes."""
        return sum(m.messages_sent for m in self._per_node.values())

    @property
    def total_payload_units(self) -> int:
        """Payload units sent across all nodes."""
        return sum(m.payload_units_sent for m in self._per_node.values())

    @property
    def total_computations(self) -> int:
        """Principal-role computations across all nodes."""
        return sum(m.computations for m in self._per_node.values())

    @property
    def total_checker_computations(self) -> int:
        """Checker-role (redundant) computations across all nodes."""
        return sum(m.checker_computations for m in self._per_node.values())

    def summary(self) -> Dict[str, int]:
        """Aggregate counters used by the overhead benchmarks."""
        return {
            "total_messages": self.total_messages,
            "total_payload_units": self.total_payload_units,
            "total_computations": self.total_computations,
            "total_checker_computations": self.total_checker_computations,
            "events_processed": self.events_processed,
            "uncoalesced_copy_sends": self.uncoalesced_copy_sends,
        }
