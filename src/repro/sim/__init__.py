"""Discrete-event network simulation substrate.

Provides the deterministic event queue, static FIFO-link topologies,
protocol node processes, failure-model adapters (including rational
manipulation, Section 3), simulated signing for bank channels, and
overhead metrics.
"""

from .crypto import SigningAuthority, stable_hash
from .events import Event, EventQueue
from .failures import (
    ByzantineAdapter,
    CrashAdapter,
    FailstopAdapter,
    FailureAdapter,
    FailureModel,
    OmissionAdapter,
    RationalAdapter,
)
from .messages import Message, NodeId
from .metrics import MetricsRegistry, NodeMetrics
from .network import Link, NetworkTopology
from .node import ProtocolNode
from .simulator import Simulator

__all__ = [
    "ByzantineAdapter",
    "CrashAdapter",
    "Event",
    "EventQueue",
    "FailstopAdapter",
    "FailureAdapter",
    "FailureModel",
    "Link",
    "Message",
    "MetricsRegistry",
    "NetworkTopology",
    "NodeId",
    "NodeMetrics",
    "OmissionAdapter",
    "ProtocolNode",
    "RationalAdapter",
    "SigningAuthority",
    "Simulator",
    "stable_hash",
]
