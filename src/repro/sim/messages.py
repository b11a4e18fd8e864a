"""Messages exchanged between protocol nodes.

A message is an immutable envelope: sender, receiver, a ``kind`` tag
that selects the handler on the receiving node, and a payload dict.
Tampering (for Byzantine/rational adapters) is modelled by building a
*new* message via :meth:`Message.altered`; originals are never mutated,
so the sent and the delivered message stay distinct objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Mapping, Optional

NodeId = Hashable
"""Node identifiers are arbitrary hashable labels (strings in practice)."""

_msg_counter = itertools.count(1)


def _freeze(value: Any) -> Any:
    """Recursively convert payload values to hashable/immutable forms."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class Message:
    """An immutable protocol message.

    Attributes
    ----------
    src:
        Originating node of this hop (not necessarily the original
        author if the message is a forwarded copy).
    dst:
        Receiving node of this hop.
    kind:
        Handler-selector string, e.g. ``"rt-update"``.
    payload:
        Message body.  Treated as immutable by convention.
    author:
        The node that created the information in this message; equals
        ``src`` unless this is a forwarded copy.
    msg_id:
        Unique id assigned at construction; forwarded copies share the
        author's id so checkers can match copies to originals.
    signature:
        Optional signature tag from :mod:`repro.sim.crypto`.
    """

    src: NodeId
    dst: NodeId
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    author: Optional[NodeId] = None
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    signature: Optional[str] = None

    def __post_init__(self) -> None:
        if self.author is None:
            object.__setattr__(self, "author", self.src)

    def forwarded(self, src: NodeId, dst: NodeId) -> "Message":
        """A copy of this message relayed by ``src`` to ``dst``.

        Keeps the author and ``msg_id`` so receivers can recognise the
        message as a forwarded copy of the original.  The copy shares
        the original's payload object, so it is built field for field
        without re-running ``__init__`` and inherits a cached
        :attr:`size`: relayed cost declarations are most of the
        messages of a large run.
        """
        copy = object.__new__(type(self))
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["src"] = src
        fields["dst"] = dst
        return copy

    def altered(self, **payload_updates: Any) -> "Message":
        """A tampered copy with payload fields replaced.

        Used by manipulation strategies; the result keeps the original
        ``msg_id`` (a rational node forging content, not identity).
        """
        merged = dict(self.payload)
        merged.update(payload_updates)
        return replace(self, payload=merged)

    def readdressed(self, dst: NodeId) -> "Message":
        """A copy sent to a different destination."""
        return replace(self, dst=dst)

    def content_key(self) -> Hashable:
        """A hashable digest of (kind, author, payload) for comparisons."""
        return (self.kind, self.author, _freeze(dict(self.payload)))

    @property
    def size(self) -> int:
        """Crude size proxy: number of scalar entries in the payload.

        The count is cached per message instance: broadcast vectors can
        hold thousands of rows, and the metrics layer reads ``size`` on
        every transmission.  A :meth:`forwarded` copy carries the same
        payload object and inherits the cache; ``altered`` and
        ``readdressed`` copies start without one, so an altered payload
        is always counted afresh.  :meth:`seed_size` shares one computed
        size across the identical copies of a broadcast.
        """
        cached = self.__dict__.get("_size_cache")
        if cached is not None:
            return cached
        # Iterative count: broadcast vectors nest thousands of rows and
        # recursion overhead dominated the send path.  Empty containers
        # count as one scalar, as before.
        size = 0
        stack = list(self.payload.values())
        while stack:
            value = stack.pop()
            if isinstance(value, (list, tuple, set, frozenset)):
                if value:
                    stack.extend(value)
                else:
                    size += 1
            elif isinstance(value, dict):
                if value:
                    stack.extend(value.values())
                else:
                    size += 1
            else:
                size += 1
        size = max(1, size)
        object.__setattr__(self, "_size_cache", size)
        return size

    def seed_size(self, size: int) -> None:
        """Pre-populate the :attr:`size` cache (same-payload broadcasts)."""
        object.__setattr__(self, "_size_cache", size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.kind} {self.src}->{self.dst} #{self.msg_id}>"
