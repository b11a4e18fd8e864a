"""Messages exchanged between protocol nodes.

A message is an immutable envelope: sender, receiver, a ``kind`` tag
that selects the handler on the receiving node, and a payload dict.
Tampering (for Byzantine/rational adapters) is modelled by building a
*new* message via :meth:`Message.altered`; originals are never mutated,
so the sent and the delivered message stay distinct objects.

Every send, relayed copy, signed copy and altered copy builds a
message, so construction is on the per-message path.  A
:class:`Message` keeps its fields in ``__slots__`` (no per-instance
dict), and one writer, ``_fill``, stores them through the slot
descriptors: the constructor and every copy method go through it, and
no field is written anywhere else.  Assigning a field from outside
still raises :class:`dataclasses.FrozenInstanceError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Optional

NodeId = Hashable
"""Node identifiers are arbitrary hashable labels (strings in practice)."""

_msg_counter = itertools.count(1)

_new = object.__new__

#: Payload leaves recognised by exact type before any container test;
#: every other non-container value still counts as one scalar.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_SEQUENCE_TYPES = (list, tuple, set, frozenset)


def _freeze(value: Any) -> Any:
    """Recursively convert payload values to hashable/immutable forms."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


@dataclass(frozen=True, init=False)
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

    __slots__ = (
        "src", "dst", "kind", "payload", "author", "msg_id", "signature",
        "_size_cache",
    )

    src: NodeId
    dst: NodeId
    kind: str
    payload: Mapping[str, Any]
    author: NodeId
    msg_id: int
    signature: Optional[str]

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        author: Optional[NodeId] = None,
        msg_id: Optional[int] = None,
        signature: Optional[str] = None,
    ) -> None:
        _fill(
            self,
            src,
            dst,
            kind,
            {} if payload is None else payload,
            src if author is None else author,
            next(_msg_counter) if msg_id is None else msg_id,
            signature,
            None,
        )

    def forwarded(self, src: NodeId, dst: NodeId) -> "Message":
        """A copy of this message relayed by ``src`` to ``dst``.

        Keeps the author and ``msg_id`` so receivers can recognise the
        message as a forwarded copy of the original.  The copy shares
        the original's payload object, so it inherits a cached
        :attr:`size`: relayed cost declarations are most of the
        messages of a large run.
        """
        return _fill(
            _new(type(self)), src, dst, self.kind, self.payload, self.author,
            self.msg_id, self.signature, self._size_cache,
        )

    def altered(self, **payload_updates: Any) -> "Message":
        """A tampered copy with payload fields replaced.

        Used by manipulation strategies; the result keeps the original
        ``msg_id`` (a rational node forging content, not identity).
        """
        merged = dict(self.payload)
        merged.update(payload_updates)
        return _fill(
            _new(type(self)), self.src, self.dst, self.kind, merged,
            self.author, self.msg_id, self.signature, None,
        )

    def readdressed(self, dst: NodeId) -> "Message":
        """A copy sent to a different destination."""
        return _fill(
            _new(type(self)), self.src, dst, self.kind, self.payload,
            self.author, self.msg_id, self.signature, None,
        )

    def signed(self, signature: str) -> "Message":
        """A copy carrying ``signature`` (see :mod:`repro.sim.crypto`)."""
        return _fill(
            _new(type(self)), self.src, self.dst, self.kind, self.payload,
            self.author, self.msg_id, signature, None,
        )

    def __reduce__(self):
        return (
            type(self),
            (self.src, self.dst, self.kind, self.payload, self.author,
             self.msg_id, self.signature),
        )

    def content_key(self) -> Hashable:
        """A hashable digest of (kind, author, payload) for comparisons."""
        return (self.kind, self.author, _freeze(dict(self.payload)))

    @property
    def size(self) -> int:
        """Crude size proxy: number of scalar entries in the payload.

        The count is cached per message instance: broadcast vectors can
        hold thousands of rows, and the metrics layer reads ``size`` on
        every transmission.  A :meth:`forwarded` copy carries the same
        payload object and inherits the cache; ``altered``,
        ``readdressed`` and ``signed`` copies start without one, so an
        altered payload is always counted afresh.  :meth:`seed_size`
        shares one computed size across the identical copies of a
        broadcast.
        """
        size = self._size_cache
        if size is not None:
            return size
        # Iterative count: broadcast vectors nest thousands of rows and
        # recursion overhead dominated the send path.  Plain scalars
        # are recognised by exact type first; empty containers count
        # as one scalar.
        size = 0
        stack = list(self.payload.values())
        pop = stack.pop
        extend = stack.extend
        while stack:
            value = pop()
            if type(value) in _SCALAR_TYPES:
                size += 1
            elif isinstance(value, _SEQUENCE_TYPES):
                if value:
                    extend(value)
                else:
                    size += 1
            elif isinstance(value, dict):
                if value:
                    extend(value.values())
                else:
                    size += 1
            else:
                size += 1
        size = max(1, size)
        _set_size(self, size)
        return size

    def seed_size(self, size: int) -> None:
        """Pre-populate the :attr:`size` cache (same-payload broadcasts)."""
        _set_size(self, size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.kind} {self.src}->{self.dst} #{self.msg_id}>"


def _slot_writer(cls: type):
    """The one writer of :class:`Message` fields.

    Returns ``fill(message, *fields, size)``, which stores each field
    through its slot descriptor (bypassing the frozen ``__setattr__``
    without a per-field ``object.__setattr__`` lookup) and returns the
    message.
    """
    (set_src, set_dst, set_kind, set_payload, set_author, set_msg_id,
     set_signature, set_size) = (cls.__dict__[name].__set__ for name in cls.__slots__)

    def fill(message, src, dst, kind, payload, author, msg_id, signature, size):
        set_src(message, src)
        set_dst(message, dst)
        set_kind(message, kind)
        set_payload(message, payload)
        set_author(message, author)
        set_msg_id(message, msg_id)
        set_signature(message, signature)
        set_size(message, size)
        return message

    return fill, set_size


_fill, _set_size = _slot_writer(Message)
