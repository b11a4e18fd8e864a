"""Simulated message signing for bank channels.

The paper requires that "all communication between the bank and a node
is signed with acknowledgments to ensure communication compatibility of
these messages" (Section 4.2).  Inside the simulation we realise the
same integrity property with HMAC-SHA256 over a canonical rendering of
the payload, under per-node keys held by a registry that models the
pre-existing key distribution the paper assumes.

This is a *substitution* documented in DESIGN.md: real deployments
would use public-key signatures; the property exercised by the code —
that intermediaries cannot undetectably alter or forge bank traffic —
is identical.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from typing import Any, Dict, Mapping

from ..errors import SignatureError
from .messages import Message, NodeId


def _canonical(payload: Mapping[str, Any]) -> bytes:
    """Deterministic byte rendering of a payload dict."""

    def default(value: Any) -> Any:
        if isinstance(value, (set, frozenset)):
            return sorted(value, key=repr)
        if isinstance(value, tuple):
            return list(value)
        return repr(value)

    return json.dumps(payload, sort_keys=True, default=default).encode("utf-8")


class SigningAuthority:
    """Key registry and HMAC signer for node <-> bank traffic."""

    def __init__(self, secret_seed: str = "repro-bank") -> None:
        self._seed = secret_seed.encode("utf-8")
        self._keys: Dict[NodeId, bytes] = {}

    def register(self, node_id: NodeId) -> None:
        """Derive and store a per-node key (idempotent)."""
        if node_id not in self._keys:
            material = self._seed + repr(node_id).encode("utf-8")
            self._keys[node_id] = hashlib.sha256(material).digest()

    def is_registered(self, node_id: NodeId) -> bool:
        """True if the node holds a key."""
        return node_id in self._keys

    def _key(self, node_id: NodeId) -> bytes:
        try:
            return self._keys[node_id]
        except KeyError:
            raise SignatureError(f"no key registered for node {node_id!r}") from None

    def sign(self, signer: NodeId, message: Message) -> Message:
        """Return a copy of ``message`` carrying the signer's tag.

        The tag covers the message kind, the author identity, and the
        payload — so neither content nor attribution can be altered in
        transit without detection.
        """
        key = self._key(signer)
        body = _canonical(
            {"kind": message.kind, "author": repr(message.author), **dict(message.payload)}
        )
        tag = hmac.new(key, body, hashlib.sha256).hexdigest()
        return message.signed(tag)

    def verify(self, signer: NodeId, message: Message) -> bool:
        """Check the signature allegedly produced by ``signer``."""
        if message.signature is None:
            return False
        key = self._key(signer)
        body = _canonical(
            {"kind": message.kind, "author": repr(message.author), **dict(message.payload)}
        )
        expected = hmac.new(key, body, hashlib.sha256).hexdigest()
        return hmac.compare_digest(expected, message.signature)

    def require_valid(self, signer: NodeId, message: Message) -> None:
        """Raise :class:`SignatureError` unless the signature verifies."""
        if not self.verify(signer, message):
            raise SignatureError(
                f"message {message} failed signature verification for {signer!r}"
            )


def stable_hash(value: Any) -> str:
    """A deterministic SHA-256 hex digest of an arbitrary value.

    The bank compares *hashes* of routing and pricing tables rather
    than the tables themselves ("a hash of the entire table is
    sufficient", BANK1).  This helper provides that digest for any
    nested structure of dicts, tuples, sets, and scalars.

    It is also the definition of the digest byte format: the SHA-256 of
    ``json.dumps`` (default separators, ASCII escapes) over the
    canonical tree built here.  The DATA1/DATA2/DATA3* tables of
    ``routing/tables.py`` write the same text in one pass over their
    entries and must equal ``stable_hash(table.as_dict())`` bit for
    bit; ``tests/routing/test_table_digests.py`` holds them to it and
    pins the hex values.  Change this function and every table digest
    (and those pins) changes with it.
    """

    def canonical(v: Any) -> Any:
        if isinstance(v, dict):
            return ["dict", sorted((repr(k), canonical(x)) for k, x in v.items())]
        if isinstance(v, (list, tuple)):
            return ["seq", [canonical(x) for x in v]]
        if isinstance(v, (set, frozenset)):
            return ["set", sorted(repr(canonical(x)) for x in v)]
        if (
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and float(v) == int(v)
        ):
            # Normalise 2.0 vs 2 so semantically equal tables hash equal.
            return ["num", repr(int(v))]
        return ["atom", repr(v)]

    encoded = json.dumps(canonical(value), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
