"""The mechanism data tables DATA1-DATA4 and the DATA3* extension.

Section 4.1 lists the state every FPSS node maintains:

* **DATA1** transit-cost list — this node's knowledge of the declared
  transit costs of other nodes;
* **DATA2** routing table — LCP to each destination with the aggregate
  path cost;
* **DATA3** pricing table — per-packet payment owed by this node to
  each transit node on the LCP, per destination;
* **DATA4** payment list — total money owed to other nodes for
  originated traffic (execution phase).

The faithful extension (Section 4.3) replaces DATA3 with **DATA3***,
which additionally stores an *identity tag* per pricing entry: the node
that supplied the entry's ``d^{-k}`` value.  The paper unions suggesters
on pricing ties; every neighbour offers a path that starts with itself,
so under the kernel's total order there are none and every tag is a
singleton (kept as a set, the paper's type).  Spoofed pricing messages
create inconsistencies in these tags that BANK2 catches.

All tables support a :meth:`stable_digest` so the bank can compare a
principal's table against its checkers' mirrors by hash, as the paper
suggests ("a hash of the entire table is sufficient").  DATA1, DATA2
and DATA3* write the JSON text that :func:`~repro.sim.crypto.stable_hash`
hashes for ``as_dict()`` in one pass over their entries, so their
digests equal ``stable_hash(table.as_dict())`` bit for bit without
building its canonical tree.  A table whose ids the one-pass encoder
does not cover (two keys with one ``repr``, or a container as an id)
is hashed by ``stable_hash`` itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..errors import RoutingError
from ..sim.crypto import stable_hash
from .graph import Cost, NodeId

INFINITY = float("inf")


# ----------------------------------------------------------------------
# one-pass digests: the text stable_hash writes, without its tree
# ----------------------------------------------------------------------


class _Fallback(Exception):
    """The one-pass encoder cannot match ``stable_hash`` on this table."""


_CONTAINERS = (dict, list, tuple, set, frozenset)
#: Types whose equal values of one type share one canonical text, so
#: they may share a memo slot (``Decimal("1.0") == Decimal("1.00")``
#: has two reprs, so other types are encoded at every occurrence).
_MEMO_TYPES = frozenset((str, int, float, bool))


def _scalar_json(value: Any) -> str:
    """``stable_hash``'s JSON text for one scalar (a node id or a cost).

    Same number rule: an ``int``/``float`` (not ``bool``) with
    ``float(v) == int(v)`` is ``["num", repr(int(v))]``, anything else
    ``["atom", repr(v)]`` with the string escaped as ``json.dumps`` does.
    """
    cls = value.__class__
    if cls is float:
        # float(v) is v; int(v) raises on inf and nan, as stable_hash does.
        if value == int(value):
            return '["num", "%d"]' % value
        return '["atom", "%r"]' % value  # a float repr needs no escape
    if cls is str:
        return '["atom", ' + _json_string(repr(value)) + "]"
    if isinstance(value, _CONTAINERS):
        raise _Fallback
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # lint: allow[float-eq] stable_hash's exact integrality rule, not a cost comparison
        if float(value) == int(value):
            return '["num", "' + repr(int(value)) + '"]'
    return '["atom", ' + _json_string(repr(value)) + "]"


class _Texts(dict):
    """Per-digest memo: ``(type(node), node)`` -> canonical JSON text.

    Keyed by type as well: ``1``, ``1.0`` and ``True`` are one dict key
    with three encodings.
    """

    def __missing__(self, key: Tuple[type, Any]) -> str:
        text = _scalar_json(key[1])
        if key[0] in _MEMO_TYPES:
            self[key] = text
        return text

    def join(self, nodes: Iterable[NodeId]) -> str:
        """The items of ``["seq", [...]]`` over a path or a sorted tag."""
        return ", ".join([self[n.__class__, n] for n in nodes])


def _sorted_items(mapping: Mapping[Any, Any]) -> List[Tuple[str, Any]]:
    """``(repr(key), value)`` in ``repr`` order, as ``stable_hash``
    sorts a dict.  It breaks a ``repr`` tie on the canonical value,
    which this encoder does not build, so a tie falls back."""
    if len(mapping) < 2:
        return [(repr(key), value) for key, value in mapping.items()]
    reprs = list(map(repr, mapping))
    if len(set(reprs)) != len(reprs):
        raise _Fallback
    return sorted(zip(reprs, mapping.values()), key=itemgetter(0))


#: ``[key, ["seq", [number, ["seq", [nodes]]]]]``: a DATA2 row (cost,
#: path) or a DATA3* cell (price, sorted tag).
_PAIR_ROW = '[%s, ["seq", [%s, ["seq", [%s]]]]]'


def _dict_sha256(rows: List[str]) -> str:
    text = '["dict", [' + ", ".join(rows) + "]]"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _costs_digest(costs: Mapping[NodeId, Cost]) -> str:
    return _dict_sha256(
        [
            "[" + _json_string(r) + ", " + _scalar_json(cost) + "]"
            for r, cost in _sorted_items(costs)
        ]
    )


def _routes_digest(entries: Mapping[NodeId, "RouteEntry"]) -> str:
    texts = _Texts()
    return _dict_sha256(
        [
            _PAIR_ROW % (_json_string(r), _scalar_json(e.cost), texts.join(e.path))
            for r, e in _sorted_items(entries)
        ]
    )


def _prices_digest(entries: Mapping[NodeId, Mapping[NodeId, "PricingEntry"]]) -> str:
    texts = _Texts()
    rows = []
    for r, row in _sorted_items(entries):
        cells = [
            _PAIR_ROW
            % (
                _json_string(r_transit),
                _scalar_json(cell.price),
                texts.join(cell.tag if len(cell.tag) < 2 else sorted(cell.tag, key=repr)),
            )
            for r_transit, cell in _sorted_items(row)
        ]
        rows.append("[" + _json_string(r) + ', ["dict", [' + ", ".join(cells) + "]]]")
    return _dict_sha256(rows)


def _table_digest(encode: Callable[[Any], str], entries: Any, table: Any) -> str:
    """``encode(entries)``, or ``stable_hash(table.as_dict())`` where the
    one-pass encoder cannot match it."""
    try:
        return encode(entries)
    except _Fallback:
        return stable_hash(table.as_dict())


@dataclass(frozen=True)
class RouteEntry:
    """One routing-table row: LCP to a destination and its cost."""

    cost: Cost
    path: Tuple[NodeId, ...]

    def better_than(self, other: Optional["RouteEntry"]) -> bool:
        """Deterministic preference: cost, then hops, then lex path."""
        if other is None:
            return True
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> Tuple:
        """Total order consistent with the oracle's tie-breaking.

        Cached per (frozen) instance: the incremental FPSS relaxation
        compares candidate keys millions of times per run, and entries
        are long-lived table rows.
        """
        key = self.__dict__.get("_sort_key_cache")
        if key is None:
            key = (self.cost, len(self.path), tuple(repr(n) for n in self.path))
            object.__setattr__(self, "_sort_key_cache", key)
        return key


class TransitCostTable:
    """DATA1: declared transit costs known to this node."""

    def __init__(self) -> None:
        self._costs: Dict[NodeId, Cost] = {}
        self._digest: Optional[str] = None

    def declare(self, node: NodeId, cost: Cost) -> bool:
        """Record a declaration; returns True if this changed the table."""
        if cost < 0:
            raise RoutingError(f"negative declared cost for {node!r}")
        if not math.isfinite(cost):
            raise RoutingError(f"non-finite declared cost for {node!r}: {cost}")
        if self._costs.get(node) == cost:
            return False
        self._costs[node] = float(cost)
        self._digest = None
        return True

    def cost(self, node: NodeId) -> Cost:
        """The declared cost of a node (raises if unknown)."""
        try:
            return self._costs[node]
        except KeyError:
            raise RoutingError(f"no declared cost known for {node!r}") from None

    def get(self, node: NodeId, default: Optional[Cost] = None) -> Optional[Cost]:
        """The declared cost of a node, or ``default`` if unknown."""
        return self._costs.get(node, default)

    def knows(self, node: NodeId) -> bool:
        """True if a declaration for the node has been recorded."""
        return node in self._costs

    def retract(self, node: NodeId) -> bool:
        """Forget a declaration (node left the network); True if known.

        Never exercised on the static paper protocol — DATA1 only grows
        during a run — but required by the dynamic-topology engine so a
        departed node's declaration does not linger in digests.
        """
        if self._costs.pop(node, None) is None:
            return False
        self._digest = None
        return True

    def as_dict(self) -> Dict[NodeId, Cost]:
        """Copy of the underlying mapping."""
        return dict(self._costs)

    def __len__(self) -> int:
        return len(self._costs)

    def stable_digest(self) -> str:
        """Hash for bank comparisons (cached until the next change)."""
        if self._digest is None:
            self._digest = _table_digest(_costs_digest, self._costs, self)
        return self._digest


class RoutingTable:
    """DATA2: LCP entries per destination."""

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._entries: Dict[NodeId, RouteEntry] = {}
        self._digest: Optional[str] = None

    def entry(self, destination: NodeId) -> Optional[RouteEntry]:
        """The current entry for a destination, if any."""
        return self._entries.get(destination)

    def update(self, destination: NodeId, entry: RouteEntry) -> bool:
        """Install an entry; returns True if the table changed."""
        if destination == self.owner:
            raise RoutingError("a node needs no route to itself")
        current = self._entries.get(destination)
        if current == entry:
            return False
        self._entries[destination] = entry
        self._digest = None
        return True

    def remove(self, destination: NodeId) -> bool:
        """Withdraw an entry; returns True if the table changed.

        Obedient nodes on a static graph never withdraw (their tables
        only grow); topology events — failed links, departed nodes —
        are what make destinations genuinely unreachable.
        """
        if self._entries.pop(destination, None) is None:
            return False
        self._digest = None
        return True

    def cost(self, destination: NodeId) -> Cost:
        """Path cost to a destination (INFINITY if unknown)."""
        entry = self._entries.get(destination)
        return entry.cost if entry is not None else INFINITY

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        """First hop of the stored LCP toward a destination."""
        entry = self._entries.get(destination)
        if entry is None or len(entry.path) < 2:
            return None
        return entry.path[1]

    @property
    def destinations(self) -> Tuple[NodeId, ...]:
        """Destinations with an entry, repr-sorted."""
        return tuple(sorted(self._entries, key=repr))

    def as_dict(self) -> Dict[NodeId, Tuple[Cost, Tuple[NodeId, ...]]]:
        """Plain representation: dest -> (cost, path)."""
        return {d: (e.cost, e.path) for d, e in self._entries.items()}

    def stable_digest(self) -> str:
        """Hash for BANK1 comparisons (cached until the next change)."""
        if self._digest is None:
            self._digest = _table_digest(_routes_digest, self._entries, self)
        return self._digest


@dataclass(frozen=True)
class PricingEntry:
    """One DATA3* cell: price for a transit node plus identity tag."""

    price: Cost
    #: Identity tag: nodes that triggered/suggested this entry's value
    #: (the paper unions them on pricing ties; under the kernel's total
    #: order there are none, so it holds one supplier) — the DATA3*
    #: extension of Section 4.3.
    tag: FrozenSet[NodeId] = frozenset()


#: Shared empty row for lookups of an unpriced destination (read only).
_NO_ROW: Dict[NodeId, PricingEntry] = {}


class PricingTable:
    """DATA3*: per-destination map of transit node -> priced entry."""

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._entries: Dict[NodeId, Dict[NodeId, PricingEntry]] = {}
        self._digest: Optional[str] = None

    def set_price(
        self,
        destination: NodeId,
        transit: NodeId,
        price: Cost,
        tag: FrozenSet[NodeId],
    ) -> bool:
        """Install one price cell; returns True if the table changed."""
        row = self._entries.setdefault(destination, {})
        entry = PricingEntry(price=price, tag=frozenset(tag))
        if row.get(transit) == entry:
            return False
        row[transit] = entry
        self._digest = None
        return True

    def clear_destination(self, destination: NodeId) -> None:
        """Remove a whole row (used when the LCP changes)."""
        if self._entries.pop(destination, None) is not None:
            self._digest = None

    def price(self, destination: NodeId, transit: NodeId) -> Cost:
        """The price for one transit node (0 if absent, as off-path)."""
        entry = self._entries.get(destination, _NO_ROW).get(transit)
        return 0.0 if entry is None else entry.price

    def entry(self, destination: NodeId, transit: NodeId) -> Optional[PricingEntry]:
        """The full cell, tags included."""
        return self._entries.get(destination, _NO_ROW).get(transit)

    def row(self, destination: NodeId) -> Dict[NodeId, PricingEntry]:
        """Copy of one destination's row."""
        return dict(self._entries.get(destination, {}))

    def total_price(self, destination: NodeId) -> Cost:
        """Per-packet total the owner pays to reach a destination."""
        return sum(e.price for e in self._entries.get(destination, {}).values())

    @property
    def destinations(self) -> Tuple[NodeId, ...]:
        """Destinations with at least one priced transit node."""
        return tuple(sorted(self._entries, key=repr))

    def as_dict(self) -> Dict[NodeId, Dict[NodeId, Tuple[Cost, Tuple[NodeId, ...]]]]:
        """Plain nested representation including sorted tags."""
        return {
            destination: {
                transit: (cell.price, tuple(sorted(cell.tag, key=repr)))
                for transit, cell in row.items()
            }
            for destination, row in self._entries.items()
        }

    def prices_only(self) -> Dict[NodeId, Dict[NodeId, Cost]]:
        """The DATA3 view without tags (for plain-FPSS comparisons)."""
        return {
            destination: {transit: cell.price for transit, cell in row.items()}
            for destination, row in self._entries.items()
        }

    def stable_digest(self) -> str:
        """Hash (prices *and* tags) for BANK2 comparisons (cached until
        the next change)."""
        if self._digest is None:
            self._digest = _table_digest(_prices_digest, self._entries, self)
        return self._digest


class PaymentList:
    """DATA4: money owed to other nodes for originated traffic."""

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._owed: Dict[NodeId, Cost] = {}

    def charge(self, payee: NodeId, amount: Cost) -> None:
        """Accumulate an obligation toward one transit node."""
        if amount < 0:
            raise RoutingError(f"negative charge toward {payee!r}")
        self._owed[payee] = self._owed.get(payee, 0.0) + amount

    def owed_to(self, payee: NodeId) -> Cost:
        """Current obligation toward one node."""
        return self._owed.get(payee, 0.0)

    @property
    def total(self) -> Cost:
        """Total obligations."""
        return sum(self._owed.values())

    def as_dict(self) -> Dict[NodeId, Cost]:
        """Copy of payee -> amount."""
        return dict(self._owed)

    def scaled(self, factor: float) -> Dict[NodeId, Cost]:
        """A proportionally under/over-reported copy (for fraud tests)."""
        return {payee: amount * factor for payee, amount in self._owed.items()}

    def stable_digest(self) -> str:
        """Hash for settlement comparisons."""
        return stable_hash(self._owed)
