"""One-pass table digests against the generic ``stable_hash``.

Reproduces: the BANK1/BANK2 checkpoints of Shneidman & Parkes (PODC'04)
Section 4.2 — the bank compares a hash of each principal's tables with
its checkers' ("a hash of the entire table is sufficient").

``TransitCostTable``, ``RoutingTable`` and ``PricingTable`` write the
JSON text that ``stable_hash(table.as_dict())`` hashes straight from
their entries.  ``stable_hash`` defines the byte format, so every digest
must equal it on every table: the parity tests draw ids and costs where
a hand-rolled encoder slips first (escaping, non-ASCII, ``1``/``1.0``/
``True``, ``-0.0``, extreme exponents, empty rows, tags of every size).
The kernel and the digest oracle both hash through these tables, so an
encoder bug would agree with itself on both sides of
``verify_epoch_equivalence``; the golden pins, computed with the generic
encoder before the one-pass encoders existed, catch a format drift that
parity alone would share.
"""

import hashlib
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    PricingEntry,
    PricingTable,
    RouteEntry,
    RoutingTable,
    TransitCostTable,
    fixed_point_digests,
)
from repro.routing import tables as tables_module
from repro.sim import stable_hash
from repro.workloads import random_biconnected_graph

OWNER = "owner"

TRICKY_TEXT = st.text(
    alphabet=st.sampled_from(["a", "'", '"', "\\", "\n", "é", "ü", "€", "😀", "\x00"]),
    max_size=4,
)
NODE_IDS = st.one_of(
    TRICKY_TEXT.filter(lambda s: s != OWNER),
    st.integers(min_value=-(10**20), max_value=10**20),
)
COSTS = st.one_of(
    st.integers(min_value=0, max_value=50).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 2.0, 0.5, 1e-300, 1e300, 7]),
)
SIGNED_COSTS = st.one_of(COSTS, COSTS.map(lambda c: -c))
PATHS = st.lists(NODE_IDS, max_size=5).map(tuple)
TAGS = st.one_of(
    st.just(frozenset()),
    NODE_IDS.map(lambda n: frozenset((n,))),
    st.frozensets(NODE_IDS, min_size=3, max_size=3),
)


def reference(table):
    """The generic digest every table digest must equal."""
    return stable_hash(table.as_dict())


def cost_table(costs):
    table = TransitCostTable()
    for node, cost in costs.items():
        table.declare(node, cost)
    return table


def routing_table(entries):
    table = RoutingTable(OWNER)
    for destination, (cost, path) in entries.items():
        table.update(destination, RouteEntry(cost=cost, path=path))
    return table


def pricing_table(cells, empty_rows=()):
    table = PricingTable(OWNER)
    for (destination, transit), (price, tag) in cells.items():
        table.set_price(destination, transit, price, tag)
    for destination in empty_rows:
        # The public API never leaves a row empty; the encoder must
        # still write one as the generic encoder does.
        table._entries.setdefault(destination, {})
    return table


class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(NODE_IDS, COSTS, max_size=8))
    def test_cost_table(self, costs):
        table = cost_table(costs)
        assert table.stable_digest() == reference(table)

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            NODE_IDS.filter(lambda n: n != OWNER),
            st.tuples(SIGNED_COSTS, PATHS),
            max_size=8,
        )
    )
    def test_routing_table(self, entries):
        table = routing_table(entries)
        assert table.stable_digest() == reference(table)

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(NODE_IDS, NODE_IDS), st.tuples(SIGNED_COSTS, TAGS), max_size=10
        ),
        st.lists(NODE_IDS, max_size=2),
    )
    def test_pricing_table(self, cells, empty_rows):
        table = pricing_table(cells, empty_rows)
        assert table.stable_digest() == reference(table)

    def test_empty_tables(self):
        for table in (TransitCostTable(), RoutingTable(OWNER), PricingTable(OWNER)):
            assert table.stable_digest() == reference(table)

    def test_equal_ids_of_different_types_in_successive_tables(self):
        """``1``, ``1.0`` and ``True`` are one dict key with three reprs."""
        for node in (1, 1.0, True, 1, True, 1.0):
            tables = (
                cost_table({node: 2.0}),
                routing_table({node: (3, ("s", node, True, 1.0, 1))}),
                pricing_table({(node, node): (1.0, frozenset((node,)))}),
            )
            for table in tables:
                assert table.stable_digest() == reference(table)

    def test_equal_values_with_different_reprs(self):
        for zero in (0.0, -0.0):
            table = routing_table({zero: (zero, (-0.0, 0.0, zero))})
            assert table.stable_digest() == reference(table)
        one, one_again = Decimal("1.0"), Decimal("1.00")
        table = routing_table({one: (1.0, ("s", one, one_again, one))})
        assert table.stable_digest() == reference(table)

    def test_non_integral_and_extreme_costs(self):
        table = cost_table({"a": 0.1, "b": 1e-300, "c": 1e300, "d": 2**60 + 0.0})
        assert table.stable_digest() == reference(table)
        # float(2**53 + 1) != 2**53 + 1, so stable_hash writes it as an atom.
        big = 2**53 + 1
        table = routing_table({big: (2**53 + 0.0, ("s", big, 2**53))})
        assert table.stable_digest() == reference(table)

    def test_repr_tie_falls_back_to_the_generic_digest(self):
        class Twin:
            def __init__(self, weight):
                self.weight = weight

            def __repr__(self):
                return "twin"

        one, two = Twin(1), Twin(2)
        tables = (
            cost_table({one: 2.0, two: 1.0}),
            routing_table({one: (2.0, ("s", one)), two: (1.0, ("s", two))}),
            pricing_table({("d", one): (1.0, frozenset()), ("d", two): (2.0, frozenset())}),
        )
        for table in tables:
            assert table.stable_digest() == reference(table)

    def test_container_ids_match_the_generic_digest(self):
        table = routing_table({("x", 1): (2.0, ("s", ("x", 1.0), frozenset({3})))})
        assert table.stable_digest() == reference(table)


class TestCache:
    """Every mutator drops the cached digest; the next one is fresh."""

    def _check(self, table, mutate):
        before = table.stable_digest()
        assert mutate(table)
        after = table.stable_digest()
        assert after != before
        assert after == reference(table)

    def test_cost_table_mutators(self):
        table = cost_table({"a": 1.0, "b": 2.0})
        self._check(table, lambda t: t.declare("a", 3.0))
        self._check(table, lambda t: t.declare("c", 3.0))
        self._check(table, lambda t: t.retract("b"))

    def test_routing_table_mutators(self):
        table = routing_table({"a": (1.0, ("s", "a")), "b": (2.0, ("s", "b"))})
        self._check(table, lambda t: t.update("a", RouteEntry(4.0, ("s", "b", "a"))))
        self._check(table, lambda t: t.update("c", RouteEntry(1.0, ("s", "c"))))
        self._check(table, lambda t: t.remove("b"))

    def test_pricing_table_mutators(self):
        table = pricing_table({("d", "a"): (1.0, frozenset("x")), ("e", "b"): (2.0, frozenset("y"))})
        self._check(table, lambda t: t.set_price("d", "a", 1.0, frozenset("z")))
        self._check(table, lambda t: t.set_price("d", "a", 5.0, frozenset("z")))
        self._check(table, lambda t: t.set_price("f", "c", 5.0, frozenset()))

        def clear(t):
            t.clear_destination("e")
            return True

        self._check(table, clear)


def hand_built_tables():
    costs = cost_table(
        {"a": 1, "b'\"\\": 2.5, "é-ü": 0, 7: 1e300, "z": 1e-300, "zero": -0.0}
    )
    routing = routing_table(
        {
            "a": (3.0, ("s", "a")),
            'q"\\': (4.5, ("s", 7, 'q"\\')),
            7: (0.0, ("s", 7)),
            "é": (2, ("s", "a", "é")),
        }
    )
    pricing = pricing_table(
        {
            ("d", "a"): (2.0, frozenset({"x"})),
            ("d", 7): (0.5, frozenset({"x", 3, "é"})),
            ("e", "b"): (-0.0, frozenset()),
            ('q"', "k\\"): (1e300, frozenset({True})),
        }
    )
    return costs, routing, pricing


def fixed_point_fingerprint(digests):
    """One hex over every node's three digests, in ``repr`` order."""
    text = "".join(
        f"{node!r}:{d.cost_digest}:{d.routing_digest}:{d.pricing_digest};"
        for node, d in sorted(digests.items(), key=lambda item: repr(item[0]))
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGoldenPins:
    """Hex values from the generic encoder, fixed before the one-pass
    encoders landed: a format drift shared by kernel and oracle shows
    here."""

    HAND_BUILT = (
        "739ae125a99e3334dcc08d1378721bbf2a786a0af12e2ec8bb7fab43fdd7c7e6",
        "77fa3e7fdd77eefddb1c2076eaec32734eff597eb27b98de6f4d882445a457fc",
        "1ee79347b93dbe3f8a8d5e009669c3eacf34e2e9c58c955fd68d7e2824ae9555",
    )
    FIXED_POINT_16_SEED_3 = (
        "9654b6e403d42f602f1202fcf28c11b158e439044cb5405b6c975db333b8bc6c"
    )

    def test_hand_built_tables(self):
        tables = hand_built_tables()
        assert tuple(t.stable_digest() for t in tables) == self.HAND_BUILT
        assert tuple(reference(t) for t in tables) == self.HAND_BUILT

    def test_fixed_point_digests(self):
        graph = random_biconnected_graph(16, random.Random(3))
        digests = fixed_point_digests(graph)
        assert fixed_point_fingerprint(digests) == self.FIXED_POINT_16_SEED_3


def _tags_dropped(encode):
    def planted(entries):
        return encode(
            {
                destination: {
                    transit: PricingEntry(cell.price) for transit, cell in row.items()
                }
                for destination, row in entries.items()
            }
        )

    return planted


def _integral_float_as_atom(encode):
    def planted(value):
        if value.__class__ is float:
            return '["atom", "%r"]' % value
        return encode(value)

    return planted


def _rows_in_dict_order(_sort):
    def planted(mapping):
        return [(repr(key), value) for key, value in mapping.items()]

    return planted


class TestPlantedEncoderBugs:
    """The kernel and the oracle hash through the same encoders, so an
    encoder bug agrees with itself in ``verify_epoch_equivalence``; the
    parity tests and the pins are what must catch it."""

    @staticmethod
    def parity_holds(tables):
        return all(t.stable_digest() == reference(t) for t in tables)

    @pytest.mark.parametrize(
        "name, plant",
        [
            ("_prices_digest", _tags_dropped),
            ("_scalar_json", _integral_float_as_atom),
            ("_sorted_items", _rows_in_dict_order),
        ],
    )
    def test_planted_bug_fails_parity_and_pins(self, monkeypatch, name, plant):
        assert self.parity_holds(hand_built_tables())
        monkeypatch.setattr(tables_module, name, plant(getattr(tables_module, name)))
        tables = hand_built_tables()
        assert not self.parity_holds(tables)
        digests = tuple(t.stable_digest() for t in tables)
        assert digests != TestGoldenPins.HAND_BUILT
