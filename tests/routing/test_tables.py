"""Tests for the DATA1-DATA4 mechanism tables."""

import pytest

from repro.errors import RoutingError
from repro.routing import (
    INFINITY,
    PaymentList,
    PricingTable,
    RouteEntry,
    RoutingTable,
    TransitCostTable,
)


class TestTransitCostTable:
    def test_declare_reports_changes(self):
        table = TransitCostTable()
        assert table.declare("a", 3.0)
        assert not table.declare("a", 3.0)  # unchanged
        assert table.declare("a", 4.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(RoutingError, match="negative"):
            TransitCostTable().declare("a", -1.0)

    @pytest.mark.parametrize("cost", [float("inf"), float("nan")])
    def test_non_finite_cost_rejected(self, cost):
        table = TransitCostTable()
        with pytest.raises(RoutingError, match="non-finite"):
            table.declare("a", cost)
        assert not table.knows("a")
        assert table.stable_digest() == TransitCostTable().stable_digest()

    def test_lookup(self):
        table = TransitCostTable()
        table.declare("a", 2.0)
        assert table.cost("a") == 2.0
        assert table.knows("a")
        assert not table.knows("b")
        with pytest.raises(RoutingError, match="no declared cost"):
            table.cost("b")

    def test_digest_changes_with_content(self):
        one, two = TransitCostTable(), TransitCostTable()
        one.declare("a", 1.0)
        two.declare("a", 2.0)
        assert one.stable_digest() != two.stable_digest()
        two.declare("a", 1.0)
        assert one.stable_digest() == two.stable_digest()


class TestRouteEntry:
    def test_ordering_by_cost_then_hops_then_lex(self):
        cheap = RouteEntry(1.0, ("a", "b"))
        short = RouteEntry(2.0, ("a", "b"))
        long = RouteEntry(2.0, ("a", "c", "b"))
        assert cheap.better_than(short)
        assert short.better_than(long)
        assert cheap.better_than(None)

    def test_lex_tiebreak(self):
        one = RouteEntry(1.0, ("a", "b", "d"))
        two = RouteEntry(1.0, ("a", "c", "d"))
        assert one.better_than(two)


class TestRoutingTable:
    def test_update_and_lookup(self):
        table = RoutingTable("a")
        entry = RouteEntry(3.0, ("a", "b", "c"))
        assert table.update("c", entry)
        assert not table.update("c", entry)  # idempotent
        assert table.entry("c") == entry
        assert table.cost("c") == 3.0
        assert table.next_hop("c") == "b"
        assert table.destinations == ("c",)

    def test_no_route_to_self(self):
        with pytest.raises(RoutingError, match="itself"):
            RoutingTable("a").update("a", RouteEntry(0.0, ("a",)))

    def test_unknown_destination(self):
        table = RoutingTable("a")
        assert table.entry("z") is None
        assert table.cost("z") == INFINITY
        assert table.next_hop("z") is None

    def test_digest_sensitive_to_paths(self):
        one, two = RoutingTable("a"), RoutingTable("a")
        one.update("c", RouteEntry(1.0, ("a", "b", "c")))
        two.update("c", RouteEntry(1.0, ("a", "d", "c")))
        assert one.stable_digest() != two.stable_digest()


class TestPricingTable:
    def test_set_price_with_tags(self):
        table = PricingTable("a")
        assert table.set_price("z", "k", 4.0, frozenset({"b"}))
        assert not table.set_price("z", "k", 4.0, frozenset({"b"}))
        cell = table.entry("z", "k")
        assert cell.price == 4.0
        assert cell.tag == frozenset({"b"})

    def test_tag_change_is_a_change(self):
        """DATA3* extension: tags are part of the compared state, so a
        spoof that alters only tags still flips the digest."""
        one, two = PricingTable("a"), PricingTable("a")
        one.set_price("z", "k", 4.0, frozenset({"b"}))
        two.set_price("z", "k", 4.0, frozenset({"c"}))
        assert one.stable_digest() != two.stable_digest()
        assert one.prices_only() == two.prices_only()

    def test_missing_price_is_zero(self):
        assert PricingTable("a").price("z", "k") == 0.0

    def test_total_price(self):
        table = PricingTable("a")
        table.set_price("z", "k1", 4.0, frozenset())
        table.set_price("z", "k2", 2.5, frozenset())
        assert table.total_price("z") == pytest.approx(6.5)

    def test_equality_compares_cells_not_owner(self):
        table = PricingTable("a")
        table.set_price("z", "k", 4.0, frozenset({"b"}))
        other = PricingTable("c")
        assert table != other
        other.set_price("z", "k", 4.0, frozenset({"b"}))
        assert table == other
        other.set_price("z", "k", 4.0, frozenset({"d"}))
        assert table != other

    def test_tag_union_representation(self):
        table = PricingTable("a")
        table.set_price("z", "k", 4.0, frozenset({"b", "c"}))
        rendered = table.as_dict()["z"]["k"]
        assert rendered == (4.0, ("b", "c"))


class TestPaymentList:
    def test_charges_accumulate(self):
        data4 = PaymentList("a")
        data4.charge("k", 3.0)
        data4.charge("k", 2.0)
        data4.charge("m", 1.0)
        assert data4.owed_to("k") == 5.0
        assert data4.total == 6.0
        assert data4.as_dict() == {"k": 5.0, "m": 1.0}

    def test_negative_charge_rejected(self):
        with pytest.raises(RoutingError, match="negative charge"):
            PaymentList("a").charge("k", -1.0)

    def test_scaled_for_fraud_tests(self):
        data4 = PaymentList("a")
        data4.charge("k", 4.0)
        assert data4.scaled(0.5) == {"k": 2.0}

    def test_digest(self):
        one, two = PaymentList("a"), PaymentList("a")
        one.charge("k", 1.0)
        two.charge("k", 1.0)
        assert one.stable_digest() == two.stable_digest()


class TestDigestCache:
    """``stable_digest`` is cached; every mutator must drop the cache."""

    @staticmethod
    def costs(**values):
        table = TransitCostTable()
        for node, cost in values.items():
            table.declare(node, cost)
        return table

    def test_cost_table(self):
        table = self.costs(a=1.0, b=2.0)
        before = table.stable_digest()
        table.declare("a", 3.0)
        assert table.stable_digest() == self.costs(a=3.0, b=2.0).stable_digest()
        assert table.stable_digest() != before
        table.retract("b")
        assert table.stable_digest() == self.costs(a=3.0).stable_digest()

    def test_routing_table(self):
        table = RoutingTable("a")
        table.update("c", RouteEntry(1.0, ("a", "b", "c")))
        before = table.stable_digest()
        table.update("c", RouteEntry(1.0, ("a", "d", "c")))
        assert table.stable_digest() != before
        table.remove("c")
        assert table.stable_digest() == RoutingTable("a").stable_digest()

    def test_pricing_table(self):
        table = PricingTable("a")
        table.set_price("z", "k", 4.0, frozenset({"b"}))
        before = table.stable_digest()
        table.set_price("z", "k", 4.0, frozenset({"c"}))
        assert table.stable_digest() != before
