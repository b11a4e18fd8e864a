"""Tests for the immutable message envelope."""

import pickle
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Message


class TestMessage:
    def test_author_defaults_to_src(self):
        msg = Message(src="a", dst="b", kind="hello")
        assert msg.author == "a"

    def test_unique_ids(self):
        one = Message(src="a", dst="b", kind="k")
        two = Message(src="a", dst="b", kind="k")
        assert one.msg_id != two.msg_id

    def test_forwarded_keeps_author_and_id(self):
        original = Message(src="a", dst="b", kind="k", payload={"v": 1})
        copy = original.forwarded("b", "c")
        assert copy.src == "b"
        assert copy.dst == "c"
        assert copy.author == "a"
        assert copy.msg_id == original.msg_id
        assert copy.payload == original.payload

    def test_altered_replaces_payload_fields(self):
        original = Message(src="a", dst="b", kind="k", payload={"v": 1, "w": 2})
        tampered = original.altered(v=99)
        assert tampered.payload["v"] == 99
        assert tampered.payload["w"] == 2
        assert original.payload["v"] == 1  # original untouched

    def test_readdressed(self):
        msg = Message(src="a", dst="b", kind="k")
        assert msg.readdressed("c").dst == "c"

    def test_content_key_equality(self):
        one = Message(src="a", dst="b", kind="k", payload={"x": [1, 2]})
        two = Message(src="a", dst="c", kind="k", payload={"x": [1, 2]})
        assert one.content_key() == two.content_key()

    def test_content_key_detects_tampering(self):
        one = Message(src="a", dst="b", kind="k", payload={"x": 1})
        assert one.content_key() != one.altered(x=2).content_key()

    def test_content_key_nested_structures(self):
        msg = Message(
            src="a",
            dst="b",
            kind="k",
            payload={"table": {"d": (1.0, ("a", "b"))}, "tags": {1, 2}},
        )
        assert msg.content_key() == msg.forwarded("b", "c").content_key()

    def test_size_counts_scalars(self):
        msg = Message(
            src="a", dst="b", kind="k", payload={"v": [1, 2, 3], "w": 4}
        )
        assert msg.size == 4

    def test_size_minimum_one(self):
        assert Message(src="a", dst="b", kind="k").size == 1


class TestForwardedCopy:
    """``forwarded`` builds its copy field for field, not through
    ``dataclasses.replace``; the copy must be the same message."""

    @staticmethod
    def original():
        return Message(
            src="a",
            dst="b",
            kind="cost-decl",
            payload={"node": "a", "cost": 2.5, "path": ("a", "b")},
            signature="sig",
        )

    def test_equals_replace_built_copy(self):
        original = self.original()
        copy = original.forwarded("b", "c")
        assert copy == replace(original, src="b", dst="c")
        assert type(copy) is Message

    def test_keeps_author_id_and_signature(self):
        original = self.original()
        copy = original.forwarded("b", "c").forwarded("c", "d")
        assert (copy.src, copy.dst) == ("c", "d")
        assert copy.author == "a"
        assert copy.msg_id == original.msg_id
        assert copy.signature == "sig"
        assert copy.payload is original.payload
        assert (original.src, original.dst) == ("a", "b")  # untouched

    def test_reuses_the_original_size(self):
        original = self.original()
        original.seed_size(99)  # a sentinel no recount would produce
        assert original.forwarded("b", "c").size == 99

    def test_unsized_original_and_copy_count_alike(self):
        original = self.original()
        copy = original.forwarded("b", "c")
        assert copy.size == original.size == 4

    def test_altered_after_size_read_recounts(self):
        original = self.original()
        assert original.size == 4
        tampered = original.altered(path=("a", "x", "y", "b"))
        assert tampered.size == 6
        assert original.size == 4

    def test_forwarded_altered_carries_altered_size(self):
        original = self.original()
        assert original.size == 4
        tampered = original.altered(extra=(1, 2, 3))
        assert tampered.size == 7
        assert tampered.forwarded("b", "c").size == 7


def reference_count(value):
    """Recursive scalar count: containers recurse, empty ones count 1."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(map(reference_count, value)) if value else 1
    if isinstance(value, dict):
        return sum(map(reference_count, value.values())) if value else 1
    return 1


leaves = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.decimals(allow_nan=False, allow_infinity=False),
)
hashable = st.one_of(leaves, st.tuples(leaves, leaves), st.frozensets(leaves, max_size=3))
values = st.recursive(
    st.one_of(leaves, st.sets(hashable, max_size=4), st.frozensets(hashable, max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=2), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestSizeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=3), values, max_size=5))
    def test_size_equals_recursive_count(self, payload):
        expected = max(1, sum(map(reference_count, payload.values())))
        assert Message("a", "b", "k", payload).size == expected

    def test_empty_containers_and_odd_leaves(self):
        payload = {
            "empty": ((), [], {}, set(), frozenset()),
            "leaves": (True, None, Decimal("1.5"), b"x", 2.0),
        }
        assert Message("a", "b", "k", payload).size == 10


class TestImmutable:
    @pytest.mark.parametrize(
        "name", ["src", "dst", "kind", "payload", "author", "msg_id", "signature"]
    )
    def test_assigning_a_field_raises(self, name):
        msg = Message(src="a", dst="b", kind="k", payload={"v": 1})
        with pytest.raises(FrozenInstanceError):
            setattr(msg, name, "x")
        with pytest.raises(FrozenInstanceError):
            delattr(msg, name)

    def test_no_new_attributes(self):
        msg = Message(src="a", dst="b", kind="k")
        with pytest.raises((FrozenInstanceError, AttributeError)):
            msg.extra = 1
        with pytest.raises(FrozenInstanceError):
            msg._size_cache = 5

    def test_copies_build_the_same_fields(self):
        original = Message("a", "b", "k", {"v": 1}, signature="s")
        signed = original.signed("t")
        assert signed == replace(original, signature="t")
        assert original.readdressed("c") == replace(original, dst="c")
        assert pickle.loads(pickle.dumps(original)) == original
