"""Plain records: constructors, equality, repr, immutability and hashing."""

import pytest

from liepres.record import Record


class Point(Record):
    __slots__ = ("x", "y", "_cache")
    _hidden = ("_cache",)


class Pair(Record):
    __slots__ = ("left", "right")


def test_positional_and_keyword_fields():
    p = Point(1, 2, _cache={})
    assert (p.x, p.y, p._cache) == (1, 2, {})
    assert Point(_cache={}, y=2, x=1) == p == Point(1, 2, {})
    for args, kwargs in (((1, 2), {}), ((1, 2, {}, 4), {}), ((1, 2, {}), {"x": 1}), ((1, 2, {}), {"z": 0})):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)


def test_equality_compares_class_and_every_field():
    assert Point(1, 2, {}) != Point(1, 3, {})
    assert Point(1, 2, {}) != Point(1, 2, {"k": 1})
    assert Pair(1, 2) != (1, 2) and Pair(1, 2) == Pair(1, 2)


def test_repr_lists_the_shown_fields():
    assert repr(Point(1, "a", {"k": 1})) == "Point(x=1, y='a')"
    assert repr(Pair((1,), None)) == "Pair(left=(1,), right=None)"


def test_records_are_immutable_and_hashable_only_with_hashable_fields():
    p = Point(1, 2, {})
    with pytest.raises(AttributeError):
        p.x = 5
    assert p.x == 1
    with pytest.raises(TypeError):
        hash(p)  # the dict field is unhashable
    pair = Pair(1, 2)
    assert hash(pair) == hash(Pair(1, 2)) and len({pair, Pair(1, 2)}) == 1
    with pytest.raises(AttributeError):
        pair.left = 3
    with pytest.raises(AttributeError):
        del pair.right
    with pytest.raises(AttributeError):
        pair.other = 0
