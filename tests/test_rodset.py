"""Rod-set literals, reduction, and the small algebra on rod sets."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from trainyard import (
    RodSet,
    RodSetError,
    RodSetParseError,
    compose,
    concat,
    expand,
    format_rodset,
    negate,
    odd_sign_swap,
    parse_rodset,
    union,
)

from conftest import PROPERTY, random_rodset


@pytest.mark.parametrize(
    "text, pairs",
    [
        ("[]", ()),
        ("[1,2]", ((1, 1), (2, 1))),
        ("[1,-2^3]", ((1, 1), (2, -3))),
        ("[ 1 , -2^3 ]", ((1, 1), (2, -3))),
        ("[1,1]", ((1, 2),)),
        ("[2,-2,1,1]", ((1, 2),)),
        ("[3,1,2]", ((1, 1), (2, 1), (3, 1))),
        ("[1^2,-1]", ((1, 1),)),
        ("[-4^2]", ((4, -2),)),
        ("[2,-2]", ()),
    ],
)
def test_parse_reduces_and_sorts(text, pairs):
    assert parse_rodset(text).pairs == pairs, f"literal {text!r} misparsed"


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        ("", 0, "expected '['"),
        ("x", 0, "expected '['"),
        ("[", 1, "expected a rod length"),
        ("[^2]", 1, "expected a rod length"),
        ("[1,]", 3, "expected a rod length"),
        ("[1,-]", 4, "expected a rod length"),
        ("[0]", 1, "rod length must be positive"),
        ("[-0]", 2, "rod length must be positive"),
        ("[1", 2, "expected ',' or ']'"),
        ("[1;2]", 2, "expected ',' or ']'"),
        ("[2^-7]", 3, "expected a multiplicity count after '^'"),
        ("[2^0]", 3, "multiplicity count must be positive"),
        ("[²]", 1, "expected a rod length"),  # a superscript is a digit but not a decimal
        ("[1^²]", 3, "expected a multiplicity count after '^'"),
        ("[]x", 2, "unexpected trailing text"),
        ("[1]junk", 3, "unexpected trailing text"),
    ],
)
def test_parse_rejects_bad_literals(text, position, fragment):
    with pytest.raises(RodSetParseError) as info:
        parse_rodset(text)
    assert info.value.position == position, f"wrong error offset for {text!r}"
    assert fragment in str(info.value), f"wrong error message for {text!r}"


def test_parse_errors_are_value_errors():
    with pytest.raises(ValueError):
        parse_rodset("nope")
    with pytest.raises(RodSetError):
        parse_rodset("[0]")


def test_constructor_validates_reduced_form():
    with pytest.raises(RodSetError, match="sorted and distinct"):
        RodSet(((2, 1), (1, 1)))
    with pytest.raises(RodSetError, match="sorted and distinct"):
        RodSet(((1, 1), (1, 2)))
    with pytest.raises(RodSetError, match="must be positive"):
        RodSet(((0, 1),))
    with pytest.raises(RodSetError, match="must be dropped"):
        RodSet(((1, 0),))
    with pytest.raises(RodSetError, match="must be positive"):
        RodSet(((2, 1), (-1, 1)))
    for pairs in (((1, 1.5),), ((1.0, 1),), ((1, 1), (2.5, 1)), ((1, True),)):
        with pytest.raises(RodSetError, match="must be ints"):
            RodSet(pairs)


def test_constructor_stores_a_tuple():
    rods = RodSet([(1, 1), (2, 1)])
    assert rods.pairs == ((1, 1), (2, 1))
    assert rods == parse_rodset("[1,2]") and hash(rods) == hash(parse_rodset("[1,2]"))
    assert RodSet(iter(((3, -2),))) == parse_rodset("[-3^2]")


def test_from_mults_reduces():
    assert RodSet.from_mults({3: 1, 1: 2, 2: 0}) == parse_rodset("[1^2,3]")
    assert RodSet.from_mults([(1, 1), (1, -1)]) == RodSet()
    assert RodSet().pairs == (), "default construction is the empty rod set"
    # A Mapping is taken as it is: zero entries drop, and nothing else is summed.
    assert RodSet.from_mults({5: 0}) == RodSet()
    assert RodSet.from_mults({2: 3 - 3, 1: -1 + 1}) == RodSet(), "values that cancel leave nothing"
    assert RodSet.from_mults({2: -1, 1: 0, 4: 2**70}).pairs == ((2, -1), (4, 2**70))
    for mults in ({1: 1.5}, {1: 1, 2: "2"}, {1.0: 1}, {1: True}, [(1, 1.5)]):
        with pytest.raises(RodSetError, match="must be ints"):
            RodSet.from_mults(mults)


def test_accessors():
    r = parse_rodset("[1,-2^3]")
    assert r.max_length == 2
    assert (r.mult(2), r.mult(9)) == (-3, 0)
    assert list(r) == [(1, 1), (2, -3)]
    assert bool(r) and not bool(RodSet())
    empty = RodSet()
    assert empty.max_length is None


def test_format_and_str():
    assert format_rodset(RodSet()) == "[]"
    assert format_rodset(parse_rodset("[1,1,-2,-2,-2]")) == "[1^2,-2^3]"
    assert str(parse_rodset("[1,-2^3]")) == "[1,-2^3]"


def test_format_parse_round_trip():
    rng = random.Random(411)
    for _ in range(200):
        r = random_rodset(rng, max_length=9, mult_choices=(-3, -2, -1, 1, 2, 3))
        assert parse_rodset(format_rodset(r)) == r, f"round trip broke on {r}"


@PROPERTY
@given(
    st.dictionaries(st.integers(1, 10**4), st.integers(-500, 500).filter(bool), max_size=8).map(
        RodSet.from_mults
    )
)
def test_format_parse_round_trip_property(r):
    assert parse_rodset(format_rodset(r)) == r


def test_union_negate_concat_algebra():
    r = parse_rodset("[1,-2^3]")
    assert union(r, negate(r)) == RodSet(), "a rod set and its negation annihilate"
    assert negate(negate(r)) == r
    assert union(r, RodSet()) == r
    assert concat(parse_rodset("[1,2]"), parse_rodset("[1]")) == parse_rodset("[2,3]")
    assert concat(parse_rodset("[1^2]"), parse_rodset("[1^3]")) == parse_rodset("[2^6]")
    assert concat(r, RodSet()) == RodSet(), "concatenation with nothing leaves nothing"
    rng = random.Random(412)
    for _ in range(50):
        a = random_rodset(rng)
        b = random_rodset(rng)
        assert union(a, b) == union(b, a)
        assert concat(a, b) == concat(b, a)


X = sympy.symbols("x")

# Antirods, multiplicities of 2 and more, and one past 64 bits; the empty set is drawn too.
algebra_sets = st.dictionaries(
    st.integers(1, 12),
    st.one_of(st.integers(-4, 4), st.sampled_from((2**70, -(2**70)))).filter(bool),
    max_size=5,
).map(RodSet.from_mults)


def _c(rods: RodSet) -> sympy.Poly:
    """C(x, rods) as a sympy polynomial."""
    return sympy.Poly(sum((m * X**k for k, m in rods.pairs), sympy.Integer(0)), X)


@PROPERTY
@given(algebra_sets, st.data())
def test_algebra_matches_sympy_polynomials(r, data):
    # The second set is free, equal to the first or its negation, so parts cancel, up to nothing.
    s = data.draw(st.one_of(algebra_sets, st.just(r), st.just(negate(r))), label="second set")
    c_r, c_s, one = _c(r), _c(s), sympy.Poly(1, X)
    assert _c(union(r, s)) == c_r + c_s
    assert _c(concat(r, s)) == c_r * c_s
    assert one - _c(expand(r, s).s) == (one - c_r) * (one + c_s), "1 - C_S = (1 - C_R)(1 + C_Q)"
    assert one + _c(compose(r, s)) == (one + c_r) * (one + c_s)


def test_equivalent_is_reduction_equality():
    assert parse_rodset("[1,1]") == parse_rodset("[1^2]")
    assert parse_rodset("[2,-2]") == RodSet()
    assert parse_rodset("[1]") != parse_rodset("[1^2]")


def test_odd_sign_swap():
    assert odd_sign_swap(parse_rodset("[1,2,-3]")) == parse_rodset("[-1,2,3]")
    rng = random.Random(413)
    for _ in range(50):
        r = random_rodset(rng)
        assert odd_sign_swap(odd_sign_swap(r)) == r, "the swap is an involution"
