"""Net train count recursion, rod sources, enumeration, binomial form."""

from __future__ import annotations

import random

import pytest

from trainyard import (
    ArithmeticRods,
    CountsError,
    EnumerationResult,
    PrefixRods,
    RodSet,
    TrainsOf,
    binomial_count,
    discrepancies,
    enumerate_trains,
    parse_rodset,
    sequence_discrepancies,
    train_counts,
)
from trainyard.counts import source_mults_upto

from conftest import random_rodset


@pytest.mark.parametrize(
    "literal, counts",
    [
        ("[1,2]", [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]),
        ("[1,-2]", [1, 1, 0, -1, -1, 0]),
        ("[2,3]", [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12]),
        ("[-1^2,-2^2]", [1, -2, 2, 0, -4, 8, -8, 0, 16, -32, 32]),
        ("[1^3,2^2]", [1, 3, 11, 39, 139, 495, 1763, 6279]),
        ("[-1,-2]", [1, -1, 0, 1, -1, 0, 1]),
        ("[]", [1, 0, 0, 0]),
    ],
)
def test_count_regressions(literal, counts):
    got = train_counts(parse_rodset(literal), len(counts) - 1)
    assert got == counts, f"count sequence of {literal} is wrong"


def test_two_colors_of_unit_rod_count_binary_strings():
    assert train_counts(parse_rodset("[1^2]"), 10) == [2**n for n in range(11)]


def test_mixed_signs_linear_growth():
    assert train_counts(parse_rodset("[1,1,-2]"), 50) == list(range(1, 52))


def test_horizon_validation():
    assert train_counts(RodSet(), 0) == [1]
    with pytest.raises(CountsError, match=">= 0"):
        train_counts(RodSet(), -1)
    with pytest.raises(CountsError, match=">= 0"):
        discrepancies(parse_rodset("[1,2]"), parse_rodset("[2,3]"), -1)


def test_counts_match_composition_oracle(oracle_net):
    rng = random.Random(600)
    for _ in range(80):
        rods = random_rodset(rng, max_length=4)
        counts = train_counts(rods, 9)
        for n in range(10):
            want = oracle_net(rods, n)
            assert counts[n] == want, f"recursion disagrees with oracle on {rods} at {n}"


def test_counts_match_enumeration():
    rng = random.Random(601)
    for _ in range(40):
        rods = random_rodset(rng, max_length=4)
        counts = train_counts(rods, 8)
        for n in range(9):
            assert enumerate_trains(rods, n).net == counts[n], (
                f"enumeration disagrees with recursion on {rods} at {n}"
            )


def test_arithmetic_rods_source():
    odd = ArithmeticRods(1, 2, 1)
    assert source_mults_upto(odd, 6) == [0, 1, 0, 1, 0, 1, 0]
    counts = train_counts(odd, 20)
    fib = train_counts(parse_rodset("[1,2]"), 20)
    assert counts[0] == 1
    assert counts[1:] == fib[:20], "odd-part compositions follow the Fibonacci counts"

    anti_evens = ArithmeticRods(2, 2, -1)
    assert source_mults_upto(anti_evens, 5) == [0, 0, -1, 0, -1, 0]

    with pytest.raises(CountsError, match="first >= 1"):
        ArithmeticRods(0, 2, 1)
    with pytest.raises(CountsError, match="first >= 1"):
        ArithmeticRods(1, 0, 1)
    with pytest.raises(CountsError, match="first >= 1"):
        ArithmeticRods(1, 2, 2)


def test_trains_of_source():
    evens = TrainsOf(parse_rodset("[2]"))
    assert source_mults_upto(evens, 6) == [0, 0, 1, 0, 1, 0, 1]
    assert train_counts(evens, 6) == [1, 0, 1, 0, 2, 0, 4]

    anti = TrainsOf(parse_rodset("[2]"), -1)
    assert train_counts(anti, 6) == [1, 0, -1, 0, 0, 0, 0]

    rich = TrainsOf(parse_rodset("[1,2]"))
    assert source_mults_upto(rich, 5) == [0, 1, 2, 3, 5, 8]

    with pytest.raises(CountsError, match="sign"):
        TrainsOf(parse_rodset("[2]"), 0)


def test_prefix_rods_source():
    for mults in ((1, -1, 0), [1, -1, 0]):
        prefix = PrefixRods(mults)
        assert source_mults_upto(prefix, 3) == [0, 1, -1, 0]
        assert source_mults_upto(prefix, 2) == [0, 1, -1]
        assert train_counts(prefix, 3) == [1, 1, 0, -1]
        with pytest.raises(CountsError, match="up to 3, asked for 4"):
            train_counts(prefix, 4)


@pytest.mark.parametrize(
    "source, exact, kind, text, negated",
    [
        (parse_rodset("[1,-2^3]"), True, "finite", "[1,-2^3]", parse_rodset("[-1,2^3]")),
        (ArithmeticRods(1, 2, -1), True, "arith", None, None),
        (TrainsOf(parse_rodset("[2]")), True, "trains", None, None),
        (PrefixRods((1, -1, 0)), False, "counts", "counts:1,-1,0", PrefixRods((-1, 1, 0))),
    ],
)
def test_each_source_kind_answers_for_itself(source, exact, kind, text, negated):
    assert source.exact is exact
    assert source.to_json()["kind"] == kind
    if text is not None:
        assert str(source) == text
    if negated is not None:
        assert -source == negated
    if exact:
        assert source.fraction() == source.fraction(10**9), "an exact source reads no horizon"
    else:
        assert source.fraction(3) == ([(1, 1), (2, -1)], ((0, 1),))
        with pytest.raises(CountsError, match="up to 3, asked for 4"):
            source.fraction(4)


def test_discrepancies_between_rod_sets():
    got = discrepancies(parse_rodset("[1,2]"), parse_rodset("[2,3]"), 8)
    assert got == [1, 1, 1, 2, 3, 5, 8, 13], "Fibonacci vs Padovan discrepancies"
    same = discrepancies(parse_rodset("[1,2]"), parse_rodset("[1,2]"), 8)
    assert same == [0] * 8, "a rod set has no discrepancy against itself"


def test_sequence_discrepancies():
    lucas_like = [1, 2, 1, 3, 4, 7, 11, 18, 29]
    got = sequence_discrepancies(lucas_like, parse_rodset("[1,2]"))
    assert got == [1, -2, 0, 0, 0, 0, 0, 0], "the Lucas tail satisfies Fibonacci's recursion"
    with pytest.raises(CountsError, match="must start with F\\(0\\) = 1"):
        sequence_discrepancies([2, 1], parse_rodset("[1]"))
    with pytest.raises(CountsError, match="must start with F\\(0\\) = 1"):
        sequence_discrepancies([], parse_rodset("[1]"))


def test_enumerate_counts_both_ways():
    result = enumerate_trains(parse_rodset("[2,3,5]"), 10)
    assert result == EnumerationResult(net=14, total=14, trains=None)


def test_enumerate_listing_order():
    result = enumerate_trains(parse_rodset("[1^2]"), 2, collect=True)
    assert result.trains == (
        ((1, 1, 1), (1, 1, 1)),
        ((1, 1, 1), (1, 2, 1)),
        ((1, 2, 1), (1, 1, 1)),
        ((1, 2, 1), (1, 2, 1)),
    ), "lexicographic by (length, color) at each position"
    assert result.net == result.total == 4

    pair = enumerate_trains(parse_rodset("[2,3]"), 5, collect=True)
    assert pair.trains == (((2, 1, 1), (3, 1, 1)), ((3, 1, 1), (2, 1, 1)))


def test_enumerate_signs():
    anti = enumerate_trains(parse_rodset("[-1]"), 3, collect=True)
    assert anti.net == -1 and anti.total == 1
    assert anti.trains == (((1, 1, -1), (1, 1, -1), (1, 1, -1)),)
    mixed = enumerate_trains(parse_rodset("[1,-2]"), 4)
    assert mixed.net == -1 and mixed.total == 5


def test_enumerate_cap_and_validation():
    with pytest.raises(CountsError, match="exceed the enumeration cap 100"):
        enumerate_trains(parse_rodset("[1^2]"), 7, cap=100)
    with pytest.raises(CountsError, match=">= 0"):
        enumerate_trains(parse_rodset("[1]"), -1)
    assert enumerate_trains(parse_rodset("[1^2]"), 7).total == 128


def test_enumerate_long_single_rod_walk():
    # A walk as deep as the train is long: 1200 rods of length 1.
    assert enumerate_trains(parse_rodset("[1]"), 1200) == EnumerationResult(net=1, total=1)
    listed = enumerate_trains(parse_rodset("[-1]"), 1201, collect=True)
    assert listed.net == -1 and listed.trains == (((1, 1, -1),) * 1201,)


def test_enumerate_skips_rods_in_no_train():
    # Rods in no train of length n take no memory or time, however long
    # they are or however many colors they have.
    assert enumerate_trains(parse_rodset("[1,1000000000]"), 3) == EnumerationResult(net=1, total=1)
    assert enumerate_trains(parse_rodset("[2,1000000000]"), 3) == EnumerationResult(net=0, total=0)
    assert enumerate_trains(parse_rodset("[2^1000000000,-3]"), 3) == EnumerationResult(
        net=-1, total=1
    )
    both = enumerate_trains(parse_rodset("[1,-2,1000000000]"), 0, collect=True)
    assert both == EnumerationResult(net=1, total=1, trains=((),))


def test_binomial_count_regression():
    assert binomial_count(parse_rodset("[3,5]"), 70) == 63862


def test_binomial_count_small_shapes():
    assert binomial_count(RodSet(), 0) == 1
    assert binomial_count(RodSet(), 3) == 0
    assert binomial_count(parse_rodset("[2^3]"), 6) == 27
    assert binomial_count(parse_rodset("[2^3]"), 5) == 0
    assert binomial_count(parse_rodset("[-1,-2]"), 4) == -1
    assert binomial_count(parse_rodset("[1,2]"), -1) == 0
    with pytest.raises(CountsError, match="at most two lengths"):
        binomial_count(parse_rodset("[1,2,3]"), 4)


@pytest.mark.parametrize("literal", ["[1,2]", "[1^2]", "[1,-1^2]", "[-1,-2]", "[3,5]", "[2,3]"])
def test_binomial_count_matches_recursion(literal):
    rods = parse_rodset(literal)
    counts = train_counts(rods, 25)
    for n in range(26):
        assert binomial_count(rods, n) == counts[n], f"binomial form differs on {literal} at {n}"
