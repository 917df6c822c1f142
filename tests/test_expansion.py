"""Expansions between rod sets: witness identity, solvers, duality."""

from __future__ import annotations

import random
import time

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from trainyard import (
    ArithmeticRods,
    Expansion,
    ExpansionError,
    PrefixRods,
    RodSet,
    TrainsOf,
    char_poly,
    compose,
    concat,
    dual,
    expand,
    expand_minimal,
    negate,
    odd_sign_swap,
    parse_rodset,
    poly_mul,
    rodset_from_counts,
    series_mul,
    solve_Q,
    solve_R,
    train_counts,
    union,
)
from trainyard import expansion
from trainyard.expansion import _identity_holds

from conftest import PROPERTY, random_rodset

X = sympy.symbols("x")


def one_plus(q: RodSet) -> list:
    """The polynomial 1 + C_Q, via the characteristic polynomial of -Q."""
    return char_poly(negate(q))


def test_expand_regression():
    got = expand(parse_rodset("[1,2]"), parse_rodset("[2]"))
    assert got.s == parse_rodset("[1,3,4]")
    assert got.q_finite is True and got.to_json()["identity_checked"] is True


def test_expand_long_rod_stays_sparse():
    r, q = parse_rodset("[1,2]"), parse_rodset("[100000000]")
    got = expand(r, q)
    assert got.s == parse_rodset("[1,2,-100000000,100000001,100000002]")
    assert got.to_json()["identity_checked"] is True
    assert _identity_holds(r, q, got.s, 64)
    assert not _identity_holds(r, q, parse_rodset("[1,2,-100000000,100000001,100000003]"), 64)
    # A dense witness would need a list of 10^9 coefficients here.
    assert expand(r, parse_rodset("[1000000000]")).s.max_length == 1000000002


def test_witness_is_exact_for_rational_sources():
    # C = x/(1 - x) both ways: the identity holds with Q empty and fails with any rod
    # added to Q, however far past the horizon that rod lies.
    every_length, all_trains = ArithmeticRods(1, 1), TrainsOf(parse_rodset("[1]"))
    assert _identity_holds(every_length, RodSet(), all_trains, 64)
    assert not _identity_holds(every_length, parse_rodset("[100]"), every_length, 64)
    evens = TrainsOf(parse_rodset("[2]"))
    assert not _identity_holds(evens, parse_rodset("[-90]"), evens, 64)


def test_expand_edges():
    r = parse_rodset("[1,-2^3]")
    assert expand(r, RodSet()).s == r, "expanding by nothing changes nothing"
    q = parse_rodset("[2,3]")
    assert expand(RodSet(), q).s == negate(q), "expansions of the empty set negate Q"


def test_expand_composes_the_three_parts():
    rng = random.Random(700)
    for _ in range(50):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        assert s == union(union(r, negate(q)), concat(q, r)), "S = R u -Q u QR"
        if r and q:
            assert s.max_length == r.max_length + q.max_length


def test_witness_identity_random():
    rng = random.Random(701)
    for _ in range(120):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        assert poly_mul(char_poly(r), one_plus(q)) == char_poly(s), (
            f"witness identity (1 - C_S) = (1 - C_R)(1 + C_Q) fails for {r}, {q}"
        )


def test_counts_transfer_along_expansion():
    rng = random.Random(702)
    for _ in range(40):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        counts_r = train_counts(r, 24)
        counts_s = train_counts(s, 24)
        assert series_mul(one_plus(q), counts_s, 24) == counts_r, (
            f"F(., R) != (1 + C_Q) * F(., S) for {r}, {q}"
        )


@pytest.mark.parametrize(
    "r, s, q, finite",
    [
        ("[2,3]", "[4^3,13]", "[2,3,-4^2,5^2,-6,8,-9,10]", True),
        ("[1,-2]", "[6]", "[1,-3,-4]", True),
        ("[]", "[2,-3]", "[-2,3]", True),
    ],
)
def test_solve_q_finite_regressions(r, s, q, finite):
    got = solve_Q(parse_rodset(r), parse_rodset(s))
    assert got.q == parse_rodset(q), f"wrong mediating rod set for {r} -> {s}"
    assert got.q_finite is finite
    assert got.to_json()["identity_checked"] is True


def test_solve_q_infinite_verdicts():
    fib_to_pad = solve_Q(parse_rodset("[1,2]"), parse_rodset("[2,3]"), 8)
    assert isinstance(fib_to_pad.q, PrefixRods)
    assert fib_to_pad.q.mults == (1, 1, 1, 2, 3, 5, 8, 13)
    assert fib_to_pad.q_finite is False, "max S < max R forces an infinite mediator"

    shrink = solve_Q(parse_rodset("[1,2]"), parse_rodset("[1]"), 16)
    assert shrink.q_finite is False

    to_nothing = solve_Q(parse_rodset("[1,2]"), RodSet(), 6)
    assert to_nothing.q_finite is False
    assert to_nothing.q.mults == (1, 2, 3, 5, 8, 13), "mediator to [] carries R's own counts"


def test_solve_q_source_targets_are_decided_exactly():
    odd = ArithmeticRods(1, 2, 1)
    got = solve_Q(parse_rodset("[1,2]"), odd, 10)
    assert got.q_finite is False, "1 + C_Q = 1/(1 - x^2) is not a polynomial"
    assert got.q.mults == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_quotient_limit_and_unit_divisors():
    start = time.perf_counter()
    with pytest.raises(ExpansionError, match="QUOTIENT_DEGREE_LIMIT"):
        solve_Q(parse_rodset("[1,2]"), parse_rodset("[1000000000]"))
    # A divisor of 1 decides without dividing, so no limit applies.
    assert solve_Q(RodSet(), parse_rodset("[1000000000]")).q == parse_rodset("[-1000000000]")
    # Quotients of degree 0 stay sparse however long the rods are.
    back = solve_R(parse_rodset("[1000000000]"), parse_rodset("[-1000000000]"))
    assert back.r == RodSet() and back.r_finite is True
    stuck = solve_R(parse_rodset("[1000000000]"), parse_rodset("[1000000000]"))
    assert stuck.r_finite is False and stuck.r.mults == (0,) * 64
    assert time.perf_counter() - start < 2.0


def test_solve_q_round_trip():
    rng = random.Random(703)
    for _ in range(100):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        back = solve_Q(r, s)
        assert back.q == q and back.q_finite is True, f"solve_Q failed to recover {q}"


def _char(rods: RodSet) -> sympy.Poly:
    """1 - C(x, rods) as a sympy polynomial."""
    return sympy.Poly(1 - sum((m * X**k for k, m in rods.pairs), sympy.Integer(0)), X)


small_sets = st.dictionaries(
    st.integers(1, 6), st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=3
).map(RodSet.from_mults)


@PROPERTY
@given(small_sets, small_sets, small_sets, st.booleans())
def test_solve_q_finite_verdict_agrees_with_sympy(r, q, other, expanded):
    s = expand(r, q).s if expanded else other
    _, remainder = sympy.div(_char(s), _char(r))
    assert solve_Q(r, s).q_finite is remainder.is_zero, (
        f"Q for {r} -> {s} is finite exactly when 1 - C_R divides 1 - C_S"
    )


def test_solve_r_round_trip_and_exchange():
    rng = random.Random(704)
    for _ in range(100):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        back = solve_R(q, s)
        assert back.r == r and back.r_finite is True, f"solve_R failed to recover {r}"
        # The exchange law: the same S expands from -Q through -R.
        assert expand(negate(q), negate(r)).s == s


def test_solve_r_regression_and_infinite_case():
    got = solve_R(parse_rodset("[2]"), parse_rodset("[1,3,4]"))
    assert got.r == parse_rodset("[1,2]") and got.r_finite is True

    stuck = solve_R(parse_rodset("[2]"), parse_rodset("[1]"), 12)
    assert isinstance(stuck.r, PrefixRods) and stuck.r_finite is False


def test_solve_r_runs_the_witness_once(monkeypatch):
    calls = []
    witness = expansion._identity_holds
    monkeypatch.setattr(
        expansion, "_identity_holds", lambda *args: calls.append(args) or witness(*args)
    )
    got = solve_R(parse_rodset("[2]"), parse_rodset("[1,3,4]"))
    assert got.r == parse_rodset("[1,2]") and got.r_finite is True
    assert len(calls) == 1, "the exchange law makes the inner solve's witness this record's"


@pytest.mark.parametrize(
    "solve, first, s",
    [
        (solve_Q, "[1,2]", "[1,3,4]"),
        (solve_Q, "[1,2]", "[2,3]"),
        (solve_R, "[2]", "[1,3,4]"),
        (solve_R, "[2]", "[1]"),
    ],
)
def test_a_failed_witness_makes_the_solvers_raise(monkeypatch, solve, first, s):
    monkeypatch.setattr(expansion, "_identity_holds", lambda *args: False)
    with pytest.raises(ExpansionError, match="this is a bug"):
        solve(parse_rodset(first), parse_rodset(s))


def test_odd_sign_swap_covariance():
    rng = random.Random(705)
    for _ in range(60):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        assert expand(odd_sign_swap(r), odd_sign_swap(q)).s == odd_sign_swap(s)


def test_compose_chains_expansions():
    rng = random.Random(706)
    for _ in range(60):
        r = random_rodset(rng)
        q1 = random_rodset(rng)
        q2 = random_rodset(rng)
        s1 = expand(r, q1).s
        s2 = expand(s1, q2).s
        chained = compose(q1, q2)
        assert expand(r, chained).s == s2, "compose must splice consecutive expansions"
        assert solve_Q(r, s2).q == chained


def test_dual_of_single_even_rod():
    got = dual(parse_rodset("[2]"), 8)
    assert isinstance(got, PrefixRods)
    assert got.mults == (0, -1, 0, 1, 0, -1, 0, 1)


def test_dual_exact_verdicts():
    evens = TrainsOf(parse_rodset("[2]"))
    assert dual(evens) == parse_rodset("[-2]")

    rng = random.Random(707)
    for _ in range(20):
        base = random_rodset(rng, max_length=4)
        assert dual(TrainsOf(base, 1)) == negate(base), (
            "the rods-of-all-trains source always dualizes to the negated base"
        )

    assert dual(ArithmeticRods(2, 2, 1)) == parse_rodset("[-2]")
    assert dual(RodSet()) == RodSet()


def test_dual_of_a_prefix_stays_a_prefix():
    # Zeros up to the horizon say nothing about the rods beyond it.
    assert dual(PrefixRods((0, 0, 0))) == PrefixRods((0, 0, 0))
    assert dual(PrefixRods((1, 0, 0)), 64) == PrefixRods((-1, 1, -1))


def test_long_rod_sources_stay_sparse():
    # Dense quotients or horizons would need lists of 10^9 coefficients here.
    start = time.perf_counter()
    for q in (ArithmeticRods(10**9, 1), TrainsOf(parse_rodset("[1000000000]"), -1)):
        got = dual(q)
        assert isinstance(got, PrefixRods) and got.mults == (0,) * 64
    assert dual(TrainsOf(parse_rodset("[1000000000]"))) == parse_rodset("[-1000000000]")
    assert dual(ArithmeticRods(10**9, 10**9)) == parse_rodset("[-1000000000]")
    assert train_counts(ArithmeticRods(10**9, 1), 50) == [1] + [0] * 50
    assert time.perf_counter() - start < 2.0


def test_dual_involution():
    rng = random.Random(708)
    for _ in range(60):
        q = random_rodset(rng, max_length=6)
        first = dual(q, 64)
        assert isinstance(first, PrefixRods), "a nonempty finite rod set has no finite dual"
        back = dual(first, 64)
        if isinstance(back, RodSet):
            assert back == q
            continue
        want = [0] * 65
        for k, m in q.pairs:
            want[k] = m
        got = [0] + list(back.mults)
        assert got == want[: len(got)], f"dual applied twice does not return {q}"


def test_rodset_from_counts():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    assert rodset_from_counts(catalan) == parse_rodset("[1,2,3^2,4^5,5^14,6^42]")
    assert rodset_from_counts([1, 1, 1, 1]) == parse_rodset("[1]")
    assert rodset_from_counts([1, 0, 0, 0]) == RodSet()
    with pytest.raises(ExpansionError, match="must start with F\\(0\\) = 1"):
        rodset_from_counts([2, 1])


def test_rodset_from_counts_round_trip():
    rng = random.Random(709)
    for _ in range(60):
        rods = random_rodset(rng, max_length=6)
        counts = train_counts(rods, 16)
        recovered = rodset_from_counts(counts)
        assert train_counts(recovered, 16) == counts, f"count inversion broke on {rods}"


def test_expand_minimal():
    q, s = expand_minimal(parse_rodset("[1^3,2^2]"))
    assert q == parse_rodset("[1^3]")
    assert s == parse_rodset("[2^11,3^6]")

    q, s = expand_minimal(parse_rodset("[1,2]"))
    assert (q, s) == (parse_rodset("[1]"), parse_rodset("[2^2,3]"))

    q, s = expand_minimal(parse_rodset("[4^161,-8^16]"))
    assert s == parse_rodset("[8^25905,-12^2576]")

    with pytest.raises(ExpansionError, match="empty rod set"):
        expand_minimal(RodSet())


def test_expansion_to_json_shape():
    exp = expand(parse_rodset("[1,2]"), parse_rodset("[2]"))
    data = exp.to_json()
    assert set(data) == {"R", "Q", "S", "horizon", "q_finite", "identity_checked"}
    assert data["R"] == {"kind": "finite", "rods": "[1,2]"}
    assert data["S"] == {"kind": "finite", "rods": "[1,3,4]"}
    assert data["q_finite"] is True

    undecided = solve_Q(parse_rodset("[1,2]"), PrefixRods((0, 1, 0, 1, 0, 1, 0, 1, 0, 1)), 10)
    assert undecided.to_json()["q_finite"] is None
    assert undecided.to_json()["Q"]["kind"] == "counts"


def test_expansion_is_frozen():
    exp = expand(parse_rodset("[1]"), parse_rodset("[1]"))
    assert isinstance(exp, Expansion)
    with pytest.raises(Exception):
        exp.horizon = 3  # type: ignore[misc]
