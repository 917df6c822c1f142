"""Polynomial and series helpers, cross-checked against sympy."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from trainyard import (
    SeriesError,
    char_poly,
    cyclotomic,
    parse_rodset,
    poly_divexact,
    poly_mul,
    poly_text,
    rodset_from_char_poly,
    series_inverse,
    series_mul,
)
from trainyard._cyclotomic import _prime_divisors, cyclotomic_orders
from trainyard.series import poly_trim

from conftest import PROPERTY

X = sympy.symbols("x")


def to_sympy(p):
    return sympy.Poly.from_list(list(reversed(p)) or [0], X)


def from_sympy(poly):
    return list(reversed(poly.all_coeffs()))


def random_poly(rng, degree, lo=-5, hi=5):
    return [rng.randint(lo, hi) for _ in range(degree + 1)]


def test_poly_trim():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_trim([]) == []


def test_poly_add_and_mul_against_sympy():
    rng = random.Random(520)
    for _ in range(150):
        p = random_poly(rng, rng.randint(0, 6))
        q = random_poly(rng, rng.randint(0, 6))
        want_prod = from_sympy(to_sympy(p) * to_sympy(q))
        if want_prod == [0]:
            want_prod = []
        assert poly_mul(p, q) == want_prod, f"product mismatch for {p} * {q}"
        # The same list twice takes the squaring loop, which doubles each cross product.
        want_square = from_sympy(to_sympy(p) ** 2)
        assert poly_mul(p, p) == ([] if want_square == [0] else want_square), f"square mismatch for {p}"
    assert poly_mul([], [1, 2]) == []
    assert poly_mul([], []) == []


def test_poly_divexact_recovers_cofactor():
    rng = random.Random(521)
    for _ in range(150):
        q = [rng.choice((1, -1))] + random_poly(rng, rng.randint(0, 4))[1:]
        h = random_poly(rng, rng.randint(0, 4))
        p = poly_mul(q, h)
        assert poly_divexact(p, q) == poly_trim(h), f"divexact failed on {p} / {q}"


def test_poly_divexact_nonunit_and_failure_cases():
    assert poly_divexact([6, 11, 4], [2, 1]) == [3, 4]
    assert poly_divexact([1, 1], [2]) is None, "1/2 is not an integer coefficient"
    assert poly_divexact([1, 1], [1, 1, 1]) is None, "degree too small to divide"
    assert poly_divexact([1, 0, 1], [1, 1]) is None, "x^2+1 has no root at -1"
    assert poly_divexact([], [1, 1]) == []
    with pytest.raises(SeriesError, match="zero polynomial"):
        poly_divexact([1], [])
    with pytest.raises(SeriesError, match="zero polynomial"):
        poly_divexact([1], [0, 0])


def test_poly_divexact_against_sympy():
    rng = random.Random(522)
    for _ in range(80):
        p = random_poly(rng, rng.randint(0, 6))
        q = random_poly(rng, rng.randint(0, 3))
        if poly_trim(q) == []:
            continue
        quotient, remainder = sympy.div(to_sympy(p), to_sympy(q), X)
        divides = remainder.is_zero and all(
            c == int(c) for c in sympy.Poly(quotient, X).all_coeffs()
        )
        got = poly_divexact(p, q)
        if divides:
            assert got == poly_trim(from_sympy(sympy.Poly(quotient, X))), (
                f"quotient mismatch for {p} / {q}"
            )
        else:
            assert got is None, f"{p} / {q} should not divide exactly"


@pytest.mark.parametrize(
    "p, text",
    [
        ([], "0"),
        ([0], "0"),
        ([5], "5"),
        ([-1, 1], "-1 + x"),
        ([1, -1, 1], "1 - x + x^2"),
        ([0, 2], "2x"),
        ([0, 0, -3], "-3x^2"),
        ([1, 0, 0, 7], "1 + 7x^3"),
    ],
)
def test_poly_text(p, text):
    assert poly_text(p) == text


def test_series_inverse():
    assert series_inverse([1, -1, -1], 8) == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert series_inverse([-1, 1], 4) == [-1, -1, -1, -1, -1]
    rng = random.Random(523)
    for _ in range(60):
        p = [rng.choice((1, -1))] + random_poly(rng, rng.randint(0, 4))[1:]
        inv = series_inverse(p, 12)
        product = series_mul(p, inv, 12)
        assert product == [1] + [0] * 12, f"inverse identity failed for {p}"
    with pytest.raises(SeriesError, match="constant term"):
        series_inverse([2, 1], 4)
    with pytest.raises(SeriesError, match="constant term"):
        series_inverse([], 4)


def test_series_mul_is_truncated_poly_mul():
    rng = random.Random(524)
    for _ in range(60):
        p = random_poly(rng, rng.randint(0, 5))
        q = random_poly(rng, rng.randint(0, 5))
        full = poly_mul(p, q)
        n = rng.randint(0, 8)
        want = (full + [0] * (n + 1))[: n + 1]
        assert series_mul(p, q, n) == want
        square = poly_mul(p, list(p))
        assert series_mul(p, p, n) == (square + [0] * (n + 1))[: n + 1]


def test_char_poly_round_trip():
    assert char_poly(parse_rodset("[1,-2]")) == [1, -1, 1]
    assert char_poly(parse_rodset("[]")) == [1]
    r = parse_rodset("[1^2,-3,5^4]")
    assert rodset_from_char_poly(char_poly(r)) == r
    assert rodset_from_char_poly([1]) == parse_rodset("[]")
    with pytest.raises(SeriesError, match="constant term 1"):
        rodset_from_char_poly([2, 1])
    with pytest.raises(SeriesError, match="constant term 1"):
        rodset_from_char_poly([])


def test_cyclotomic_against_sympy():
    # Every d <= 300, and every candidate order of detect_period at max R 256 past that.
    for d in sorted(set(range(1, 301)) | {d for d, _ in cyclotomic_orders(256)}):
        want = from_sympy(sympy.cyclotomic_poly(d, X, polys=True))
        assert cyclotomic(d) == want, f"cyclotomic polynomial {d} is wrong"
    with pytest.raises(SeriesError, match="cyclotomic order must be at least 1"):
        cyclotomic(0)


def test_cyclotomic_product_identity():
    for n in range(1, 81):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, cyclotomic(d))
        want = [-1] + [0] * (n - 1) + [1]
        assert product == want, f"product of cyclotomic factors of {n} != x^{n}-1"


# Two primes past the trial-division reach, one with a cofactor 2, two six-digit primes, a smooth n.
LARGE = (10**6 + 3, 2**61 - 1, 2 * (2**61 - 1), 999983 * 999979, 2**10 * 3**7 * 101)


def test_prime_divisors_against_sympy():
    for n in [*range(1, 5001), *LARGE]:
        assert _prime_divisors(n) == sympy.primefactors(n), f"prime divisors of {n}"


_PRIME_BELOW_2_31 = st.integers(2**16, 2**31 - 1).map(sympy.prevprime)


@PROPERTY
@given(
    st.one_of(
        st.tuples(_PRIME_BELOW_2_31, _PRIME_BELOW_2_31).map(lambda pq: pq[0] * pq[1]),
        st.integers(1, 2**62),
    )
)
def test_prime_divisors_of_large_n_against_sympy(n):
    # A semiprime with two factors near 2^31 takes trial division about 10^9 steps.
    assert _prime_divisors(n) == sympy.primefactors(n), f"prime divisors of {n}"


def test_cyclotomic_of_a_large_prime_order():
    # Phi_p = 1 + x + ... + x^(p-1): the order's factorization ends on a leftover prime.
    assert cyclotomic(1000003) == [1] * 1000003


def test_cyclotomic_orders_are_every_degree_bounded_order():
    orders = cyclotomic_orders(256)
    assert len(orders) == 505 and orders[-1] == (1050, 240)
    assert orders == tuple((d, sympy.totient(d)) for d in range(1, 1051) if sympy.totient(d) <= 256)
    # phi(d) >= sqrt(d / 2), so every order of degree <= 64 lies below 2 * 64^2.
    phi = {d: sympy.totient(d) for d in range(1, 2 * 64 * 64 + 1)}
    for top in range(1, 65):
        want = tuple((d, t) for d, t in phi.items() if t <= top)
        assert cyclotomic_orders(top) == want, f"orders of degree <= {top}"

