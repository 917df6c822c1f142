"""Polynomial and series helpers, cross-checked against sympy."""

from __future__ import annotations

import random

import pytest
import sympy

from trainyard import (
    SeriesError,
    char_poly,
    cyclotomic,
    euler_phi,
    parse_rodset,
    poly_divexact,
    poly_mul,
    poly_text,
    rodset_from_char_poly,
    series_inverse,
    series_mul,
)
from trainyard.series import poly_trim

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
    assert poly_mul([], [1, 2]) == []


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
    for d in list(range(1, 64)) + [105, 120]:
        want = from_sympy(sympy.Poly(sympy.cyclotomic_poly(d, X), X))
        assert cyclotomic(d) == want, f"cyclotomic polynomial {d} is wrong"
    with pytest.raises(SeriesError, match=">= 1"):
        cyclotomic(0)


def test_cyclotomic_product_identity():
    for n in range(1, 81):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, cyclotomic(d))
        want = [-1] + [0] * (n - 1) + [1]
        assert product == want, f"product of cyclotomic factors of {n} != x^{n}-1"


def test_euler_phi_against_sympy():
    for n in range(1, 201):
        assert euler_phi(n) == sympy.totient(n), f"totient mismatch at {n}"
    with pytest.raises(SeriesError, match=">= 1"):
        euler_phi(0)
