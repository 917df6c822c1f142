"""Property tests of the sparse series kernel, against sympy.

Examples are derandomized and capped, so every run checks the same
inputs and the suite stays fast.  sympy's ring series and polynomial
remainders share no code with the package.
"""

from __future__ import annotations

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.densearith import dup_rem
from sympy.polys.rings import ring
from sympy.polys.ring_series import rs_mul, rs_series_inversion

from trainyard import SeriesError, borwein_classify, poly_divexact
from trainyard.series import series_quotient

from conftest import PROPERTY

X = sympy.symbols("x")
RING, Y = ring("y", QQ)

coefficient = st.integers(-6, 6).filter(bool)


@st.composite
def sparse_divisors(draw):
    """Nonzero (degree, coeff) terms with d_0 = +-1 and gaps of up to 40 degrees."""
    terms = [(0, draw(st.sampled_from((1, -1))))]
    for gap, c in draw(st.lists(st.tuples(st.integers(1, 40), coefficient), max_size=4)):
        terms.append((terms[-1][0] + gap, c))
    return terms


def ring_poly(terms):
    return sum((c * Y**k for k, c in terms), RING(0))


def sympy_series(num, den_terms, n_terms):
    """Coefficients 0..n_terms of num/den from sympy's ring series."""
    prec = n_terms + 1
    quotient = rs_mul(ring_poly(enumerate(num)), rs_series_inversion(ring_poly(den_terms), Y, prec), Y, prec)
    coeffs = [0] * prec
    for (k,), c in quotient.terms():
        coeffs[k] = int(c)
    return coeffs


@PROPERTY
@given(num=st.lists(st.integers(-9, 9), max_size=8), den=sparse_divisors(), n_terms=st.integers(0, 60))
def test_kernel_matches_sympy_series(num, den, n_terms):
    assert series_quotient(num, den, n_terms) == sympy_series(num, den, n_terms)


@PROPERTY
@given(
    num=st.lists(st.integers(-9, 9), max_size=8),
    den=sparse_divisors(),
    n_terms=st.integers(0, 80),
    modulus=st.sampled_from((2, 7, 101, (1 << 61) - 1)),
)
def test_kernel_modular_path_reduces_the_exact_series(num, den, n_terms, modulus):
    exact = series_quotient(num, den, n_terms)
    assert series_quotient(num, den, n_terms, modulus=modulus) == [c % modulus for c in exact]


def test_kernel_needs_a_unit_constant_term():
    for den in ([], [(0, 2)], [(1, 1)], [(0, 0), (1, 1)]):
        with pytest.raises(SeriesError, match="constant term"):
            series_quotient([1], den, 5)


def dense(poly):
    return [int(c) for c in reversed(poly.all_coeffs())] if not poly.is_zero else []


@PROPERTY
@given(
    q=st.lists(st.integers(-4, 4), min_size=2, max_size=6).filter(lambda q: q[-1] != 0),
    h=st.lists(st.integers(-4, 4), min_size=1, max_size=6).filter(lambda h: h[-1] != 0),
    r=st.lists(st.integers(-4, 4), min_size=1, max_size=5).filter(any),
)
def test_divexact_divides_exactly_or_returns_none(q, h, r):
    r = r[: len(q) - 1]  # deg r < deg q, so q leaves remainder r on q*h + r
    if not any(r):
        r = [1]
    sq, sh, sr = (sympy.Poly(list(reversed(p)), X) for p in (q, h, r))
    assert poly_divexact(dense(sq * sh), q) == h
    assert poly_divexact(dense(sq * sh + sr), q) is None


def test_borwein_table_matches_sympy_remainders():
    bound = 30
    table = borwein_classify(bound)
    assert table.unclassified == ()
    got = {"[1,-2]": set(), "[-1,-2]": set()}
    for label, pairs in table.classes.items():
        got["[-1,-2]" if label.endswith("mod 3") else "[1,-2]"].update(pairs)
    for base, char in (("[1,-2]", [1, -1, 1]), ("[-1,-2]", [1, 1, 1])):
        want = set()
        for b in range(2, bound + 1):
            for a in range(1, b):
                for sa in (1, -1):
                    for sb in (1, -1):
                        tri = [0] * (b + 1)
                        tri[0], tri[b - a], tri[b] = -sb, -sa, 1  # descending degrees
                        if not dup_rem(tri, char, ZZ):
                            want.add((sa * a, sb * b))
        assert got[base] == want, f"Borwein table for {base} disagrees with sympy"
