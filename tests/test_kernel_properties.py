"""Property tests of the sparse series kernel, against sympy and plain recurrences.

Examples are derandomized and capped, so every run checks the same
inputs and the suite stays fast.  sympy's ring series and polynomial
remainders, the count recurrence in conftest and the quotient
recurrence here share no code with the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.densearith import dup_rem
from sympy.polys.rings import ring
from sympy.polys.ring_series import rs_mul, rs_series_inversion

from trainyard import RodSet, SeriesError, borwein_classify, poly_divexact, series_inverse, train_counts
from trainyard import series
from trainyard.series import (
    PULL_DEGREE_LIMIT,
    _kernel_source,
    char_poly,
    nonzero_terms,
    poly_mul,
    series_quotient,
    sparse_mul,
)

from conftest import PROPERTY, _recurrence_counts

X = sympy.symbols("x")
RING, Y = ring("y", QQ)

coefficient = st.integers(-6, 6).filter(bool)
divisor_coefficient = st.one_of(
    st.sampled_from((1, -1)),
    coefficient,
    st.integers(1 << 69, 1 << 70),
    st.integers(-(1 << 70), -(1 << 69)),
)


@st.composite
def sparse_divisors(draw):
    """Nonzero (degree, coeff) terms with d_0 = +-1 and up to 12 more: short
    divisors the kernel pulls (or pushes, when they are one term c*x^k, k >= 2,
    or the horizon is below 2 deg den), long ones with gaps of up to 40 degrees
    that it pushes, a bare d_0, terms past the horizon, and coefficients of +-1,
    small or 70 bits."""
    terms = [(0, draw(st.sampled_from((1, -1))))]
    if draw(st.booleans()):
        degrees = sorted(draw(st.sets(st.integers(1, PULL_DEGREE_LIMIT), min_size=1)))
    else:
        size = draw(st.integers(0, 12))
        degrees = list(accumulate(draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))))
    for k in degrees:
        terms.append((k, draw(divisor_coefficient)))
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
@example(num=[3, 1], den=[(0, -1), (1, 1), (3, -2), (PULL_DEGREE_LIMIT, 1)], n_terms=40)
@example(num=[1], den=[(0, 1), (1, -1), (2, -1)], n_terms=60)  # every term -1
@example(num=[2, -1], den=[(0, -1), (1, -1), (3, -1)], n_terms=60)  # every term +1 after d_0
@example(num=[3, 1], den=[(0, -1), (1, 1), (3, -2), (PULL_DEGREE_LIMIT + 1, 1)], n_terms=40)
@example(num=[1, 4], den=[(0, -1), (PULL_DEGREE_LIMIT, 1)], n_terms=40)  # one short term: pulled
@example(num=[1, 0, -1], den=[(0, 1), (2, -2)], n_terms=40)  # the counts of TrainsOf([2]): pulled
@example(num=[3], den=[(0, 1), (1, 2)], n_terms=40)  # one term of degree 1: pulled
@example(num=[5, -2, 7], den=[(0, 1)], n_terms=6)  # a bare d_0
@example(num=[5, -2, 7], den=[(0, -1)], n_terms=6)
def test_kernel_matches_sympy_series(num, den, n_terms):
    assert series_quotient(nonzero_terms(num), den, n_terms) == sympy_series(num, den, n_terms)


def test_kernel_needs_a_unit_constant_term():
    for den in ([], [(0, 2)], [(1, 1)], [(0, 0), (1, 1)]):
        with pytest.raises(SeriesError, match="constant term"):
            series_quotient(nonzero_terms([1]), den, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: series_quotient(nonzero_terms([1, 2, 3]), [(0, 1), (1, -1)], -2),
        lambda: series_inverse([1, -1], -1),
    ],
    ids=["series_quotient", "series_inverse"],
)
def test_kernel_refuses_a_negative_horizon(call):
    with pytest.raises(SeriesError, match=">= 0"):
        call()


@pytest.mark.parametrize("seed, n", [(1, 1000), (2, 2500), (3, 4000), (4, 6000)])
def test_long_counts_match_the_recurrence(seed, n):
    # Four rods of length <= 8 at the benchmark's sizes: the pull on coefficients of thousands of bits.
    rng = random.Random(seed)
    rods = RodSet.from_mults((k, rng.choice((-3, -2, -1, 1, 2, 3))) for k in rng.sample(range(1, 9), 4))
    want = _recurrence_counts(rods, n)
    assert train_counts(rods, n) == want
    char = char_poly(rods)
    assert series_inverse(char, n) == want
    assert series_inverse([-c for c in char], n) == [-f for f in want]


def recurrence_quotient(num, den_terms, n_terms):
    """num/den from out[n] = d_0 * (num[n] - sum of d_k * out[n - k]), one n and one term at a time."""
    d = dict(den_terms)
    out = []
    for n in range(n_terms + 1):
        acc = num[n] if n < len(num) else 0
        for k, c in d.items():
            if 0 < k <= n:
                acc -= c * out[n - k]
        out.append(d[0] * acc)
    return out


def dense_of_terms(terms):
    out = [0] * (terms[-1][0] + 1 if terms else 0)
    for k, c in terms:
        out[k] = c
    return out


@st.composite
def long_pulls(draw):
    """A divisor the kernel pulls, a numerator and a horizon that lies within 3 of
    2 deg den, where the push hands over to the pull, or runs 700 to 800 terms:
    d_0 = +-1, two or more terms whose magnitudes come from {1, 2, 3, one of 70
    bits} with either sign, so they repeat, and a num that may reach past deg den
    (the kernel's += range)."""
    big = draw(st.integers(1 << 69, 1 << 70))
    degrees = sorted(draw(st.sets(st.integers(1, PULL_DEGREE_LIMIT), min_size=2)))
    den = [(0, draw(st.sampled_from((1, -1))))]
    for k in degrees:
        den.append((k, draw(st.sampled_from((1, 2, 3, big))) * draw(st.sampled_from((1, -1)))))
    num = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=degrees[-1] + 8))
    near_handover = st.integers(-3, 3).map(lambda d: 2 * degrees[-1] + d)
    n_terms = draw(st.one_of(near_handover, st.integers(700, 800)))
    return num, den, n_terms


@PROPERTY
@given(case=long_pulls())
@example(case=([1], [(0, 1), (1, -1), (2, -1), (3, -1)], 771))  # every term -1
@example(case=([2, -1], [(0, -1), (1, 1), (4, 1)], 772))  # d_0 = -1, every other term +1
@example(case=([3, 1, 4, 1, 5, 9, 2, 6, 5], [(0, 1), (1, 3), (2, -3), (4, 2), (5, 2), (7, -1)], 774))
@example(case=([3, 1, 4, 1, 5, 9, 2, 6, 5], [(0, 1), (1, 3), (2, -3), (4, 2), (5, 2), (7, -1)], 13))  # pushed
@example(case=([3, 1, 4, 1, 5, 9, 2, 6, 5], [(0, 1), (1, 3), (2, -3), (4, 2), (5, 2), (7, -1)], 14))  # pulled
def test_long_pull_matches_the_recurrence(case):
    num, den, n_terms = case
    assert series_quotient(nonzero_terms(num), den, n_terms) == recurrence_quotient(num, den, n_terms)


def test_kernel_takes_runs_from_twice_deg_den_on(monkeypatch):
    compiled, pushed = [], []
    build, push = series._kernel, series._push
    monkeypatch.setattr(series, "_kernel", lambda shape: compiled.append(shape) or build(shape))
    monkeypatch.setattr(series, "_push", lambda out, terms: pushed.append(terms) or push(out, terms))
    den = [(0, 1), (1, -1), (3, 2)]
    for n_terms, used in ((5, False), (6, True), (800, True)):
        compiled.clear()
        pushed.clear()
        assert series_quotient(nonzero_terms([1]), den, n_terms) == recurrence_quotient([1], den, n_terms)
        assert compiled == ([(1, 0, 0, 1)] if used else [])  # one -1 term, then |c| = 2 subtracting once
        assert pushed == ([] if used else [[(1, -1), (3, 2)]])


@pytest.mark.parametrize("c", [1, -1, 2, -2])
@pytest.mark.parametrize("k", [2, PULL_DEGREE_LIMIT])
def test_kernel_pulls_one_gapped_term_from_twice_its_degree(monkeypatch, k, c):
    # 1 - c*x^k has a series that is zero off the multiples of k; it is pulled like any short divisor.
    compiled, pushed = [], []
    build, push = series._kernel, series._push
    monkeypatch.setattr(series, "_kernel", lambda shape: compiled.append(shape) or build(shape))
    monkeypatch.setattr(series, "_push", lambda out, terms: pushed.append(terms) or push(out, terms))
    den = [(0, 1), (k, -c)]
    for n_terms, pulled in ((2 * k - 1, False), (2 * k, True), (20 * k, True)):
        compiled.clear()
        pushed.clear()
        assert series_quotient(nonzero_terms([1]), den, n_terms) == recurrence_quotient([1], den, n_terms)
        assert len(compiled) == pulled
        assert pushed == ([] if pulled else [[(k, -c)]])


@st.composite
def padded_divisions(draw):
    """A term-list numerator, a divisor and a horizon: num's degrees are gapped, its
    last term may lie below, at or above deg den (the kernel's add/store boundary),
    and a term may lie past the horizon; den comes from sparse_divisors and the
    horizon from 0 to 40, on both sides of 2 deg den, so it is pulled or pushed and
    its d_0 is +-1."""
    den = draw(sparse_divisors())
    n_terms = draw(st.integers(0, 40))
    degrees = sorted(draw(st.sets(st.integers(0, max(n_terms, den[-1][0]) + 4), max_size=6)))
    return [(k, draw(divisor_coefficient)) for k in degrees], den, n_terms


@PROPERTY
@given(case=padded_divisions())
@example(case=([(0, 2), (2, -1)], [(0, 1), (1, -1), (4, 3)], 7))  # pushed: n < 2 deg den, last < deg den
@example(case=([(1, 3), (3, 1)], [(0, -1), (1, 2), (3, -1)], 5))  # pushed: n < 2 deg den, last = deg den
@example(case=([(0, 2), (2, -1)], [(0, 1), (1, -1), (4, 3)], 8))  # kernel from n = 2 deg den, last < deg den
@example(case=([(0, 2), (2, -1)], [(0, 1), (1, -1), (4, 3)], 30))  # kernel, last < deg den
@example(case=([(1, 3), (4, 5)], [(0, -1), (2, 1), (4, -2)], 30))  # kernel, last = deg den
@example(case=([(0, 1), (7, -4), (35, 9)], [(0, 1), (1, 1), (3, -1)], 30))  # kernel, last > deg den
@example(case=([(0, 1), (3, 2), (31, 1)], [(0, -1), (5, 2)], 30))  # kernel: one gapped term
@example(case=([(2, -1), (9, 4)], [(0, 1), (3, 1), (20, -1)], 30))  # pushed: deg den > 8
@example(case=([(0, 1), (30, 2)], [(0, 1), (1, 1), (3, -1)], 30))  # kernel, last = horizon
@example(case=([(0, 1), (5, 2)], [(0, 1), (1, 1), (3, -1)], 5))  # pushed, last = horizon
@example(case=([], [(0, 1), (1, -1), (2, -1)], 10))
@example(case=([(5, 1)], [(0, -1), (2, 1)], 0))  # num wholly past the horizon
def test_padded_division_matches_the_recurrence(case):
    num, den, n_terms = case
    assert series_quotient(num, den, n_terms) == recurrence_quotient(dense_of_terms(num), den, n_terms)


def test_kernel_sums_rods_of_one_magnitude_before_one_product(monkeypatch):
    # The shape: one -1 term, one +1 term, |c| = 2 subtracting twice,
    # |c| = 3 adding once and subtracting once.
    calls = []
    build = series._kernel

    def spy(shape):
        kernel = build(shape)
        return lambda *args: calls.append((shape, args[4:])) or kernel(*args)

    monkeypatch.setattr(series, "_kernel", spy)
    den = [(0, 1), (1, -1), (2, 3), (3, 1), (4, 2), (5, 2), (7, -3)]
    assert series_quotient(nonzero_terms([1]), den, 14) == recurrence_quotient([1], den, 14)
    assert calls == [((1, 1, 0, 2, 1, 1), (1, 3, 4, 5, 7, 2, 2, 3))]  # degrees k0..k5, magnitudes m1, m2
    source = _kernel_source((1, 1, 0, 2, 1, 1))
    expr = "out[n - k0] + m2 * (out[n - k4] - out[n - k5]) - out[n - k1] - m1 * (out[n - k2] + out[n - k3])"
    assert f"out[n] += {expr}\n" in source and f"out[n] = {expr}\n" in source


def test_kernel_takes_a_coefficient_past_the_digit_limit(monkeypatch):
    # 10^5000 has more decimal digits than str() converts by default; the kernel takes it as an argument.
    shapes = []
    build = series._kernel
    monkeypatch.setattr(series, "_kernel", lambda shape: shapes.append(shape) or build(shape))
    den = [(0, 1), (1, -(10**5000)), (2, 10**5000), (3, 1)]
    assert series_quotient(nonzero_terms([1, 2]), den, 12) == recurrence_quotient([1, 2], den, 12)
    assert shapes == [(0, 1, 1, 1)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: series_inverse([1, 0.5], 1),  # pushed: n < 2 deg den
        lambda: series_inverse([1, 0.5], 5),  # pulled by a kernel
        lambda: series_quotient(nonzero_terms([1]), [(0, 1), (20, 0.5)], 5),  # pushed
        lambda: series_quotient(nonzero_terms([1]), [(0, 1.0), (1, 1)], 5),
        lambda: series_quotient(nonzero_terms([1]), [(0, -1), (2, 1), (3, Fraction(1, 2))], 12),
    ],
)
def test_kernel_refuses_a_coefficient_that_is_not_an_int(monkeypatch, call):
    def compile_nothing(*args):
        raise AssertionError("a divisor that is not all ints was divided")

    monkeypatch.setattr(series, "_kernel", compile_nothing)
    monkeypatch.setattr(series, "_push", compile_nothing)
    with pytest.raises(SeriesError, match="int divisor coefficients"):
        call()


@PROPERTY
@given(
    pairs=st.dictionaries(st.integers(1, PULL_DEGREE_LIMIT), st.integers(-3, 3).filter(bool), max_size=5),
    n=st.one_of(st.integers(0, 40), st.integers(700, 800)),
)
@example(pairs={1: 1}, n=773)
@example(pairs={1: 1, 2: 1}, n=773)
@example(pairs={1: -1, 2: -1, 3: -1}, n=773)
@example(pairs={2: 2, 3: -2, 5: 3, 8: -3}, n=777)
@example(pairs={2: 2, 3: -2, 5: 3, 8: -3}, n=15)  # pushed: n < 2 deg den
@example(pairs={2: 2, 3: -2, 5: 3, 8: -3}, n=16)  # pulled from n = 2 deg den
@example(pairs={}, n=7)
def test_finite_counts_match_sympy_series(pairs, n):
    # The round trip F = 1/(1 - C): sympy inverts the characteristic polynomial built here.
    rods = RodSet.from_mults(pairs)
    char = [(0, 1)] + [(k, -m) for k, m in sorted(pairs.items())]
    assert train_counts(rods, n) == sympy_series([1], char, n)


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


term_lists = st.dictionaries(st.integers(0, 12), divisor_coefficient, max_size=5).map(lambda d: sorted(d.items()))
factors = st.one_of(term_lists, st.just(((0, 1),)))


@PROPERTY
@given(p=factors, q=factors, mirror=st.booleans())
@example(p=[(0, 1), (1, 1)], q=[(0, 1), (1, -1)], mirror=False)  # (1 + x)(1 - x): x cancels
@example(p=[(0, 2), (3, -1)], q=[], mirror=False)  # the zero polynomial
@example(p=[(2, 5), (7, -3)], q=((0, 1),), mirror=False)  # the unit
def test_sparse_mul_is_the_dense_product_on_nonzero_terms(p, q, mirror):
    if mirror:  # q(x) = p(-x): every odd coefficient of the product cancels to zero
        q = [(k, -c if k % 2 else c) for k, c in p]
    got = sparse_mul(p, q)
    assert isinstance(got, list)
    assert all(j < k for (j, _), (k, _) in zip(got, got[1:])) and all(c for _, c in got)
    assert got == nonzero_terms(poly_mul(dense_of_terms(p), dense_of_terms(q)))


def test_borwein_table_matches_sympy_remainders():
    # Below the moduli 6 and 3 some residues have no length yet.
    for bound in (*range(2, 13), 30):
        _assert_borwein_matches_sympy(bound)


def _assert_borwein_matches_sympy(bound: int) -> None:
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
        assert got[base] == want, f"Borwein table for {base} at bound {bound} disagrees with sympy"
