"""Property tests of the rational rod sources, against independent oracles.

``ArithmeticRods`` and ``TrainsOf`` are checked against their definitions
written out here: the composition oracle on the source cut to lengths
<= n (finite sets and prefixes too), sympy polynomial division for the
finiteness of duals and of solved mediators, sympy ring series for
the duality identity, and dense products for the mediator N/D.
"""

from __future__ import annotations

import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from trainyard import (
    ArithmeticRods,
    PrefixRods,
    RodSet,
    TrainsOf,
    discrepancies,
    dual,
    expand,
    solve_Q,
    solve_R,
    train_counts,
)
from trainyard import series
from trainyard.counts import _mediator
from trainyard.series import nonzero_terms, poly_mul

from conftest import PROPERTY, oracle_net_count

X = sympy.symbols("x")
RING, Y = ring("y", QQ)

signs = st.sampled_from((1, -1))
arith_sources = st.builds(ArithmeticRods, st.integers(1, 6), st.integers(1, 6), signs)
finite_sets = st.dictionaries(
    st.integers(1, 4), st.sampled_from((-2, -1, 1, 2)), max_size=3
).map(RodSet.from_mults)
trains_sources = st.builds(TrainsOf, finite_sets, signs)
sources = st.one_of(arith_sources, trains_sources)
prefix_mults = st.lists(st.integers(-3, 3), max_size=12)
prefix_sources = st.builds(PrefixRods, st.one_of(prefix_mults, prefix_mults.map(tuple)))


def truncated(source, n: int) -> RodSet:
    """The finite rod set of the source's rods of length <= n, from its definition."""
    if isinstance(source, RodSet):
        return RodSet(tuple((k, m) for k, m in source.pairs if k <= n))
    if isinstance(source, PrefixRods):
        return RodSet.from_mults(enumerate(source.mults[:n], 1))
    if isinstance(source, ArithmeticRods):
        return RodSet.from_mults({k: source.sign for k in range(source.first, n + 1, source.step)})
    base = source.base
    return RodSet.from_mults({k: source.sign * oracle_net_count(base, k) for k in range(1, n + 1)})


def rod_poly(rods: RodSet):
    """C(x, rods) of a finite set as a sympy polynomial."""
    return sum((m * X**k for k, m in rods.pairs), sympy.Integer(0))


def numerator_and_denominator(source):
    """C = N/D as sympy polynomials: C / 1, s x^a / (1 - x^d), or s C(base) / (1 - C(base))."""
    if isinstance(source, RodSet):
        return rod_poly(source), sympy.Integer(1)
    if isinstance(source, ArithmeticRods):
        return source.sign * X**source.first, 1 - X**source.step
    c_base = rod_poly(source.base)
    return source.sign * c_base, 1 - c_base


def exact_quotient(num, den):
    """num / den by sympy polynomial division, or None when the remainder is not 0."""
    quotient, remainder = sympy.div(sympy.Poly(num, X), sympy.Poly(den, X))
    return quotient if remainder.is_zero else None


def rods_of(poly, sign: int) -> RodSet:
    """The rod set with sign * C(x, rods) = poly - poly(0)."""
    return RodSet.from_mults({k: sign * int(c) for (k,), c in poly.terms() if k})


def one_plus_series(source, prec: int):
    """1 + C(x, source) through degree prec - 1, as a sympy ring series."""
    if isinstance(source, ArithmeticRods):
        rods = range(source.first, prec, source.step)
        return 1 + sum((source.sign * Y**k for k in rods), RING(0))
    char = 1 - sum((m * Y**k for k, m in source.base.pairs), RING(0))
    return (1 - source.sign) + source.sign * rs_series_inversion(char, Y, prec)


@PROPERTY
@given(source=st.one_of(sources, finite_sets, prefix_sources), n=st.integers(0, 12))
def test_train_counts_match_the_composition_oracle(source, n):
    if not source.exact:
        n = min(n, len(source.mults))
    finite = truncated(source, n)
    assert train_counts(source, n) == [oracle_net_count(finite, m) for m in range(n + 1)]


@PROPERTY
@given(source=sources)
def test_dual_is_finite_exactly_when_d_plus_n_divides_d(source):
    num, den = numerator_and_denominator(source)
    quotient, remainder = sympy.div(sympy.Poly(den, X), sympy.Poly(den + num, X))
    got = dual(source)
    assert isinstance(got, RodSet) == remainder.is_zero
    if remainder.is_zero:
        assert got == RodSet.from_mults({k: int(c) for (k,), c in quotient.terms() if k})


@PROPERTY
@given(source=sources, horizon=st.integers(1, 40))
def test_dual_inverts_one_plus_c_to_the_horizon(source, horizon):
    got = dual(source, horizon)
    pairs = enumerate(got.mults, 1) if isinstance(got, PrefixRods) else got.pairs
    one_plus_dual = 1 + sum((m * Y**k for k, m in pairs), RING(0))
    prec = horizon + 1
    assert rs_mul(one_plus_series(source, prec), one_plus_dual, Y, prec) == RING(1)


@st.composite
def sources_with_targets(draw):
    """A source R and a finite S, where half the time (1 - C_S) = (D - N)(1 + C_P) for a finite P."""
    source = draw(sources)
    s = draw(finite_sets)
    if draw(st.booleans()):
        num, den = numerator_and_denominator(source)
        char_s = sympy.Poly(sympy.expand((den - num) * (1 + rod_poly(s))), X)
        s = rods_of(char_s, -1)
    return source, s


@PROPERTY
@given(case=sources_with_targets())
def test_solve_q_from_a_source_is_exact(case):
    # 1 + C_Q = (1 - C_S) D / (D - N) for a source R = N/D.
    source, s = case
    num, den = numerator_and_denominator(source)
    quotient = exact_quotient((1 - rod_poly(s)) * den, den - num)
    got = solve_Q(source, s, 12)
    assert got.q_finite is (quotient is not None)
    if quotient is not None:
        assert got.q == rods_of(quotient, 1)


@PROPERTY
@given(r=finite_sets, source=sources)
def test_solve_q_to_a_source_is_exact(r, source):
    # 1 + C_Q = (D - N) / (D (1 - C_R)) for a source S = N/D.
    num, den = numerator_and_denominator(source)
    quotient = exact_quotient(den - num, den * (1 - rod_poly(r)))
    got = solve_Q(r, source, 12)
    assert got.q_finite is (quotient is not None)
    if quotient is not None:
        assert got.q == rods_of(quotient, 1)


@st.composite
def mediators_with_targets(draw):
    """A finite Q and an S that is a source, a finite set, or expand(R, Q) for a finite R."""
    q = draw(finite_sets)
    s = draw(st.one_of(sources, finite_sets, finite_sets.map(lambda r: expand(r, q).s)))
    return q, s


@PROPERTY
@given(case=mediators_with_targets())
def test_solve_r_is_exact(case):
    # 1 - C_R = (D - N) / (D (1 + C_Q)) for S = N/D.
    q, s = case
    num, den = numerator_and_denominator(s)
    quotient = exact_quotient(den - num, den * (1 + rod_poly(q)))
    got = solve_R(q, s, 12)
    assert got.r_finite is (quotient is not None)
    if quotient is not None:
        assert got.r == rods_of(quotient, -1)


def dense_fraction(source, n: int) -> tuple:
    """Dense coefficient lists of N and D, from the definitions above (a prefix: N through n, D = 1)."""
    if isinstance(source, PrefixRods):
        return [0, *source.mults[:n]], [1]
    return tuple(
        [int(c) for c in reversed(sympy.Poly(p, X).all_coeffs())]
        for p in numerator_and_denominator(source)
    )


def dense_minus(p: list, q: list) -> list:
    """p - q on dense coefficient lists."""
    size = max(len(p), len(q))
    return [a - b for a, b in zip(p + [0] * (size - len(p)), q + [0] * (size - len(q)))]


@st.composite
def mediator_inputs(draw):
    """R and S of any of the four kinds, and a degree n no prefix among them runs short of."""
    kinds = st.one_of(finite_sets, sources, prefix_sources)
    r, s = draw(kinds), draw(kinds)
    n = draw(st.integers(0, 12))
    for x in (r, s):
        if not x.exact:
            n = min(n, len(x.mults))
    return r, s, n


@PROPERTY
@given(case=mediator_inputs())
def test_the_mediator_is_the_dense_product_on_nonzero_terms(case):
    # N = (D_S - N_S) D_R and D = D_S (D_R - N_R), whether or not a D is the unit.
    r, s, n = case
    num_r, den_r = dense_fraction(r, n)
    num_s, den_s = dense_fraction(s, n)
    num, den = _mediator(r, s, n)
    assert num == nonzero_terms(poly_mul(dense_minus(den_s, num_s), den_r))
    assert den == nonzero_terms(poly_mul(den_s, dense_minus(den_r, num_r)))


def test_finite_solves_form_no_sparse_product(monkeypatch):
    # Finite R and S have D_R = D_S = 1, which sparse_mul multiplies by for free.
    calls = []
    products = series._add_products
    monkeypatch.setattr(series, "_add_products", lambda *args: calls.append(args) or products(*args))
    r, q = RodSet.from_mults({1: 1, 2: 1}), RodSet.from_mults({2: 1})
    s = RodSet.from_mults({1: 1, 3: 1, 4: 1})
    assert solve_Q(r, s).q == q
    assert solve_R(q, s).r == r
    assert discrepancies(r, s, 20)[:4] == [0, 1, 0, 0]
    assert calls == []
    # An infinite Q's prefix witness forms (1 - C_R)(1 + C_Q) and skips its two products by D = 1.
    assert solve_Q(RodSet.from_mults({2: 1}), RodSet.from_mults({1: 1})).q_finite is False
    assert len(calls) == 1
    # A source R's D_R = 1 - x^2 is a product the mediator still forms.
    calls.clear()
    solve_Q(ArithmeticRods(1, 2), s)
    assert calls
