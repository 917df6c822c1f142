"""Property tests of the rational rod sources, against independent oracles.

``ArithmeticRods`` and ``TrainsOf`` are checked against their definitions
written out here: the composition oracle on the source cut to lengths
<= n, sympy polynomial division for the dual's finiteness, and sympy
ring series for the duality identity.  Examples are derandomized and
capped, so every run checks the same inputs and the suite stays fast.
"""

from __future__ import annotations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from trainyard import ArithmeticRods, PrefixRods, RodSet, TrainsOf, dual, train_counts

from conftest import oracle_net_count

X = sympy.symbols("x")
RING, Y = ring("y", QQ)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

signs = st.sampled_from((1, -1))
arith_sources = st.builds(ArithmeticRods, st.integers(1, 6), st.integers(1, 6), signs)
bases = st.dictionaries(st.integers(1, 4), st.sampled_from((-2, -1, 1, 2)), max_size=3).map(
    RodSet.from_mults
)
trains_sources = st.builds(TrainsOf, bases, signs)
sources = st.one_of(arith_sources, trains_sources)


def truncated(source, n: int) -> RodSet:
    """The finite rod set of the source's rods of length <= n, from its definition."""
    if isinstance(source, ArithmeticRods):
        return RodSet.from_mults({k: source.sign for k in range(source.first, n + 1, source.step)})
    base = source.base
    return RodSet.from_mults({k: source.sign * oracle_net_count(base, k) for k in range(1, n + 1)})


def numerator_and_denominator(source):
    """C = N/D as sympy polynomials: s x^a / (1 - x^d), or s C(base) / (1 - C(base))."""
    if isinstance(source, ArithmeticRods):
        return source.sign * X**source.first, 1 - X**source.step
    c_base = sum((m * X**k for k, m in source.base.pairs), sympy.Integer(0))
    return source.sign * c_base, 1 - c_base


def one_plus_series(source, prec: int):
    """1 + C(x, source) through degree prec - 1, as a sympy ring series."""
    if isinstance(source, ArithmeticRods):
        rods = range(source.first, prec, source.step)
        return 1 + sum((source.sign * Y**k for k in rods), RING(0))
    char = 1 - sum((m * Y**k for k, m in source.base.pairs), RING(0))
    return (1 - source.sign) + source.sign * rs_series_inversion(char, Y, prec)


@PROPERTY
@given(source=sources, n=st.integers(0, 12))
def test_train_counts_match_the_composition_oracle(source, n):
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
