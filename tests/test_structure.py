"""Periodicity, expansion scans, Lucas laws, and trinomial classes."""

from __future__ import annotations

import functools
import math
import random
import re
from collections import Counter
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.factortools import dup_cyclotomic_p

from trainyard import (
    Expansion,
    ExpansionError,
    RodSet,
    StructureError,
    borwein_classify,
    char_poly,
    cyclotomic,
    detect_period,
    expand,
    lucas_check,
    lucas_two_shapes,
    odd_sign_swap,
    parse_rodset,
    poly_divexact,
    poly_mul,
    rodset_from_char_poly,
    scan_one_expansions,
    scan_two_expansions,
    solve_Q,
    train_counts,
    window_period_scan,
)
from trainyard import _cyclotomic, expansion, structure
from trainyard._cyclotomic import (
    cyclotomic_orders,
    cyclotomic_screen,
    graeffe_certificate,
    graeffe_step,
    peel_orders,
    self_reciprocal,
)
from trainyard.series import char_terms, poly_trim

from conftest import PROPERTY, _recurrence_counts, oracle_lucas_check, oracle_window_period

X = sympy.symbols("x")


@pytest.mark.parametrize(
    "literal, period, factors, q_literal",
    [
        ("[1,-2]", 6, (6,), "[1,-3,-4]"),
        ("[-1,-2]", 3, (3,), None),
        ("[-1,3,4,5,-7,-8]", 30, (30,), None),
        ("[1]", 1, (1,), "[]"),
    ],
)
def test_detect_period_periodic(literal, period, factors, q_literal):
    report = detect_period(parse_rodset(literal))
    assert report.periodic, f"{literal} should be periodic"
    assert report.least_period == period
    assert report.cyclotomic_factors == factors
    assert report.window_confirmed is True
    if q_literal is not None:
        assert report.q_to_period == parse_rodset(q_literal)
    else:
        assert report.q_to_period is not None


def test_detect_period_q_reaches_single_rod():
    report = detect_period(parse_rodset("[1,-2]"))
    target = RodSet(((report.least_period, 1),))
    assert expand(parse_rodset("[1,-2]"), report.q_to_period).s == target, (
        "the reported mediator must expand the set to the one-rod set of its period"
    )


def test_detect_period_witnesses_its_q(monkeypatch):
    monkeypatch.setattr(expansion, "_identity_holds", lambda *args: False)
    with pytest.raises(ExpansionError, match="this is a bug"):
        detect_period(parse_rodset("[1,-2]"))


def test_detect_period_flags_a_period_that_is_not_least(monkeypatch):
    # A peel whose lcm came out 2p: char still divides 1 - x^(2p), so the Q
    # witness holds, and only the window repeat at p shows the period is not least.
    lcm = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *orders: 2 * lcm(*orders))
    with pytest.raises(StructureError, match="repeat before the period 12; this is a bug"):
        detect_period(parse_rodset("[1,-2]"))  # the counts repeat first at 6, not 12


def test_detect_period_negative_and_errors():
    report = detect_period(parse_rodset("[1,1,-2]"))
    assert not report.periodic
    assert report.least_period is None
    assert report.q_to_period is None
    assert report.window_confirmed is True, "(1 - x)^2 is a repeated factor, which certifies it"
    with pytest.raises(StructureError, match="nonempty"):
        detect_period(RodSet())


def test_detect_period_raises_when_the_peel_leaves_a_non_unit(monkeypatch):
    # A peel that left 2 instead of 1 is a bug; it must raise even under python -O.
    monkeypatch.setattr(structure, "poly_divexact", lambda num, den: [2])
    with pytest.raises(StructureError, match="non-unit constant; this is a bug"):
        detect_period(parse_rodset("[1,-2]"))


def test_detect_period_refuses_past_the_length_limit():
    limit = structure.PERIOD_WORK_LIMIT
    # The non-periodic horizon 4 * (max R)^2 times the three char terms of [1, k^-1].
    k = math.isqrt(limit // 12) + 1
    assert 4 * 256 * 256 * 3 <= limit, "the [1, 256^-1] chain must stay in range"
    with pytest.raises(StructureError, match="PERIOD_WORK_LIMIT"):
        detect_period(RodSet(((1, 1), (k, -1))))


def _cyclotomic_product(orders):
    product = [1]
    for d in orders:
        product = poly_mul(product, cyclotomic(d))
    return product if product[0] == 1 else [-c for c in product]


def test_detect_period_long_period_is_witnessed():
    # p - max R far exceeds QUOTIENT_DEGREE_LIMIT, so Q comes from the counts, not solve_Q.
    rods = rodset_from_char_poly(_cyclotomic_product((3, 5, 7, 8, 11, 13)))
    assert rods.max_length == 38
    report = detect_period(rods)
    assert report.periodic and report.least_period == 120120
    assert report.cyclotomic_factors == (3, 5, 7, 8, 11, 13)
    assert report.window_confirmed is True
    q = report.q_to_period
    assert q.max_length <= 120120 - 38
    char = sympy.Poly.from_dict({(0,): 1, **{(k,): -m for k, m in rods.pairs}}, X)
    one_plus_q = sympy.Poly.from_dict({(0,): 1, **{(k,): m for k, m in q.pairs}}, X)
    assert char * one_plus_q == sympy.Poly(1 - X**120120, X), "Q to [p] fails the witness"


def test_graeffe_certificate_catches_a_skipped_order(monkeypatch):
    # A screen that wrongly rejects order 13 makes the p = 120120 set look non-periodic.
    rods = rodset_from_char_poly(_cyclotomic_product((3, 5, 7, 8, 11, 13)))
    screen = _cyclotomic.cyclotomic_screen
    monkeypatch.setattr(
        _cyclotomic, "cyclotomic_screen", lambda terms, d: d != 13 and screen(terms, d)
    )
    # The certificate must not back the missed order: the verdict raises instead.
    with pytest.raises(StructureError, match="peel missed an order; this is a bug"):
        detect_period(rods)
    # The window scan it replaces stops at 4 * 38^2, far short of the period.
    assert window_period_scan(rods, 4 * 38 * 38) is None


def _binomial_power(m):
    """(1 - x)^m."""
    return [(-1) ** k * math.comb(m, k) for k in range(m + 1)]


@pytest.mark.parametrize("m", [2, 6, 12])
def test_graeffe_certificate_reaches_the_fixed_point_at_the_coefficient_bound(m):
    # The middle coefficient is C(m, m/2), the bound itself: only a coefficient above it counts.
    char = _binomial_power(m)
    assert max(map(abs, char)) == math.comb(m, m // 2)
    assert graeffe_certificate(char, _binomial_power(m - 1), (1,)) == ("repeat", 1)
    report = detect_period(rodset_from_char_poly(char))
    assert not report.periodic and report.cyclotomic_factors == (1,)
    assert report.window_confirmed is True


def test_graeffe_certificate_takes_every_step_to_the_fixed_point():
    # Phi_24 -> Phi_12^2 -> Phi_6^4 -> Phi_3^8, and the fourth step repeats it: v_2(24) + 1.
    assert graeffe_certificate(cyclotomic(24), [1], (24,)) == (None, 4)
    # Phi_3 * Phi_6 * Phi_12 peeled once each, with a second Phi_12 left over.
    char = _cyclotomic_product((3, 6, 12, 12))
    assert graeffe_certificate(char, cyclotomic(12), (3, 6, 12)) == ("repeat", 3)


@PROPERTY
@given(f=st.lists(st.integers(-5, 5) | st.integers(1 << 60, 1 << 61), min_size=1, max_size=15).filter(any))
def test_graeffe_step_squares_the_roots(f):
    # g(x^2) = f(x) * f(-x), against sympy's product.
    g = graeffe_step(f)
    assert len(g) == len(f)
    g_of_x_squared = [0] * (2 * len(g) - 1)
    g_of_x_squared[::2] = g
    f_of_minus_x = [(-1) ** k * c for k, c in enumerate(f)]
    product = sympy.Poly(f[::-1], X) * sympy.Poly(f_of_minus_x[::-1], X)
    assert poly_trim(g_of_x_squared) == [int(c) for c in reversed(product.all_coeffs())]


@PROPERTY
@given(orders=st.sets(st.integers(1, 48), min_size=1, max_size=4))
@example(orders={1, 32, 48})
@example(orders={2, 3, 6, 12, 24})
def test_graeffe_iterates_of_distinct_cyclotomics_stay_within_the_binomials(orders):
    # Every root of such a product lies on the unit circle, and Graeffe steps keep it
    # there, so by Vieta each coefficient a_k of every iterate has |a_k| <= C(m, k).
    product = sympy.prod(sympy.cyclotomic_poly(d, X) for d in orders)
    f = [int(c) for c in reversed(sympy.Poly(product, X).all_coeffs())]
    m = len(f) - 1
    for _ in range(max(orders).bit_length() + 2):  # a fixed point within max v_2(d) + 2 steps
        assert all(abs(c) <= math.comb(m, k) for k, c in enumerate(f)), f
        g = graeffe_step(f)
        if g == f:
            break
        f = g
    else:
        raise AssertionError(f"no fixed point for orders {sorted(orders)}")


def test_graeffe_certificate_lead_and_bound():
    # 1 - 2x leads with -2, so it fails the reciprocity test before Graeffe runs.
    rods = parse_rodset("[1^2]")
    assert not self_reciprocal(char_terms(rods)) and str(detect_period(rods)) == "not periodic"
    # 1 - x - x^2 has a root inside the unit circle; one step gives 1 - 3y + y^2, past C(2, 1).
    assert graeffe_certificate([1, -1, -1], [1, -1, -1], ()) == ("bound", 1)


_CYCLOTOMIC_ORDERS = [d for d in range(1, 300) if sympy.totient(d) <= 12]


@st.composite
def cyclotomic_products_with_repeats(draw):
    """char = +-(Phi_d, repeats allowed) * g, g sometimes sparse, constant term 1, max R <= 12."""
    budget, poly = draw(st.integers(0, 12)), [1]
    orders = draw(st.lists(st.sampled_from(_CYCLOTOMIC_ORDERS), max_size=4))
    if orders and draw(st.booleans()):
        orders.insert(0, orders[-1])  # a repeat, placed first so that it fits the budget
    for d in orders:
        if len(poly) - 1 + sympy.totient(d) <= budget:
            poly = poly_mul(poly, cyclotomic(d))
    room = 13 - len(poly)
    if room and (poly == [1] or draw(st.booleans())):
        terms = draw(st.dictionaries(st.integers(1, room), st.sampled_from((1, -1, 1, -1, 2, -3)),
                                     min_size=1, max_size=3))
        poly = poly_mul(poly, [1] + [terms.get(k, 0) for k in range(1, max(terms) + 1)])
    return rodset_from_char_poly(poly if poly[0] == 1 else [-c for c in poly])


@functools.cache
def _sympy_cyclotomics():
    """The monic cyclotomic polynomials of degree <= 12, as sympy polynomials."""
    return {sympy.Poly(sympy.cyclotomic_poly(d, X), X) for d in _CYCLOTOMIC_ORDERS}


@PROPERTY
@given(cyclotomic_products_with_repeats())
def test_detect_period_agrees_with_sympy_factoring(rods):
    char = sympy.Poly(1 - sum(m * X**k for k, m in rods.pairs), X)
    content, factors = sympy.factor_list(char)
    distinct_cyclotomics = abs(content) == 1 and all(
        mult == 1 and (f in _sympy_cyclotomics() or -f in _sympy_cyclotomics())
        for f, mult in factors
    )
    report = detect_period(rods)
    assert report.periodic == distinct_cyclotomics, f"verdict on {char} disagrees with sympy"
    assert report.window_confirmed is True, f"no certificate for the verdict on {char}"


def test_detect_period_refuses_a_period_past_the_work_limit():
    # max R 42 passes the non-periodic bound, but p + max R = 360402 counted terms
    # times 43 char terms do not.
    rods = rodset_from_char_poly(_cyclotomic_product((5, 7, 8, 9, 11, 13)))
    assert rods.max_length == 42
    with pytest.raises(StructureError, match="PERIOD_WORK_LIMIT") as refused:
        detect_period(rods)
    assert "360402 counted terms" in str(refused.value)


def _sympy_cyclotomic(d):
    return sympy.cyclotomic_poly(d, X, polys=True)


@st.composite
def cyclotomic_products(draw):
    """char = +-(distinct Phi_d) * g, g sometimes a random factor of degree 1 to 4."""
    orders = draw(st.lists(st.sampled_from([d for d, phi in cyclotomic_orders(12)]),
                           min_size=1, max_size=4, unique=True))
    poly = [1]
    for d in orders:
        poly = poly_mul(poly, cyclotomic(d))
    if draw(st.booleans()):
        g = [1] + draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        poly = poly_mul(poly, poly_trim(g) or [1])
    return rodset_from_char_poly(poly if poly[0] == 1 else [-c for c in poly])


@PROPERTY
@given(cyclotomic_products())
def test_cyclotomic_screen_never_rejects_a_factor(rods):
    char = sympy.Poly(1 - sum(m * X**k for k, m in rods.pairs), X)
    dividing = set()
    for d, _ in cyclotomic_orders(rods.max_length):
        if sympy.div(char, _sympy_cyclotomic(d))[1].is_zero:
            dividing.add(d)
            assert cyclotomic_screen(char_terms(rods), d), f"screen rejected Phi_{d} | {char}"
    report = detect_period(rods)
    assert set(report.cyclotomic_factors) == dividing
    for d in report.cyclotomic_factors:
        assert dup_cyclotomic_p(cyclotomic(d)[::-1], ZZ), f"peeled factor {d} is not cyclotomic"


# Sparse sets: max R <= 60, at most 7 char terms, multiplicities +-1 and +-2.
sparse_sets = st.dictionaries(
    st.integers(1, 60), st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=6
).map(RodSet.from_mults)


@PROPERTY
@given(sparse_sets)
@example(parse_rodset("[1^2]"))
def test_every_char_that_fails_the_reciprocity_test_has_a_graeffe_certificate(rods):
    # Graeffe certifies the same verdict that the reciprocity test gives for free.
    assume(not self_reciprocal(char_terms(rods)))
    char = char_poly(rods)
    assert graeffe_certificate(char, char, ())[0] is not None, f"no certificate for {rods}"
    assert not detect_period(rods).periodic


@PROPERTY
@given(st.sets(st.integers(1, 60), min_size=1, max_size=4))
def test_every_product_of_distinct_cyclotomics_passes_the_reciprocity_test(orders):
    product = sympy.Poly(sympy.prod(sympy.cyclotomic_poly(d, X) for d in orders), X)
    coeffs = [int(c) for c in reversed(product.all_coeffs())]
    sign = coeffs[0]  # +-1: only Phi_1 has constant term -1
    terms = [(k, sign * c) for k, c in enumerate(coeffs) if c]
    assert self_reciprocal(terms), f"Phi_d for d in {sorted(orders)}"


@functools.cache
def _sympy_totient(d):
    return int(sympy.totient(d))


def _sympy_mann_orders(terms, top):
    """The divisors d of m_t * k over the nonzero degrees k with phi(d) <= top, with phi, by sympy.

    phi(d) >= sqrt(d / 2), so only the d <= 2 * top^2 need their phi.
    """
    m_t = sympy.primorial(len(terms), nth=False)
    divisors = {int(d) for k, _ in terms if k for d in sympy.divisors(m_t * k) if d <= 2 * top * top}
    return tuple(sorted((d, _sympy_totient(d)) for d in divisors if _sympy_totient(d) <= top))


@PROPERTY
@given(sparse_sets | cyclotomic_products())
@example(parse_rodset("[1,2,3,4,5,6,7,8,9,10,11,12]"))
@example(rodset_from_char_poly(_cyclotomic_product((1, 2, 3, 5, 7, 9))))
def test_the_peel_finds_the_same_factors_on_the_walk_and_on_manns_list(rods):
    terms, top = char_terms(rods), rods.max_length
    walk, mann = cyclotomic_orders(top), _sympy_mann_orders(terms, top)
    assert peel_orders(terms, top) in (walk, mann)
    reports = []
    for orders in (walk, mann):
        with mock.patch.object(_cyclotomic, "peel_orders", lambda terms, top: orders):
            reports.append(detect_period(rods).to_json())
    assert reports[0] == reports[1], f"the peel of {rods} depends on its list"


@PROPERTY
@given(sparse_sets | cyclotomic_products())
@example(parse_rodset("[1,2,3,4,5,6,7,8,9,10,11,12]"))
@example(parse_rodset("[1,-1118]"))
def test_peel_orders_never_takes_the_longer_list(rods):
    # The walk lists its orders one by one; Mann's list generates tau(m_t * k)
    # divisors for each degree k before the cut.
    terms, top = char_terms(rods), rods.max_length
    m_t = sympy.primorial(len(terms), nth=False)
    generated = sum(sympy.divisor_count(m_t * k) for k, _ in terms if k)
    chosen, walk = peel_orders(terms, top), cyclotomic_orders(top)
    if chosen is walk:
        assert len(walk) <= generated, f"walked {len(walk)} orders for {rods}, not {generated}"
    else:
        assert generated <= len(walk), f"generated {generated} orders for {rods}, not {len(walk)}"


def test_detect_period_cyclotomic_rod_set():
    rods = rodset_from_char_poly(cyclotomic(105))
    assert rods.max_length == 48
    assert rods.mult(7) == 2 and rods.mult(41) == 2
    report = detect_period(rods)
    assert report.periodic and report.least_period == 105
    assert report.cyclotomic_factors == (105,)


def test_window_period_scan():
    assert window_period_scan(parse_rodset("[1,-2]"), 60) == 6
    assert window_period_scan(parse_rodset("[2]"), 50) == 2
    assert window_period_scan(parse_rodset("[-1,-2]"), 50) == 3
    assert window_period_scan(parse_rodset("[1,1,-2]"), 200) is None
    assert window_period_scan(parse_rodset("[1,2]"), 200) is None
    with pytest.raises(StructureError, match="at least 1"):
        window_period_scan(parse_rodset("[1]"), 0)
    with pytest.raises(StructureError, match="nonempty"):
        window_period_scan(RodSet(), 10)


SIGNED_SETS = st.lists(st.tuples(st.integers(1, 6), st.sampled_from((-1, 1))),
                       min_size=1, max_size=4, unique_by=lambda t: t[0])


@PROPERTY
@given(
    rods=st.one_of(
        # Periods 6, 3, 30, 12 and 20.
        st.sampled_from(
            ["[1,-2]", "[-1,-2]", "[-1,3,4,5,-7,-8]", "[2,-4]", "[-1,-2^2,-3^2,-4^2,-5,-6]"]
        ).map(parse_rodset),
        SIGNED_SETS.map(lambda pairs: RodSet(tuple(sorted(pairs)))),
        cyclotomic_products(),
    ),
    horizon=st.integers(1, 150),
)
def test_window_period_scan_matches_the_recurrence_oracle(rods, horizon):
    assert window_period_scan(rods, horizon) == oracle_window_period(rods, horizon), f"{rods}"


def test_algebraic_and_window_verdicts_agree():
    rng = random.Random(800)
    for _ in range(60):
        lengths = rng.sample(range(1, 6), rng.randint(1, 4))
        rods = RodSet(tuple(sorted((k, rng.choice((-1, 1))) for k in lengths)))
        report = detect_period(rods)
        scanned = window_period_scan(rods, 800)
        if report.periodic:
            assert scanned == report.least_period, f"window missed the period of {rods}"
        else:
            assert window_period_scan(rods, 300) is None, (
                f"window found a period the algebra denies for {rods}"
            )


def test_periodic_counts_actually_repeat():
    for literal in ["[1,-2]", "[-1,-2]", "[-1,3,4,5,-7,-8]"]:
        rods = parse_rodset(literal)
        p = detect_period(rods).least_period
        counts = train_counts(rods, 3 * p)
        assert counts[: 2 * p] == counts[p : 3 * p], f"{literal} does not repeat at {p}"


@pytest.mark.parametrize(
    "literal, bound, hits",
    [
        ("[1,-2]", 7, [(3, -1), (6, 1)]),
        ("[-1^2,-2^2]", 8, [(4, -4), (8, 16)]),
        ("[1,2]", 20, []),
        ("[1^2]", 4, [(1, 2), (2, 4), (3, 8), (4, 16)]),
        ("[-1]", 5, [(1, -1), (2, 1), (3, -1), (4, 1), (5, -1)]),
    ],
)
def test_scan_one_expansions(literal, bound, hits):
    assert scan_one_expansions(parse_rodset(literal), bound) == hits


@PROPERTY
@given(
    st.dictionaries(
        st.integers(1, 8), st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=4
    ).map(RodSet.from_mults),
    st.integers(1, 40),
)
def test_scan_one_equals_the_zero_window_oracle(zero_window_scan, rods, bound):
    assert scan_one_expansions(rods, bound) == zero_window_scan(rods, bound), (
        f"the zero class of the window table differs from the direct window test for {rods}"
    )


def test_scan_one_hits_have_finite_mediators():
    rods = parse_rodset("[1,-2]")
    counts = train_counts(rods, 7)
    for a, mult in scan_one_expansions(rods, 7):
        assert mult == counts[a], "a one-rod hit's multiplicity is the count there"
        got = solve_Q(rods, RodSet(((a, mult),)))
        assert got.q_finite is True, f"hit at {a} is not a real expansion"


def test_scan_one_validation():
    with pytest.raises(StructureError, match="nonempty"):
        scan_one_expansions(RodSet(), 5)
    with pytest.raises(StructureError, match="at least 1"):
        scan_one_expansions(parse_rodset("[1]"), 0)


def test_antirod_hit_forces_even_period():
    # A one-rod expansion to a pure antirod doubles: the period divides 2a.
    rods = parse_rodset("[1,-2]")
    period = detect_period(rods).least_period
    for a, mult in scan_one_expansions(rods, 7):
        if mult == -1:
            assert (2 * a) % period == 0, f"period {period} must divide twice {a}"


def test_scan_two_padovan_exact():
    hits = scan_two_expansions(parse_rodset("[2,3]"), 16)
    got = [(h.a, h.b, h.alpha, h.mult_a, h.mult_b, str(h.s)) for h in hits]
    assert got == [
        (1, 5, 1, 1, 1, "[1,5]"),
        (2, 7, 2, 2, -1, "[2^2,-7]"),
        (3, 7, 2, 2, 1, "[3^2,7]"),
        (4, 13, 3, 3, 1, "[4^3,13]"),
        (5, 14, 4, 4, 1, "[5^4,14]"),
        (7, 16, 7, 7, 2, "[7^7,16^2]"),
    ], "the Padovan two-rod scan is a fixed regression"
    assert hits[0].q == parse_rodset("[-1,2]")


def test_scan_two_trivial_flag():
    rods = parse_rodset("[2,3]")
    without = scan_two_expansions(rods, 6)
    with_trivial = scan_two_expansions(rods, 6, include_trivial=True)
    assert len(with_trivial) == len(without) + 1
    trivial = with_trivial[0]
    assert (trivial.a, trivial.b) == (2, 3)
    assert trivial.s == rods and trivial.q == RodSet(), (
        "the trivial hit re-reads the rod set itself"
    )


def test_scan_two_hits_satisfy_their_recursions():
    rods = parse_rodset("[2,3]")
    hits = scan_two_expansions(rods, 16)
    assert len({(h.a, h.b) for h in hits}) == len(hits), "(a, b) pairs are unique"
    counts = train_counts(rods, 64)
    for h in hits:
        tail_start = (h.q.max_length or 0) + 1
        for n in range(tail_start, 65):
            want = h.mult_a * counts[n - h.a]
            if n >= h.b:
                want += h.mult_b * counts[n - h.b]
            assert counts[n] == want, f"recursion of hit ({h.a},{h.b}) fails at {n}"


def _one_plus_c(rods: RodSet, sign: int) -> sympy.Poly:
    """1 + sign * C(x, rods) as a sympy polynomial."""
    return sympy.Poly(1 + sign * sum((m * X**k for k, m in rods.pairs), sympy.Integer(0)), X)


scan_sets = st.dictionaries(
    st.integers(1, 5), st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=2, max_size=4
).map(RodSet.from_mults)


@PROPERTY
@given(scan_sets, st.integers(2, 30))
def test_scan_two_hits_agree_with_the_solver_and_sympy(rods, bound):
    for hit in scan_two_expansions(rods, bound, include_trivial=True):
        solved = solve_Q(rods, hit.s)
        assert solved.q_finite is True and solved.q == hit.q, (
            f"the scan's Q for {hit.s} differs from the exact solver's"
        )
        quotient, remainder = sympy.div(_one_plus_c(hit.s, -1), _one_plus_c(rods, -1))
        assert remainder.is_zero, f"1 - C_R does not divide 1 - C_S for {hit.s}"
        assert quotient == _one_plus_c(hit.q, 1), (
            f"(1 - C_S) / (1 - C_R) is not 1 + C_Q for {hit.s}"
        )


def test_scan_two_hits_are_witnessed(monkeypatch):
    rods = parse_rodset("[2,3]")
    seen = []
    boundary = structure._boundary

    def spied(*args):
        holds = boundary(*args)

        def spy(*hit):
            seen.append((hit, holds(*hit)))
            return seen[-1][1]

        return spy

    monkeypatch.setattr(structure, "_boundary", spied)
    for include_trivial in (True, False):
        seen.clear()
        hits = scan_two_expansions(rods, 16, include_trivial=include_trivial)
        assert seen == [((h.a, h.b, h.alpha, h.mult_b), True) for h in hits], (
            "every hit, and only hits, must pass the boundary check"
        )
    seen.clear()
    hits = lucas_two_shapes(3, 2, 1, "multiple", d=4, k_max=2)
    assert seen == [((h.a, h.b, h.alpha, h.mult_b), True) for h in hits]
    seen.clear()
    assert scan_two_expansions(rods, 4) == [] and seen == [], (
        "a scan whose only target is the trivial one checks nothing"
    )
    monkeypatch.setattr(structure, "_boundary", lambda *args: lambda *hit: False)
    with pytest.raises(StructureError, match="this is a bug"):
        scan_two_expansions(rods, 16)
    with pytest.raises(StructureError, match="this is a bug"):
        lucas_two_shapes(3, 2, 1, "adjacent")


nonzero_mults = st.sampled_from((-3, -2, -1, 1, 2, 3))


def _char_times_prefix(rods: RodSet, counts: list, t: int) -> Counter:
    """(1 - C_R) * (F(0) + F(1)x + ... + F(t)x^t), by the test's own dict product."""
    out = Counter()
    for n, f in enumerate(counts[:t + 1]):
        out[n] += f
        for k, m in rods.pairs:
            out[n + k] -= m * f
    return out


def _near_hits(rods: RodSet, counts: list, bound: int):
    """Shapes (a, b, alpha, mult_b) whose mult_b satisfies (1 - C_S) = (1 - C_R)(1 + C_Q) at
    degree b, with an alpha read off one more degree, or a small one, so that often a single
    degree of Q's boundary decides.  Below b = max R (Q empty) every shape differs from R."""
    w = rods.max_length
    prefix = functools.lru_cache(None)(lambda t: _char_times_prefix(rods, counts, t))
    for b in range(2, bound + 1):
        t = b - w
        for a in range(1, b):
            if t < 0:
                yield a, b, 1, 1
                continue
            if a > t:  # 1 + C_Q is F's prefix alone: alpha is read at degree a
                lower, alphas = Counter(), {-prefix(t)[a], 1 - prefix(t)[a]}
            else:  # alpha is read at one of the degrees t+1..b-1
                lower = prefix(t - a)
                alphas = {-2, -1, 1, 2} | {
                    prefix(t)[d] // lower[d - a]
                    for d in range(t + 1, b)
                    if lower[d - a] and prefix(t)[d] % lower[d - a] == 0
                }
            for alpha in alphas:
                yield a, b, alpha, lower[b - a] * alpha - prefix(t)[b]


@PROPERTY
@given(
    st.dictionaries(st.integers(1, 8), nonzero_mults, min_size=1, max_size=4)
    .map(RodSet.from_mults)
    .filter(lambda rods: rods.max_length >= 2),
    st.integers(8, 40),
    st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 40), nonzero_mults, nonzero_mults), max_size=8
    ),
    st.tuples(st.sampled_from((-2, -1, 1, 2)), st.sampled_from((-2, -1, 1, 2))),
    st.sampled_from((-1, 1, 2)),
)
def test_the_boundary_check_is_the_exact_witness(rods, bound, extra, nudge, bump):
    w = rods.max_length
    top = bound - w
    counts = train_counts(rods, bound)
    holds = structure._boundary(rods, counts, w, top)
    candidates = []
    for b, a, alpha, mult_b in structure._window_targets(counts, bound, w):
        candidates += [(a, b, alpha, mult_b), (a, b, alpha + nudge[0], mult_b)]
        candidates.append((a, b, alpha, mult_b + nudge[1]))
    candidates += [(a, b, alpha, mult_b) for a, b, alpha, mult_b in extra if a < b <= bound]
    candidates += _near_hits(rods, counts, bound)
    for a, b, alpha, mult_b in candidates:
        if not (alpha and mult_b):
            continue
        # The Q the counts define: D(n) = F(n) - alpha*F(n - a) for 1 <= n <= b - w.
        q = RodSet.from_mults(
            {n: counts[n] - alpha * (counts[n - a] if n >= a else 0) for n in range(1, b - w + 1)}
        )
        shape = RodSet(((a, alpha), (b, mult_b)))
        assert holds(a, b, alpha, mult_b) == expansion._identity_holds(rods, q, shape, 64), (
            f"the boundary check and the dict witness disagree on {rods} -> {q} -> {shape}"
        )
    for index in range(top + 1):
        broken = list(counts)
        broken[index] += bump
        with pytest.raises(StructureError, match="this is a bug"):
            structure._check_counts(rods, broken, top)


def test_scan_and_period_build_no_expansion_record(monkeypatch):
    rods, chain = parse_rodset("[2,3]"), parse_rodset("[1,-2]")
    hits, report = scan_two_expansions(rods, 40), detect_period(chain)
    assert hits and report.periodic, "both calls must reach the witness"

    def refuse(*args, **kwargs):
        raise RuntimeError("an Expansion record was built")

    with monkeypatch.context() as patched:
        patched.setattr(expansion, "Expansion", refuse)
        assert scan_two_expansions(rods, 40) == hits
        assert detect_period(chain) == report
        with pytest.raises(RuntimeError, match="record was built"):
            expand(rods, chain)
    assert isinstance(expand(rods, chain), Expansion)
    assert isinstance(solve_Q(rods, expand(rods, chain).s), Expansion)


@PROPERTY
@given(
    st.dictionaries(
        st.integers(1, 8), st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=2, max_size=4
    ).map(RodSet.from_mults),
    st.integers(2, 40),
)
def test_scan_two_equals_the_pairwise_oracle(pairwise_scan, rods, bound):
    _assert_scan_two_is_pairwise(pairwise_scan, rods, bound)


def _assert_scan_two_is_pairwise(pairwise_scan, rods, bound):
    for include_trivial in (False, True):
        hits = scan_two_expansions(rods, bound, include_trivial=include_trivial)
        got = [(h.a, h.b, h.alpha, h.mult_b, h.s, h.q) for h in hits]
        assert got == pairwise_scan(rods, bound, include_trivial), (
            f"window classes and the pairwise window test disagree for {rods} "
            f"(include_trivial={include_trivial})"
        )


# The Lucas parameters the structure-scan benchmark draws its {1, 2} sets from.
BENCH_LUCAS = [(1, 1), (1, 2), (2, 1), (3, 1), (1, 3), (3, 2), (2, 3), (4, 1), (1, 4), (4, 3)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("s, t", BENCH_LUCAS)
def test_scan_two_on_lucas_sets_equals_the_pairwise_oracle(pairwise_scan, s, t, sign):
    # max R = 2: each window is the single entry F(n - 1), its sign is the class.
    _assert_scan_two_is_pairwise(pairwise_scan, RodSet(((1, sign * s), (2, t))), 50)


def test_scan_two_large_bound_keeps_the_padovan_hits():
    rods = parse_rodset("[2,3]")
    hits = scan_two_expansions(rods, 6000)
    assert len(hits) == 6 and hits == scan_two_expansions(rods, 16), (
        "[2,3] has no two-rod hit with b past 16"
    )


def test_scan_two_antirod_target():
    hits = scan_two_expansions(parse_rodset("[1,-4]"), 13)
    got = [(h.a, h.b, h.alpha, h.mult_a, h.mult_b, str(h.s), str(h.q)) for h in hits]
    assert got == [(6, 13, -3, -3, -1, "[-6^3,-13]", "[1,2,3,-5,6,9]")]


def test_scan_two_validation():
    with pytest.raises(StructureError, match="nonempty"):
        scan_two_expansions(RodSet(), 5)
    with pytest.raises(StructureError, match="max R >= 2"):
        scan_two_expansions(parse_rodset("[1^2]"), 8)
    with pytest.raises(StructureError, match="at least 2"):
        scan_two_expansions(parse_rodset("[1,2]"), 1)


def test_same_shape_different_expansions():
    # Two-rod images are unique per (a, b), but a shape can recur with
    # different multiplicities under different mediators.
    r = parse_rodset("[1,2^2]")
    assert expand(r, parse_rodset("[1,2]")).s == parse_rodset("[2^2,3^3,4^2]")
    assert expand(r, parse_rodset("[1,2^2]")).s == parse_rodset("[2,3^4,4^4]")


@pytest.mark.parametrize("s, t, sign", [(3, 2, 1), (1, 1, 1), (2, 3, -1), (3, 1, 1), (5, 4, -1)])
def test_lucas_check_passes(s, t, sign):
    report = lucas_check(s, t, sign, 120)
    assert report.passed, f"Lucas laws failed for ({s}, {t}, {sign}): {report.failure}"
    assert report.divisibility_check is True
    assert report.mod_check is (None if s == 1 else True)
    assert report.failure is None


def test_lucas_check_validation():
    with pytest.raises(StructureError, match="positive"):
        lucas_check(0, 1, 1, 50)
    with pytest.raises(StructureError, match="positive"):
        lucas_check(1, 0, 1, 50)
    with pytest.raises(StructureError, match="sign"):
        lucas_check(1, 1, 0, 50)
    with pytest.raises(StructureError, match="coprime"):
        lucas_check(2, 2, 1, 50)
    with pytest.raises(StructureError, match="horizon must be at least 1"):
        lucas_check(1, 1, 1, 0)


@PROPERTY
@given(
    s=st.integers(1, 7),
    t=st.integers(1, 7),
    sign=st.sampled_from((1, -1)),
    horizon=st.integers(1, 150),
)
def test_lucas_check_matches_the_pairwise_oracle(s, t, sign, horizon):
    assume(math.gcd(s, t) == 1)
    report = lucas_check(s, t, sign, horizon)
    got = (report.passed, report.mod_check, report.divisibility_check, report.failure)
    assert got == oracle_lucas_check(s, t, sign, horizon)


@pytest.mark.parametrize("s, t, sign", [(1, 1, 1), (3, 2, -1), (4, 3, 1)])
def test_lucas_divisibility_follows_from_the_window_at_every_multiple(s, t, sign):
    # The argument lucas_check rests on: L(d) | L(2d) makes S = [d^alpha, (2d)^beta]
    # a target with finite Q of degree <= 2d - 2, and L(kd) = L(d) * G((k-1)d)
    # for the counts G of S.  Checked to k = 8, four times lucas_check's horizon.
    horizon, k_max = 50, 8
    assert lucas_check(s, t, sign, horizon).passed
    rods = RodSet(((1, sign * s), (2, t)))
    f = _recurrence_counts(rods, k_max * horizon // 2)
    for d in range(1, horizon // 2 + 1):
        alpha, rest = divmod(f[2 * d - 1], f[d - 1])
        assert rest == 0, f"L({d}) does not divide L({2 * d})"
        shape = RodSet.from_mults({d: alpha, 2 * d: f[2 * d] - alpha * f[d]})
        found = solve_Q(rods, shape)
        assert found.q_finite is True, f"Q to {shape} is not finite"
        assert (found.q.max_length or 0) <= 2 * d - 2, f"Q to {shape} is too long"
        g = train_counts(shape, (k_max - 1) * d)
        assert not any(g[n] for n in range(len(g)) if n % d), "G is nonzero off multiples of d"
        for k in range(1, k_max + 1):
            assert f[k * d - 1] == f[d - 1] * g[(k - 1) * d], f"L({k * d}) != L({d}) G({k - 1}d)"


@pytest.mark.parametrize("horizon, failure", [
    (12, "L(6) does not divide L(12): 495 vs 1010296"),
    (11, None),  # L(12) is past the horizon
])
def test_lucas_check_reports_a_broken_divisibility(monkeypatch, horizon, failure):
    # L(12) = F(11) = 1010295 = 2041 * L(6) for [1^3, 2^2]; one more breaks
    # L(6) | L(12), the last window test at horizon 12.
    def l12_off_by_one(rods, n):
        counts = train_counts(rods, n)
        counts[11] += 1
        return counts

    monkeypatch.setattr(structure, "train_counts", l12_off_by_one)
    if failure is None:
        report = lucas_check(3, 2, 1, horizon)
        assert (report.passed, report.mod_check, report.divisibility_check) == (True, True, True)
        assert report.failure is None
    else:
        with pytest.raises(StructureError, match=re.escape(f"{failure}; this is a bug")):
            lucas_check(3, 2, 1, horizon)


def test_lucas_check_reports_a_zero_divisor(monkeypatch):
    # L(3) = F(2) = 11 for [1^3, 2^2]; set to 0, it divides no L(6) = 495, and the check
    # must raise the divisibility bug, not ZeroDivisionError.
    def l3_zero(rods, n):
        counts = train_counts(rods, n)
        counts[2] = 0
        return counts

    monkeypatch.setattr(structure, "train_counts", l3_zero)
    with pytest.raises(StructureError, match=re.escape("L(3) does not divide L(6): 0 vs 495; this is a bug")):
        lucas_check(3, 2, 1, 12)


@pytest.mark.parametrize("index, bump, n, f_n", [(1, 1, 1, 4), (0, 2, 2, 15)])
def test_lucas_check_reports_a_broken_mod_law(monkeypatch, index, bump, n, f_n):
    # F(1) = 3 + 1 is no longer 0 mod 3; with F(0) = 1 + 2, F(2) = 3*3 + 2*3 = 15 is.
    def one_count_off(rods, upto):
        counts = train_counts(rods, upto)
        counts[index] += bump
        return counts

    monkeypatch.setattr(structure, "train_counts", one_count_off)
    failure = f"s-divisibility broke at n={n}: F(n)={f_n}; this is a bug"
    with pytest.raises(StructureError, match=re.escape(failure)):
        lucas_check(3, 2, 1, 20)


def test_lucas_counts_regression():
    assert train_counts(parse_rodset("[1^3,2^2]"), 7) == [1, 3, 11, 39, 139, 495, 1763, 6279]


def test_lucas_adjacent_chain():
    hits = lucas_two_shapes(3, 2, 1, "adjacent", a_min=2, a_max=4)
    got = [(h.a, h.b, h.alpha, h.mult_a, h.mult_b, str(h.s)) for h in hits]
    assert got == [
        (2, 3, 11, 11, 6, "[2^11,3^6]"),
        (3, 4, 39, 39, 22, "[3^39,4^22]"),
        (4, 5, 139, 139, 78, "[4^139,5^78]"),
    ]
    assert str(hits[2].q) == "[1^3,2^11,3^39]", "the chain accumulates count-prefix rods"


def test_lucas_adjacent_chain_negative_sign():
    hits = lucas_two_shapes(2, 3, -1, "adjacent", a_min=2, a_max=3)
    got = [(h.mult_a, h.mult_b, str(h.s)) for h in hits]
    assert got == [(7, -6, "[2^7,-3^6]"), (-20, 21, "[-3^20,4^21]")]


def test_lucas_skip_shape():
    (hit,) = lucas_two_shapes(3, 2, 1, "skip", a=4)
    assert (hit.a, hit.b, hit.mult_a, hit.mult_b) == (4, 6, 165, -52)
    assert str(hit.s) == "[4^165,-6^52]"

    (hit,) = lucas_two_shapes(1, 1, 1, "skip", a=3)
    assert str(hit.s) == "[3^5,-5^2]"


def test_lucas_multiple_shape():
    hits = lucas_two_shapes(3, 2, 1, "multiple", d=4, k_max=2)
    assert [str(h.s) for h in hits] == ["[4^161,-8^16]", "[8^25905,-12^2576]"]
    assert [(h.a, h.b) for h in hits] == [(4, 8), (8, 12)]


def test_lucas_shapes_validation():
    with pytest.raises(StructureError, match="s = 1 or a even"):
        lucas_two_shapes(3, 2, 1, "skip", a=3)
    with pytest.raises(StructureError, match="a >= 2"):
        lucas_two_shapes(2, 1, 1, "skip", a=1)
    with pytest.raises(StructureError, match="k_max must be at least 1"):
        lucas_two_shapes(2, 1, 1, "multiple", d=3, k_max=0)
    with pytest.raises(StructureError, match="spacing d > 2"):
        lucas_two_shapes(3, 2, 1, "multiple", d=2)
    with pytest.raises(StructureError, match="needs a spacing"):
        lucas_two_shapes(3, 2, 1, "multiple")
    with pytest.raises(StructureError, match="needs the length"):
        lucas_two_shapes(3, 2, 1, "skip")
    with pytest.raises(StructureError, match="unknown kind"):
        lucas_two_shapes(3, 2, 1, "weird")
    with pytest.raises(StructureError, match="starts at a = 2"):
        lucas_two_shapes(3, 2, 1, "adjacent", a_min=1)
    with pytest.raises(StructureError, match="range is empty"):
        lucas_two_shapes(3, 2, 1, "adjacent", a_max=1)


def _shapes_or_error(s, t, sign, kind, kw):
    try:
        return lucas_two_shapes(s, t, sign, kind, **kw)
    except StructureError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "kind, kw",
    [("adjacent", {"a_max": 9})]
    + [("skip", {"a": a}) for a in range(1, 12)]
    + [("multiple", {"d": d, "k_max": 3}) for d in range(2, 9)],
)
def test_lucas_shapes_are_covariant_under_the_odd_sign_swap(kind, kw):
    # R = [1^(-s), 2^t] is the odd sign swap of [1^s, 2^t], whose counts are
    # (-1)^n times as large, so each hit carries over with S and Q swapped.
    for s in range(1, 7):
        for t in range(1, 7):
            if math.gcd(s, t) != 1:
                continue
            plus = _shapes_or_error(s, t, 1, kind, kw)
            minus = _shapes_or_error(s, t, -1, kind, kw)
            if isinstance(plus, tuple) or isinstance(minus, tuple):
                assert plus == minus, (s, t)
                continue
            assert [(h.a, h.b) for h in minus] == [(h.a, h.b) for h in plus], (s, t)
            for p, m in zip(plus, minus):
                assert (m.alpha, m.mult_b) == ((-1) ** p.a * p.alpha, (-1) ** p.b * p.mult_b)
                assert (m.s, m.q) == (odd_sign_swap(p.s), odd_sign_swap(p.q)), (s, t, p.a)


def test_lucas_shapes_refuse_a_predicted_alpha_the_window_denies():
    # With F(0) doubled, v_(a+1) = (F(a),) is no longer F(a) * v_1: the window
    # test must refuse the predicted alpha before any Q is built or witnessed.
    def doubled_start(rods, n):
        return [2] + train_counts(rods, n)[1:]

    with mock.patch.object(structure, "train_counts", doubled_start):
        with pytest.raises(StructureError, match="failed the scaling window"):
            lucas_two_shapes(3, 2, 1, "adjacent")


def _trinomial(sa: int, sb: int) -> list:
    pairs = sorted(((abs(sa), 1 if sa > 0 else -1), (abs(sb), 1 if sb > 0 else -1)))
    return char_poly(RodSet(tuple(pairs)))


def test_borwein_classify_small_bound():
    table = borwein_classify(12)
    assert table.bound == 12
    assert table.unclassified == ()
    assert set(table.classes) == {
        "(1,5) mod 6",
        "(1,-2) mod 6",
        "(-2,-4) mod 6",
        "(-4,5) mod 6",
        "(-1,-2) mod 3",
    }
    assert table.classes["(1,5) mod 6"] == ((1, 5), (5, 7), (1, 11), (7, 11))
    assert table.classes["(-2,-4) mod 6"] == ((-2, -4), (-4, -8), (-2, -10), (-8, -10))
    with pytest.raises(StructureError, match="at least 2"):
        borwein_classify(1)


def test_borwein_text_counts_each_class_and_the_unclassified(monkeypatch):
    assert str(borwein_classify(12)).splitlines()[0] == "(1,5) mod 6: 4 hits"
    table = structure.BorweinTable(12, {"(1,5) mod 6": ((1, 5),)})
    assert str(table) == "(1,5) mod 6: 1 hits"
    assert table.unclassified == () and table.to_json()["unclassified"] == []
    # A hit outside the theorem's classes is a bug: it raises, not an unclassified line.
    # Patch a copy: deleting and restoring the key in place would move it last and
    # reorder every later classification in the session.
    monkeypatch.setattr(
        structure,
        "_POS_CLASSES",
        {k: v for k, v in structure._POS_CLASSES.items() if k != ((1, 1), (5, 1))},
    )
    with pytest.raises(StructureError, match=r"\(1,5\) outside the classes; this is a bug"):
        borwein_classify(12)


def _signed_key(lengths, modulus: int) -> tuple:
    """Signed lengths as sorted (|length| mod modulus, sign), the way the class labels read."""
    return tuple(sorted((abs(x) % modulus, 1 if x > 0 else -1) for x in lengths))


def _fitting_pairs(key: tuple, modulus: int, bound: int) -> int:
    """How many signed pairs a < b <= bound have the signed residues key.

    The signs are fixed by the residues, so this counts a < b <= bound with
    (a, b) mod modulus matching key in either order.
    """
    return sum(
        len(range(ra or modulus, b, modulus))
        for (ra, _), (rb, _) in {key, key[::-1]}
        for b in range(rb or modulus, bound + 1, modulus)
    )


def test_borwein_labels_match_residues():
    for bound in (20, 300):
        table = borwein_classify(bound)
        for label, pairs in table.classes.items():
            residues, modulus = label.split(" mod ")
            modulus = int(modulus)
            want = Counter(int(r) % modulus for r in residues.strip("()").split(","))
            key = _signed_key(map(int, residues.strip("()").split(",")), modulus)
            for sa, sb in pairs:
                got = Counter((sa % modulus, sb % modulus))
                assert got == want, f"pair ({sa},{sb}) does not fit class {label}"
                assert _signed_key((sa, sb), modulus) == key, f"({sa},{sb}) is not {label}"
            # Complete: distinct fitting pairs, as many as fit the label.
            assert len(set(pairs)) == len(pairs) == _fitting_pairs(key, modulus, bound), (
                f"class {label} at bound {bound} misses or repeats pairs"
            )


def test_borwein_classes_list_pairs_by_b_then_a():
    for bound in range(2, 121):
        for label, pairs in borwein_classify(bound).classes.items():
            keys = [(abs(b), abs(a)) for a, b in pairs]
            assert all(x < y for x, y in zip(keys, keys[1:])), f"class {label} at bound {bound} is out of order"


def test_borwein_builds_no_q_and_runs_no_witness(monkeypatch):
    table = borwein_classify(40)

    def refuse(*args, **kwargs):
        raise RuntimeError("borwein_classify must read the window classes, not build hits")

    monkeypatch.setattr(expansion, "_identity_holds", refuse)
    monkeypatch.setattr(structure, "scan_two_expansions", refuse)
    assert borwein_classify(40) == table


def test_borwein_raises_when_residues_and_window_classes_disagree(monkeypatch):
    window_targets = structure._window_targets

    def one_unit_target_dropped(counts, bound, w):
        targets = list(window_targets(counts, bound, w))
        units = [t for t in targets if abs(t[2]) == abs(t[3]) == 1]
        targets.remove(units[len(units) // 2])
        return iter(targets)

    monkeypatch.setattr(structure, "_window_targets", one_unit_target_dropped)
    with pytest.raises(StructureError, match="disagree"):
        borwein_classify(40)


def test_borwein_raises_on_a_class_the_windows_never_fill(monkeypatch):
    # char([1,-2]) divides no 1 - x^a - x^b with a = 0, b = 3 mod 6, so a class
    # of them predicts pairs that no window target gives.
    monkeypatch.setitem(structure._POS_CLASSES, ((0, 1), (3, 1)), "(0,3) mod 6")
    with pytest.raises(StructureError, match="disagree"):
        borwein_classify(12)


def test_borwein_membership_is_exactly_divisibility():
    table = borwein_classify(14)
    mod6 = {pair for label, pairs in table.classes.items() if "mod 6" in label for pair in pairs}
    mod3 = set(table.classes["(-1,-2) mod 3"])
    phi6, phi3 = [1, -1, 1], [1, 1, 1]
    for b in range(2, 15):
        for a in range(1, b):
            for sa in (a, -a):
                for sb in (b, -b):
                    tri = _trinomial(sa, sb)
                    assert (poly_divexact(tri, phi6) is not None) == ((sa, sb) in mod6), (
                        f"mod-6 membership wrong for ({sa},{sb})"
                    )
                    assert (poly_divexact(tri, phi3) is not None) == ((sa, sb) in mod3), (
                        f"mod-3 membership wrong for ({sa},{sb})"
                    )
