"""Exact integer polynomials and truncated power series.

A polynomial is a plain Python list of ints in ascending degree order
with no trailing zeros; the zero polynomial is ``[]``.  Everything here
is exact: no floats and no residues.

The polynomial of interest for a rod set R is its characteristic
polynomial 1 - C(x, R), where C is the rod generating function
(coefficient of x^k = net multiplicity of length k).  Its reciprocal
power series enumerates net train counts, products of characteristic
polynomials witness expansions, and its cyclotomic factors decide
periodicity (the construction and the screen of those factors live in
``_cyclotomic``, imported on first use).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import index

from .rodset import RodSet, _add_products

Poly = list  # ascending int coefficients, no trailing zeros, zero = []


class SeriesError(ValueError):
    """Domain error raised by polynomial/series operations."""


def poly_trim(p: Poly) -> Poly:
    """Drop trailing zero coefficients (normalizes to the canonical form)."""
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Exact product of two polynomials, touching only nonzero terms of each."""
    return poly_trim(series_mul(p, q, len(p) + len(q) - 2)) if p and q else []


def poly_divexact(p: Poly, q: Poly) -> Poly | None:
    """Exact quotient p / q over the integers, or None when q does not divide p.

    One top-down long division in the integers over q's nonzero terms:
    each quotient coefficient is the leading remainder coefficient over
    q's leading coefficient, and q divides p exactly when every such
    step divides and the remainder below deg q comes out zero.
    """
    q = poly_trim(list(q))
    rem = poly_trim(list(p))
    if not q:
        raise SeriesError("division by the zero polynomial")
    if not rem:
        return []
    m = len(rem) - len(q)  # expected quotient degree
    if m < 0:
        return None
    top, lead = len(q) - 1, q[-1]
    lower = nonzero_terms(q[:-1])
    quo = [0] * (m + 1)
    for i in range(m, -1, -1):
        c, r = divmod(rem[i + top], lead)
        if r:
            return None
        if c:
            quo[i] = c
            for j, b in lower:
                rem[i + j] -= c * b
    return None if any(rem[:top]) else quo


def poly_text(p: Poly) -> str:
    """Human-readable ascending form, e.g. ``1 - x - x^2``; zero renders ``0``."""
    if not any(p):
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            x = "x" if i == 1 else f"x^{i}"
            term = x if mag == 1 else f"{mag}{x}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts)


def nonzero_terms(p: Poly) -> list:
    """The (degree, coefficient) pairs of p's nonzero coefficients, ascending."""
    return [(k, c) for k, c in enumerate(p) if c]


# Divisors of degree up to this are divided by pulling, longer ones by pushing.
# A pull visits every coefficient, zeros included, and a push only the
# nonzero ones.  A series whose divisor has degree d cannot vanish on d
# consecutive coefficients past deg num unless it is a polynomial (the
# recurrence would then give zeros forever), so at d <= 8 a pull makes at
# most 8 times the push's term visits.  Timed against the push on a 2-vCPU
# Xeon VM, Python 3.11: the counts of four rods of length <= 8 at n = 6,000
# pull 21% faster and 1/(1 + x + x^2 + x^3), half zeros, within 5%, both by
# _pull's loop (a long run through the compiled kernel is faster still).  A
# single term c*x^k with k >= 2 leaves k - 1 zeros in every k coefficients
# of 1/den, so it is pushed (pulled, 1/(1 - x^8) took twice as long).  Other
# short divisors still pull, and no cheap look at den finds the ones whose
# series is sparse enough to lose: 1/(1 - x^2 - x^4), half zeros, pulls 36%
# faster than it pushes, but 1/(1 - x + x^2 - ... + x^8) = (1 + x)/(1 + x^9),
# nonzero on 2 of every 9 coefficients, takes 1.3x to 1.6x the push's time at
# n = 20,000 through the kernel (2.4x to 2.9x through the loop).
PULL_DEGREE_LIMIT = 8

# A pull whose steady state (n >= deg den) runs at least this many terms goes
# through the divisor's compiled kernel (_kernel), a shorter one through
# _pull's loop.  Compiling costs 80 to 230 us, and on small values a kernel
# step saves 0.1 to 0.3 us, so the value is the length at which a first call,
# compile included, catches up with the loop on +-1-valued series: timed on a
# 2-vCPU Xeon VM, Python 3.11, for 1/(1 + x + x^2 + x^3), 1/Phi_5*Phi_8 and two
# other divisors of 4 to 8 terms, the two met between 512 and 1,000 terms.
# On growing counts a cached kernel is 1.7x to 1.9x the loop's speed, since
# rods of one |multiplicity| share their product.
KERNEL_MIN_TERMS = 768


def series_quotient(num_terms: list, den_terms: list, n_terms: int) -> list:
    """Coefficients 0..n_terms of the power series num / den, by the recurrence

        out[n] = (num[n] - sum over k >= 1 of d_k * out[n - k]) * d_0.

    ``num_terms`` and ``den_terms`` list the nonzero (degree, coefficient)
    pairs of num and den in ascending degree; num's terms past n_terms
    are ignored, and den starts with (0, +-1) so that the recurrence stays
    in the integers; every den coefficient must be an int.  The loop is
    chosen from den alone:

    * deg den <= PULL_DEGREE_LIMIT and den not 1 - c*x^k with k >= 2:
      each coefficient is pulled from the ones before it and stored
      once, (n_terms + 1) x (den terms) work (see :func:`_pull`).  The
      work list then starts with deg den zeros, so that no term reaches
      back past coefficient 0.
    * otherwise (a longer den or one such single term): each nonzero
      coefficient, once final, is pushed into the ones it feeds,
      (nonzero outputs) x (den terms) work.  The inversion of a whole
      count sequence has a long den and few nonzero outputs, most of
      them +-1.

    A term with coefficient +-1 on either side is added or subtracted
    without a product.
    """
    if n_terms < 0:
        raise SeriesError(f"series horizon must be >= 0, got {n_terms}")
    if not den_terms or den_terms[0][0] != 0 or den_terms[0][1] not in (1, -1):
        raise SeriesError("series division needs a divisor with constant term +1 or -1")
    for _, c in den_terms:  # this also keeps all but int literals out of a kernel's source
        if c.__class__ is not int:
            raise SeriesError(f"series division needs int divisor coefficients, got {c!r}")
    unit = den_terms[0][1]  # dividing by -den instead keeps the unit +1
    terms = den_terms[1:] if unit == 1 else [(k, -c) for k, c in den_terms[1:]]
    one_gapped_term = len(terms) == 1 and terms[0][0] > 1  # den = 1 - c*x^k, k >= 2
    pull = terms and terms[-1][0] <= PULL_DEGREE_LIMIT and not one_gapped_term
    pad = terms[-1][0] if pull else 0
    out = [0] * (pad + n_terms + 1)
    filled = pad
    for k, c in num_terms:
        if k > n_terms:
            break
        out[pad + k] = unit * c
        filled = pad + k + 1
    if pull:
        _pull(out, terms, filled)
        del out[:pad]
    elif terms:
        _push(out, terms)
    return out


def _pull(out: list, terms: list, filled: int) -> None:
    """out[n] -= sum of c * out[n - k] over the (k, c) terms, n from deg den up, in place.

    out starts with the deg den zeros that series_quotient puts before num,
    so no term reaches back past them, and out[filled:] starts at zero.
    When the steady state, the len(out) - 2 * deg den coefficients of the
    series past its first deg den, runs at least KERNEL_MIN_TERMS, the
    divisor's compiled kernel takes the whole pull, and otherwise a loop
    over the terms does.  A den whose terms are all +1 or all -1 needs no
    loop of its own: its long runs, such as the counts of [1] to 10^5,
    take the kernel.
    """
    top = terms[-1][0]
    if len(out) - 2 * top >= KERNEL_MIN_TERMS:
        _kernel(tuple(terms))(out, top, filled, len(out))
        return
    adds, subs, products = [], [], []
    for k, c in terms:
        if c == -1:
            adds.append(k)
        elif c == 1:
            subs.append(k)
        else:
            products.append((k, c))
    # Entering a loop over an empty list costs about as much as one term of a
    # short sum, so each list is tested first (without the tests solver-mix's
    # short series, n < 20, divide 8% slower).
    for n in range(top, len(out)):
        acc = out[n]
        if adds:
            for k in adds:
                acc += out[n - k]
        if subs:
            for k in subs:
                acc -= out[n - k]
        if products:
            for k, c in products:
                acc -= c * out[n - k]
        out[n] = acc


@lru_cache(maxsize=256)  # room for every long divisor of a counts-long lap (56)
def _kernel(terms: tuple):
    """A long run of :func:`_pull` for one divisor, compiled once.

    ``kernel(out, lo, mid, hi)`` adds the terms' sum into out[lo:mid]
    and stores it into out[mid:hi], where out starts at zero, so no step
    adds a bigint to 0.  See :func:`_kernel_source` for the sum.
    """
    namespace = {"__builtins__": {"range": range}}
    exec(_kernel_source(terms), namespace)
    return namespace["kernel"]


def _kernel_source(terms) -> str:
    """Source of :func:`_kernel`'s function: one expression, -sum of c * out[n - k].

    Rods of one magnitude |c| are summed and differenced first and then
    multiplied once, and +-1 rods form no product, as in
    ``out[n - 1] + 3 * (out[n - 7] - out[n - 2]) - 2 * (out[n - 4] + out[n - 5])``.
    The parts that add come first, so the sum starts with a negation only
    when no part adds.  Every number in the source is an int literal made
    by operator.index: decimal, or hex past 64 bits, which str() could
    refuse at its digit limit.
    """
    groups: dict = {}
    for k, c in terms:
        groups.setdefault(index(abs(c)), ([], []))[c > 0].append(f"out[n - {index(k)}]")
    adding, subtracting = groups.pop(1, ([], []))  # then the products, magnitudes ascending
    for mag, (adds, subs) in sorted(groups.items()):
        rods = " - ".join([" + ".join(adds)] + subs) if adds else " + ".join(subs)
        literal = mag if mag.bit_length() <= 64 else hex(mag)
        (adding if adds else subtracting).append(f"{literal} * ({rods})")
    expr = " - ".join([" + ".join(adding) if adding else "-" + subtracting.pop(0)] + subtracting)
    return (
        "def kernel(out, lo, mid, hi):\n"
        "    for n in range(lo, mid):\n"
        f"        out[n] += {expr}\n"
        "    for n in range(mid, hi):\n"
        f"        out[n] = {expr}\n"
    )


def _push(out: list, terms: list) -> None:
    """For n ascending, subtract c * out[n] from out[n + k] over the (k, c) terms, in place."""
    last = len(out) - 1
    top = terms[-1][0]
    degrees = [k for k, _ in terms]
    for n in range(last + 1):
        v = out[n]
        if not v:
            continue
        reach = terms if n + top <= last else terms[:bisect_right(degrees, last - n)]
        if v == 1:
            for k, c in reach:
                out[n + k] -= c
        elif v == -1:
            for k, c in reach:
                out[n + k] += c
        else:
            for k, c in reach:
                out[n + k] -= c * v


def series_inverse(p: Poly, n_terms: int) -> list:
    """Coefficients 0..n_terms of the reciprocal power series 1/p.

    Requires constant term +1 or -1 (the only invertible constants over
    the integers).
    """
    return series_quotient(((0, 1),), nonzero_terms(p), n_terms)


def series_mul(p: Poly, q: Poly, n_terms: int) -> list:
    """Coefficients 0..n_terms of the product p*q, over nonzero terms of each.

    A square (q is p) forms each square once and each cross product once,
    doubled: L(L + 1)/2 products for L nonzero terms instead of L^2.
    """
    out = [0] * (n_terms + 1)
    q_terms = nonzero_terms(q[:n_terms + 1])
    if q is p:
        for i, (k, a) in enumerate(q_terms):
            if 2 * k > n_terms:
                break
            out[2 * k] += a * a
            twice = a + a
            for j, b in q_terms[i + 1:]:
                if k + j > n_terms:
                    break
                out[k + j] += twice * b
        return out
    for i, a in enumerate(p[:n_terms + 1]):
        if a:
            for j, b in q_terms:
                if i + j > n_terms:
                    break
                out[i + j] += a * b
    return out


def sparse_add(p_terms, q_terms) -> list:
    """Sum of two nonzero-term lists as a nonzero-term list in ascending degree."""
    if not p_terms or not q_terms or p_terms[-1][0] < q_terms[0][0]:
        return [*p_terms, *q_terms]  # the degree ranges do not overlap
    out = dict(p_terms)
    for k, c in q_terms:
        out[k] = out.get(k, 0) + c
    return sorted((k, c) for k, c in out.items() if c)


def sparse_mul(p_terms, q_terms) -> dict:
    """Product of two nonzero-term lists as a {degree: coeff} map, never densified.

    It is the rod-set algebra's product pass (rodset._add_products) with
    the zero coefficients dropped.  It forms the solvers' mediator N/D and
    the witness's cross products when an input is a rational source; the
    all-finite witness is a pass of its own (expansion._identity_holds).
    """
    return {k: c for k, c in _add_products({}, q_terms, p_terms).items() if c}


def char_poly(rods: RodSet) -> Poly:
    """Characteristic polynomial 1 - C(x, R) of a finite rod set."""
    top = rods.max_length
    out = [0] * ((top or 0) + 1)
    out[0] = 1
    for k, m in rods.pairs:
        out[k] = -m
    return poly_trim(out)


def char_terms(rods: RodSet) -> list:
    """The nonzero (degree, coefficient) terms of char_poly(rods), built without densifying."""
    return [(0, 1)] + [(k, -m) for k, m in rods.pairs]


def rodset_from_char_poly(p: Poly) -> RodSet:
    """Inverse of :func:`char_poly`: the rod set whose characteristic polynomial is p."""
    if not p or p[0] != 1:
        raise SeriesError("a characteristic polynomial has constant term 1")
    return RodSet.from_mults({k: -c for k, c in enumerate(p) if k >= 1 and c != 0})


def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial, ascending coefficients.

    Built as the Moebius product Phi_d = prod over e | d of
    (1 - x^e)^mu(d/e) (for d > 1), cut at degree phi(d): only the
    squarefree d/e count, and each factor is one stride-e pass over
    phi(d) + 1 coefficients.  Memoized, so a scan over many d is cheap.
    """
    if d < 1:
        raise SeriesError("cyclotomic index must be >= 1")
    from ._cyclotomic import moebius_cyclotomic  # built on first use, not at import

    return list(moebius_cyclotomic(d))
