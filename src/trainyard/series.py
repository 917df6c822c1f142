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
from itertools import islice

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
# most 8 times the push's term visits, and the compiled kernel makes each
# visit cheaper than the push's.  The one input known to lose is a series
# far sparser than that: 1/(1 - x + x^2 - ... + x^8) = (1 + x)/(1 + x^9),
# nonzero on 2 of every 9 coefficients, pulls in 1.3x to 1.6x the push's
# time at n = 20,000, and no cheap look at den finds such a divisor.
PULL_DEGREE_LIMIT = 8


def series_quotient(num_terms: list, den_terms: list, n_terms: int) -> list:
    """Coefficients 0..n_terms of the power series num / den, by the recurrence

        out[n] = (num[n] - sum over k >= 1 of d_k * out[n - k]) * d_0.

    ``num_terms`` and ``den_terms`` list the nonzero (degree, coefficient)
    pairs of num and den in ascending degree; num's terms past n_terms
    are ignored, and den starts with (0, +-1) so that the recurrence stays
    in the integers; every den coefficient must be an int.  The loop is
    chosen from den and the horizon:

    * 1 <= deg den <= PULL_DEGREE_LIMIT and n_terms >= 2 * deg den:
      each coefficient is pulled from the ones before it and stored
      once, (n_terms + 1) x (den terms) work, by a kernel compiled once
      per divisor shape (see :func:`_pull`).  The work list then starts
      with deg den zeros, so that no term reaches back past
      coefficient 0.
    * otherwise (a longer den, or a run shorter than twice deg den,
      which the push takes with no kernel to compile): each nonzero
      coefficient, once final, is pushed into the ones it feeds,
      (nonzero outputs) x (den terms) work, and no further than the
      horizon.  The inversion of a whole count sequence has a long den
      and few nonzero outputs, most of them +-1.

    A term with coefficient +-1 on either side is added or subtracted
    without a product.
    """
    if n_terms < 0:
        raise SeriesError(f"series horizon must be >= 0, got {n_terms}")
    if not den_terms or den_terms[0][0] != 0 or den_terms[0][1] not in (1, -1):
        raise SeriesError("series division needs a divisor with constant term +1 or -1")
    for _, c in den_terms:
        if c.__class__ is not int:
            raise SeriesError(f"series division needs int divisor coefficients, got {c!r}")
    unit = den_terms[0][1]  # dividing by -den instead keeps the unit +1
    terms = den_terms[1:] if unit == 1 else [(k, -c) for k, c in den_terms[1:]]
    top = terms[-1][0] if terms else 0
    pull = terms and top <= PULL_DEGREE_LIMIT and 2 * top <= n_terms
    pad = top if pull else 0
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
    The terms are sorted into the divisor's shape: the number of -1 terms
    and of +1 terms, then for each other |c|, ascending, the number of
    terms that add (c < 0) and that subtract (c > 0).  The shape's
    compiled kernel takes the degrees in that order and the magnitudes
    as arguments, so divisors of one shape, such as every four-rod set
    of +1 multiplicities, share one kernel.
    """
    adds, subs, groups = [], [], {}
    for k, c in terms:
        if c == -1:
            adds.append(k)
        elif c == 1:
            subs.append(k)
        else:
            groups.setdefault(abs(c), ([], []))[c > 0].append(k)
    shape = [len(adds), len(subs)]
    degrees = adds + subs
    magnitudes = sorted(groups)
    for m in magnitudes:
        group_adds, group_subs = groups[m]
        shape += len(group_adds), len(group_subs)
        degrees += group_adds + group_subs
    _kernel(tuple(shape))(out, terms[-1][0], filled, len(out), *degrees, *magnitudes)


# One lap of each of the benchmark's three library workloads compiles 118 shapes.
@lru_cache(maxsize=256)
def _kernel(shape: tuple):
    """The pull of :func:`_pull` for one divisor shape, compiled once.

    ``kernel(out, lo, mid, hi, k0, k1, ..., m1, ...)`` adds the terms'
    sum into out[lo:mid] and stores it into out[mid:hi], where out
    starts at zero, so no step adds a bigint to 0.  The first pull of a
    new shape in a process pays for its compile, 0.12 to 0.3 ms, and
    keeps about 2 KB.  See :func:`_kernel_source` for the sum.
    """
    namespace = {"__builtins__": {"range": range}}
    exec(_kernel_source(shape), namespace)
    return namespace["kernel"]


def _kernel_source(shape: tuple) -> str:
    """Source of :func:`_kernel`'s function: one expression, -sum of c * out[n - k].

    Degree i is the argument k<i> and the j-th magnitude past 1 is m<j>,
    so the source holds no number.  Rods of one magnitude are summed and
    differenced first and then multiplied once, and +-1 rods form no
    product: the terms ((1, -1), (2, 3), (3, 1), (4, 2), (5, 2), (7, -3))
    have shape (1, 1, 0, 2, 1, 1) and the sum
    ``out[n - k0] + m2 * (out[n - k4] - out[n - k5]) - out[n - k1] - m1 * (out[n - k2] + out[n - k3])``.
    The parts that add come first, so the sum starts with a negation only
    when no part adds.
    """
    rods = iter([f"out[n - k{i}]" for i in range(sum(shape))])
    adding, subtracting, *parts = [list(islice(rods, size)) for size in shape]
    magnitudes = [f"m{j}" for j in range(1, len(shape) // 2)]
    for m, adds, subs in zip(magnitudes, parts[::2], parts[1::2]):
        group = " - ".join([" + ".join(adds)] + subs) if adds else " + ".join(subs)
        (adding if adds else subtracting).append(f"{m} * ({group})")
    expr = " - ".join([" + ".join(adding) if adding else "-" + subtracting.pop(0)] + subtracting)
    params = ["out", "lo", "mid", "hi"] + [f"k{i}" for i in range(sum(shape))] + magnitudes
    return (
        f"def kernel({', '.join(params)}):\n"
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


def sparse_mul(p_terms, q_terms) -> list:
    """Product of two nonzero-term lists as a nonzero-term list in ascending degree.

    It is the rod-set algebra's product pass (rodset._add_products) with
    the zero coefficients dropped, never densified.  It forms the
    solvers' mediator N/D and the witness's cross products when an input
    is a rational source; the all-finite witness is a pass of its own
    (expansion._identity_holds).

    A factor that is the unit polynomial, the one term (0, 1), costs
    nothing: the other factor's terms are already the product, and come
    back as a new list with no dict built and no sort.  That is every
    D = 1 of a finite set or a prefix: the mediator of two finite sets
    forms no product at all.
    """
    if len(q_terms) == 1 and q_terms[0] == (0, 1):
        return list(p_terms)
    if len(p_terms) == 1 and p_terms[0] == (0, 1):
        return list(q_terms)
    return sorted(item for item in _add_products({}, q_terms, p_terms).items() if item[1])


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
        raise SeriesError("cyclotomic order must be at least 1")
    from ._cyclotomic import moebius_cyclotomic  # built on first use, not at import

    return list(moebius_cyclotomic(d))
