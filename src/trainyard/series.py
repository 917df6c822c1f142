"""Exact integer polynomials and truncated power series.

A polynomial is a plain Python list of ints in ascending degree order
with no trailing zeros; the zero polynomial is ``[]``.  Everything here
is exact: no floats; the modulus :func:`series_quotient` takes is for
residue scans that confirm every match with exact integers.

The polynomial of interest for a rod set R is its characteristic
polynomial 1 - C(x, R), where C is the rod generating function
(coefficient of x^k = net multiplicity of length k).  Its reciprocal
power series enumerates net train counts, products of characteristic
polynomials witness expansions, and its cyclotomic factors decide
periodicity.
"""

from __future__ import annotations

from functools import lru_cache

from .rodset import RodSet

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


def series_quotient(num: Poly, den_terms: list, n_terms: int, modulus: int | None = None) -> list:
    """Coefficients 0..n_terms of the power series num / den, by the recurrence

        out[n] = (num[n] - sum over k >= 1 of d_k * out[n - k]) * d_0.

    ``den_terms`` lists den's nonzero (degree, coefficient) pairs in
    ascending degree, starting with (0, +-1) so that the recurrence stays
    in the integers.  Each nonzero coefficient, once final, is pushed into
    the ones it feeds, so the work is (nonzero outputs) x (divisor terms).
    With ``modulus`` every coefficient is reduced into [0, modulus).
    """
    if not den_terms or den_terms[0][0] != 0 or den_terms[0][1] not in (1, -1):
        raise SeriesError("series division needs a divisor with constant term +1 or -1")
    if den_terms[0][1] == 1:
        terms = den_terms[1:]
        out = list(num[:n_terms + 1])
    else:  # dividing by -den instead keeps the unit +1
        terms = [(k, -c) for k, c in den_terms[1:]]
        out = [-c for c in num[:n_terms + 1]]
    out += [0] * (n_terms + 1 - len(out))
    for n in range(n_terms + 1):
        v = out[n]
        if modulus:
            v = out[n] = v % modulus
        if v:
            for k, c in terms:
                j = n + k
                if j > n_terms:
                    break
                out[j] -= c * v
    return out


def series_inverse(p: Poly, n_terms: int) -> list:
    """Coefficients 0..n_terms of the reciprocal power series 1/p.

    Requires constant term +1 or -1 (the only invertible constants over
    the integers).
    """
    return series_quotient([1], nonzero_terms(p), n_terms)


def series_mul(p: Poly, q: Poly, n_terms: int) -> list:
    """Coefficients 0..n_terms of the product p*q, over nonzero terms of each."""
    out = [0] * (n_terms + 1)
    q_terms = nonzero_terms(q[:n_terms + 1])
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
    """Product of two nonzero-term lists as a {degree: coeff} map, never densified."""
    out: dict = {}
    for i, a in p_terms:
        for j, b in q_terms:
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: c for k, c in out.items() if c}


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


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple:
    if d == 1:
        return (-1, 1)  # x - 1
    num = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    quo = num
    for e in range(1, d):
        if d % e == 0:
            quo = poly_divexact(quo, list(_cyclotomic(e)))
            assert quo is not None, "cyclotomic recursion must divide exactly"
    return tuple(quo)


def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial, ascending coefficients.

    Computed by peeling: x^d - 1 divided by the cyclotomic polynomials
    of all proper divisors of d.  Memoized, so a scan over many d is
    cheap.
    """
    if d < 1:
        raise SeriesError("cyclotomic index must be >= 1")
    return list(_cyclotomic(d))


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise SeriesError("totient argument must be >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result
