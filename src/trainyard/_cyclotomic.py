"""Cyclotomic polynomials, the orders a periodicity peel tries, and its certificates, imported on first use.

Phi_d is built as a Moebius product over the squarefree divisors of d;
the candidate orders of a periodicity test are listed, with their phi,
either by a walk over prime powers (every d with phi(d) <= max R) or by
Mann's theorem on vanishing sums of roots of unity (the divisors of
m_t * k over the sparse polynomial's degrees k), whichever counts fewer;
and a candidate d is screened by evaluating a sparse polynomial at a
root of unity of order exactly d modulo a prime.  Each order is
factored, by trial division and Pollard's rho, when it is first needed.
A polynomial that is not +-self-reciprocal is not +-(a product of
cyclotomics), a test on its sparse terms; one that is, but is not
+-(a product of distinct cyclotomics), is certified so by Graeffe root
squaring, after Bradford & Davenport, "Effective tests for cyclotomic
polynomials", ISSAC '88.  Nothing here runs at import: the orders, the
polynomials and the roots are cached.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate

from . import series  # looked up at each call, so that wrappers installed on series see them


# The first twelve primes: the bases of _is_prime, and the trial divisors of _prime_divisors.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _SMALL_PRIMES: a proof below 318665857834031151167461 (3.2e23).

    That is the least composite that passes, 399165290221 * 798330580441;
    False is a proof at any size.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A factor 1 < f < n of a composite n free of _SMALL_PRIMES, by Pollard's rho.

    The walk x -> x^2 + c (mod n) repeats modulo each prime factor q of n
    after about sqrt(q) steps, and Floyd's x_i = x_2i (mod q) then makes
    q divide gcd(x_i - x_2i, n).  A gcd of n means that the walk repeated
    modulo every factor at once; the next c starts a new walk.
    """
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
        c += 1


def _prime_divisors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending.

    _SMALL_PRIMES are taken out by trial division.  A cofactor left is
    prime when _is_prime says so, a proof for every n below 6.5e20 that
    moebius_cyclotomic lets through; one it rejects is composite and is
    split by _rho_factor, each part in turn.
    """
    primes = {p for p in _SMALL_PRIMES if n % p == 0}
    for p in primes:
        while n % p == 0:
            n //= p
    left = [n] if n > 1 else []
    while left:
        n = left.pop()
        if _is_prime(n):
            primes.add(n)
        else:
            f = _rho_factor(n)
            left += [f, n // f]
    return sorted(primes)


@lru_cache(maxsize=64)
def _primes_upto(n: int) -> tuple:
    """The primes p <= n, ascending."""
    return tuple(p for p in range(2, n + 1) if _is_prime(p))


@lru_cache(maxsize=64)
def cyclotomic_orders(top: int) -> tuple:
    """The pairs (d, phi(d)) with phi(d) <= top, d ascending: the Phi_d of degree <= top.

    phi is multiplicative with phi(p^k) = p^(k-1) * (p - 1), so these d
    are the products of powers of distinct primes p, each with
    p - 1 <= top, whose totients multiply to at most top.  A depth-first
    walk over the primes in ascending order lists them.  Every d <= top + 1
    has phi(d) <= top, so there are at least top + 1 of them.
    """
    primes = _primes_upto(top + 1)
    found = []

    def walk(start: int, d: int, phi: int) -> None:
        found.append((d, phi))
        for i in range(start, len(primes)):
            p = primes[i]
            power, t = p, phi * (p - 1)
            if t > top:
                break  # and phi * (q - 1) > top for every larger prime q
            while t <= top:
                walk(i + 1, d * power, t)
                power, t = power * p, t * p

    walk(0, 1, 1)
    return tuple(sorted(found))


def _mann_shapes(terms: list) -> list:
    """The factorization {p: e} of m_t * k for each nonzero degree k of the t terms (see peel_orders)."""
    small = _primes_upto(len(terms))
    shapes = []
    for k, _ in terms:
        if k:
            shape = dict.fromkeys(small, 1)
            for p in _prime_divisors(k):
                while k % p == 0:
                    k //= p
                    shape[p] = shape.get(p, 0) + 1
            shapes.append(shape)
    return shapes


def _add_divisors(shape: dict, top: int, found: dict) -> None:
    """Enter each divisor d of prod p^e over shape with phi(d) <= top into found, as d: phi(d).

    A prime power multiplies phi by at least 1, so a divisor past top is
    extended no further.
    """
    divisors = [(1, 1)]
    for p, e in shape.items():
        more = []
        for d, phi in divisors:
            power, t = p, phi * (p - 1)
            for _ in range(e):
                if t > top:
                    break
                more.append((d * power, t))
                power, t = power * p, t * p
        divisors += more
    found.update(divisors)


def peel_orders(terms: list, top: int) -> tuple:
    """The orders (d, phi(d)) a periodicity peel tries, d ascending: the walk or Mann's list.

    ``terms`` are the t nonzero terms (k, c) of a polynomial f of degree
    ``top`` with constant term 1.  Mann, "On linear relations between
    roots of unity", Mathematika 12 (1965): in a vanishing sum of roots of
    unity with rational coefficients and no vanishing proper subsum, every
    ratio of two of its roots has order dividing m_t, the product of the
    primes <= t, t the number of terms.  If Phi_d divides f, f(zeta) = 0 at
    a primitive d-th root zeta, and the terms merged by value zeta^k split
    into such sums.  The constant term's value 1 either cancels against a
    term with zeta^k_j = 1, or shares a minimal sum with a term k_j != 0
    whose zeta^k_j has order dividing m_t.  Either way d divides m_t * k_j.
    So the divisors of m_t * k_j over the nonzero degrees, cut at
    phi(d) <= top, hold every order the walk (cyclotomic_orders) would
    find a factor at, and the peel finds the same factors in the same
    order on either list.

    The list that is cheaper to list is chosen from counts, building
    neither first: the walk lists len(cyclotomic_orders(top)) >= top + 1
    orders, and Mann's list generates sum_j tau(m_t * k_j) divisors before
    the cut, at least (t - 1) * 2^pi(t).  The degrees are factored only
    when that floor is below the walk's length, and the walk is built
    only when their count passes top + 1.  Dense polynomials, whose m_t
    is a large primorial, keep the walk.
    """
    t = len(terms)
    floor = (t - 1) << len(_primes_upto(t))
    if floor > top and floor >= len(cyclotomic_orders(top)):
        return cyclotomic_orders(top)
    shapes = _mann_shapes(terms)
    count = sum(math.prod(e + 1 for e in shape.values()) for shape in shapes)
    if count > top + 1 and count >= len(cyclotomic_orders(top)):
        return cyclotomic_orders(top)
    found: dict = {}
    for shape in shapes:
        _add_divisors(shape, top, found)
    return tuple(sorted(found.items()))


@lru_cache(maxsize=None)
def moebius_cyclotomic(d: int) -> tuple:
    """Phi_d (d >= 1) as an ascending coefficient tuple; see series.cyclotomic.

    A d with d // bit_length(d) past sys.maxsize raises OverflowError
    before it is factored: phi(d) >= d / (omega(d) + 1) >= d / bit_length(d),
    as the i-th prime is at least i + 1, so no list could hold Phi_d.
    Every d factored is therefore below 6.5e20.
    """
    if d == 1:
        return (-1, 1)  # x - 1
    if d // d.bit_length() > sys.maxsize:
        raise OverflowError(f"Phi_{d} has more coefficients than a list can hold")
    primes = _prime_divisors(d)
    deg = d // math.prod(primes) * math.prod(p - 1 for p in primes)
    # mu(s) is +1 on the squarefree divisors s with an even number of primes.
    even, odd = [1], []
    for p in primes:
        even, odd = even + [s * p for s in odd], odd + [s * p for s in even]
    out = [1] + [0] * deg
    # Multiply by the factors with mu = +1 first, then divide by the others:
    # times (1 - x^e) is a stride-e difference, over (1 - x^e) a stride-e prefix sum.
    for e in (d // s for s in even):
        if e <= deg:
            out[e:] = [a - b for a, b in zip(out[e:], out)]
    for e in (d // s for s in odd):
        if e <= deg:
            for r in range(e):
                out[r::e] = accumulate(out[r::e])
    return tuple(out)


# Screening primes start here, so that a root of unity modulo them stays a
# one-digit CPython int and a false survivor of the screen is rare.
_SCREEN_PRIME_FLOOR = 1 << 29


@lru_cache(maxsize=None)
def cyclotomic_root(d: int) -> tuple:
    """(ell, zeta): a prime ell = 1 (mod d) and zeta of multiplicative order exactly d mod ell.

    zeta is a root of Phi_d modulo ell, so a polynomial that Phi_d
    divides vanishes at zeta; a nonzero value there proves that Phi_d
    does not divide it.  ell is the least such prime above 2^29.
    """
    ell = ((_SCREEN_PRIME_FLOOR - 1) // d + 1) * d + 1
    while not _is_prime(ell):
        ell += d
    primes = _prime_divisors(d)
    for g in range(2, ell):
        zeta = pow(g, (ell - 1) // d, ell)
        if all(pow(zeta, d // q, ell) != 1 for q in primes):
            return ell, zeta
    raise series.SeriesError("the multiplicative group mod a prime is cyclic; this is a bug")


def cyclotomic_screen(terms, d: int) -> bool:
    """False when Phi_d provably does not divide the polynomial with these nonzero terms.

    The sparse terms are evaluated at the root of unity of
    :func:`cyclotomic_root`; a nonzero value mod ell rules Phi_d out.
    True only means that Phi_d may divide: exact division decides.
    """
    ell, zeta = cyclotomic_root(d)
    return sum(c * pow(zeta, k % d, ell) for k, c in terms) % ell == 0


def graeffe_step(f: list) -> list:
    """g with g(x^2) = f(x) * f(-x): the polynomial whose roots are the squares of f's.

    Writing f(x) = E(x^2) + x*O(x^2) gives g(y) = E(y)^2 - y*O(y)^2, so
    g keeps f's degree and its constant term is f(0)^2.
    """
    even, odd = f[0::2], f[1::2]
    g = series.poly_mul(even, even)
    g += [0] * (len(f) - len(g))
    for k, c in enumerate(series.poly_mul(odd, odd), 1):
        g[k] -= c
    return g


def self_reciprocal(terms: list) -> bool:
    """True when the polynomial with these ascending nonzero terms, constant term 1, is +-self-reciprocal.

    That is x^m * f(1/x) = eps * f(x) for its degree m: eps = c_m is +-1
    and c_(m-k) = eps * c_k for every k, a test in O(terms).  Phi_d is
    palindromic for d >= 2 and Phi_1 = x - 1 anti-palindromic, so every
    +-(product of cyclotomics), repeated factors or not, passes; a
    polynomial that fails is not one, an exact certificate.
    """
    m, eps = terms[-1]
    return eps in (1, -1) and [(m - k, eps * c) for k, c in reversed(terms)] == terms


def graeffe_certificate(char: list, residual: list, peeled) -> tuple:
    """(which, steps): the fact showing that char is not +-(distinct cyclotomics), or None.

    char has constant term 1, degree m and passes self_reciprocal, so its
    leading coefficient is +-1; residual is what is left of it after
    dividing out each Phi_d, d in ``peeled``, once.  Two facts certify the
    verdict, tried in this order:

    * "bound": a Graeffe iterate (see graeffe_step; each keeps degree m,
      constant term 1 and a unit leading coefficient) has a coefficient
      above C(m, floor(m/2)).  With every root on the unit circle no
      coefficient can pass that bound, so some root lies off it.
    * "repeat": an iterate equals its predecessor.  Then squaring maps
      the multiset of roots onto itself, so every root is a root of
      unity and char is +-(a product of cyclotomics); the residual is
      divided by each peeled Phi_d, and one that divides it again shows
      a repeated factor.

    One of them holds or the iterates reach a fixed point: a root off
    the unit circle makes the Mahler measure, and with it the
    coefficients, grow without bound, and a product of cyclotomics
    settles within max v_2(d) + 1 steps.  None is returned when the fixed
    point shows no repeated factor; a complete peel then leaves no
    residual, so a None over a nonempty residual means the peel missed
    an order.  Only "repeat" checks the peel, and it needs every root to
    be a root of unity, so a char that fails self_reciprocal loses no
    check by skipping this test.  ``steps`` counts the Graeffe steps taken.
    """
    m = len(char) - 1
    bound = math.comb(m, m // 2)
    f, steps = char, 0
    while max(f) <= bound and -min(f) <= bound:
        g = graeffe_step(f)
        steps += 1
        if g == f:
            repeated = any(
                series.poly_divexact(residual, moebius_cyclotomic(d)) is not None for d in peeled
            )
            return ("repeat" if repeated else None), steps
        f = g
    return "bound", steps
