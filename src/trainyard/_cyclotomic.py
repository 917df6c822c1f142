"""Cyclotomic polynomials, the orders a periodicity peel tries, and its certificates, imported on first use.

Phi_d is built as a Moebius product over the squarefree divisors of d;
the candidate orders of a periodicity test are listed, with their phi,
either by a walk over prime powers (every d with phi(d) <= max R) or by
Mann's theorem on vanishing sums of roots of unity (the divisors of
m_t * k over the sparse polynomial's degrees k), whichever counts fewer;
and a candidate d is decided exactly on the sparse terms, first by
Phi_d(+-1), which must divide the polynomial's values at +-1, then by
reducing the polynomial times prod over the primes p | d of
(x^(d/p) - 1) mod x^d - 1, which is zero exactly when Phi_d divides it.
Each order is factored, by trial division and Pollard's rho, when it is
first needed, once for its values at +-1 and those 2^omega(d) terms.
The peel's listing is charged, through a check it passes in, before it
runs, and each exact test charges its products through a check passed in.
A polynomial that is not +-self-reciprocal is not +-(a product of
cyclotomics), a test on its sparse terms; one that is, but is not
+-(a product of distinct cyclotomics), is certified so by Graeffe root
squaring, after Bradford & Davenport, "Effective tests for cyclotomic
polynomials", ISSAC '88.  Nothing here runs at import: the orders and
each order's values and terms are cached.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate

from . import series  # looked up at each call, so that wrappers installed on series see them


# The first twelve primes: the bases of _is_prime, and the trial divisors of _prime_divisors.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The least composite that passes _is_prime, 399165290221 * 798330580441 (3.2e23).
_PROOF_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _SMALL_PRIMES: a proof below _PROOF_BOUND; False is a proof at any size."""
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
    prime when _is_prime says so, a proof below _PROOF_BOUND: every n
    moebius_cyclotomic lets through is below 6.5e20, and every prime of
    an order the peel lists divides m_t or a degree cofactor that
    _mann_shapes let through.  One it rejects is composite and is split
    by _rho_factor, each part in turn.
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


def _unchecked(work: int, needs: str, *args) -> None:
    """The check peel_orders and cyclotomic_divides make when their caller passes none: nothing is refused."""


def _rho_units(n: int) -> int:
    """The units charged for splitting a composite n by rho: 2 a step, for about n^(1/4) steps.

    Its least prime q is at most sqrt(n), and the walk repeats modulo q
    after about sqrt(q) steps.  A step, three products and a gcd, costs
    about two units of the count pass.
    """
    return 2 * math.isqrt(math.isqrt(n))


def _mann_shapes(terms: list, check) -> tuple:
    """(shapes, rho): the factorization {p: e} of m_t * k for each nonzero degree k of the t terms.

    Trial division by _SMALL_PRIMES leaves a cofactor of each k.  One not
    below _PROOF_BOUND raises OverflowError, since _is_prime proves
    nothing there.  The composite ones are split by Pollard's rho, at
    _rho_units each, charged before any is split; ``rho`` is the most of
    them, which factoring an order may spend again when it holds two of a
    cofactor's primes (see _screen_units).
    """
    small = _primes_upto(len(terms))
    shapes, rests = [], []
    for k, _ in terms:
        if k:
            shape = dict.fromkeys(small, 1)
            for p in [p for p in _SMALL_PRIMES if k % p == 0]:
                while k % p == 0:
                    k //= p
                    shape[p] = shape.get(p, 0) + 1
            shapes.append(shape)
            if k > 1:
                if k >= _PROOF_BOUND:
                    raise OverflowError(f"a char degree leaves the cofactor {k}, past where primality is proved")
                rests.append((shape, k))
    if not rests:
        return shapes, 0
    composite = [k for _, k in rests if not _is_prime(k)]
    units = list(map(_rho_units, composite))
    check(sum(units), "factoring the char's degrees needs 2 * n^(1/4) units over {} composite cofactors n",
          len(composite))
    for shape, k in rests:
        for p in _prime_divisors(k) if k in composite else (k,):
            while k % p == 0:
                k //= p
                shape[p] = shape.get(p, 0) + 1
    return shapes, max(units, default=0)


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


def _screen_units(top: int, rho: int) -> int:
    """The units charged for each order listed for a char of degree top: factoring it.

    An order is factored once (see _order) by trial division and a
    Miller-Rabin test of the cofactor left, a dozen pow calls on numbers
    of b bits, so b^2 // 2 units, and ``rho`` units when the cofactor is
    split (see _mann_shapes), as an order may hold two of a degree's
    cofactor primes.  Its values at +-1 then cost a few operations.  b is
    the bits of 16 * top: every order listed has phi(d) <= top, and
    d / phi(d) stays below 16 far past any order a list could hold.
    """
    b = top.bit_length() + 4
    return (b * b >> 1) + rho


def peel_orders(terms: list, top: int, check=_unchecked) -> tuple:
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

    ``check(work, needs, *args)`` is called before each step that could
    run long, and refuses it by raising: the factoring (see _mann_shapes),
    and the factoring of the orders listed, at _screen_units each: the
    walk's as _walk_unless_longer says, Mann's for its
    sum_j tau(m_t * k_j) divisors before they are listed.
    """
    t = len(terms)
    floor = (t - 1) << len(_primes_upto(t))
    if floor > top:
        walk = _walk_unless_longer(check, top, floor)
        if walk is not None:
            return walk
    shapes, rho = _mann_shapes(terms, check)
    count = sum(math.prod(e + 1 for e in shape.values()) for shape in shapes)
    if count > top + 1:
        walk = _walk_unless_longer(check, top, count)
        if walk is not None:
            return walk
    units = _screen_units(top, rho)
    check(count * units, "screening Mann's orders needs {} divisors x {} units to factor each", count, units)
    found: dict = {}
    for shape in shapes:
        _add_divisors(shape, top, found)
    return tuple(sorted(found.items()))


def _walk_unless_longer(check, top: int, rival: int) -> tuple | None:
    """cyclotomic_orders(top), or None when it lists more than ``rival`` > top orders.

    Its orders are charged twice: for top + 1 orders before it is built,
    the fewest that either list can hold, and for all it lists, at most
    about twice that, before it is returned.
    """
    units = _screen_units(top, 0)
    needs = "screening the orders of degree <= max R needs {} orders x {} units to factor each"
    check((top + 1) * units, needs, top + 1, units)
    walk = cyclotomic_orders(top)
    if rival < len(walk):
        return None
    check(len(walk) * units, needs, len(walk), units)
    return walk


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


def cyclotomic_ends(d: int, primes=None) -> tuple:
    """(Phi_d(1), Phi_d(-1)) for d >= 1, read off the distinct primes dividing d.

    Phi_1 = x - 1 and Phi_2 = x + 1 give (0, -2) and (2, 0).  For d >= 2,
    Phi_d(1) is p when d = p^k and 1 otherwise.  For odd d >= 3,
    Phi_d(-1) = Phi_2d(1) = 1; for even d >= 4 it is Phi_(d/2)(1), as
    Phi_d(x) = Phi_(d/2)(-x) when d = 2 (mod 4) and Phi_(d/2)(x^2) when
    4 | d: so p when d = 2p^k with p odd, 2 when d = 2^k with k >= 2, and
    1 otherwise.  ``primes`` are found when not given.
    """
    if d <= 2:
        return ((0, -2), (2, 0))[d - 1]
    if primes is None:
        primes = _prime_divisors(d)
    at_one = primes[0] if len(primes) == 1 else 1
    if d % 2:
        return at_one, 1
    half = primes if d % 4 == 0 else primes[1:]  # the primes of d/2
    return at_one, half[0] if len(half) == 1 else 1


@lru_cache(maxsize=4096)
def _order(d: int) -> tuple:
    """(Phi_d(1), Phi_d(-1), plus, minus) for an order d, from one factoring of d.

    plus and minus are the degrees, mod d, of the 2^omega(d) terms of
    g_d = prod over the primes p | d of (x^(d/p) - 1) with sign + and -.
    Building them is covered by the listing's charge: Mann's list charges
    for tau(m_t * k) >= 2^omega(d) divisors, and the walk for
    top + 1 > phi(d) >= 2^(omega(d) - 1) orders.
    """
    primes = _prime_divisors(d)
    plus, minus = [0], []
    for p in primes:
        step = d // p
        plus, minus = [(e + step) % d for e in plus] + minus, [(e + step) % d for e in minus] + plus
    return (*cyclotomic_ends(d, primes), tuple(plus), tuple(minus))


def cyclotomic_divides(terms, d: int, ends: tuple, charge=_unchecked) -> bool:
    """True exactly when Phi_d divides the polynomial f with these nonzero terms (k, c).

    ``ends`` is (f(1), f(-1)).  Phi_d | f in Z[x] makes Phi_d(a) divide
    f(a) for every integer a, so Phi_d is ruled out at once when
    Phi_d(1) or Phi_d(-1) (see cyclotomic_ends) does not divide f's value
    there, 0 dividing only 0.  Else ``charge(units, d)`` is called with
    the t * 2^omega(d) products still to add, and may refuse them by
    raising; then f * g_d is reduced mod x^d - 1, with
    g_d = prod over the primes p | d of (x^(d/p) - 1) (see _order): a
    d-th root of unity of order e < d has e | d/p for some p, so g_d
    vanishes there, and g_d does not vanish at a primitive d-th root.
    x^d - 1 has no repeated roots, so it divides f * g_d exactly when f
    vanishes at every primitive d-th root, that is, when Phi_d | f.
    """
    phi_d_one, phi_d_minus_one, plus, minus = _order(d)
    f_one, f_minus_one = ends
    if ((f_one % phi_d_one if phi_d_one else f_one)
            or (f_minus_one % phi_d_minus_one if phi_d_minus_one else f_minus_one)):
        return False
    charge(len(terms) * (len(plus) + len(minus)), d)
    acc: dict = {}
    for k, c in terms:
        for e in plus:
            e = (k + e) % d
            acc[e] = acc.get(e, 0) + c
        for e in minus:
            e = (k + e) % d
            acc[e] = acc.get(e, 0) - c
    return not any(acc.values())


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
