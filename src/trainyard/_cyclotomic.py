"""Cyclotomic polynomials and their modular screen, imported on first use.

Phi_d is built as a Moebius product over one sieve of smallest prime
factors, phi and mu; the candidate orders of a periodicity test come
from the same sieve; and a candidate d is screened by evaluating a
sparse polynomial at a root of unity of order exactly d modulo a prime.
On cyclotomic factors of integer polynomials see Bradford & Davenport,
"Effective tests for cyclotomic polynomials", ISSAC '88.  Nothing here
runs at import: the sieve grows when an order first needs it, and the
roots are cached per order.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import accumulate

# The sieve is built on first use and grown by doubling: (spf, phi, mu) hold
# the smallest prime factor, Euler's totient and the Moebius function of 0..n.
_sieve_tables: tuple = (array("i", [0, 1]), array("i", [0, 1]), array("b", [0, 1]))


def _sieve(n: int) -> tuple:
    """Smallest prime factor, totient and Moebius tables covering 0..n (index 0 unused)."""
    global _sieve_tables
    if len(_sieve_tables[0]) > n:
        return _sieve_tables
    size = max(n, 2 * (len(_sieve_tables[0]) - 1))
    spf = array("i", bytes(4 * (size + 1)))
    for p in range(2, size + 1):
        if not spf[p]:
            spf[p] = p
            for m in range(p * p, size + 1, p):
                if not spf[m]:
                    spf[m] = p
    phi = array("i", bytes(4 * (size + 1)))
    mu = array("b", bytes(size + 1))
    phi[1] = mu[1] = 1
    for m in range(2, size + 1):
        p = spf[m]
        k = m // p
        if k % p:
            phi[m] = phi[k] * (p - 1)
            mu[m] = -mu[k]
        else:
            phi[m] = phi[k] * p
    _sieve_tables = (spf, phi, mu)
    return _sieve_tables


def _prime_divisors(n: int, spf) -> list:
    """The distinct primes dividing n, ascending, read off a smallest-prime-factor table."""
    primes = []
    while n > 1:
        p = spf[n]
        primes.append(p)
        while n % p == 0:
            n //= p
    return primes


@lru_cache(maxsize=64)
def cyclotomic_orders(top: int) -> tuple:
    """The pairs (d, phi(d)) with phi(d) <= top, d ascending: the Phi_d of degree <= top.

    phi(d) >= sqrt(d/2) for every d, so their orders all lie below 2 * top^2.
    """
    phi = _sieve(2 * top * top)[1]
    return tuple((d, phi[d]) for d in range(1, 2 * top * top + 1) if phi[d] <= top)


@lru_cache(maxsize=None)
def moebius_cyclotomic(d: int) -> tuple:
    """Phi_d (d >= 1) as an ascending coefficient tuple; see series.cyclotomic."""
    if d == 1:
        return (-1, 1)  # x - 1
    spf, phi, mu = _sieve(d)
    deg = phi[d]
    squarefree = [1]
    for p in _prime_divisors(d, spf):
        squarefree += [s * p for s in squarefree]
    out = [1] + [0] * deg
    # Multiply by the factors with mu = +1 first, then divide by the others:
    # times (1 - x^e) is a stride-e difference, over (1 - x^e) a stride-e prefix sum.
    for s in sorted(squarefree, key=lambda s: -mu[s]):
        e = d // s
        if e > deg:
            continue
        if mu[s] == 1:
            out[e:] = [a - b for a, b in zip(out[e:], out)]
        else:
            for r in range(e):
                out[r::e] = accumulate(out[r::e])
    return tuple(out)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes: deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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
    primes = _prime_divisors(d, _sieve(d)[0])
    for g in range(2, ell):
        zeta = pow(g, (ell - 1) // d, ell)
        if all(pow(zeta, d // q, ell) != 1 for q in primes):
            return ell, zeta
    raise AssertionError("the multiplicative group mod a prime is cyclic; this is a bug")


def cyclotomic_screen(terms, d: int) -> bool:
    """False when Phi_d provably does not divide the polynomial with these nonzero terms.

    The sparse terms are evaluated at the root of unity of
    :func:`cyclotomic_root`; a nonzero value mod ell rules Phi_d out.
    True only means that Phi_d may divide: exact division decides.
    """
    ell, zeta = cyclotomic_root(d)
    return sum(c * pow(zeta, k % d, ell) for k, c in terms) % ell == 0
