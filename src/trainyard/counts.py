"""Net train counts, discrepancies, and the enumeration oracle.

A train is an ordered sequence of rods; its sign is the product of the
rod signs, and the net train count F(n, R) is (positive trains of
length n) minus (negative trains), with F(0) = 1 for the empty train
and F(n) = 0 for n < 0.  Expanding by the first rod gives the
recursion

    F(n) = sum over lengths k in R of  mult(k) * F(n - k),

so F is computed by exact dynamic programming.  The net count depends
only on the reduced rod set; colors matter only to the enumerator,
which walks every colored train individually and exists to cross-check
the recursion.

Rod sources generalize finite rod sets to the infinite families the
algebra produces: arithmetic progressions, the trains-of-a-set family,
and rod sets known only by a multiplicity prefix.  Each kind, ``RodSet``
included, answers for itself.  ``fraction(n)`` gives its rod generating
function as a quotient C = N/D of coprime polynomials with D(0) = 1, in
nonzero (degree, coeff) terms: a finite set is N = C, D = 1, and a
prefix is N = its prefix, D = 1, read through degree n and no further,
so ``exact`` is False for a prefix alone.  ``to_json()`` and ``str()``
give a source's JSON and text, and the two kinds a solver returns,
``RodSet`` and ``PrefixRods``, negate with unary minus.  Every operation
on a source is one call of series.series_quotient, which divides over
the nonzero terms of N and D as they come, with no dense numerator:
multiplicities are N/D, train counts 1/(1 - C) = D/(D - N), a recurrence
as deep as D - N has terms, and the discrepancies of r against s the
series (1 - C_S)/(1 - C_R).
"""

from __future__ import annotations

from math import comb
from typing import Sequence, Union

from .rodset import Record, RodSet, format_rodset
from .series import char_terms, series_mul, series_quotient, sparse_add, sparse_mul

DEFAULT_ENUMERATION_CAP = 10**6


class CountsError(ValueError):
    """Domain error raised by counting operations."""


class ArithmeticRods(Record):
    """Rods at first, first+step, first+2*step, ..., each with multiplicity ``sign``."""

    __slots__ = ("first", "step", "sign")
    exact = True

    def __init__(self, first: int, step: int, sign: int = 1) -> None:
        if first < 1 or step < 1 or sign not in (1, -1):
            raise CountsError("arithmetic rods need first >= 1, step >= 1, sign +-1")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "sign", sign)

    def fraction(self, n: int | None = None) -> tuple:
        """C = sign * x^first / (1 - x^step), as the nonzero terms of N and D."""
        return ((self.first, self.sign),), ((0, 1), (self.step, -1))

    def to_json(self) -> dict:
        return {"kind": "arith", "first": self.first, "step": self.step, "sign": self.sign}


class TrainsOf(Record):
    """One rod per nonempty train of ``base``: multiplicity at length n is sign * F(n, base).

    The central example: TrainsOf([2]) is the rod set [2, 4, 6, ...],
    since [2] has exactly one train at every even length.
    """

    __slots__ = ("base", "sign")
    exact = True

    def __init__(self, base: RodSet, sign: int = 1) -> None:
        if sign not in (1, -1):
            raise CountsError("trains-of source sign must be +-1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sign", sign)

    def fraction(self, n: int | None = None) -> tuple:
        """C = sign * (1/char(base) - 1) = sign * C(base) / char(base), as terms of N and D."""
        return tuple((k, self.sign * m) for k, m in self.base.pairs), char_terms(self.base)

    def to_json(self) -> dict:
        return {"kind": "trains", "base": format_rodset(self.base), "sign": self.sign}


class PrefixRods(Record):
    """A rod set known only by its multiplicity prefix m(1..N).

    This is how infinite solver outputs are reported: exact up to the
    horizon, silent beyond it.  Asking past the prefix is an error
    rather than a guess.
    """

    __slots__ = ("mults",)
    mults: tuple
    exact = False

    def fraction(self, n: int) -> tuple:
        """C = the prefix through degree n over D = 1; past the prefix there is no C to give."""
        if n > len(self.mults):
            raise CountsError(
                f"prefix source holds multiplicities up to {len(self.mults)}, asked for {n}"
            )
        return [(k, m) for k, m in enumerate(self.mults[:n], 1) if m], ((0, 1),)

    def to_json(self) -> dict:
        return {"kind": "counts", "values": list(self.mults)}

    def __str__(self) -> str:
        return "counts:" + ",".join(str(m) for m in self.mults)

    def __neg__(self) -> PrefixRods:
        return PrefixRods(tuple(-m for m in self.mults))


RodSource = Union[RodSet, ArithmeticRods, TrainsOf, PrefixRods]


def _one_minus(num, den) -> list:
    """D - N, the numerator of 1 - C = (D - N)/D, as nonzero terms."""
    return sparse_add(den, [(k, -c) for k, c in num])


def _mediator(r: RodSource, s: RodSource, n: int) -> tuple:
    """1 + C_Q = (1 - C_S)/(1 - C_R) for r -> Q -> s, as the nonzero terms of its N and D.

    That is (D_S - N_S) * D_R / (D_S * (D_R - N_R)), through degree n
    for prefix sources; both constant terms are 1.  A finite set or a
    prefix has D = 1, and sparse_mul multiplies by 1 for free, so the
    mediator of two finite sets is just the two numerators D - N.
    """
    num_r, den_r = r.fraction(n)
    num_s, den_s = s.fraction(n)
    return sparse_mul(_one_minus(num_s, den_s), den_r), sparse_mul(den_s, _one_minus(num_r, den_r))


def source_mults_upto(rods: RodSource, n: int) -> list:
    """Multiplicities m(0..n) of a rod source as a dense list (m(0) is always 0): N/D."""
    return series_quotient(*rods.fraction(n), n)


def train_counts(rods: RodSource, n_max: int) -> list:
    """Net train counts F(0..n_max) for a rod set or rod source: 1/(1 - C) = D/(D - N)."""
    if n_max < 0:
        raise CountsError("count horizon must be >= 0")
    num, den = rods.fraction(n_max)
    return series_quotient(den, _one_minus(num, den), n_max)


def discrepancies(r: RodSource, s: RodSource, n_max: int) -> list:
    """D(1..n_max): how far F(., r) is from satisfying the recursion of s.

    D(n) = F(n, r) - sum over k in s of mult_s(k) * F(n - k, r).  The
    discrepancy theorem says these are exactly the rod counts of the Q
    mediating the expansion r -> s: coefficients 1..n_max of 1 + C_Q.
    """
    if n_max < 0:
        raise CountsError("count horizon must be >= 0")
    return series_quotient(*_mediator(r, s, n_max), n_max)[1:]


def sequence_discrepancies(values: Sequence[int], s: RodSource) -> list:
    """D(1..N) for an explicitly given count sequence values[0..N].

    The sequence must start with 1 (the empty train) to be the count
    sequence of anything.
    """
    if not values or values[0] != 1:
        raise CountsError("a net train count sequence must start with F(0) = 1")
    n_max = len(values) - 1
    char_s = [-m for m in source_mults_upto(s, n_max)]
    char_s[0] = 1
    return series_mul(char_s, values, n_max)[1:]


class EnumerationResult(Record):
    """Outcome of brute-force train enumeration."""

    __slots__ = ("net", "total", "trains")

    def __init__(self, net: int, total: int, trains: tuple | None = None) -> None:
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "trains", trains)


def enumerate_trains(
    rods: RodSet,
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    collect: bool = False,
) -> EnumerationResult:
    """Walk every colored train of length n and tally signs.

    A rod of multiplicity m contributes |m| colored copies with sign(m).
    Trains are visited in lexicographic order by (length, color) per
    position, which is also the order ``collect`` returns them in: each
    train is a tuple of (length, color, sign) rods.

    The total number of trains is computed first from the recursion on
    absolute multiplicities; if it exceeds ``cap`` the walk is refused.
    """
    if n < 0:
        raise CountsError("train length must be >= 0")
    abs_rods = RodSet(tuple((k, abs(m)) for k, m in rods.pairs))
    counts = train_counts(abs_rods, n)
    total = counts[n]
    if total > cap:
        raise CountsError(f"{total} trains of length {n} exceed the enumeration cap {cap}")

    # Colored rods in walk order that start some train of length n (any rod of a
    # train can move to its front); each starts trains of its own, so total bounds them.
    rods_in_order = [
        (k, color, 1 if m > 0 else -1)
        for k, m in rods.pairs
        if k <= n and counts[n - k]
        for color in range(1, abs(m) + 1)
    ]
    # fits[r] holds the rods no longer than r; lengths with the same rods share a list.
    cuts = {rod[0]: i + 1 for i, rod in enumerate(rods_in_order)}
    top = max(cuts, default=0)
    fits: list = [[]]
    for r in range(1, top + 1):
        fits.append(rods_in_order[:cuts[r]] if r in cuts else fits[-1])
    net = 1 if n == 0 else 0
    listing: list | None = ([()] if n == 0 else []) if collect else None
    # A frame per rod placed: rods still to try, length left, sign so far.
    # A rod that completes the train is tallied without a frame.
    train: list = []
    frames = [(iter(rods_in_order), n, 1)]
    while frames:
        walk, remaining, sign = frames[-1]
        for rod in walk:
            left = remaining - rod[0]
            if left:
                train.append(rod)
                frames.append((iter(fits[left if left < top else top]), left, sign * rod[2]))
                break
            net += sign * rod[2]
            if listing is not None:
                listing.append((*train, rod))
        else:
            frames.pop()
            if train:
                train.pop()
    return EnumerationResult(net=net, total=total, trains=tuple(listing) if collect else None)


def binomial_count(rods: RodSet, n: int) -> int:
    """F(n, R) as a binomial sum, for rod sets with at most two lengths.

    For shape <a, b> with multiplicities u, v this is

        sum over i*a + j*b = n of  C(i + j, i) * u^i * v^j,

    the diagonal-of-Pascal's-triangle form.  Single-length sets get the
    pure power, and the empty set counts only the empty train.
    """
    if n < 0:
        return 0
    pairs = rods.pairs
    if len(pairs) > 2:
        raise CountsError("binomial form requires a shape with at most two lengths")
    if not pairs:
        return 1 if n == 0 else 0
    if len(pairs) == 1:
        a, u = pairs[0]
        return u ** (n // a) if n % a == 0 else 0
    (a, u), (b, v) = pairs
    acc = 0
    for i in range(n // a + 1):
        rest = n - i * a
        if rest % b == 0:
            j = rest // b
            acc += comb(i + j, i) * u**i * v**j
    return acc
