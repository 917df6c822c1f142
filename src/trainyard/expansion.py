"""Expansions between rod sets, and the exact solvers around them.

R expands to S via Q (written R -> Q -> S) when

    S  is equivalent to  R  union  anti(Q)  union  QR,

which in generating-function form is the polynomial witness

    1 - C(x, S)  =  (1 - C(x, R)) * (1 + C(x, Q)).

Every record this module produces is verified against that identity —
exactly when all three sets are finite, coefficient-by-coefficient up
to the horizon otherwise.

Given any two of R, Q, S the third is determined.  The discrepancy
theorem makes the Q-solver direct: the rod counts of Q are exactly the
discrepancies D(n, R, S), the failures of F(., R) to satisfy S's
recursion.  For finite R and S the finiteness of Q is decidable
outright: max S = max R + max Q forces where Q must stop, and a window
of max R zero discrepancies just above that point certifies that the
rest vanish (the discrepancies themselves satisfy R's recursion out
there).  When max S < max R no finite Q can exist at all.

The R-solver is the exchange law (R -> Q -> S iff anti(Q) -> anti(R) -> S)
applied to the Q-solver, and the dual inverts 1 + C(x, Q), flipping an
expansion's direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .counts import (
    PrefixRods,
    RodSource,
    _fraction,
    _quotient,
    discrepancies,
    source_mults_upto,
    source_to_json,
    train_counts,
)
from .rodset import RodSet, concat, negate, union
from .series import char_terms, nonzero_terms, poly_trim, series_mul, series_quotient
from .series import sparse_add, sparse_mul

DEFAULT_HORIZON = 64


class ExpansionError(ValueError):
    """Domain error raised by expansion operations."""


@dataclass(frozen=True)
class Expansion:
    """A verified expansion record r -> q -> s.

    ``q_finite`` is True/False when decided exactly, None when only a
    horizon-limited prefix is known; ``trailing_zeros`` then reports the
    observed zero run at the end of q's count prefix.  ``r_finite``
    plays the same role for the R-solver's output.
    """

    r: RodSource
    q: RodSource
    s: RodSource
    horizon: int
    q_finite: bool | None
    identity_checked: bool
    trailing_zeros: int | None = None
    r_finite: bool | None = True

    def to_json(self) -> dict:
        return {
            "R": source_to_json(self.r),
            "Q": source_to_json(self.q),
            "S": source_to_json(self.s),
            "horizon": self.horizon,
            "q_finite": self.q_finite,
            "identity_checked": self.identity_checked,
        }


def _one_plus_terms(q: RodSet) -> tuple:
    """The nonzero terms of the polynomial 1 + C(x, q) of a finite rod set."""
    return ((0, 1),) + q.pairs


def _negate_source(rods: RodSet | PrefixRods) -> RodSet | PrefixRods:
    if isinstance(rods, RodSet):
        return negate(rods)
    return PrefixRods(tuple(-m for m in rods.mults))


def _identity_holds(r: RodSource, q: RodSource, s: RodSource, horizon: int) -> bool:
    """Check (1 - C_S) = (1 - C_R)(1 + C_Q): exact for finite triples, else to the horizon."""
    if isinstance(r, RodSet) and isinstance(q, RodSet) and isinstance(s, RodSet):
        # Over the rod pairs only, so long rods never densify.
        return sparse_mul(char_terms(r), _one_plus_terms(q)) == dict(char_terms(s))
    cr, cq, cs = (source_mults_upto(x, horizon) for x in (r, q, s))
    product = series_mul([1] + [-c for c in cr[1:]], [1] + cq[1:], horizon)
    return product == [1] + [-c for c in cs[1:]]


def _verified(r, q, s, horizon, q_finite, trailing_zeros=None, r_finite=True) -> Expansion:
    if not _identity_holds(r, q, s, horizon):
        raise ExpansionError("expansion witness identity failed; this is a bug")
    return Expansion(r, q, s, horizon, q_finite, True, trailing_zeros, r_finite)


def expand(r: RodSet, q: RodSet, horizon: int = DEFAULT_HORIZON) -> Expansion:
    """Expand finite r by finite q: S = r + anti(q) + q.r, exact at all degrees."""
    s = union(r, union(negate(q), concat(q, r)))
    return _verified(r, q, s, horizon, q_finite=True)


def solve_Q(r: RodSource, s: RodSource, horizon: int | None = None) -> Expansion:
    """Find the Q mediating r -> Q -> s; its counts are the discrepancies.

    With finite r and s the finiteness verdict is exact; with infinite
    sources it is undecided at the horizon (q_finite None) and the
    record carries the count prefix.
    """
    h = DEFAULT_HORIZON if horizon is None else horizon
    if isinstance(r, RodSet) and isinstance(s, RodSet):
        if not r.pairs:
            # The empty set counts only the empty train, so the
            # discrepancies are minus s's own multiplicities.
            return _verified(r, negate(s), s, h, q_finite=True)
        if not s.pairs:
            # r -> trains(r) -> []: every train becomes a rod of Q.
            prefix = train_counts(r, h)[1:]
            return _verified(r, PrefixRods(tuple(prefix)), s, h, q_finite=False)
        max_r, max_s = r.max_length, s.max_length
        if max_s >= max_r:
            d = discrepancies(r, s, max_s)
            if all(d[n - 1] == 0 for n in range(max_s - max_r + 1, max_s + 1)):
                q = RodSet.from_mults(
                    {n: d[n - 1] for n in range(1, max_s - max_r + 1) if d[n - 1]}
                )
                return _verified(r, q, s, h, q_finite=True)
        prefix = discrepancies(r, s, h)
        return _verified(r, PrefixRods(tuple(prefix)), s, h, q_finite=False)
    prefix = discrepancies(r, s, h)
    return _verified(
        r,
        PrefixRods(tuple(prefix)),
        s,
        h,
        q_finite=None,
        trailing_zeros=len(prefix) - len(poly_trim(prefix)),
    )


def solve_R(q: RodSet, s: RodSource, horizon: int | None = None) -> Expansion:
    """Find the R with r -> q -> s, by the exchange law.

    anti(Q) expands via anti(R) to S, so R is the negation of what the
    Q-solver finds for (anti(q), s).
    """
    inner = solve_Q(negate(q), s, horizon)
    return _verified(
        _negate_source(inner.q),
        q,
        s,
        inner.horizon,
        q_finite=True,
        r_finite=inner.q_finite,
    )


def dual(q: RodSource, horizon: int | None = None) -> RodSet | PrefixRods:
    """The dual rod set Q*: count(n, Q*) = F(n, anti(Q)), inverting 1 + C(x, Q).

    With C(x, Q) = N/D the dual's series is 1 + C(x, Q*) = D/(D + N).
    Q* is finite exactly when D + N divides D, and since N and D are
    coprime that happens only when D + N = 1, so Q* = D - 1.  Otherwise,
    and for a rod set known only by prefix, the answer is the prefix
    through the horizon, DEFAULT_HORIZON unless given.  So a nonempty
    finite Q never has a finite dual.
    """
    h = DEFAULT_HORIZON if horizon is None else horizon
    if isinstance(q, PrefixRods):
        h = min(h, len(q.mults))
    num, den = _fraction(q, h)
    whole = sparse_add(den, num)
    if whole == [(0, 1)] and not isinstance(q, PrefixRods):
        return RodSet.from_mults(den[1:])
    return PrefixRods(tuple(_quotient(den, whole, h)[1:]))


def compose(q_pr: RodSet, q_rs: RodSet) -> RodSet:
    """The Q mediating the composite of two expansions: Q1 + Q2 + Q1.Q2."""
    return union(q_pr, union(q_rs, concat(q_pr, q_rs)))


def rodset_from_counts(seq: Sequence[int]) -> RodSet:
    """The unique rod multiplicities whose train counts reproduce seq[0..N].

    The rod generating function is C = 1 - 1/F: every power series F
    with constant term 1 is the train count series of exactly one rod set.
    The result is exact through length N and silent beyond it.
    """
    if not seq or seq[0] != 1:
        raise ExpansionError("a net train count sequence must start with F(0) = 1")
    inverse = series_quotient([1], nonzero_terms(seq), len(seq) - 1)
    return RodSet.from_mults({k: -c for k, c in enumerate(inverse) if k >= 1 and c})


def expand_minimal(r: RodSet) -> tuple[RodSet, RodSet]:
    """Expand away all rods of minimal length: Q = [min^mult], S = expand(r, Q).

    Iterating this from a two-rod set walks the count recursion itself,
    which is how the Lucas shape chains arise.
    """
    if not r.pairs:
        raise ExpansionError("cannot expand the minimum of the empty rod set")
    k, m = r.pairs[0]
    q = RodSet(((k, m),))
    return q, expand(r, q).s
