"""Expansions between rod sets, and the exact solvers around them.

R expands to S via Q (written R -> Q -> S) when

    S  is equivalent to  R  union  anti(Q)  union  QR,

which in generating-function form is the polynomial witness

    1 - C(x, S)  =  (1 - C(x, R)) * (1 + C(x, Q)).

Every source except a prefix has a rational generating function
C = N/D, so the witness is the polynomial identity

    (D_S - N_S) * D_R * D_Q  =  (D_R - N_R) * (D_Q + N_Q) * D_S

over nonzero terms: exact for finite, arithmetic and trains sources,
and compared through the horizon only when an input is a prefix.  A
record exists only if its witness held.

Given any two of R, Q, S the third is determined.  The discrepancy
theorem makes the Q-solver direct: the rod counts of Q are exactly the
discrepancies D(n, R, S), the coefficients of the series
1 + C(x, Q) = (1 - C(x, S)) / (1 - C(x, R)).  That series is a quotient
of polynomials, so a polynomial Q stops at deg num - deg den; the
witness on that cut decides whether Q is finite.  When it is not, or an
input is known only by a prefix, the answer is Q's count prefix to the
horizon.

The R-solver is the exchange law (R -> Q -> S iff anti(Q) -> anti(R) -> S)
applied to the Q-solver, and the dual inverts 1 + C(x, Q), flipping an
expansion's direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .counts import PrefixRods, RodSource, _fraction, _mediator, _one_minus, _quotient, source_to_json
from .rodset import RodSet, concat, negate, union
from .series import char_terms, nonzero_terms, series_quotient, sparse_add, sparse_mul

DEFAULT_HORIZON = 64
# Largest degree of the dense quotient that decides whether a solved rod set
# is finite; past it the solvers refuse instead of allocating.
QUOTIENT_DEGREE_LIMIT = 10**5


class ExpansionError(ValueError):
    """Domain error raised by expansion operations."""


@dataclass(frozen=True)
class Expansion:
    """A verified expansion record r -> q -> s: it exists only if its witness held.

    ``q_finite`` is True/False when decided exactly, None when an input
    is known only by a prefix.  ``r_finite`` plays the same role for the
    R-solver's output.
    """

    r: RodSource
    q: RodSource
    s: RodSource
    horizon: int
    q_finite: bool | None
    r_finite: bool | None = True

    def to_json(self) -> dict:
        return {
            "R": source_to_json(self.r),
            "Q": source_to_json(self.q),
            "S": source_to_json(self.s),
            "horizon": self.horizon,
            "q_finite": self.q_finite,
            "identity_checked": True,
        }


def _one_plus_terms(q: RodSet) -> tuple:
    """The nonzero terms of the polynomial 1 + C(x, q) of a finite rod set."""
    return ((0, 1),) + q.pairs


def _negate_source(rods: RodSet | PrefixRods) -> RodSet | PrefixRods:
    if isinstance(rods, RodSet):
        return negate(rods)
    return PrefixRods(tuple(-m for m in rods.mults))


def _identity_holds(r: RodSource, q: RodSource, s: RodSource, horizon: int) -> bool:
    """Check (1 - C_S) = (1 - C_R)(1 + C_Q) on N/D forms: exact unless an input is a prefix."""
    if isinstance(r, RodSet) and isinstance(q, RodSet) and isinstance(s, RodSet):
        # D = 1 for all three; over the rod pairs only, so long rods never densify.
        return sparse_mul(char_terms(r), _one_plus_terms(q)) == dict(char_terms(s))
    (num_r, den_r), (num_q, den_q), (num_s, den_s) = (_fraction(x, horizon) for x in (r, q, s))
    lhs = sparse_mul(sparse_mul(_one_minus(num_s, den_s), den_r).items(), den_q)
    rhs = sparse_mul(sparse_mul(_one_minus(num_r, den_r), sparse_add(den_q, num_q)).items(), den_s)
    if any(isinstance(x, PrefixRods) for x in (r, q, s)):
        lhs = {k: c for k, c in lhs.items() if k <= horizon}
        rhs = {k: c for k, c in rhs.items() if k <= horizon}
    return lhs == rhs


def _verified(r, q, s, horizon, q_finite) -> Expansion:
    if not _identity_holds(r, q, s, horizon):
        raise ExpansionError("expansion witness identity failed; this is a bug")
    return Expansion(r, q, s, horizon, q_finite)


def expand(r: RodSet, q: RodSet, horizon: int = DEFAULT_HORIZON) -> Expansion:
    """Expand finite r by finite q: S = r + anti(q) + q.r, exact at all degrees."""
    s = union(r, union(negate(q), concat(q, r)))
    return _verified(r, q, s, horizon, q_finite=True)


def solve_Q(r: RodSource, s: RodSource, horizon: int | None = None) -> Expansion:
    """Find the Q mediating r -> Q -> s: 1 + C(x, Q) = (1 - C(x, s)) / (1 - C(x, r)).

    Q's counts are the discrepancies, the series of the mediator N/D.
    A polynomial quotient has degree deg N - deg D, so the series is cut
    there, and Q is finite exactly when the exact witness holds for that
    cut.  Otherwise the record carries Q's count prefix through the
    horizon, witnessed through the horizon.  With a prefix input only
    the prefix is known (q_finite None).
    """
    h = DEFAULT_HORIZON if horizon is None else horizon
    num, den = _mediator(r, s, h)
    exact = not isinstance(r, PrefixRods) and not isinstance(s, PrefixRods)
    if exact:
        top = num[-1][0] - den[-1][0]
        if len(den) > 1 and top > QUOTIENT_DEGREE_LIMIT:
            raise ExpansionError(
                f"deciding finiteness needs a quotient of degree {top}, "
                f"over the limit QUOTIENT_DEGREE_LIMIT = {QUOTIENT_DEGREE_LIMIT}"
            )
        if top >= 0:
            cut = num if len(den) == 1 else nonzero_terms(_quotient(num, den, top))
            q = RodSet(tuple(cut[1:]))
            if _identity_holds(r, q, s, h):
                return Expansion(r, q, s, h, q_finite=True)
    q = PrefixRods(tuple(_quotient(num, den, h)[1:]))
    return _verified(r, q, s, h, q_finite=False if exact else None)


def solve_R(q: RodSet, s: RodSource, horizon: int | None = None) -> Expansion:
    """Find the R with r -> q -> s, by the exchange law.

    anti(Q) expands via anti(R) to S, so R is the negation of what the
    Q-solver finds for (anti(q), s).  The witness of that answer is this
    record's witness with its factors swapped, so it is not run again.
    """
    inner = solve_Q(negate(q), s, horizon)
    return Expansion(
        _negate_source(inner.q), q, s, inner.horizon, q_finite=True, r_finite=inner.q_finite
    )


def dual(q: RodSource, horizon: int | None = None) -> RodSet | PrefixRods:
    """The dual rod set Q*: count(n, Q*) = F(n, anti(Q)), inverting 1 + C(x, Q).

    With C(x, Q) = N/D the dual's series is 1 + C(x, Q*) = D/(D + N).
    N and D are coprime, so D + N divides D only when D + N = 1: then Q*
    is the finite set D - 1, and otherwise Q* is infinite and the answer
    is its prefix through the horizon, DEFAULT_HORIZON unless given.  A
    nonempty finite Q never has a finite dual.  For a rod set known only
    by prefix the answer is the prefix, cut at the input's length.
    """
    h = DEFAULT_HORIZON if horizon is None else horizon
    exact = not isinstance(q, PrefixRods)
    if not exact:
        h = min(h, len(q.mults))
    num, den = _fraction(q, h)
    plus = sparse_add(den, num)
    if exact and plus == [(0, 1)]:
        return RodSet(tuple(den[1:]))
    return PrefixRods(tuple(_quotient(den, plus, h)[1:]))


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
