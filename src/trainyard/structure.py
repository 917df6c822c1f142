"""Structure detection on top of the count recursion and the solvers.

Four families of questions about a finite rod set R:

* **Periodicity** — is n -> F(n, R) periodic?  Decided exactly: the
  count series is 1/char_poly(R), so the sequence is periodic precisely
  when the characteristic polynomial is (up to sign) a product of
  distinct cyclotomic polynomials; the least period is the lcm of their
  orders.  The candidate orders d are every d with phi(d) <= max R, or,
  when fewer, those that Mann's theorem on vanishing sums of roots of
  unity (1965) leaves, the divisors of m_t * k over the char's degrees k.
  Each candidate Phi_d is screened at a root of unity of order d modulo
  a prime and only the survivors are divided exactly.  A period is
  proved by the counts, whose first max R-window repeats first at it.
  A non-periodic verdict is certified by the char's sparse terms when it
  is not +-self-reciprocal, as every product of cyclotomics is; else by
  the Graeffe root-squaring test, which finds a root off the unit circle
  (an iterate's coefficient passes C(m, floor(m/2)), m = max R) or a
  repeated cyclotomic factor.  One bound on the work (PERIOD_WORK_LIMIT)
  is checked before the peel.

* **Expandability scans** — which one- and two-rod sets does R expand
  to?  For each length n <= bound the window is
  v_n = (F(n - max R + 1), ..., F(n-1)), oldest first, a slice of the
  counts padded once with max R - 1 zeros (F(k) = 0 for k < 0).  A
  one-rod target [a^F(a)] is a length whose window is all zero, tested
  straight from the counts.  For two rods each nonzero window is
  written s_n * c_n * u_n: c_n is the gcd of its entries and u_n is
  primitive with its first nonzero entry positive, and the lengths are
  grouped by u_n into window classes.  A two-rod target
  [a^alpha, b^mult_b] needs v_b = alpha * v_(b-a) for a nonzero integer
  alpha, which holds exactly when m = b - a and b share a class and c_m
  divides c_b; then alpha = s_b*c_b / (s_m*c_m).  So the candidates are
  pairs inside classes, yielded in (b, a) order by one ascending pass
  (_window_targets), which costs O(bound * max R) gcds plus those pairs,
  not bound^2 window tests.  The window also proves a two-rod target's
  Q finite: its discrepancies vanish on max R consecutive lengths ending
  at b, and past b they follow R's recursion, so they stay zero.
  scan_two_expansions reads Q off the counts it already holds and
  confirms every hit by the exact witness (1 - C_S) = (1 - C_R)(1 + C_Q)
  before it is reported.

* **Lucas families** — R = [1^(±s), 2^t] with gcd(s, t) = 1 produces
  Lucas-like counts: L(n) = F(n-1, R) is a divisibility sequence, and
  the predictable two-rod expansions of R (adjacent, skip, multiple
  chains) have closed forms in R's own counts.  lucas_check
  decides the laws from the rod algebra, not pair by pair: one window
  test L(d) | L(2d) makes (d, 2d) a two-rod target, which gives
  L(d) | L(kd) for every k, and the mod-s law is read off the first two
  counts, since two steps of the recursion multiply by the unit t.

* **Borwein trinomials** — which trinomials 1 ∓ x^a ∓ x^b does
  char_poly([1,-2]) (resp. [-1,-2]) divide?  Exactly the signed pairs
  in four residue classes mod 6 (resp. one class mod 3).  With max R = 2
  these are the base's two-rod targets with unit multiplicities, so the
  classification reads them off the window classes of the base's counts,
  without building Q, and checks them both ways against the theorem:
  every pair falls in a class, and every pair a class predicts is found.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import compress, repeat
from operator import floordiv, mod, not_

from .counts import train_counts
from .expansion import DEFAULT_HORIZON, _witness, expand
from .rodset import Record, RodSet
from .series import char_poly, char_terms, cyclotomic, poly_divexact

# Largest confirmation detect_period takes on, in units times nonzero char
# terms: p + max R counted terms for a period p, and 4 * (max R)^2 units before
# the peel, which refuses a set before its dense char is built.  Timed on a 2-vCPU
# Xeon VM, Python 3.11.  A period pass costs 0.25 to 0.45 us a unit, about two
# thirds of it the witness's sparse pass: the Phi_3*Phi_5*Phi_7*Phi_8*Phi_11*
# Phi_13 set (p = 120120, 39 terms, 4.7e6) takes 1.2 to 2.2 s, of which the
# witness takes 0.8 to 1.4 s.  The non-periodic side costs far less than its
# units.  A char that is not +-self-reciprocal pays the peel alone, on the
# orders Mann's theorem leaves when they are fewer: in a fresh process
# [1, 1118^-1] (1.5e7) takes 0.004 s and [1, 2, ..., 128] (8.5e6) 0.03 s, and
# [1, 10000^-1] (1.2e9, refused) would take 0.005 s.  A +-self-reciprocal char
# pays the Graeffe certificate too (at most about (max R)^2 / 4 products a
# step, fewer while the iterates are sparse): [1, 433^-3, 865, 866^-1] (1.5e7)
# takes 0.22 s.
PERIOD_WORK_LIMIT = 15 * 10**6


class StructureError(ValueError):
    """Domain error raised by structure-detection operations."""


# ---------------------------------------------------------------------------
# Periodicity


class PeriodReport(Record):
    """Verdict of detect_period, made only once it is certified.

    ``cyclotomic_factors`` lists the orders d whose cyclotomic
    polynomial divides char_poly(R) (each peeled once); when periodic,
    their product is the whole polynomial up to sign and
    ``least_period`` is their lcm, else None.  ``q_to_period`` is the
    finite Q with R -> Q -> [least_period], else None.  The verdict is
    certified independently of the peel (see detect_period), which
    raises when the certificate disagrees, so ``window_confirmed`` is
    always True.
    """

    __slots__ = ("least_period", "cyclotomic_factors", "q_to_period")
    least_period: int | None
    cyclotomic_factors: tuple[int, ...]
    q_to_period: RodSet | None
    window_confirmed = True

    @property
    def periodic(self) -> bool:
        return self.least_period is not None

    def to_json(self) -> dict:
        return {
            "periodic": self.periodic,
            "period": self.least_period,
            "factors": list(self.cyclotomic_factors),
            "Q": str(self.q_to_period) if self.periodic else None,
        }

    def __str__(self) -> str:
        if not self.periodic:
            return "not periodic"
        factors = ",".join(map(str, self.cyclotomic_factors))
        return f"periodic p={self.least_period} factors={factors} Q={self.q_to_period}"


def _least_repeat(counts: list, w: int, horizon: int) -> int | None:
    """Least 1 <= p <= horizon with counts[p:p + w] == counts[:w], else None.

    list.index finds the candidates, the p with counts[p] == counts[0].
    """
    window, p = counts[:w], 0
    while True:
        try:
            p = counts.index(window[0], p + 1, horizon + 1)
        except ValueError:
            return None
        if counts[p:p + w] == window:
            return p


def window_period_scan(rods: RodSet, horizon: int) -> int | None:
    """Least p <= horizon with F(n + p) = F(n) for all n, else None.

    The counts obey a depth-max R recursion, so a repeat of the initial
    max R-window propagates forever; scanning windows is therefore a
    complete periodicity test up to the horizon.  The scan holds the
    exact counts to horizon + max R - 1, so its memory follows their
    bits: [1,2] (Fibonacci) at horizon 50,000 peaks at about 128 MB.
    """
    if not rods.pairs:
        raise StructureError("periodicity is about nonempty rod sets")
    if horizon < 1:
        raise StructureError("horizon must be at least 1")
    w = rods.max_length
    return _least_repeat(train_counts(rods, horizon + w - 1), w, horizon)


def _check_work(units: int, nonzero: int, needs: str) -> None:
    """Refuse units x nonzero char terms over PERIOD_WORK_LIMIT; needs.format(units) says what for."""
    work = units * nonzero
    if work > PERIOD_WORK_LIMIT:
        raise StructureError(
            f"{needs.format(units)} x {nonzero} nonzero char terms = {work}, "
            f"over the limit PERIOD_WORK_LIMIT = {PERIOD_WORK_LIMIT}"
        )


def detect_period(rods: RodSet) -> PeriodReport:
    """Decide periodicity of n -> F(n, rods) exactly.

    The sequence is periodic iff char_poly(rods) is a product of
    distinct cyclotomic polynomials (times -1 when x - 1 is among
    them).  The candidate orders, with their phi, come from
    _cyclotomic.peel_orders: the d with phi(d) <= max R, or the divisors
    of m_t * k over the degrees k of the char's t nonzero terms, m_t the
    product of the primes <= t (Mann, Mathematika 12, 1965), whichever
    costs fewer orders to list.  Both hold every d whose Phi_d divides,
    in ascending order, so the peel finds the same factors on either.
    Each candidate is first screened: the sparse char is evaluated at a
    root of unity of order exactly d modulo a prime ell = 1 (mod d),
    and a nonzero value proves Phi_d does not divide it.  Every survivor
    is decided by exact division, and each is peeled at most once: a
    repeated cyclotomic factor means polynomial growth, not periodicity.

    Every verdict is confirmed, and a failed confirmation is a bug that
    raises StructureError.  A non-periodic verdict by one of two
    certificates.  A char whose sparse terms are not +-self-reciprocal
    (_cyclotomic.self_reciprocal: a leading coefficient other than +-1,
    or c_(m-k) != c_m * c_k for some k) is no product of cyclotomics.
    A +-self-reciprocal char gets the Graeffe root-squaring test
    (_cyclotomic.graeffe_certificate), iterated with
    g(x^2) = f(x) * f(-x): an iterate has a coefficient above
    C(m, floor(m/2)), m = max R, so a root lies off the unit circle; or
    the iterates reach a fixed point, so every root is a root of unity,
    and the residual the peel left divides by a peeled Phi_d once more,
    a repeated factor; with neither the peel missed an order.  A period
    p is confirmed by one exact count pass to p + max R - 1: the first
    max R-window repeats at p and not before, which proves
    F(n + p) = F(n) for all n by the depth-max R recursion, and the
    counts F(1..p - max R) are Q to [p], confirmed by the exact witness.
    Work is bounded by PERIOD_WORK_LIMIT in units times nonzero char
    terms: 4 * (max R)^2 units first, so that a set too large is refused
    before its dense characteristic polynomial is built, and p + max R
    counted terms before the count pass.
    """
    # built on first use
    from ._cyclotomic import cyclotomic_screen, graeffe_certificate, peel_orders, self_reciprocal

    if not rods.pairs:
        raise StructureError("periodicity is about nonempty rod sets")
    top = rods.max_length
    terms = char_terms(rods)
    _check_work(4 * top * top, len(terms), "deciding periodicity needs 4 * (max R)^2 = {}")
    char = residual = char_poly(rods)
    factors: list[int] = []
    for d, degree in peel_orders(terms, top):
        if degree >= len(residual) or not cyclotomic_screen(terms, d):
            continue
        quotient = poly_divexact(residual, cyclotomic(d))
        if quotient is not None:
            residual = quotient
            factors.append(d)
            if len(residual) == 1:
                break
    if len(residual) != 1:
        if self_reciprocal(terms) and graeffe_certificate(char, residual, factors)[0] is None:
            raise StructureError("no Graeffe certificate: the peel missed an order; this is a bug")
        return PeriodReport(None, tuple(factors), None)
    if residual[0] not in (1, -1):
        raise StructureError("peeling left a non-unit constant; this is a bug")
    period = math.lcm(*factors)
    _check_work(period + top, len(terms), "confirming a periodic verdict needs {} counted terms")
    counts = train_counts(rods, period + top - 1)
    q = RodSet(tuple([(n, c) for n, c in enumerate(counts[1:period - top + 1], 1) if c]))
    _witness(rods, q, RodSet(((period, 1),)), DEFAULT_HORIZON)
    if _least_repeat(counts, top, period) != period:
        raise StructureError(f"the counts repeat before the period {period}; this is a bug")
    return PeriodReport(period, tuple(factors), q)


# ---------------------------------------------------------------------------
# Expandability scans


class ScalingHit(Record):
    """A witnessed two-rod expansion target S = [a^alpha, b^mult_b].

    ``alpha`` is the unique scaling ratio F(b - i) / F(b - a - i) on
    the window 1 <= i < max R, and a's multiplicity in S (``mult_a``).
    ``q`` is the finite mediating rod set, of degree at most b - max R, whose
    multiplicities are the discrepancies of R against S; the exact
    witness (1 - C_S) = (1 - C_R)(1 + C_Q) holds for it.
    """

    __slots__ = ("a", "b", "alpha", "mult_b", "s", "q")

    def __init__(self, a: int, b: int, alpha: int, mult_b: int, s: RodSet, q: RodSet) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mult_b", mult_b)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", q)

    @property
    def mult_a(self) -> int:
        return self.alpha

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "alpha": self.alpha, "S": str(self.s), "Q": str(self.q)}

    def __str__(self) -> str:
        return f"a={self.a} b={self.b} alpha={self.alpha} S={self.s} Q={self.q}"


def scan_one_expansions(rods: RodSet, bound: int) -> list[tuple[int, int]]:
    """All a <= bound where rods expands to the single-rod set [a^mult].

    Requires F(a - i) = 0 for 1 <= i < max R and F(a) != 0; the
    multiplicity is F(a).  The qualifying a are the lengths whose window
    is all zero, tested straight from the counts.  Their F(a) is never
    zero, since max R zeros in a row
    would make the count series 1/(1 - C(x, R)) a polynomial.  For
    max R = 1 every window is empty, so every a qualifies (each [1^m]
    expands to every [a^(m^a)]).

    One pass over the window columns: column i = 1..max R - 1 is
    padded[i:i + bound], the counts after max R - 1 zeros (F(k) = 0 for
    k < 0), so row a - 1 of the columns is a's window.  The zero-window
    flags are not any(row), and compress keeps the (a, F(a)) they mark.
    max R = 1 leaves no window column, so one zero column stands in for
    its empty windows.
    """
    if not rods.pairs:
        raise StructureError("scan needs a nonempty rod set")
    if bound < 1:
        raise StructureError("bound must be at least 1")
    w = rods.max_length
    counts = train_counts(rods, bound)
    padded = [0] * (w - 1) + counts
    columns = [padded[i:i + bound] for i in range(1, w)] or [[0] * bound]
    flags = map(not_, map(any, zip(*columns)))
    return list(compress(zip(range(1, bound + 1), counts[1:]), flags))


def _window_targets(counts: list[int], bound: int, w: int) -> Iterator[tuple[int, int, int, int]]:
    """Every two-rod target (b, a, alpha, mult_b) of the counts, a < b <= bound, w = max R.

    v_b is padded[b:b + w - 1], oldest first, with w - 1 zeros before the
    counts.  The w - 1 window columns padded[i:i + bound], i = 1..w - 1,
    are sliced once: zip(*columns) reads v_b as row b - 1 and
    map(gcd, *columns) its scale c_b, both at C speed.  A nonzero v_b
    takes the sign s_b of its first nonzero entry, and its direction is
    u_b = v_b // (s_b*c_b), primitive with its first nonzero entry
    positive.  map(gcd, *columns) needs a column, so w >= 2: the callers
    guarantee it (scan_two_expansions refuses w < 2, Borwein has w = 2).

    One ascending pass over b: b's window direction and scale, then the
    earlier members m of b's class from newest to oldest, so a = b - m
    ascends, then b joins its class.  A member m with c_m | c_b gives
    alpha = s_b*c_b / (s_m*c_m) and mult_b = F(b) - alpha*F(m), and the
    target is yielded when mult_b is nonzero.  So the order is (b, a).
    """
    padded = [0] * (w - 1) + counts
    columns = [padded[i:i + bound] for i in range(1, w)]
    classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for b, window, scale_b in zip(range(1, bound + 1), zip(*columns), map(math.gcd, *columns)):
        if not scale_b:
            continue
        if next(filter(None, window)) < 0:
            scale_b = -scale_b
        members = classes.setdefault(tuple(map(floordiv, window, repeat(scale_b))), [])
        for m, scale_m in reversed(members):
            if scale_b % scale_m == 0:
                alpha = scale_b // scale_m
                mult_b = counts[b] - alpha * counts[m]
                if mult_b:
                    yield b, b - m, alpha, mult_b
        members.append((b, scale_b))


def _scaling_hit(
    rods: RodSet, counts: list[int], a: int, b: int, alpha: int, mult_b: int, w: int
) -> ScalingHit:
    """The witnessed hit [a^alpha, b^mult_b] once v_b = alpha*v_(b-a), w = max R.

    The caller gives mult_b = F(b) - alpha*F(b - a), nonzero.  Q's
    multiplicities are the discrepancies D(n) = F(n) - alpha*F(n - a) for
    1 <= n <= b - w (the F(n - b) term is zero there).  The window makes
    D vanish on b - w < n < b and mult_b makes D(b) = 0.  The product
    D * (1 - C(x, R)) = 1 - C(x, S) has degree b, so past b D follows
    R's recursion from w zeros in a row and stays zero: Q is finite, of
    degree at most b - w.  Q's pairs are built in one ascending pass and
    validated by RodSet itself.  The exact witness (expansion._witness,
    no Expansion record) then confirms the hit; its failure is a bug and
    raises ExpansionError.
    """
    shape = RodSet(((a, alpha), (b, mult_b)))
    top = b - w
    mults = counts[1:min(a, top + 1)] + [
        f - alpha * g for f, g in zip(counts[a:top + 1], counts)
    ]
    q = RodSet(tuple([(n, m) for n, m in enumerate(mults, 1) if m]))
    _witness(rods, q, shape, DEFAULT_HORIZON)
    return ScalingHit(a, b, alpha, mult_b, shape, q)


def scan_two_expansions(
    rods: RodSet, bound: int, include_trivial: bool = False
) -> list[ScalingHit]:
    """All two-rod expansion targets [a^alpha, b^mult_b], 1 <= a < b <= bound.

    A pair hits when the window v_n = (F(n-w+1), ..., F(n-1)), w = max R,
    scales by a nonzero integer alpha from n = b - a to n = b, and the
    length-b multiplicity mult_b = F(b) - alpha*F(b - a) comes out
    nonzero.  _window_targets yields exactly those pairs from the window
    classes (see the module docstring), in O(bound * w) gcds plus the
    pairs inside classes.  That window makes Q finite (see _scaling_hit),
    so Q is read off the counts, and every hit is confirmed by the exact
    witness before being reported; a failed witness raises ExpansionError.
    Ordered by (b, a).  The no-op expansion of a two-rod set to itself
    (empty Q) is suppressed unless ``include_trivial`` is set.
    """
    if not rods.pairs:
        raise StructureError("scan needs a nonempty rod set")
    w = rods.max_length
    if w < 2:
        raise StructureError("two-rod scan needs max R >= 2 (the window is empty)")
    if bound < 2:
        raise StructureError("bound must be at least 2")
    counts = train_counts(rods, bound)
    hits = [
        _scaling_hit(rods, counts, a, b, alpha, mult_b, w)
        for b, a, alpha, mult_b in _window_targets(counts, bound, w)
    ]
    return hits if include_trivial else [hit for hit in hits if hit.q.pairs]


# ---------------------------------------------------------------------------
# Lucas families


class LucasReport(Record):
    """Lucas laws of R = [1^(sign*s), 2^t] to the horizon, made only once both held.

    Both are theorems while gcd(s, t) = 1 is enforced, so lucas_check
    raises on a broken one, a bug.  Hence ``passed`` and
    ``divisibility_check`` are always True and ``failure`` None;
    ``mod_check`` is None when s = 1 leaves law (a) empty.
    """

    __slots__ = ("s", "t", "sign", "horizon")
    s: int
    t: int
    sign: int
    horizon: int
    passed = divisibility_check = True
    failure = None

    @property
    def mod_check(self) -> bool | None:
        return True if self.s > 1 else None

    def to_json(self) -> dict:
        names = self.__slots__ + ("passed", "mod_check", "divisibility_check", "failure")
        return {name: getattr(self, name) for name in names}

    def __str__(self) -> str:
        return "pass"


def _lucas_rodset(s: int, t: int, sign: int) -> RodSet:
    if s < 1 or t < 1:
        raise StructureError("Lucas parameters s and t must be positive")
    if math.gcd(s, t) != 1:
        raise StructureError(f"Lucas parameters must be coprime; gcd({s},{t}) != 1")
    if sign not in (1, -1):
        raise StructureError("sign must be +1 or -1")
    return RodSet(((1, sign * s), (2, t)))


def lucas_check(s: int, t: int, sign: int, horizon: int) -> LucasReport:
    """Decide the Lucas laws of R = [1^(sign*s), 2^t] from its counts to the horizon.

    (a) for s > 1: s divides F(n, R) exactly when n is odd, for every n;
    (b) L(n) = F(n - 1, R) is a divisibility sequence: L(d) | L(kd) for
        every d <= horizon // 2 and every k >= 1.

    Both are theorems, so a broken law is a bug: it raises StructureError.

    (a): modulo s the recursion is F(n) = t*F(n - 2), so the state
    (F(n - 1), F(n)) mod s two steps on is t times itself, and t is a
    unit mod s.  Which entries are zero therefore repeats with period 2,
    and the parity test at n = 1 and 2 decides every n.

    (b): with max R = 2 the window test L(d) | L(2d), i.e.
    F(2d - 1) = alpha*F(d - 1), makes (d, 2d) a two-rod target
    S = [d^alpha, (2d)^beta] with a finite Q of degree <= 2d - 2 (see
    _scaling_hit).  In F = (1 + C_Q)*G, G the counts of S, G vanishes off
    multiples of d, so the coefficient at kd - 1 draws only on
    q_(d-1) = F(d - 1): L(kd) = L(d)*G((k - 1)d), also when beta = 0.  One
    test per d decides every multiple of d.  A d > horizon // 2 has no
    proper multiple within the horizon, so the verdict covers every pair
    m | n <= horizon.  The tests run as one pass over two slices of the
    counts, L(d) = counts[:horizon // 2] and L(2d) = counts[1::2] to the
    same length: a zero L(d) first, then any(map(mod, ...)).  Only when
    one fails is the first failing d looked up for the message.
    """
    rods = _lucas_rodset(s, t, sign)
    if horizon < 1:
        raise StructureError("horizon must be at least 1")
    counts = train_counts(rods, horizon)
    if s > 1:
        f1 = counts[1]
        for n, f in ((1, f1), (2, sign * s * f1 + t * counts[0])):
            if (f % s == 0) != (n % 2 == 1):
                raise StructureError(f"s-divisibility broke at n={n}: F(n)={f}; this is a bug")
    half = horizon // 2
    dens, nums = counts[:half], counts[1:2 * half:2]  # L(d), L(2d) for d = 1..half
    # A zero L(d) is tested first: map(mod) would raise ZeroDivisionError on it.
    if 0 in dens or any(map(mod, nums, dens)):
        d, den, num = next(
            (d, den, num) for d, den, num in zip(range(1, half + 1), dens, nums) if den == 0 or num % den
        )
        raise StructureError(f"L({d}) does not divide L({2 * d}): {den} vs {num}; this is a bug")
    return LucasReport(s, t, sign, horizon)


def lucas_two_shapes(
    s: int,
    t: int,
    sign: int,
    kind: str,
    *,
    a_min: int = 2,
    a_max: int = 4,
    a: int | None = None,
    d: int | None = None,
    k_max: int = 1,
) -> list[ScalingHit]:
    """The predictable two-rod expansions of R = [1^(sign*s), 2^t], F its own counts.

    kind "adjacent": shapes (a, a+1) for a_min <= a <= a_max, with
    S = [a^F(a), (a+1)^(t*F(a-1))]; each is cross-checked against the
    expansion chain that peels minimal rods relative to R (mediated by
    Q_a = [1^F(1), ..., (a-1)^F(a-1)]).

    kind "skip": the shape (a, a+2) for the given ``a``, which needs
    s = 1 or a even so that s divides F(a+1); then
    S = [a^(sign*F(a+1)/s), (a+2)^(-sign*t^2*F(a-1)/s)].

    kind "multiple": shapes (k*d, (k+1)*d) for 1 <= k <= k_max, d > 2,
    with alpha = F((k+1)d - 1) / F(d - 1) by Lucas divisibility and
    mult_b = F((k+1)d) - alpha*F(d).

    Only "skip" carries the sign.  R is counted once per call, to the
    largest length needed, and each hit is verified by the scaling window.
    """
    rods = _lucas_rodset(s, t, sign)
    w = rods.max_length

    def verified(counts: list[int], a_len: int, b_len: int, alpha: int, mult_b: int) -> ScalingHit:
        """The hit [a^alpha, b^mult_b] of the predicted shape, once the counts give it:
        with max R = 2 the window v_b = alpha*v_(b-a) is F(b - 1) = alpha*F(b - a - 1),
        and F(b) - alpha*F(b - a) must be mult_b, nonzero."""
        m = b_len - a_len
        want = [alpha * counts[m - 1], alpha * counts[m] + mult_b]
        if counts[b_len - 1:b_len + 1] != want or not mult_b:
            raise StructureError(f"predicted shape ({a_len},{b_len}) failed the scaling window")
        return _scaling_hit(rods, counts, a_len, b_len, alpha, mult_b, w)

    hits: list[ScalingHit] = []
    if kind == "adjacent":
        if a_min < 2:
            raise StructureError("adjacent chain starts at a = 2")
        if a_max < a_min:
            raise StructureError(f"adjacent range is empty: a_max = {a_max} < a_min = {a_min}")
        counts = train_counts(rods, a_max + 1)
        for a_len in range(a_min, a_max + 1):
            hit = verified(counts, a_len, a_len + 1, counts[a_len], t * counts[a_len - 1])
            chain_q = RodSet.from_mults({k: counts[k] for k in range(1, a_len)})
            if expand(rods, chain_q).s != hit.s:
                raise StructureError("minimal-rod chain disagrees with the scan")
            hits.append(hit)
    elif kind == "skip":
        if a is None:
            raise StructureError('kind "skip" needs the length a')
        if a < 2:
            raise StructureError("skip shapes need a >= 2")
        if s != 1 and a % 2 != 0:
            raise StructureError("skip shapes need s = 1 or a even (s must divide F(a+1))")
        counts = train_counts(rods, a + 2)
        if counts[a + 1] % s or (t * t * counts[a - 1]) % s:
            raise StructureError("s does not divide F(a+1) and t^2*F(a-1); this is a bug")
        alpha, mult_b = sign * counts[a + 1] // s, -sign * t * t * counts[a - 1] // s
        hits.append(verified(counts, a, a + 2, alpha, mult_b))
    elif kind == "multiple":
        if d is None or d <= 2:
            raise StructureError('kind "multiple" needs a spacing d > 2')
        if k_max < 1:
            raise StructureError("k_max must be at least 1")
        counts = train_counts(rods, (k_max + 1) * d)
        for k in range(1, k_max + 1):
            a_len, b_len = k * d, (k + 1) * d
            if counts[b_len - 1] % counts[d - 1]:
                raise StructureError("Lucas divisibility failed; this is a bug")
            alpha = counts[b_len - 1] // counts[d - 1]
            hits.append(verified(counts, a_len, b_len, alpha, counts[b_len] - alpha * counts[d]))
    else:
        raise StructureError(f'unknown kind {kind!r}: use "adjacent", "skip" or "multiple"')
    return hits


# ---------------------------------------------------------------------------
# Borwein trinomial classification


_BORWEIN_POS = RodSet(((1, 1), (2, -1)))
_BORWEIN_NEG = RodSet(((1, -1), (2, -1)))

_POS_CLASSES = {
    ((1, 1), (5, 1)): "(1,5) mod 6",
    ((1, 1), (2, -1)): "(1,-2) mod 6",
    ((2, -1), (4, -1)): "(-2,-4) mod 6",
    ((4, -1), (5, 1)): "(-4,5) mod 6",
}
_NEG_CLASS = {((1, -1), (2, -1)): "(-1,-2) mod 3"}


class BorweinTable(Record):
    """Signed pairs (sa*a, sb*b) whose trinomial 1 - sa*x^a - sb*x^b is
    divisible by char_poly([1,-2]) or char_poly([-1,-2]), partitioned by
    the residue classes of the classification theorem.  borwein_classify
    raises on a hit outside those classes, a bug, so ``unclassified`` is
    always empty."""

    __slots__ = ("bound", "classes")
    bound: int
    classes: dict
    unclassified = ()

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "classes": {label: [list(p) for p in pairs] for label, pairs in self.classes.items()},
            "unclassified": [],
        }

    def __str__(self) -> str:
        """One line per class with its hit count."""
        return "\n".join(f"{label}: {len(pairs)} hits" for label, pairs in self.classes.items())


def borwein_classify(bound: int) -> BorweinTable:
    """Classify all signed trinomials 1 - sa*x^a - sb*x^b, a < b <= bound.

    Divisibility by x^2 - x + 1 (the [1,-2] characteristic) lands
    exactly on four signed residue classes mod 6; divisibility by
    x^2 + x + 1 (the [-1,-2] characteristic) on one class mod 3.  The
    hits are read off the rod algebra alone: with max R = 2, char(base)
    divides 1 - sa*x^a - sb*x^b exactly when [a^sa, b^sb] is a two-rod
    target of the base, so they are the base's window targets
    (_window_targets) with +-1 multiplicities, the trivial self-expansion
    included, since the (1,-2) class contains it.  They come from the
    counts alone, with no Q built and no witness run, in (b, a) order.
    The theorem's classes check them both ways: every pair must fall in a
    class, where it is filed, and each class must hold exactly the pairs
    it predicts, every a < b <= bound with (a, b) mod the modulus and the
    signs of its key, taken in either order.  A pair outside the classes,
    or a class that disagrees with the windows, is a bug and raises
    StructureError.
    """
    if bound < 2:
        raise StructureError("bound must be at least 2")
    classes: dict = {}
    for base, modulus, known in ((_BORWEIN_POS, 6, _POS_CLASSES), (_BORWEIN_NEG, 3, _NEG_CLASS)):
        found: dict = {label: [] for label in known.values()}
        for b, a, alpha, mult_b in _window_targets(train_counts(base, bound), bound, 2):
            if abs(alpha) == 1 and abs(mult_b) == 1:
                label = known.get(tuple(sorted(((a % modulus, alpha), (b % modulus, mult_b)))))
                if label is None:
                    raise StructureError(
                        f"{base} divides the trinomial of ({alpha * a},{mult_b * b}) outside "
                        "the classes; this is a bug"
                    )
                found[label].append((alpha * a, mult_b * b))
        for key, label in known.items():
            predicted = sorted(
                (b, a, sa, sb)
                for (ra, sa), (rb, sb) in {key, key[::-1]}
                for b in range(rb or modulus, bound + 1, modulus)
                for a in range(ra or modulus, b, modulus)
            )
            if found[label] != [(sa * a, sb * b) for b, a, sa, sb in predicted]:
                raise StructureError(
                    f"the window targets of {base} and the class {label} disagree; this is a bug"
                )
        classes.update(found)
    return BorweinTable(bound, {label: tuple(pairs) for label, pairs in classes.items()})
