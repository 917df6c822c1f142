"""Reference arithmetic for the correctness gate; it shares no code with trainyard.

Rod sets are plain ``((length, mult), ...)`` tuples, polynomials are sparse
``{degree: coeff}`` dicts and power series are dense lists.  Every check
returns ``None`` when the answer holds and a short reason when it does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

PRIME = (1 << 61) - 1


def clean(poly: dict) -> dict:
    return {k: c for k, c in poly.items() if c}


def char(pairs) -> dict:
    """1 - C(x) of a finite rod set."""
    out = {0: 1}
    for k, m in pairs:
        out[k] = out.get(k, 0) - m
    return clean(out)


def one_plus(pairs) -> dict:
    """1 + C(x) of a finite rod set."""
    out = {0: 1}
    for k, m in pairs:
        out[k] = out.get(k, 0) + m
    return clean(out)


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return clean(out)


def pairs_of(poly: dict, sign: int) -> tuple:
    """Rod pairs whose 1 + sign*C(x) is ``poly`` (poly[0] must be 1)."""
    return tuple(sorted((k, sign * c) for k, c in poly.items() if k))


def expand_pairs(r, q) -> tuple:
    """S with (1 - C_S) = (1 - C_R)(1 + C_Q)."""
    return pairs_of(mul(char(r), one_plus(q)), -1)


def counts(pairs, n: int) -> list:
    """F(0..n) of a finite rod set, by the first-rod recursion."""
    f = [1] + [0] * n
    for i in range(1, n + 1):
        f[i] = sum(m * f[i - k] for k, m in pairs if k <= i)
    return f


def series_quotient(num: dict, den: dict, n: int) -> list:
    """Coefficients 0..n of num/den as a power series; den[0] must be +-1."""
    d0 = den[0]
    tail = sorted((k, c) for k, c in den.items() if k)
    out = [0] * (n + 1)
    for i in range(n + 1):
        acc = num.get(i, 0)
        for k, c in tail:
            if k > i:
                break
            acc -= c * out[i - k]
        out[i] = acc * d0
    return out


def series_satisfies(den: dict, values, num: dict) -> bool:
    """Whether den * values == num through the last index of values."""
    tail = sorted(den.items())
    for i in range(len(values)):
        acc = 0
        for k, c in tail:
            if k > i:
                break
            acc += c * values[i - k]
        if acc != num.get(i, 0):
            return False
    return True


def exact_quotient(num: dict, den: dict) -> dict | None:
    """num/den when den (constant term +-1) divides num exactly, else None."""
    top_n, top_d = max(num), max(den)
    if top_n < top_d:
        return None
    q = clean(dict(enumerate(series_quotient(num, den, top_n - top_d))))
    return q if mul(q, den) == num else None


# -- rod sources, as (kind, fields) specs -------------------------------------


def source_rational(spec) -> tuple[dict, dict]:
    """(num, den) with count series F = num/den for an infinite rod source.

    ``("arith", a, d, s)`` has C = s*x^a/(1 - x^d), so F = (1 - x^d)/(1 - x^d - s*x^a);
    ``("trains", base, s)`` has C = s*(1/char(base) - 1), so
    F = char(base)/((1 + s)*char(base) - s).
    """
    if spec[0] == "arith":
        _, first, step, sign = spec
        den = {0: 1, step: -1}
        den[first] = den.get(first, 0) - sign
        return {0: 1, step: -1}, clean(den)
    _, base, sign = spec
    cb = char(base)
    den = {k: (1 + sign) * c for k, c in cb.items()}
    den[0] -= sign
    return cb, clean(den)


def source_mults(spec, n: int) -> list:
    """Multiplicities m(0..n) of an infinite rod source."""
    if spec[0] == "arith":
        _, first, step, sign = spec
        out = [0] * (n + 1)
        for k in range(first, n + 1, step):
            out[k] = sign
        return out
    _, base, sign = spec
    out = [sign * c for c in counts(base, n)]
    out[0] = 0
    return out


def source_counts(spec, n: int) -> list:
    num, den = source_rational(spec)
    return series_quotient(num, den, n)


# -- periodicity --------------------------------------------------------------


def _prime_factors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def totient(n: int) -> int:
    for p in _prime_factors(n):
        n -= n // p
    return n


def _divides_one_minus_xp(c: dict, p: int) -> bool:
    return exact_quotient({0: 1, p: -1}, c) is not None


def _xpow_mod(c: dict, e: int) -> list:
    """x^e mod c over GF(PRIME), c of degree w with unit leading coefficient."""
    w = max(c)
    lead_inv = pow(c[w], -1, PRIME)
    red = [(-c.get(k, 0) * lead_inv) % PRIME for k in range(w)]  # x^w = sum red[k] x^k

    def mulmod(a, b):
        prod = [0] * (2 * w - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for top in range(2 * w - 2, w - 1, -1):
            t = prod[top] % PRIME
            if t:
                for k in range(w):
                    prod[top - w + k] += t * red[k]
        return [v % PRIME for v in prod[:w]]

    result = [1] + [0] * (w - 1)
    base = [0, 1] + [0] * (w - 2) if w > 1 else [red[0]]
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


def is_periodic(pairs) -> bool:
    """Whether F(., R) is periodic: char(R) divides 1 - x^L for L = lcm{d : phi(d) <= max R}."""
    c = char(pairs)
    w = max(c)
    if abs(c[w]) != 1:
        return False
    coeffs = [c.get(k, 0) for k in range(w + 1)]
    if coeffs != coeffs[::-1] and coeffs != [-v for v in coeffs[::-1]]:
        return False
    period_bound = 1
    for d in range(1, 2 * w * w + 1):
        if totient(d) <= w:
            period_bound = math.lcm(period_bound, d)
    return _xpow_mod(c, period_bound) == [1] + [0] * (w - 1)


def check_period(pairs, report) -> str | None:
    c = char(pairs)
    if not report.window_confirmed:
        return "window scan did not confirm"
    if report.periodic:
        p = report.least_period
        if not _divides_one_minus_xp(c, p):
            return f"char does not divide 1 - x^{p}"
        for ell in _prime_factors(p):
            if _divides_one_minus_xp(c, p // ell):
                return f"period {p} is not least ({p // ell} works)"
        if mul(c, one_plus(report.q_to_period.pairs)) != {0: 1, p: -1}:
            return "Q to the period fails the witness"
        return None
    if is_periodic(pairs):
        return "sequence is periodic"
    return None


# -- expansion scans ----------------------------------------------------------


def _remainders(pairs, upto: int) -> tuple[list, int]:
    """Integer vectors V_n with x^n = V_n / lead^n mod char(R), for n = 0..upto, and lead."""
    c = char(pairs)
    w = max(c)
    lead = c[w]
    low = [c.get(k, 0) for k in range(w)]
    cur = [1] + [0] * (w - 1)
    out = [cur]
    for _ in range(upto):
        top = cur[-1]
        cur = [lead * v - top * low[k] for k, v in enumerate([0] + cur[:-1])]
        out.append(cur)
    return out, lead


def _solve_two(va, vb, target):
    """(alpha, beta) with alpha*va + beta*vb = target over Q; None if none, "many" if not unique."""
    w = len(va)
    for i in range(w):
        for j in range(i + 1, w):
            det = va[i] * vb[j] - va[j] * vb[i]
            if det:
                na = target[i] * vb[j] - target[j] * vb[i]
                nb = va[i] * target[j] - va[j] * target[i]
                if any(na * va[k] + nb * vb[k] != det * target[k] for k in range(w)):
                    return None
                return Fraction(na, det), Fraction(nb, det)
    return "many"


def two_rod_targets(pairs, bound: int) -> tuple[set, set]:
    """Two-rod targets (a, b, alpha, beta) that the scaling window can see, and pairs left undecided.

    [a^alpha, b^beta] is a target when char(R) divides 1 - alpha*x^a - beta*x^b,
    that is when alpha*x^a + beta*x^b = 1 mod char(R).
    """
    w = max(k for k, _ in pairs)
    rem, lead = _remainders(pairs, bound)
    f = counts(pairs, bound)
    found, undecided = set(), set()
    for b in range(2, bound + 1):
        target = [lead**b] + [0] * (w - 1)
        for a in range(1, b):
            if not any(f[b - i - a] for i in range(1, w) if b - i - a >= 0):
                continue  # no nonzero denominator in the window: the scan skips the pair
            sol = _solve_two([lead ** (b - a) * v for v in rem[a]], rem[b], target)
            if sol == "many":
                undecided.add((a, b))
            elif sol is not None:
                alpha, beta = sol
                if alpha and beta and alpha.denominator == 1 and beta.denominator == 1:
                    found.add((a, b, int(alpha), int(beta)))
    return found, undecided


def check_scan_two(pairs, bound: int, hits) -> str | None:
    keys = [(h.b, h.a) for h in hits]
    if keys != sorted(set(keys)):
        return "hits not ordered by (b, a)"
    got = set()
    for h in hits:
        if h.s.pairs != ((h.a, h.alpha), (h.b, h.mult_b)) or h.mult_a != h.alpha:
            return f"malformed hit at ({h.a},{h.b})"
        if not h.q.pairs:
            return "trivial hit reported"
        if expand_pairs(pairs, h.q.pairs) != h.s.pairs:
            return f"witness fails at ({h.a},{h.b})"
        got.add((h.a, h.b, h.alpha, h.mult_b))
    expected, undecided = two_rod_targets(pairs, bound)
    expected = {t for t in expected if (t[0], t[1]) not in undecided and
                ((t[0], t[2]), (t[1], t[3])) != tuple(pairs)}
    got = {t for t in got if (t[0], t[1]) not in undecided}
    if got != expected:
        return f"scan misses {sorted(expected - got)[:3]} or invents {sorted(got - expected)[:3]}"
    return None


def check_scan_one(pairs, bound: int, hits) -> str | None:
    """[a^m] is a target when x^a = 1/m mod char(R), i.e. V_a is a constant v with lead^a / v integral."""
    rem, lead = _remainders(pairs, bound)
    expected = []
    for a in range(1, bound + 1):
        v = rem[a]
        if v[0] and not any(v[1:]) and lead**a % v[0] == 0:
            expected.append((a, lead**a // v[0]))
    return None if list(hits) == expected else f"expected {expected[:4]}"


# -- Borwein trinomials -------------------------------------------------------

# Powers of a primitive 6th root z (z^2 = z - 1) and a primitive cube root
# w (w^2 = -1 - w), as (u, v) meaning u + v*root.
_Z6 = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
_W3 = [(1, 0), (0, 1), (-1, -1)]


def borwein_pairs(bound: int, table, period: int) -> set:
    """Signed pairs (sa*a, sb*b) with 1 - sa*x^a - sb*x^b vanishing at the root."""
    out = set()
    for b in range(2, bound + 1):
        for a in range(1, b):
            for sa in (1, -1):
                for sb in (1, -1):
                    ua, va = table[a % period]
                    ub, vb = table[b % period]
                    if (1 - sa * ua - sb * ub, -sa * va - sb * vb) == (0, 0):
                        out.add((sa * a, sb * b))
    return out


def _residue_class(pair, modulus: int) -> tuple:
    (x, y) = pair
    return tuple(sorted(((abs(x) % modulus, 1 if x > 0 else -1),
                         (abs(y) % modulus, 1 if y > 0 else -1))))


_POS_LABELS = {
    "(1,5) mod 6": ((1, 1), (5, 1)),
    "(1,-2) mod 6": ((1, 1), (2, -1)),
    "(-2,-4) mod 6": ((2, -1), (4, -1)),
    "(-4,5) mod 6": ((4, -1), (5, 1)),
}
_NEG_LABELS = {"(-1,-2) mod 3": ((1, -1), (2, -1))}


def check_borwein(bound: int, table) -> str | None:
    if table.bound != bound or table.unclassified:
        return "unclassified pairs or wrong bound"
    want_pos = borwein_pairs(bound, _Z6, 6)
    want_neg = borwein_pairs(bound, _W3, 3)
    got_pos, got_neg = set(), set()
    for label, pairs in table.classes.items():
        labels, modulus, sink = ((_POS_LABELS, 6, got_pos) if label in _POS_LABELS
                                 else (_NEG_LABELS, 3, got_neg))
        if label not in labels:
            return f"unknown class {label}"
        for pair in pairs:
            if _residue_class(pair, modulus) != labels[label]:
                return f"{pair} filed under {label}"
            sink.add(pair)
    if got_pos != want_pos or got_neg != want_neg:
        return "classified pairs differ from the root-of-unity test"
    return None
