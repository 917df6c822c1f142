"""Shared test helpers: independent oracles, a rod-set maker, and the
settings of the property tests.

The count oracle walks compositions literally and multiplies net
multiplicities — no code shared with the package's recursion or its
enumerator, so agreement is evidence, not tautology.  The scan oracles
test the expansion windows one length, or one pair of lengths, at a
time, on counts from the plain recurrence, and the window period
oracle tries every period one at a time on the same counts.  The Lucas
oracle tests the laws one n, and one pair m | n, at a time.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import settings

from trainyard import RodSet

# Derandomized and capped, so every run checks the same inputs and the suite stays fast.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _compositions(n: int, lengths: tuple[int, ...]):
    """Yield every composition of n into parts drawn from lengths."""
    if n == 0:
        yield ()
        return
    for k in lengths:
        if k <= n:
            for rest in _compositions(n - k, lengths):
                yield (k,) + rest


def oracle_net_count(rods: RodSet, n: int) -> int:
    """Net train count by explicit composition enumeration.

    The signed, colored trains over a fixed composition sum to the
    product of the parts' net multiplicities, so the net count is the
    sum of those products over all compositions.
    """
    mult = dict(rods.pairs)
    lengths = tuple(sorted(mult))
    return sum(
        math.prod(mult[k] for k in comp) for comp in _compositions(n, lengths)
    )


def _recurrence_counts(rods: RodSet, upto: int) -> list[int]:
    """F(0..upto) from F(0) = 1 and F(n) = sum of m_k * F(n - k) over the rods."""
    mult = dict(rods.pairs)
    counts = [1]
    for n in range(1, upto + 1):
        counts.append(sum(m * counts[n - k] for k, m in mult.items() if k <= n))
    return counts


def oracle_scan_one(rods: RodSet, bound: int) -> list[tuple[int, int]]:
    """The one-rod scan length by length: (a, F(a)) where F(a) != 0 and the
    window F(a - i), 1 <= i < max R, is all zero (F(k) = 0 for k < 0)."""
    w = rods.max_length
    counts = _recurrence_counts(rods, bound)
    return [
        (a, counts[a])
        for a in range(1, bound + 1)
        if counts[a] and all(counts[a - i] == 0 for i in range(1, w) if a - i >= 0)
    ]


def _window_ratio(counts: list[int], a: int, b: int, w: int) -> int | None:
    """The nonzero integer alpha with F(b - i) = alpha * F(b - a - i) on 1 <= i < w, if any."""
    alpha = None
    for i in range(1, w):
        lhs = counts[b - i] if b - i >= 0 else 0
        rhs = counts[b - a - i] if b - a - i >= 0 else 0
        if rhs == 0:
            if lhs != 0:
                return None
        else:
            if lhs % rhs:
                return None
            ratio = lhs // rhs
            if alpha is None:
                alpha = ratio
            elif alpha != ratio:
                return None
    return alpha or None  # no nonzero F(b-a-i) to scale against, or ratio zero


def oracle_scan_two(rods: RodSet, bound: int, include_trivial: bool = False) -> list[tuple]:
    """The two-rod scan pair by pair: (a, b, alpha, mult_b, S, Q) ordered by (b, a).

    Every 1 <= a < b <= bound is tried with the window test, then
    mult_b = F(b) - alpha * F(b - a) must be nonzero; Q's multiplicities
    are the discrepancies F(n) - alpha * F(n - a) for n <= b - max R.
    A pair with empty Q is kept only with ``include_trivial``.
    """
    w = rods.max_length
    counts = _recurrence_counts(rods, bound)
    hits = []
    for b in range(2, bound + 1):
        for a in range(1, b):
            alpha = _window_ratio(counts, a, b, w)
            if alpha is None:
                continue
            mult_b = counts[b] - alpha * counts[b - a]
            if mult_b == 0:
                continue
            q = RodSet.from_mults(
                (n, counts[n] - (alpha * counts[n - a] if n >= a else 0))
                for n in range(1, b - w + 1)
            )
            if include_trivial or q.pairs:
                hits.append((a, b, alpha, mult_b, RodSet(((a, alpha), (b, mult_b))), q))
    return hits


def oracle_window_period(rods: RodSet, horizon: int) -> int | None:
    """Least p <= horizon whose max R-window repeats the initial one, on the
    plain-recurrence counts to horizon + max R - 1.  list.index finds the
    candidates, the p with F(p) = F(0) = 1, and each is tried in turn."""
    w = rods.max_length
    counts = _recurrence_counts(rods, horizon + w - 1)
    p = 0
    while True:
        try:
            p = counts.index(1, p + 1, horizon + 1)
        except ValueError:
            return None
        if counts[p:p + w] == counts[:w]:
            return p


def oracle_lucas_check(s: int, t: int, sign: int, horizon: int) -> tuple:
    """(passed, mod_check, divisibility_check, failure) of the Lucas laws of
    R = [1^(sign*s), 2^t], checked pair by pair up to the horizon.

    (a) for s > 1, each n <= horizon in turn: s | F(n) exactly when n is odd.
    (b) each n <= horizon in turn, against its proper divisors m in
    ascending order (from a sieve): L(m) | L(n), L(n) = F(n - 1), with
    L(m) = 0 a failure.  The first broken law names the failure.
    """
    counts = _recurrence_counts(RodSet(((1, sign * s), (2, t))), horizon)
    failure = None
    mod_ok = None
    if s > 1:
        mod_ok = True
        for n in range(1, horizon + 1):
            if (counts[n] % s == 0) != (n % 2 == 1):
                mod_ok = False
                failure = f"s-divisibility broke at n={n}: F(n)={counts[n]}"
                break
    proper_divisors: list[list[int]] = [[] for _ in range(horizon + 1)]
    for m in range(1, horizon // 2 + 1):
        for n in range(2 * m, horizon + 1, m):
            proper_divisors[n].append(m)
    div_ok = True
    for n in range(2, horizon + 1):
        for m in proper_divisors[n]:
            num, den = counts[n - 1], counts[m - 1]
            if den == 0 or num % den:
                div_ok = False
                failure = failure or f"L({m}) does not divide L({n}): {den} vs {num}"
                break
        if not div_ok:
            break
    return (mod_ok is not False) and div_ok, mod_ok, div_ok, failure


def random_rodset(
    rng: random.Random,
    max_length: int = 5,
    mult_choices: tuple[int, ...] = (-2, -1, 1, 2),
) -> RodSet:
    """A random nonempty reduced rod set with lengths <= max_length."""
    lengths = rng.sample(range(1, max_length + 1), rng.randint(1, max_length))
    return RodSet(tuple(sorted((k, rng.choice(mult_choices)) for k in lengths)))


@pytest.fixture
def oracle_net():
    return oracle_net_count


@pytest.fixture
def make_rodset():
    return random_rodset


# Session-scoped, so that hypothesis tests may take them.
@pytest.fixture(scope="session")
def pairwise_scan():
    return oracle_scan_two


@pytest.fixture(scope="session")
def zero_window_scan():
    return oracle_scan_one


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, desc): a numbered acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    results = getattr(item.config, "_acceptance_results", None)
    if results is None:
        results = item.config._acceptance_results = {}
    num, desc = marker.args
    if report.when == "call" or (report.when == "setup" and report.failed):
        results[num] = (desc, report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        desc, passed = results[num]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {word}: {desc}")
