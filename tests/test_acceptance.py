"""Acceptance suite: thirteen end-to-end checks, one per criterion.

Each test carries an ``acceptance`` marker; the conftest hook prints an
``ACCEPTANCE NN PASS/FAIL`` line per criterion in the run summary.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from trainyard import (
    ArithmeticRods,
    PrefixRods,
    RodSet,
    TrainsOf,
    binomial_count,
    borwein_classify,
    char_poly,
    cyclotomic,
    detect_period,
    dual,
    enumerate_trains,
    expand,
    lucas_check,
    lucas_two_shapes,
    negate,
    parse_rodset,
    poly_divexact,
    poly_mul,
    rodset_from_char_poly,
    rodset_from_counts,
    scan_two_expansions,
    sequence_discrepancies,
    solve_Q,
    solve_R,
    train_counts,
)

from conftest import oracle_window_period, random_rodset


@pytest.mark.acceptance(1, "net train count regressions across signed rod sets")
def test_count_regressions():
    expected = {
        "[1,2]": [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144],
        "[1,-2]": [1, 1, 0, -1, -1, 0],
        "[2,3]": [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12],
        "[-1^2,-2^2]": [1, -2, 2, 0, -4, 8, -8, 0, 16, -32, 32],
        "[1^3,2^2]": [1, 3, 11, 39, 139, 495, 1763, 6279],
    }
    for literal, counts in expected.items():
        got = train_counts(parse_rodset(literal), len(counts) - 1)
        assert got == counts, f"count sequence of {literal} is wrong"
    linear = train_counts(parse_rodset("[1,1,-2]"), 50)
    assert linear == list(range(1, 52)), "[1,1,-2] must count n+1 trains of length n"


@pytest.mark.acceptance(2, "enumeration agrees with the recursion on 500 random rod sets")
def test_enumeration_matches_recursion():
    rng = random.Random(20260818)
    for _ in range(500):
        lengths = sorted(rng.sample(range(1, 6), rng.randint(1, 5)))
        rods = RodSet(tuple((k, rng.choice((-2, -1, 1, 2))) for k in lengths))
        counts = train_counts(rods, 12)
        for n in range(13):
            assert enumerate_trains(rods, n).net == counts[n], (
                f"enumeration disagrees with the recursion on {rods} at length {n}"
            )


@pytest.mark.acceptance(3, "[2,3,5] counts 14 net trains of length 10 both ways")
def test_concrete_double_count():
    rods = parse_rodset("[2,3,5]")
    assert train_counts(rods, 10)[10] == 14
    result = enumerate_trains(rods, 10)
    assert result.net == 14 and result.total == 14


@pytest.mark.acceptance(4, "discrepancy solver recovers exact and prefix mediators")
def test_discrepancy_solver():
    got = solve_Q(parse_rodset("[2,3]"), parse_rodset("[4^3,13]"))
    assert got.q == parse_rodset("[2,3,-4^2,5^2,-6,8,-9,10]") and got.q_finite is True

    got = solve_Q(parse_rodset("[1,-2]"), parse_rodset("[6]"))
    assert got.q == parse_rodset("[1,-3,-4]") and got.q_finite is True

    got = solve_Q(RodSet(), parse_rodset("[2,-3]"))
    assert got.q == parse_rodset("[-2,3]") and got.q_finite is True

    prefix = solve_Q(parse_rodset("[1,2]"), parse_rodset("[2,3]"), 8)
    assert isinstance(prefix.q, PrefixRods)
    assert prefix.q.mults == (1, 1, 1, 2, 3, 5, 8, 13) and prefix.q_finite is False

    lucas_with_lead = [1, 2, 1, 3, 4, 7, 11, 18, 29]
    deltas = sequence_discrepancies(lucas_with_lead, parse_rodset("[1,2]"))
    assert deltas == [1, -2, 0, 0, 0, 0, 0, 0]
    mediator = RodSet.from_mults(enumerate(deltas, start=1))
    assert mediator == parse_rodset("[1,-2^2]"), (
        "the Lucas sequence hangs off Fibonacci by the mediator [1,-2^2]"
    )


@pytest.mark.acceptance(5, "witness identity and solver round trips on 1000 random pairs")
def test_expansion_witness_and_round_trips():
    rng = random.Random(1000)
    for _ in range(1000):
        r = random_rodset(rng)
        q = random_rodset(rng)
        s = expand(r, q).s
        assert poly_mul(char_poly(r), char_poly(negate(q))) == char_poly(s), (
            f"witness identity (1 - C_S) = (1 - C_R)(1 + C_Q) fails for {r}, {q}"
        )
        assert solve_Q(r, s).q == q, f"solve_Q failed to recover {q}"
        assert solve_R(q, s).r == r, f"solve_R failed to recover {r}"


@pytest.mark.acceptance(6, "duality is an involution and inverts the even-train source")
def test_duality():
    assert dual(TrainsOf(parse_rodset("[2]"))) == parse_rodset("[-2]")

    rng = random.Random(1001)
    for _ in range(200):
        q = random_rodset(rng, max_length=6)
        first = dual(q, 64)
        assert isinstance(first, PrefixRods)
        back = dual(first, 64)
        want = [0] * 65
        for k, m in q.pairs:
            want[k] = m
        got = [0] + list(back.mults) if isinstance(back, PrefixRods) else None
        if got is None:
            assert back == q
        else:
            assert got == want[: len(got)], f"dual applied twice does not return {q}"


@pytest.mark.acceptance(7, "classical identity suite via expansions and enumeration")
def test_identity_suite():
    fib = train_counts(parse_rodset("[1,2]"), 95)
    pad = train_counts(parse_rodset("[2,3]"), 95)
    two = train_counts(parse_rodset("[1^2]"), 31)
    odd_parts = train_counts(ArithmeticRods(1, 2, 1), 31)

    for n in range(31):
        # Alternate Fibonacci sums.
        assert sum(fib[k] for k in range(0, 2 * n + 1, 2)) == fib[2 * n + 1]
        if n >= 1:
            assert sum(fib[k] for k in range(1, 2 * n, 2)) == fib[2 * n] - 1

        # Padovan skip-sums with period two and three.
        assert sum(pad[k] for k in range(0, 2 * n + 1, 2)) == pad[2 * n + 3]
        assert sum(pad[k] for k in range(1, 2 * n + 2, 2)) == pad[2 * n + 4] - 1
        assert sum(pad[k] for k in range(0, 3 * n + 1, 3)) == pad[3 * n + 2]
        assert sum(pad[k] for k in range(1, 3 * n + 2, 3)) == pad[3 * n + 3] - 1
        assert sum(pad[k] for k in range(2, 3 * n + 3, 3)) == pad[3 * n + 4]

        # Fibonacci skip-sums with period three land on exact halves.
        assert fib[3 * n + 2] % 2 == 0
        assert sum(fib[k] for k in range(0, 3 * n + 1, 3)) == fib[3 * n + 2] // 2
        if n >= 1:
            assert (fib[3 * n] - 1) % 2 == 0
            assert sum(fib[k] for k in range(1, 3 * n - 1, 3)) == (fib[3 * n] - 1) // 2
            assert (fib[3 * n + 1] - 1) % 2 == 0
            assert sum(fib[k] for k in range(2, 3 * n, 3)) == (fib[3 * n + 1] - 1) // 2

        # Geometric sum over two colors of the unit rod.
        if n >= 1:
            assert sum(two[k] for k in range(n)) == two[n] - 1

        # Compositions into odd parts follow the Fibonacci counts.
        if n >= 1:
            assert odd_parts[n] == fib[n - 1]

    # As many compositions use an odd number of parts as an even number.
    for n in range(1, 15):
        all_anti = RodSet(tuple((k, -1) for k in range(1, n + 1)))
        net = enumerate_trains(all_anti, n).net
        assert net == (-1 if n == 1 else 0), f"parity balance fails at {n}"


@pytest.mark.acceptance(8, "periodicity detection matches windowed scanning")
def test_periodicity():
    expected = {
        "[1,-2]": 6,
        "[-1,-2]": 3,
        "[-1,3,4,5,-7,-8]": 30,
        "[1]": 1,
    }
    for literal, period in expected.items():
        report = detect_period(parse_rodset(literal))
        assert report.periodic and report.least_period == period, f"{literal} -> {period}"
        assert report.window_confirmed is True
    assert detect_period(parse_rodset("[-1,3,4,5,-7,-8]")).cyclotomic_factors == (30,)
    assert not detect_period(parse_rodset("[1,1,-2]")).periodic

    tall = rodset_from_char_poly(cyclotomic(105))
    assert tall.max_length == 48 and tall.mult(7) == 2 and tall.mult(41) == 2
    report = detect_period(tall)
    assert report.periodic and report.least_period == 105

    # The bound times the library's verdicts, not the oracle, which counts in plain Python.
    elapsed = 0.0
    checked = 0
    for mults in itertools.product((0, 1, -1), repeat=6):
        rods = RodSet.from_mults(enumerate(mults, start=1))
        if not rods:
            continue
        started = time.monotonic()
        report = detect_period(rods)
        elapsed += time.monotonic() - started
        scanned = oracle_window_period(rods, 5000)
        if report.periodic:
            assert scanned == report.least_period, f"window missed the period of {rods}"
        else:
            assert scanned is None, f"window found a period the algebra denies for {rods}"
        checked += 1
    assert checked == 3**6 - 1
    assert elapsed < 10.0, f"exhaustive periodicity sweep too slow: {elapsed:.1f}s"


@pytest.mark.acceptance(9, "two-rod expansion scans reproduce the known tables")
def test_two_rod_scans():
    padovan_hits = scan_two_expansions(parse_rodset("[2,3]"), 16)
    assert [(h.a, h.b, str(h.s)) for h in padovan_hits] == [
        (1, 5, "[1,5]"),
        (2, 7, "[2^2,-7]"),
        (3, 7, "[3^2,7]"),
        (4, 13, "[4^3,13]"),
        (5, 14, "[5^4,14]"),
        (7, 16, "[7^7,16^2]"),
    ]

    fib_hits = scan_two_expansions(parse_rodset("[1,2]"), 12)
    (hit,) = [h for h in fib_hits if (h.a, h.b) == (8, 12)]
    assert hit.alpha == 48
    assert (hit.mult_a, hit.mult_b) == (48, -7) and str(hit.s) == "[8^48,-12^7]"
    fib = train_counts(parse_rodset("[1,2]"), 100)
    for n in range(11, 101):
        tail = hit.mult_b * fib[n - 12] if n >= 12 else 0
        assert fib[n] == hit.mult_a * fib[n - 8] + tail, f"scaled recursion fails at {n}"

    images = {str(h.s) for h in scan_two_expansions(parse_rodset("[1,3]"), 33)}
    assert {"[2^2,7]", "[3^3,8]", "[11^67,33]"} <= images

    anti_images = [str(h.s) for h in scan_two_expansions(parse_rodset("[1,-3]"), 33)]
    assert anti_images == [
        "[-4,-5]",
        "[-4^2,-7]",
        "[-5^2,7]",
        "[9^3,-13]",
        "[9^4,14]",
        "[-13^4,-14^3]",
        "[-13^7,-16^3]",
        "[-14^7,16^4]",
    ]

    mixed_images = [str(h.s) for h in scan_two_expansions(parse_rodset("[-2,3]"), 33)]
    assert mixed_images == ["[-5^2,7]", "[-5^3,8]", "[7^3,-8^2]", "[-22^67,33]"]

    # Reflected pairs reach the same antirod image through different mediators.
    left = expand(parse_rodset("[1,-4]"), parse_rodset("[1,2,3,-5,6,9]")).s
    assert left == parse_rodset("[-6^3,-13]")
    right = expand(parse_rodset("[3,-4]"), parse_rodset("[3,-4,6,7,8,9]")).s
    assert right == parse_rodset("[-7^3,-13]")


@pytest.mark.acceptance(10, "Lucas sequence laws and their expansion chains")
def test_lucas_laws_and_chains():
    for s, t, sign in [(3, 2, 1), (1, 1, 1), (2, 3, -1)]:
        report = lucas_check(s, t, sign, 120)
        assert report.passed, f"Lucas laws failed for ({s},{t},{sign}): {report.failure}"

    (adjacent,) = lucas_two_shapes(3, 2, 1, "adjacent", a_min=2, a_max=2)
    assert str(adjacent.s) == "[2^11,3^6]"

    (skip,) = lucas_two_shapes(3, 2, 1, "skip", a=4)
    assert str(skip.s) == "[4^165,-6^52]"

    multiples = lucas_two_shapes(3, 2, 1, "multiple", d=4, k_max=2)
    assert [str(h.s) for h in multiples] == ["[4^161,-8^16]", "[8^25905,-12^2576]"]


@pytest.mark.acceptance(11, "trinomial classification at bound 60 is exact")
def test_borwein_classification():
    table = borwein_classify(60)
    assert table.unclassified == ()
    sizes = {label: len(pairs) for label, pairs in table.classes.items()}
    assert sizes == {
        "(1,5) mod 6": 100,
        "(1,-2) mod 6": 100,
        "(-2,-4) mod 6": 100,
        "(-4,5) mod 6": 100,
        "(-1,-2) mod 3": 400,
    }

    mod6 = {pair for label, pairs in table.classes.items() if "mod 6" in label for pair in pairs}
    mod3 = set(table.classes["(-1,-2) mod 3"])
    phi6, phi3 = [1, -1, 1], [1, 1, 1]
    for b in range(2, 61):
        for a in range(1, b):
            for sa in (a, -a):
                for sb in (b, -b):
                    pairs = sorted(((a, 1 if sa > 0 else -1), (b, 1 if sb > 0 else -1)))
                    trinomial = char_poly(RodSet(tuple(pairs)))
                    assert (poly_divexact(trinomial, phi6) is not None) == (
                        (sa, sb) in mod6
                    ), f"mod-6 membership wrong for ({sa},{sb})"
                    assert (poly_divexact(trinomial, phi3) is not None) == (
                        (sa, sb) in mod3
                    ), f"mod-3 membership wrong for ({sa},{sb})"

    # The independent route: a trinomial is in a class exactly when the
    # matching base rod set scans to it as a two-rod image with unit
    # multiplicities.
    for base, members in [("[1,-2]", mod6), ("[-1,-2]", mod3)]:
        hits = scan_two_expansions(parse_rodset(base), 60, include_trivial=True)
        scanned = {
            (h.mult_a * h.a, h.mult_b * h.b)
            for h in hits
            if abs(h.mult_a) == 1 and abs(h.mult_b) == 1
        }
        assert scanned == members, f"scan of {base} disagrees with the classification"


@pytest.mark.acceptance(12, "binomial form of two-length counts")
def test_binomial_form():
    assert binomial_count(parse_rodset("[3,5]"), 70) == 63862
    period3 = train_counts(parse_rodset("[-1,-2]"), 40)
    assert period3 == [(1, -1, 0)[n % 3] for n in range(41)], (
        "the signed two-length set must cycle through 1,-1,0"
    )
    for literal in ["[1,2]", "[1,1]", "[1,-1]", "[-1,-2]", "[3,5]", "[2,3]"]:
        rods = parse_rodset(literal)
        counts = train_counts(rods, 40)
        for n in range(41):
            assert binomial_count(rods, n) == counts[n], (
                f"binomial form differs from the recursion on {literal} at {n}"
            )


@pytest.mark.acceptance(13, "count sequences invert back to rod sets")
def test_count_inversion():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    assert rodset_from_counts(catalan) == parse_rodset("[1,2,3^2,4^5,5^14,6^42,7^132]")

    rng = random.Random(1300)
    for _ in range(200):
        rods = random_rodset(rng, max_length=7, mult_choices=(-3, -2, -1, 1, 2, 3))
        counts = train_counts(rods, 32)
        assert rodset_from_counts(counts) == rods, f"count inversion broke on {rods}"
