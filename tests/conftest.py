"""Shared test helpers: an independent brute-force oracle, a rod-set maker,
and the settings of the property tests.

The oracle walks compositions literally and multiplies net
multiplicities — no code shared with the package's recursion or its
enumerator, so agreement is evidence, not tautology.
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
    mult = rods.as_dict()
    lengths = tuple(sorted(mult))
    return sum(
        math.prod(mult[k] for k in comp) for comp in _compositions(n, lengths)
    )


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
