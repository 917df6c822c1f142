"""trainyard: exact arithmetic on signed rod sets and their train counts.

A rod set is a finite signed multiset of positive integer lengths; its
net train count F(n, R) counts ordered rod sequences of total length n,
weighted by sign.  This package computes those counts exactly, solves
for the mediating rod set of an expansion in either direction, decides
periodicity algebraically, scans for one- and two-rod expansion
targets, and verifies the Lucas-family and Borwein-trinomial structure
— everything cross-checkable against a brute-force enumeration.

Every name in ``__all__`` is read from the package.  The layers under the
searches (``rodset``, ``series``, ``counts``, ``expansion``) load with it;
``structure`` loads on first use of one of its names, which then binds them
all, so a caller that never searches does not pay for importing it.
"""

from .counts import (
    ArithmeticRods,
    CountsError,
    EnumerationResult,
    PrefixRods,
    RodSource,
    TrainsOf,
    binomial_count,
    discrepancies,
    enumerate_trains,
    sequence_discrepancies,
    train_counts,
)
from .expansion import (
    Expansion,
    ExpansionError,
    compose,
    dual,
    expand,
    expand_minimal,
    rodset_from_counts,
    solve_Q,
    solve_R,
)
from .rodset import (
    RodSet,
    RodSetError,
    RodSetParseError,
    concat,
    format_rodset,
    negate,
    odd_sign_swap,
    parse_rodset,
    union,
)
from .series import (
    SeriesError,
    char_poly,
    cyclotomic,
    poly_divexact,
    poly_mul,
    poly_text,
    rodset_from_char_poly,
    series_inverse,
    series_mul,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticRods",
    "BorweinTable",
    "CountsError",
    "EnumerationResult",
    "Expansion",
    "ExpansionError",
    "LucasReport",
    "PeriodReport",
    "PrefixRods",
    "RodSet",
    "RodSetError",
    "RodSetParseError",
    "RodSource",
    "ScalingHit",
    "SeriesError",
    "StructureError",
    "TrainsOf",
    "binomial_count",
    "borwein_classify",
    "char_poly",
    "compose",
    "concat",
    "cyclotomic",
    "detect_period",
    "discrepancies",
    "dual",
    "enumerate_trains",
    "expand",
    "expand_minimal",
    "format_rodset",
    "lucas_check",
    "lucas_two_shapes",
    "negate",
    "odd_sign_swap",
    "parse_rodset",
    "poly_divexact",
    "poly_mul",
    "poly_text",
    "rodset_from_char_poly",
    "rodset_from_counts",
    "scan_one_expansions",
    "scan_two_expansions",
    "sequence_discrepancies",
    "series_inverse",
    "series_mul",
    "solve_Q",
    "solve_R",
    "train_counts",
    "union",
    "__version__",
]


def __getattr__(name):
    # PEP 562: the structure searches load on first use, so that a process
    # that calls none of them never imports (or compiles) their module.  The
    # first one asked for binds every exported name and removes both hooks, so
    # that later reads are plain module attributes that CPython specializes.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import structure

    namespace = globals()
    namespace.update((key, getattr(structure, key)) for key in __all__ if key not in namespace)
    namespace.pop("__getattr__", None)
    namespace.pop("__dir__", None)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
