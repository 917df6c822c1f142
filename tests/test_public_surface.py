"""The public surface: every exported name resolves, and every record renders to JSON
and behaves as an immutable value."""

from __future__ import annotations

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import trainyard
from trainyard import (
    ArithmeticRods,
    PrefixRods,
    TrainsOf,
    RodSet,
    borwein_classify,
    detect_period,
    enumerate_trains,
    expand,
    lucas_check,
    lucas_two_shapes,
    parse_rodset,
    scan_two_expansions,
)
from trainyard.rodset import Record


def test_every_exported_name_resolves():
    # bench/tracer.py wraps each function named here, so a stale name breaks it.
    missing = [name for name in trainyard.__all__ if not hasattr(trainyard, name)]
    assert not missing, f"__all__ names what the package lacks: {missing}"
    assert len(set(trainyard.__all__)) == len(trainyard.__all__), "__all__ repeats a name"


# Run in a fresh process, where trainyard.structure has not been loaded yet.
LAZY_PROBE = """
import sys
import trainyard

def unknown_name_fails():
    try:
        trainyard.no_such_name
    except AttributeError as exc:
        assert "'trainyard'" in str(exc) and "no_such_name" in str(exc), exc
    else:
        raise AssertionError("an unknown name resolved")

names = set(trainyard.__all__)
assert names <= set(dir(trainyard)), sorted(names - set(dir(trainyard)))
unknown_name_fails()
assert "trainyard.structure" not in sys.modules, "dir or a failed lookup loaded structure"
from trainyard import *
assert names <= set(globals()), sorted(names - set(globals()))
assert trainyard.detect_period is trainyard.structure.detect_period is detect_period
assert "__getattr__" not in vars(trainyard), "the hook outlived the binding"
assert names <= set(dir(trainyard)) and names <= set(vars(trainyard))
unknown_name_fails()
print("ok")
"""


def test_structure_names_load_on_first_use_and_bind_once():
    # Binding every name at once keeps one object per name, so that a
    # monkeypatch or the benchmark's tracer replaces what every caller reads.
    src = Path(trainyard.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def _records() -> list:
    return [
        parse_rodset("[1,-2^3]"),
        ArithmeticRods(1, 2, -1),
        TrainsOf(parse_rodset("[2]"), -1),
        PrefixRods((1, 0, -1)),
        expand(parse_rodset("[1,2]"), parse_rodset("[2]")),
        detect_period(parse_rodset("[1,-2]")),
        detect_period(parse_rodset("[1,1,-2]")),
        lucas_check(3, 2, 1, 12),
        *scan_two_expansions(parse_rodset("[2,3]"), 16),
        *lucas_two_shapes(2, 1, -1, "adjacent"),
        borwein_classify(8),
    ]


def test_every_record_renders_to_json():
    records = _records()
    exported = {
        value
        for value in map(trainyard.__dict__.get, trainyard.__all__)
        if inspect.isclass(value) and hasattr(value, "to_json")
    }
    unsampled = exported - {type(record) for record in records}
    assert not unsampled, f"no sample record of {sorted(cls.__name__ for cls in unsampled)}"
    for record in records:
        assert isinstance(json.loads(json.dumps(record.to_json())), dict), repr(record)
        if type(record).__module__ == "trainyard.structure":
            assert str(record) != repr(record), f"{type(record).__name__} has no text of its own"


def _contract_records() -> list:
    return _records() + [enumerate_trains(parse_rodset("[1,-2]"), 2, collect=True)]


# The repr of each record of _contract_records(), in the format the records have always had.
REPRS = (
    "RodSet(pairs=((1, 1), (2, -3)))",
    "ArithmeticRods(first=1, step=2, sign=-1)",
    "TrainsOf(base=RodSet(pairs=((2, 1),)), sign=-1)",
    "PrefixRods(mults=(1, 0, -1))",
    (
        "Expansion(r=RodSet(pairs=((1, 1), (2, 1))), q=RodSet(pairs=((2, 1),)), "
        "s=RodSet(pairs=((1, 1), (3, 1), (4, 1))), horizon=64, q_finite=True, r_finite=True)"
    ),
    (
        "PeriodReport(least_period=6, cyclotomic_factors=(6,), "
        "q_to_period=RodSet(pairs=((1, 1), (3, -1), (4, -1))))"
    ),
    "PeriodReport(least_period=None, cyclotomic_factors=(1,), q_to_period=None)",
    "LucasReport(s=3, t=2, sign=1, horizon=12)",
    (
        "ScalingHit(a=1, b=5, alpha=1, mult_b=1, s=RodSet(pairs=((1, 1), (5, 1))), "
        "q=RodSet(pairs=((1, -1), (2, 1))))"
    ),
    (
        "ScalingHit(a=2, b=7, alpha=2, mult_b=-1, s=RodSet(pairs=((2, 2), (7, -1))), "
        "q=RodSet(pairs=((2, -1), (3, 1), (4, -1))))"
    ),
    (
        "ScalingHit(a=3, b=7, alpha=2, mult_b=1, s=RodSet(pairs=((3, 2), (7, 1))), "
        "q=RodSet(pairs=((2, 1), (3, -1), (4, 1))))"
    ),
    (
        "ScalingHit(a=4, b=13, alpha=3, mult_b=1, s=RodSet(pairs=((4, 3), (13, 1))), "
        "q=RodSet(pairs=((2, 1), (3, 1), (4, -2), (5, 2), (6, -1), (8, 1), (9, -1), (10, "
        "1))))"
    ),
    (
        "ScalingHit(a=5, b=14, alpha=4, mult_b=1, s=RodSet(pairs=((5, 4), (14, 1))), "
        "q=RodSet(pairs=((2, 1), (3, 1), (4, 1), (5, -2), (6, 2), (7, -1), (9, 1), (10, -1), "
        "(11, 1))))"
    ),
    (
        "ScalingHit(a=7, b=16, alpha=7, mult_b=2, s=RodSet(pairs=((7, 7), (16, 2))), "
        "q=RodSet(pairs=((2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, -4), (8, 4), (9, -2), "
        "(11, 2), (12, -2), (13, 2))))"
    ),
    (
        "ScalingHit(a=2, b=3, alpha=5, mult_b=-2, s=RodSet(pairs=((2, 5), (3, -2))), "
        "q=RodSet(pairs=((1, -2),)))"
    ),
    (
        "ScalingHit(a=3, b=4, alpha=-12, mult_b=5, s=RodSet(pairs=((3, -12), (4, "
        "5))), q=RodSet(pairs=((1, -2), (2, 5))))"
    ),
    (
        "ScalingHit(a=4, b=5, alpha=29, mult_b=-12, s=RodSet(pairs=((4, 29), (5, "
        "-12))), q=RodSet(pairs=((1, -2), (2, 5), (3, -12))))"
    ),
    (
        "BorweinTable(bound=8, classes={'(1,5) mod 6': ((1, 5), (5, 7)), '(1,-2) mod 6': ((1, "
        "-2), (-2, 7), (1, -8), (7, -8)), '(-2,-4) mod 6': ((-2, -4), (-4, -8)), "
        "'(-4,5) mod 6': ((-4, 5),), '(-1,-2) mod 3': ((-1, -2), (-2, -4), (-1, -5), (-4, -5), "
        "(-2, -7), (-5, -7), (-1, -8), (-4, -8), (-7, -8))})"
    ),
    "EnumerationResult(net=0, total=2, trains=(((1, 1, 1), (1, 1, 1)), ((2, 1, -1),)))",
)


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_record_reprs_keep_their_format():
    assert [repr(record) for record in _contract_records()] == list(REPRS)


def test_record_fields_cannot_be_assigned_or_deleted():
    for record in _contract_records():
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None


def test_records_refuse_the_wrong_number_of_fields():
    # Checked by Record.__init__; a class with its own __init__ answers for itself.
    plain = [record for record in _contract_records() if type(record).__init__ is Record.__init__]
    assert plain
    for record in plain:
        fields = _fields(record)
        for args, kwargs in ((fields[:-1], {}), (fields + (None,), {}), (fields, {"extra": None})):
            with pytest.raises(TypeError, match="takes the fields"):
                type(record)(*args, **kwargs)


def test_records_equal_and_hash_like_a_copy_rebuilt_from_their_fields():
    for record in _contract_records():
        rebuilt = type(record)(*_fields(record))
        assert rebuilt == record and not rebuilt != record, repr(record)
        if type(record).__name__ != "BorweinTable":  # its classes field is a dict
            assert hash(rebuilt) == hash(record), repr(record)


def test_records_never_equal_a_record_of_another_class():
    assert RodSet(()) != PrefixRods(())
    for record in _contract_records():
        twin = type("Twin", (Record,), {"__slots__": type(record).__slots__})
        assert twin(*_fields(record)) != record, repr(record)
        assert record != _fields(record), repr(record)


def test_records_survive_pickle_and_copy():
    for record in _contract_records():
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record, repr(record)
