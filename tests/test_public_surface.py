"""The public surface: every exported name resolves, and every record renders to JSON."""

from __future__ import annotations

import inspect
import json

import trainyard
from trainyard import (
    ArithmeticRods,
    PrefixRods,
    TrainsOf,
    borwein_classify,
    detect_period,
    expand,
    lucas_check,
    lucas_two_shapes,
    parse_rodset,
    scan_two_expansions,
)


def test_every_exported_name_resolves():
    # bench/tracer.py wraps each function named here, so a stale name breaks it.
    missing = [name for name in trainyard.__all__ if not hasattr(trainyard, name)]
    assert not missing, f"__all__ names what the package lacks: {missing}"
    assert len(set(trainyard.__all__)) == len(trainyard.__all__), "__all__ repeats a name"


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
