"""Reduced signed multisets of rods.

A rod is a unit of positive integer length carrying a sign: a plain rod
counts +1, an antirod counts -1.  A rod set is a finite signed multiset
of rods, and everything we count about it depends only on the *net*
multiplicity per length.  So a rod set is stored reduced: a sorted
tuple of (length, multiplicity) pairs with every multiplicity nonzero.
Rod/antirod pairs of equal length annihilate at construction time,
which turns the equivalence relation between colored multisets into
plain structural equality here.

Multiplicities are arbitrary-precision integers; expansion outputs
routinely overflow machine words.

The literal grammar (used by :func:`parse_rodset`, the CLI, and rod-set
files) is::

    rodset := "[" ws (term (ws "," ws term)*)? ws "]"
    term   := "-"? integer ("^" integer)?

where the first integer is a length >= 1 and the optional second is a
count >= 1 (default 1).  The sign attaches to the length token only, so
``-2^7`` means seven antirods of length 2 and ``2^-7`` is a syntax
error.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import attrgetter


class RodSetError(ValueError):
    """Domain error raised by rod-set operations."""


class RodSetParseError(RodSetError):
    """Syntax error in a rod-set literal; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class Record:
    """An immutable value whose fields are the names in its class's ``__slots__``.

    Records of one class are equal, and hash alike, when their fields
    are; a record never equals one of another class.  Assigning or
    deleting a field raises AttributeError.  A class that validates or
    defaults a field, or is built in an inner loop, binds each field in
    its own ``__init__`` with ``object.__setattr__``; the rest take
    their fields, by position or name, in slot order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = args + tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(values) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor: they cannot set slots here.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class RodSet(Record):
    """A reduced rod set: sorted ``(length, multiplicity)`` pairs.

    Construct through :meth:`from_mults` or :func:`parse_rodset`; the
    raw constructor expects pairs already sorted and reduced.
    """

    __slots__ = ("pairs",)
    exact = True

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        pairs = tuple(pairs)
        last = 0
        for k, m in pairs:
            if k.__class__ is not int or m.__class__ is not int:
                raise RodSetError(f"rod lengths and multiplicities must be ints, got ({k!r}, {m!r})")
            if k <= last:
                if k < 1:
                    raise RodSetError(f"rod length must be positive, got {k}")
                raise RodSetError("rod lengths must be sorted and distinct")
            if not m:
                raise RodSetError(f"zero net multiplicity for length {k} must be dropped")
            last = k
        object.__setattr__(self, "pairs", pairs)

    @staticmethod
    def from_mults(mults: Mapping[int, int] | Iterable[tuple[int, int]]) -> RodSet:
        """Build a rod set from (length, multiplicity) data, reducing as needed.

        A Mapping's keys are distinct, so it is taken as it is; any other
        iterable has the multiplicities of repeated lengths summed.  Either
        way, lengths whose net multiplicity is zero vanish, and the result
        is sorted and validated once.
        """
        if not isinstance(mults, Mapping):
            mults = _add_products({}, mults, _ONE)
        return RodSet(tuple(sorted(item for item in mults.items() if item[1] != 0)))

    def mult(self, length: int) -> int:
        """Net multiplicity of ``length`` (0 when absent)."""
        for k, m in self.pairs:
            if k == length:
                return m
        return 0

    @property
    def max_length(self) -> int | None:
        """Largest length present, or None for the empty set."""
        return self.pairs[-1][0] if self.pairs else None

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __str__(self) -> str:
        return format_rodset(self)

    def __neg__(self) -> RodSet:
        return negate(self)

    def fraction(self, n: int | None = None) -> tuple:
        """C = N/1 with N the rod pairs, as the nonzero terms of N and D."""
        return self.pairs, ((0, 1),)

    def to_json(self) -> dict:
        return {"kind": "finite", "rods": format_rodset(self)}


def parse_rodset(text: str) -> RodSet:
    """Parse a rod-set literal like ``[1,-2]`` or ``[8^48,-12^7]``.

    Duplicate terms for the same length are summed, so ``[2,-2,3]``
    reduces to ``[3]``.  Syntax errors report the offending position;
    zero lengths and ``^0`` multiplicities are rejected.
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int(what: str) -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdecimal():
            pos += 1
        if pos == start:
            raise RodSetParseError(f"expected {what}", start)
        return int(text[start:pos])

    skip_ws()
    if pos >= n or text[pos] != "[":
        raise RodSetParseError("expected '['", pos)
    pos += 1
    skip_ws()
    terms: list[tuple[int, int]] = []
    if pos < n and text[pos] == "]":
        pos += 1
    else:
        while True:
            skip_ws()
            sign = 1
            if pos < n and text[pos] == "-":
                sign = -1
                pos += 1
            at = pos
            length = read_int("a rod length")
            if length == 0:
                raise RodSetParseError("rod length must be positive", at)
            count = 1
            if pos < n and text[pos] == "^":
                pos += 1
                at = pos
                count = read_int("a multiplicity count after '^'")
                if count == 0:
                    raise RodSetParseError("multiplicity count must be positive", at)
            terms.append((length, sign * count))
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                continue
            if pos < n and text[pos] == "]":
                pos += 1
                break
            raise RodSetParseError("expected ',' or ']'", pos)
    skip_ws()
    if pos != n:
        raise RodSetParseError("unexpected trailing text", pos)
    return RodSet.from_mults(terms)


def format_rodset(rods: RodSet) -> str:
    """Canonical literal: lengths ascending, ``-`` for antirods, ``^k`` for |mult| >= 2."""
    parts = []
    for k, m in rods.pairs:
        tok = f"{'-' if m < 0 else ''}{k}"
        if abs(m) >= 2:
            tok += f"^{abs(m)}"
        parts.append(tok)
    return "[" + ",".join(parts) + "]"


# The polynomial 1, as the nonzero terms (length 0 included) that _add_products takes.
_ONE = ((0, 1),)


def _add_products(out: dict, pairs, times) -> dict:
    """Add C(pairs)*C(times) into the {length: multiplicity} dict ``out`` and return it.

    Both are sequences of (length, multiplicity) terms; a (0, c) term of
    ``times`` scales ``pairs`` by c, so each result of the rod-set algebra
    below is one such dict and one RodSet, with no set built in between.
    """
    get = out.get
    for j, c in times:
        for k, m in pairs:
            out[j + k] = get(j + k, 0) + m * c
    return out


def union(r: RodSet, s: RodSet) -> RodSet:
    """Multiset union: multiplicities add, then reduce."""
    return RodSet.from_mults(_add_products(dict(r.pairs), s.pairs, _ONE))


def negate(r: RodSet) -> RodSet:
    """Swap rods and antirods (negate every multiplicity)."""
    return RodSet(tuple((k, -m) for k, m in r.pairs))


def concat(r: RodSet, s: RodSet) -> RodSet:
    """All pairwise length sums; multiplicities multiply.

    This is the rod-set product: the count function of the result is the
    convolution of the factors' count functions.  The empty set is
    absorbing, and there is no identity element (that would need a rod
    of length 0).
    """
    return RodSet.from_mults(_add_products({}, s.pairs, r.pairs))


def odd_sign_swap(r: RodSet) -> RodSet:
    """Negate the multiplicity of every odd length (an involution).

    The swapped set's net train counts are the original's times (-1)^n.
    """
    return RodSet(tuple((k, -m if k % 2 else m) for k, m in r.pairs))
