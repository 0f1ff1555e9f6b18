"""Sparse rational vectors indexed by poset elements, and total orders on them.

AVectors carry valuation values, monoid elements and simplex vertices; the
lexicographic comparison under a length-compatible total order is what turns
per-chain valuations into one global quasi-valuation.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping

from stratval.errors import SchemaError, json_object


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class AVector:
    """Map from poset-element id to a nonzero Fraction; absent means 0."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, Fraction] | None = None):
        clean = {}
        if entries:
            for k, v in entries.items():
                v = Fraction(v)
                if v:
                    clean[k] = v
        self.entries = clean

    @staticmethod
    def zero() -> "AVector":
        return AVector()

    @staticmethod
    def unit(p: str, c=1) -> "AVector":
        return AVector({p: Fraction(c)})

    def support(self) -> set[str]:
        return set(self.entries)

    def __getitem__(self, p: str) -> Fraction:
        return self.entries.get(p, Fraction(0))

    def __add__(self, other: "AVector") -> "AVector":
        d = dict(self.entries)
        for k, v in other.entries.items():
            s = d.get(k, Fraction(0)) + v
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        return AVector(d)

    def __sub__(self, other: "AVector") -> "AVector":
        return self + other.scale(-1)

    def scale(self, c) -> "AVector":
        c = Fraction(c)
        if not c:
            return AVector()
        return AVector({k: c * v for k, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, AVector) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def key(self) -> tuple:
        return tuple(sorted(self.entries.items()))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            (f"{v}*e[{k}]" if v != 1 else f"e[{k}]")
            for k, v in sorted(self.entries.items())
        ).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> dict[str, str]:
        return {k: str(v) for k, v in sorted(self.entries.items())}

    @staticmethod
    def from_json(d: Mapping[str, str]) -> "AVector":
        return AVector({k: Fraction(v) for k, v in json_object(d).items()})


class TotalOrder:
    """Ranked list of all poset-element ids, strictly decreasing.

    Must refine the poset's partial order, and longer elements must come
    first; both are checked by StratPoset.check_total_order.
    """

    __slots__ = ("ranked", "_rank")

    def __init__(self, ranked: Iterable[str]):
        self.ranked = list(ranked)
        self._rank = {p: i for i, p in enumerate(self.ranked)}
        if len(self._rank) != len(self.ranked):
            raise SchemaError("total order repeats an id")

    def rank(self, p: str) -> int:
        try:
            return self._rank[p]
        except KeyError:
            raise SchemaError(f"id {p!r} not covered by the total order") from None

    def __contains__(self, p: str) -> bool:
        return p in self._rank

    def __iter__(self):
        return iter(self.ranked)

    def __len__(self):
        return len(self.ranked)


def lex_compare(u: AVector, v: AVector, ord: TotalOrder) -> Ordering:
    """Compare entry-by-entry in the order's sequence; first difference decides."""
    for p in u.support() | v.support():
        ord.rank(p)  # raises on unknown ids
    for p in ord:
        a, b = u[p], v[p]
        if a != b:
            return Ordering.GREATER if a > b else Ordering.LESS
    return Ordering.EQUAL


def lex_min(values: Iterable[AVector], ord: TotalOrder) -> AVector:
    best: AVector | None = None
    for v in values:
        if best is None or lex_compare(v, best, ord) is Ordering.LESS:
            best = v
    if best is None:
        raise ValueError("lex_min of an empty collection")
    return best


def degree_of(u: AVector, degs: Mapping[str, int]) -> Fraction:
    """Sum of entry * deg f_p over the support."""
    total = Fraction(0)
    for p, v in u.entries.items():
        if p not in degs:
            raise SchemaError(f"no degree given for supported id {p!r}")
        total += v * degs[p]
    return total
