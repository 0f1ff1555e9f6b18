"""Bonded graded posets: the combinatorial skeleton of a stratification.

A StratPoset records the elements, the cover relation with its bonds (the
vanishing multiplicity of the upper element's extremal function along the
lower stratum's divisor), and the degree of each extremal function.  The
poset must be graded with a unique maximal element; every maximal chain then
has the same length r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from stratval.avector import TotalOrder
from stratval.errors import SchemaError, ValidationFailure, json_int, json_str, read_json

Chain = tuple[str, ...]  # ids, strictly decreasing top-down


@dataclass
class ValidationReport:
    ok: bool
    r: int | None
    failures: list[str] = field(default_factory=list)


class StratPoset:
    """Graded poset with bonds b_{p,q} on covers and degrees deg f_p."""

    def __init__(
        self,
        elements: Sequence[tuple[str, str]],
        covers: Sequence[tuple[str, str, int]],
        fdeg: dict[str, int],
        extend_bottom: bool = False,
    ):
        self.ids = [e[0] for e in elements]
        self.labels = dict(elements)
        if len(set(self.ids)) != len(self.ids):
            raise SchemaError("duplicate element ids")
        known = set(self.ids)
        self.covers_of: dict[str, list[tuple[str, int]]] = {p: [] for p in self.ids}
        self.covered_by: dict[str, list[tuple[str, int]]] = {p: [] for p in self.ids}
        self.bond: dict[tuple[str, str], int] = {}
        for upper, lower, b in covers:
            if upper not in known or lower not in known:
                raise SchemaError(f"cover ({upper},{lower}) uses unknown id")
            if b < 1:
                raise SchemaError(f"bond on ({upper},{lower}) must be >= 1, got {b}")
            self.covers_of[upper].append((lower, b))
            self.covered_by[lower].append((upper, b))
            self.bond[(upper, lower)] = b
        self.fdeg = dict(fdeg)
        for p in self.ids:
            if self.fdeg.get(p, 0) < 1:
                raise SchemaError(f"fdeg of {p!r} must be a positive integer")
        self.extend_bottom = extend_bottom
        self._bottom_up: tuple[str, ...] | None = None
        self._below: dict[str, set[str]] | None = None
        self._chains: tuple[Chain, ...] | None = None
        self._faces: dict[Chain, Chain] | None = None
        self._length: dict[str, int] | None = None
        self._report: ValidationReport | None = None

    # -- order machinery ---------------------------------------------------

    def below(self, p: str) -> set[str]:
        """All q <= p (reflexive, transitive closure of covers)."""
        if self._below is None:
            self._below = {}
            for q in self.bottom_up():
                acc = {q}
                for r, _ in self.covers_of[q]:
                    acc |= self._below[r]
                self._below[q] = acc
        if p not in self._below:
            raise SchemaError(f"unknown id {p!r}")
        return self._below[p]

    def leq(self, q: str, p: str) -> bool:
        return q in self.below(p)

    def bottom_up(self) -> tuple[str, ...]:
        """The ids with every element after all elements below it, the least
        available id first.  Sorted once per poset; a cycle in the covers
        raises ValidationFailure on every call."""
        if self._bottom_up is None:
            indeg = {p: len(self.covers_of[p]) for p in self.ids}
            queue = sorted(p for p in self.ids if indeg[p] == 0)
            out = []
            while queue:
                q = queue.pop(0)
                out.append(q)
                for r, _ in self.covered_by[q]:
                    indeg[r] -= 1
                    if indeg[r] == 0:
                        queue.append(r)
                queue.sort()
            if len(out) != len(self.ids):
                raise ValidationFailure("cover relation contains a cycle")
            self._bottom_up = tuple(out)
        return self._bottom_up

    def maximal_elements(self) -> list[str]:
        return sorted(p for p in self.ids if not self.covered_by[p])

    def minimal_elements(self) -> list[str]:
        return sorted(p for p in self.ids if not self.covers_of[p])

    @property
    def p_max(self) -> str:
        tops = self.maximal_elements()
        if len(tops) != 1:
            raise ValidationFailure(f"poset has {len(tops)} maximal elements")
        return tops[0]

    # -- chains -------------------------------------------------------------

    def maximal_chains(self) -> list[Chain]:
        """All maximal chains, top-down, in lexicographic id order.

        Listed once per poset; each call returns a fresh list."""
        if self._chains is None:
            self._chains = tuple(self._list_maximal_chains())
        return list(self._chains)

    def _list_maximal_chains(self) -> list[Chain]:
        tops = self.maximal_elements()
        out: list[Chain] = []

        def walk(p: str, acc: list[str]):
            acc.append(p)
            lows = sorted(q for q, _ in self.covers_of[p])
            if not lows:
                out.append(tuple(acc))
            else:
                for q in lows:
                    walk(q, acc)
            acc.pop()

        for t in tops:
            walk(t, [])
        return out

    def length(self, p: str) -> int:
        """Length of any maximal chain from p down to a minimal element.

        Computed as the longest path; on a graded poset every path agrees.
        """
        if p not in self.covers_of:
            raise SchemaError(f"unknown id {p!r}")
        if self._length is None:
            lens: dict[str, int] = {}
            for q in self.bottom_up():
                lows = self.covers_of[q]
                lens[q] = 1 + max(lens[x] for x, _ in lows) if lows else 0
            self._length = lens
        return self._length[p]

    def chain_sums(self, cover: Callable, bottom: Callable) -> dict:
        """For each p, the sum over the maximal chains below p of the product
        of cover(u, l) over their cover pairs and bottom(q) at their minimal
        element q, by one pass over the covers."""
        s: dict = {}
        for p in self.bottom_up():
            lows = self.covers_of[p]
            s[p] = sum(cover(p, q) * s[q] for q, _ in lows) if lows else bottom(p)
        return s

    def chains_through(self, subset: Iterable[str]) -> list[Chain]:
        """Maximal chains containing every element of the subset."""
        want = set(subset)
        for p in want:
            if p not in self.covers_of:
                raise SchemaError(f"unknown id {p!r}")
        return [c for c in self.maximal_chains() if want <= set(c)]

    def is_chain(self, ids: Iterable[str]) -> bool:
        """Whether every two of the ids are comparable, that is, whether they
        lie on a common maximal chain."""
        downs = {p: self.below(p) for p in sorted(set(ids))}
        return all(
            a in downs[b] or b in downs[a]
            for a, b in itertools.combinations(downs, 2)
        )

    def order_complex(self) -> list[Chain]:
        """All nonempty chains (faces of the order complex), top-down."""
        return sorted(self.faces_with_last_chain(), key=lambda f: (len(f), f))

    def faces_with_last_chain(self) -> dict[Chain, Chain]:
        """Each face of the order complex with the last maximal chain, in
        maximal_chains() order, that contains it.

        Built once per poset; each call returns a fresh dict."""
        if self._faces is None:
            self._faces = self._list_faces()
        return dict(self._faces)

    def _list_faces(self) -> dict[Chain, Chain]:
        last: dict[Chain, Chain] = {}
        for c in self.maximal_chains():
            n = len(c)
            for mask in range(1, 1 << n):
                last[tuple(c[i] for i in range(n) if mask & (1 << i))] = c
        return last

    def chain_bonds(self, chain: Chain) -> list[int]:
        """Bonds along a maximal chain, top-down: [b_r, ..., b_1, b_0].

        The final entry is the extended-bottom bond, the degree of the minimal
        element's extremal function.
        """
        bonds = []
        for upper, lower in zip(chain, chain[1:]):
            if (upper, lower) not in self.bond:
                raise SchemaError(f"({upper},{lower}) is not a cover pair")
            bonds.append(self.bond[(upper, lower)])
        bonds.append(self.fdeg[chain[-1]])
        return bonds

    def hodge_violations(self) -> list[tuple[tuple[str, str], int]]:
        """What keeps the poset from Hodge type, sorted: each cover with its
        bond other than one, and each minimal element p whose degree is not
        one as ((p, "origin"), degree)."""
        bad = [(e, b) for e, b in self.bond.items() if b != 1]
        bad += [
            ((p, "origin"), self.fdeg[p])
            for p in self.minimal_elements()
            if self.fdeg[p] != 1
        ]
        return sorted(bad)

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Acyclic, a unique maximal element, graded, bonds >= 1; checked
        once per poset, each call returns a fresh report."""
        if self._report is None:
            self._report = self._check()
        return replace(self._report, failures=list(self._report.failures))

    def _check(self) -> ValidationReport:
        failures = []
        try:
            self.bottom_up()
        except ValidationFailure as e:
            return ValidationReport(False, None, [str(e)])
        tops = self.maximal_elements()
        if len(tops) != 1:
            failures.append(f"expected a unique maximal element, found {tops}")
        chains = self.maximal_chains()
        lengths = sorted({len(c) - 1 for c in chains})
        r = lengths[-1] if lengths else None
        if len(lengths) > 1:
            short = next(c for c in chains if len(c) - 1 == lengths[0])
            failures.append(
                f"not graded: chain lengths {lengths}, witness {'>'.join(short)}"
            )
        for (u, l), b in sorted(self.bond.items()):
            if b < 1:
                failures.append(f"bond on ({u},{l}) is {b} < 1")
        return ValidationReport(not failures, r, failures)

    @property
    def r(self) -> int:
        rep = self.validate()
        if not rep.ok:
            raise ValidationFailure("; ".join(rep.failures))
        assert rep.r is not None
        return rep.r

    def default_total_order(self) -> TotalOrder:
        """Decreasing length, ties broken by ascending id string."""
        lens = {p: self.length(p) for p in self.ids}
        return TotalOrder(sorted(self.ids, key=lambda p: (-lens[p], p)))

    def check_total_order(self, order: TotalOrder) -> None:
        ranked = list(order)
        if set(ranked) != set(self.ids):
            raise SchemaError("total order must enumerate exactly the poset ids")
        lens = {p: self.length(p) for p in self.ids}
        for i, p in enumerate(ranked):
            for q in ranked[i + 1 :]:
                if lens[p] < lens[q]:
                    raise ValidationFailure(
                        f"total order not length-compatible: {p} before {q}"
                    )
                if self.leq(p, q) and p != q:
                    raise ValidationFailure(
                        f"total order does not refine the partial order: {p} < {q}"
                    )

    # -- serialization ---------------------------------------------------------

    @staticmethod
    def from_json(doc: dict) -> "StratPoset":
        try:
            elements = [
                (json_str(e["id"]), e.get("label", e["id"])) for e in doc["elements"]
            ]
            fdeg = {e["id"]: json_int(e["fdeg"]) for e in doc["elements"]}
            covers = [
                (json_str(c["upper"]), json_str(c["lower"]), json_int(c["bond"]))
                for c in doc["covers"]
            ]
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad stratification document: {e}") from None
        return StratPoset(
            elements, covers, fdeg, extend_bottom=bool(doc.get("extend_bottom", False))
        )

    @staticmethod
    def load(path) -> "StratPoset":
        return StratPoset.from_json(read_json(path))

    def to_json(self) -> dict:
        return {
            "schema": "stratval-stratification/1",
            "elements": [
                {"id": p, "label": self.labels[p], "fdeg": self.fdeg[p]}
                for p in self.ids
            ],
            "covers": [
                {"upper": u, "lower": l, "bond": b}
                for (u, l), b in sorted(self.bond.items())
            ],
            "extend_bottom": self.extend_bottom,
        }

    def hasse_dot(self) -> str:
        """DOT digraph of the Hasse diagram, edges labeled with bonds.

        With the extended-bottom flag the origin node is drawn too, bonded to
        each minimal element by the degree of its extremal function.
        """
        lines = ["// stratval-dot/1", "digraph hasse {", "  rankdir=BT;"]
        for p in sorted(self.ids):
            lines.append(f'  "{p}" [label="{self.labels[p]}"];')
        for (u, l), b in sorted(self.bond.items()):
            lines.append(f'  "{l}" -> "{u}" [label="{b}"];')
        if self.extend_bottom:
            lines.append('  "p_minus_1" [label="origin", shape=point];')
            for p in self.minimal_elements():
                lines.append(f'  "p_minus_1" -> "{p}" [label="{self.fdeg[p]}"];')
        lines.append("}")
        return "\n".join(lines)


def generic_model(s: int, r: int) -> StratPoset:
    """The generic-hyperplane stratification skeleton: a chain q_r > ... > q_1
    over s bottom points, all bonds 1, bottom extremal degrees s-1 (or 1 when
    s = 1).  The extended-bottom bonds then equal those degrees."""
    if s < 1 or r < 1:
        raise SchemaError("generic_model requires s >= 1 and r >= 1")
    elements = [(f"q{j}", f"q{j}") for j in range(r, 0, -1)]
    elements += [(f"q0_{k}", f"q0_{k}") for k in range(1, s + 1)]
    fdeg = {f"q{j}": 1 for j in range(1, r + 1)}
    bottom_deg = s - 1 if s >= 2 else 1
    covers = [(f"q{j + 1}", f"q{j}", 1) for j in range(1, r)]
    for k in range(1, s + 1):
        fdeg[f"q0_{k}"] = bottom_deg
        covers.append((f"q1", f"q0_{k}", 1))
    return StratPoset(elements, covers, fdeg, extend_bottom=True)
