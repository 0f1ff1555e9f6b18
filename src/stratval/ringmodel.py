"""Graded quotient rings presented by generators and homogeneous relations.

This is the independent ground-truth oracle: per-degree monomial bases,
Hilbert function, and normal forms are computed by exact row reduction.  No
term orders beyond a fixed deterministic monomial enumeration, no Groebner
machinery: the degree-m slice of the ideal is spanned by the relations times
all monomials of complementary degree.  Each slice is eliminated
fraction-free over Z (Bareiss, Math. Comp. 22, 1968): every relation is
scaled to integer coefficients once per slice, a row is reduced as
a * row - b * other with a, b the two leads over their gcd, and each stored
row is primitive with a positive lead.  Normal forms are still `Fraction`
coordinates, which the pivots and the row space determine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from stratval.errors import BoundError, SchemaError, json_int, json_str, read_json
from stratval.laurent import LaurentPoly, Monomial, _mono_mul, parse_laurent

SLICE_GUARD = 50_000


class GradedQuotient:
    def __init__(self, variables: list[tuple[str, int]], relations: list[LaurentPoly]):
        self.vars = [v for v, _ in variables]
        self.degree = dict(variables)
        if any(d < 1 for d in self.degree.values()):
            raise SchemaError("variable degrees must be positive")
        self.relations = []
        for rel in relations:
            if rel.is_zero():
                continue
            self._check_vars(rel)
            degs = set(rel.weighted_degree_parts(self.degree))
            if len(degs) != 1:
                raise SchemaError(f"relation {rel} is not homogeneous")
            self.relations.append((rel, degs.pop()))
        self._monomials: dict[int, list[Monomial]] = {}
        self._basis_cache: dict[int, list[Monomial]] = {}
        self._reduced_cache: dict[int, tuple] = {}

    def _check_vars(self, p: LaurentPoly):
        for m in p.terms:
            for v, e in m:
                if v not in self.degree:
                    raise SchemaError(f"unknown ring variable {v!r}")
                if e < 0:
                    raise SchemaError("ring elements cannot have negative exponents")

    def monomials(self, m: int) -> list[Monomial]:
        """All monomials of weighted degree m, in a fixed deterministic order."""
        return list(self._monomials_of(m))

    def _monomials_of(self, m: int) -> list[Monomial]:
        """`monomials(m)`, built once per degree and kept; not to be changed."""
        if m in self._monomials:
            return self._monomials[m]
        out: list[Monomial] = []

        def walk(i: int, remaining: int, acc: list[tuple[str, int]]):
            if i == len(self.vars):
                if remaining == 0:
                    out.append(tuple(sorted(a for a in acc if a[1])))
                return
            v = self.vars[i]
            d = self.degree[v]
            for e in range(remaining // d, -1, -1):
                acc.append((v, e))
                walk(i + 1, remaining - e * d, acc)
                acc.pop()

        walk(0, m, [])
        self._monomials[m] = out
        return out

    def _slice(self, m: int):
        """Row-reduced degree-m slice of the ideal over Z; returns (monomial
        order, index of each monomial, reduced rows, pivot -> row index).
        Each reduced row is primitive with a positive lead, its largest key;
        divided by that lead it is the row the reduction over Q would keep."""
        if m in self._reduced_cache:
            return self._reduced_cache[m]
        monos = self._monomials_of(m)
        if len(monos) > SLICE_GUARD:
            raise BoundError(f"degree slice with {len(monos)} monomials refused")
        index = {mo: i for i, mo in enumerate(monos)}
        reduced: list[dict[int, int]] = []
        pivots: dict[int, int] = {}
        for rel, d in self.relations:
            if d > m:
                continue
            scale = lcm(*(c.denominator for c in rel.terms.values()))
            terms = [
                (mo, c.numerator * (scale // c.denominator))
                for mo, c in rel.terms.items()
            ]
            for shift in self._monomials_of(m - d):
                row = {index[_mono_mul(mo, shift)]: c for mo, c in terms}
                while row:
                    lead = max(row)
                    if lead not in pivots:
                        g = gcd(*row.values())
                        if row[lead] < 0:
                            g = -g
                        pivots[lead] = len(reduced)
                        reduced.append({j: c // g for j, c in row.items()})
                        break
                    other = reduced[pivots[lead]]
                    g = gcd(row[lead], other[lead])
                    a, b = other[lead] // g, row[lead] // g
                    if a != 1:
                        for j in row:
                            row[j] *= a
                    for j, c in other.items():
                        s = row.get(j, 0) - b * c
                        if s:
                            row[j] = s
                        else:
                            row.pop(j, None)
        self._reduced_cache[m] = (monos, index, reduced, pivots)
        return self._reduced_cache[m]

    def degree_basis(self, m: int) -> list[Monomial]:
        """Monomials spanning degree m of the quotient: the non-pivot columns."""
        if m < 0:
            raise SchemaError("degree must be nonnegative")
        if m not in self._basis_cache:
            monos, _, _, pivots = self._slice(m)
            self._basis_cache[m] = [
                mo for i, mo in enumerate(monos) if i not in pivots
            ]
        return self._basis_cache[m]

    def hilbert(self, m: int) -> int:
        return len(self.degree_basis(m))

    def normal_form(self, poly: LaurentPoly, m: int) -> dict[Monomial, Fraction]:
        """Coordinates of a degree-m element in the degree basis."""
        if poly.is_zero():
            return {}
        self._check_vars(poly)
        degs = set(poly.weighted_degree_parts(self.degree))
        if degs != {m}:
            raise SchemaError(f"normal_form: element not homogeneous of degree {m}")
        monos, index, reduced, pivots = self._slice(m)
        row = {index[mo]: c for mo, c in poly.terms.items()}
        for lead in sorted(pivots, reverse=True):
            if lead in row:
                other = reduced[pivots[lead]]
                f = Fraction(row[lead], other[lead])
                for j, c in other.items():
                    s = row.get(j, 0) - f * c
                    if s:
                        row[j] = s
                    else:
                        row.pop(j, None)
        return {monos[j]: c for j, c in sorted(row.items())}

    def is_zero_in_quotient(self, poly: LaurentPoly) -> bool:
        if poly.is_zero():
            return True
        parts = poly.weighted_degree_parts(self.degree)
        return all(not self.normal_form(p, d) for d, p in parts.items())

    @staticmethod
    def from_json(doc: dict) -> "GradedQuotient":
        try:
            variables = [
                (json_str(v["name"]), json_int(v["degree"])) for v in doc["vars"]
            ]
            relations = [parse_laurent(r) for r in doc.get("relations", [])]
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad ring document: {e}") from None
        return GradedQuotient(variables, relations)

    @staticmethod
    def load(path) -> "GradedQuotient":
        return GradedQuotient.from_json(read_json(path))
