"""Fans of monoids, their lattices, decomposition and the fan product.

The image of the quasi-valuation is a union of finitely generated monoids,
one per maximal chain, glued along shared subchains.  This module carries the
lattice L^C fixed by the bonds, the lattice generated by any set of values,
bounded saturation certificates, indecomposables with ordered decompositions,
and the fan-algebra multiplication rule.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from stratval.avector import AVector, TotalOrder, degree_of
from stratval.errors import SchemaError, ValidationFailure
from stratval.intlattice import hnf_basis, solve_in_rowspace
from stratval.poset import Chain, StratPoset


class LatticeQ:
    """Full- or partial-rank lattice in Q^chain spanned by the integer rows
    / den, one entry per coordinate of coords; the rows need not be
    independent.  Kept as the nonzero rows of their Hermite normal form;
    nothing changes a lattice after construction.
    """

    def __init__(self, coords: Chain, rows: list[list[int]], den: int):
        self.coords = tuple(coords)
        self.den = den
        self.rows = hnf_basis(rows)

    @property
    def basis(self) -> list[AVector]:
        """The rows / den as vectors, built on each read."""
        return [
            AVector({p: Fraction(x, self.den) for p, x in zip(self.coords, row)})
            for row in self.rows
        ]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def membership(self, v: AVector) -> bool:
        """Whether v is in the lattice: each entry x, times den, read off
        x's numerator and denominator in integers."""
        entries = v.entries
        if not entries.keys() <= set(self.coords):
            return False
        den = self.den
        scaled = []
        for p in self.coords:
            x = entries.get(p)
            if x is None:
                scaled.append(0)
                continue
            q, r = divmod(x.numerator * den, x.denominator)
            if r:
                return False
            scaled.append(q)
        return self.contains_scaled(scaled)

    def contains_scaled(self, scaled: list[int]) -> bool:
        """Membership of the vector scaled / den, given by its integer entries
        over self.coords."""
        return solve_in_rowspace(self.rows, scaled) is not None

    def to_json(self) -> dict:
        return {
            "coords": list(self.coords),
            "basis": [b.to_json() for b in self.basis],
        }


def lattice_LC(ps: StratPoset, chain: Chain) -> LatticeQ:
    """The bond lattice: e_{p_j} / (b_r ... b_j), including the bottom degree.
    Over den = b_r ... b_0 its generators are the integer rows
    (den / (b_r ... b_j)) e_{p_j}."""
    try:  # from a maximal to a minimal element through covers
        bonds = ps.chain_bonds(chain)
        maximal = isinstance(chain, tuple) and not (
            ps.covered_by[chain[0]] or ps.covers_of[chain[-1]]
        )
    except (IndexError, KeyError, TypeError, SchemaError):
        maximal = False
    if not maximal:
        raise SchemaError(f"{'>'.join(chain)} is not a maximal chain")
    running = list(itertools.accumulate(bonds, operator.mul))
    den = running[-1]
    rows = [
        [den // r if i == j else 0 for j in range(len(chain))]
        for i, r in enumerate(running)
    ]
    return LatticeQ(chain, rows, den)


def lattice_generated(vectors: list[AVector], chain: Chain | None = None) -> LatticeQ:
    """Z-span of valuation values supported in one chain, over the least
    common denominator of their entries."""
    if not vectors:
        raise SchemaError("lattice_generated needs at least one vector")
    if chain is None:
        chain = sorted({p for v in vectors for p in v.support()})
    chain = tuple(chain)
    cset = set(chain)
    for v in vectors:
        if not v.support() <= cset:
            raise SchemaError(
                f"vector {v} not supported in the coordinate chain {chain}"
            )
    den = lcm(1, *(x.denominator for v in vectors for x in v.entries.values()))
    return LatticeQ(chain, [[int(v[p] * den) for p in chain] for v in vectors], den)


# a chain monoid's elements up to a degree bound, and its indecomposables
_Slice = tuple[frozenset[AVector], tuple[AVector, ...]]


@dataclass
class MonoidFan:
    """Per-chain generator lists for the monoids of the fan.

    Degree-bounded slices of the chain monoids are built on first use and
    kept on the fan, keyed by (chain, degree bound).  Nothing changes the
    generators after construction, so the slices need no invalidation.
    """

    ps: StratPoset
    generators: dict[Chain, list[AVector]] = field(default_factory=dict)
    _slices: dict[tuple[Chain, Fraction], _Slice] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for chain, gens in self.generators.items():
            for g in gens:
                if not g.support() <= set(chain):
                    raise SchemaError(f"generator {g} escapes its chain")
                if any(x < 0 for x in g.entries.values()):
                    raise SchemaError(f"generator {g} has a negative entry")

    def chains(self) -> list[Chain]:
        return sorted(self.generators)

    def to_json(self) -> dict:
        return {
            "schema": "stratval-fan/1",
            "chains": [
                {
                    "chain": list(chain),
                    "generators": [g.to_json() for g in gens],
                }
                for chain, gens in sorted(self.generators.items())
            ],
        }


@dataclass
class Core:
    """Nonnegative part of a chain-valuation monoid: an N^chain module, so it
    must absorb every unit vector of the chain; checked on the generators."""

    chain: Chain
    generators: list[AVector]

    def __post_init__(self):
        cset = set(self.chain)
        for g in self.generators:
            if not g.support() <= cset:
                raise SchemaError(f"core generator {g} escapes the chain")
            if any(x < 0 for x in g.entries.values()):
                raise SchemaError(f"core generator {g} has a negative entry")
        fdeg = {p: 1 for p in self.chain}
        degree_one = _monoid_elements_up_to(self.generators, fdeg, Fraction(1))
        for p in self.chain:
            if AVector.unit(p) not in degree_one:
                raise SchemaError(
                    f"core is not closed under adding e[{p}]: unit not generated"
                )


def hodge_fan(ps: StratPoset) -> MonoidFan:
    """For all-bonds-one stratifications each chain monoid is N^chain."""
    bad = ps.hodge_violations()
    if bad:
        raise ValidationFailure(f"not of Hodge type: bonds {bad} differ from 1")
    return MonoidFan(
        ps, {c: [AVector.unit(p) for p in c] for c in ps.maximal_chains()}
    )


def _monoid_elements_up_to(
    gens: list[AVector], fdeg: dict[str, int], bound: Fraction
) -> set[AVector]:
    """All monoid elements of weighted degree <= bound (0 included)."""
    for g in gens:
        if degree_of(g, fdeg) <= 0:
            raise SchemaError(f"generator {g} has nonpositive degree")
    seen = {AVector.zero()}
    frontier = [AVector.zero()]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = v + g
                if w not in seen and degree_of(w, fdeg) <= bound:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@dataclass
class SaturationReport:
    chain: Chain
    saturated: bool
    bound: int
    witness: AVector | None

    def __bool__(self) -> bool:
        return self.saturated


def weighted_compositions(weights: list[int], total: int, low: int = 0):
    """Every integer tuple w with all w_i >= low and sum of w_i * weights_i
    equal to total, in lexicographic order; the weights are positive."""
    if not weights:
        if total == 0:
            yield ()
        return
    head, rest = weights[0], weights[1:]
    for w in range(low, (total - low * sum(rest)) // head + 1):
        for tail in weighted_compositions(rest, total - w * head, low):
            yield (w, *tail)


def is_saturated(
    fan: MonoidFan, chain: Chain, bound: int = 8
) -> SaturationReport:
    """Bounded certificate: every lattice point of the cone with degree <= bound
    lies in the generated monoid.  Honest about the bound; not a proof beyond it."""
    fdeg = fan.ps.fdeg
    lat = lattice_generated(fan.generators[chain], chain)
    elements = _slice(fan, chain, Fraction(bound))[0]
    den = lat.den
    for total in range(1, bound * den + 1):
        for scaled in weighted_compositions([fdeg[p] for p in chain], total):
            if not lat.contains_scaled(scaled):
                continue
            v = AVector({p: Fraction(w, den) for p, w in zip(chain, scaled)})
            if v not in elements:
                return SaturationReport(chain, False, bound, v)
    return SaturationReport(chain, True, bound, None)


def _supp_positions(v: AVector, chain: Chain) -> tuple[int, int]:
    """(position of max supp, position of min supp) in top-down chain indexing."""
    pos = [chain.index(p) for p in v.support()]
    return min(pos), max(pos)


def indecomposables(
    fan: MonoidFan, chain: Chain, max_degree: int
) -> list[AVector]:
    """Nonzero monoid elements of degree <= max_degree admitting no ordered split."""
    return list(_slice(fan, chain, Fraction(max_degree))[1])


def _slice(fan: MonoidFan, chain: Chain, bound: Fraction) -> _Slice:
    """The chain monoid's elements of degree <= bound and the indecomposables
    of its slice of degree <= int(bound), enumerated once per fan."""
    key = (chain, bound)
    got = fan._slices.get(key)
    if got is None:
        fdeg = fan.ps.fdeg
        elements = frozenset(
            _monoid_elements_up_to(fan.generators[chain], fdeg, bound)
        )
        up_to_floor = elements if bound.denominator == 1 else {
            v for v in elements if degree_of(v, fdeg) <= int(bound)
        }
        got = fan._slices[key] = (elements, tuple(_unsplit(up_to_floor, chain)))
    return got


def _unsplit(elements: set[AVector], chain: Chain) -> list[AVector]:
    """The nonzero elements of a degree-bounded slice of a chain monoid that
    are no ordered sum of two nonzero elements of the slice, in key order.

    A sieve by entry sum.  An ordered split a = a1 + a2 can always take an
    indecomposable a1: if a1 = b + c splits in order, so does
    a = b + (c + a2), since the slice is closed under monoid summands.  Such
    an a1 has a smaller entry sum than a, so each element is tested only
    against the indecomposables found before it.
    """
    found: list[tuple[AVector, int]] = []   # with the position of min supp
    nonzero = (v for v in elements if not v.is_zero())
    for a in sorted(nonzero, key=lambda v: (sum(v.entries.values()), v.key())):
        if not any(
            (rem := a - g) in elements and bottom <= _supp_positions(rem, chain)[0]
            for g, bottom in found
        ):
            found.append((a, _supp_positions(a, chain)[1]))
    return sorted((g for g, _ in found), key=AVector.key)


def decompose(a: AVector, fan: MonoidFan, chain: Chain) -> list[AVector]:
    """Ordered decomposition into indecomposables, top factor first.

    Unique when the chain monoid is saturated; deterministic regardless.
    Membership and the indecomposables read the fan's slice of the chain
    monoid up to the degree of a.
    """
    if a.is_zero():
        return []
    if not a.support() <= set(chain):
        raise SchemaError(f"{a} is not supported in the chain")
    elements, indec = _slice(fan, chain, degree_of(a, fan.ps.fdeg))
    if a not in elements:
        raise SchemaError(f"{a} is not an element of the chain monoid")

    def split(v: AVector, cap: int | None) -> list[AVector] | None:
        if v.is_zero():
            return []
        vtop, _ = _supp_positions(v, chain)
        for g in indec:
            gtop, gmin = _supp_positions(g, chain)
            if gtop != vtop:
                continue
            if cap is not None and gtop < cap:
                continue
            rem = v - g
            if any(x < 0 for x in rem.entries.values()):
                continue
            if rem not in elements:
                continue
            rest = split(rem, gmin)
            if rest is not None:
                return [g] + rest
        return None

    result = split(a, None)
    if result is None:
        raise SchemaError(f"{a} admits no ordered decomposition (incomplete fan?)")
    return result


def fan_mult(a: AVector, b: AVector, ps: StratPoset) -> AVector | None:
    """a + b when the supports fit a common chain, else None ('annihilated')."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if ps.is_chain(a.support() | b.support()):
        return a + b
    return None


def gamma_degree_slice(fan: MonoidFan, m: int) -> list[AVector]:
    """All fan elements of degree exactly m, deduplicated across chains."""
    if m < 0:
        raise SchemaError("degree slice needs m >= 0")
    fdeg = fan.ps.fdeg
    out: set[AVector] = set()
    for chain, gens in fan.generators.items():
        for v in _monoid_elements_up_to(gens, fdeg, Fraction(m)):
            if degree_of(v, fdeg) == m:
                out.add(v)
    return sorted(out, key=AVector.key)


@dataclass
class BalancedReport:
    regime: str                 # "full" or "sampled"
    orders_checked: int
    balanced: bool
    disagreements: list[str]


def length_compatible_orders(ps: StratPoset, limit: int):
    """All (or the first `limit`) total orders refining the partial order and
    listing longer elements first."""
    levels: dict[int, list[str]] = {}
    for p in ps.ids:
        levels.setdefault(ps.length(p), []).append(p)
    per_level = [sorted(levels[k]) for k in sorted(levels, reverse=True)]
    pools = [itertools.permutations(lv) for lv in per_level]
    count = 0
    for combo in itertools.product(*pools):
        ranked = [p for group in combo for p in group]
        order = TotalOrder(ranked)
        try:
            ps.check_total_order(order)
        except ValidationFailure:
            continue
        yield order
        count += 1
        if count >= limit:
            return


def balanced_report(ps: StratPoset, atlas, probes, limit: int = 720) -> BalancedReport:
    """Empirical balanced-ness: compare the quasi-valuations of the probe
    functions under every length-compatible total order (or a sample).  Each
    probe is valuated once; only the lex-min depends on the order."""
    from stratval.valuation import minimum, valuate_all

    levels: dict[int, int] = {}
    for p in ps.ids:
        levels[ps.length(p)] = levels.get(ps.length(p), 0) + 1
    total = 1
    for n in levels.values():
        for k in range(2, n + 1):
            total *= k
    regime = "full" if total <= limit else "sampled"
    passes = [valuate_all(g, atlas, ps) for g in probes]
    baseline: list[AVector] | None = None
    checked = 0
    disagreements = []
    for order in length_compatible_orders(ps, limit):
        values = [minimum(per_chain, order)[0] for per_chain in passes]
        if baseline is None:
            baseline = values
        elif values != baseline:
            for g, a, b in zip(probes, baseline, values):
                if a != b:
                    disagreements.append(f"{g}: {a} vs {b}")
        checked += 1
    return BalancedReport(regime, checked, not disagreements, disagreements)
