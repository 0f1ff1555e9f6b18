"""Direct reference implementations the library's faster forms replaced.

The library computes Hilbert functions as one sum over the faces of the
order complex, chain-sum degrees as one pass over the covers, and ordered
decompositions from chain-monoid slices kept on the fan.  These are the
direct forms, kept as oracles for small inputs: the inclusion-exclusion over
every nonempty set of maximal chains, the degree sums over an explicit list
of maximal chains, a decomposition that enumerates its slice on every call,
and Ehrhart counting over the bounding box of a projected simplex.
"""

from __future__ import annotations

from fractions import Fraction

from stratval.avector import AVector, degree_of
from stratval.errors import BoundError, SchemaError, ValidationFailure
from stratval.geometry import RationalStructure, count_face_points
from stratval.monoids import (
    LatticeQ,
    MonoidFan,
    _monoid_elements_up_to,
    _supp_positions,
    _unsplit,
)
from stratval.poset import Chain, StratPoset

EHRHART_GUARD = 10_000_000


def hilbert_by_chain_subsets(
    ps: StratPoset, lattices: dict[Chain, LatticeQ], n: int
) -> int:
    """Alternating sum over chain subsets of shared-face lattice-point counts,
    each in the lattice of the subset's first chain."""
    chains = ps.maximal_chains()
    total = 0
    for mask in range(1, 1 << len(chains)):
        members = [chains[i] for i in range(len(chains)) if mask & (1 << i)]
        shared = set(members[0])
        for c in members[1:]:
            shared &= set(c)
        if not shared:
            continue
        face = tuple(p for p in members[0] if p in shared)
        cnt = count_face_points(ps, face, lattices[members[0]], n)
        total += cnt if len(members) % 2 == 1 else -cnt
    return total


def maximal_chains_below(ps: StratPoset, p: str) -> list[Chain]:
    """Every chain from p down to a minimal element through covers."""
    out: list[Chain] = []

    def walk(q: str, acc: list[str]):
        acc.append(q)
        lows = sorted(x for x, _ in ps.covers_of[q])
        if not lows:
            out.append(tuple(acc))
        else:
            for x in lows:
                walk(x, acc)
        acc.pop()

    walk(p, [])
    return out


def bond_product_sum(ps: StratPoset, p: str) -> int:
    """Sum over the maximal chains below p of the product of their bonds."""
    total = 0
    for chain in maximal_chains_below(ps, p):
        prod = 1
        for k in range(len(chain) - 1):
            prod *= ps.bond[(chain[k], chain[k + 1])]
        total += prod
    return total


def hodge_degree_by_chains(ps: StratPoset) -> Fraction:
    """Sum over maximal chains of 1 / (product of the extremal degrees)."""
    total = Fraction(0)
    for chain in ps.maximal_chains():
        prod = 1
        for p in chain:
            prod *= ps.fdeg[p]
        total += Fraction(1, prod)
    return total


def decompose_uncached(a: AVector, fan: MonoidFan, chain: Chain) -> list[AVector]:
    """`monoids.decompose` enumerating the chain monoid's slice and scanning
    it for indecomposables on every call."""
    gens = fan.generators[chain]
    fdeg = fan.ps.fdeg
    if a.is_zero():
        return []
    if not a.support() <= set(chain):
        raise SchemaError(f"{a} is not supported in the chain")
    total = degree_of(a, fdeg)
    elements = _monoid_elements_up_to(gens, fdeg, total)
    if a not in elements:
        raise SchemaError(f"{a} is not an element of the chain monoid")
    indec = _unsplit({v for v in elements if degree_of(v, fdeg) <= int(total)}, chain)

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


def ehrhart_count(rs: RationalStructure, n: int) -> int:
    """#(n * D_chain  intersect  Z^r) by exact enumeration over the bounding box."""
    if n < 0:
        raise SchemaError("ehrhart_count needs n >= 0")
    r = len(rs.chain) - 1
    if r == 0 or n == 0:
        return 1
    verts = [[n * x for x in pt] for pt in rs.points]
    lo = [min(v[j] for v in verts) for j in range(r)]
    hi = [max(v[j] for v in verts) for j in range(r)]
    ranges = []
    box = 1
    for j in range(r):
        a = -((-lo[j]).__floor__())  # ceil
        b = hi[j].__floor__()
        ranges.append(range(a, b + 1))
        box *= max(0, b - a + 1)
    if box > EHRHART_GUARD:
        raise BoundError(f"lattice-point enumeration over {box} candidates refused")
    # affine barycentric test: lambda = (x | 1) @ Minv, all >= 0
    mat = [list(v) + [Fraction(1)] for v in verts]
    inv = _invert(mat)
    count = 0

    def walk(j: int, point: list[int]):
        nonlocal count
        if j == r:
            lams = _affine_coords(point, inv)
            if all(l >= 0 for l in lams):
                count += 1
            return
        for x in ranges[j]:
            point.append(x)
            walk(j + 1, point)
            point.pop()

    walk(0, [])
    return count


def _invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValidationFailure("degenerate simplex: affine matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _affine_coords(point: list[int], inv: list[list[Fraction]]) -> list[Fraction]:
    n = len(inv)
    vec = list(point) + [1]
    return [sum(vec[i] * inv[i][j] for i in range(n)) for j in range(n)]
