"""Chain-list reference implementations of the face and cover sums.

The library computes Hilbert functions as one sum over the faces of the
order complex and chain-sum degrees as one pass over the covers.  These are
the direct forms they replaced, kept as oracles for small posets: the
inclusion-exclusion over every nonempty set of maximal chains, and the
degree sums over an explicit list of maximal chains.
"""

from __future__ import annotations

from fractions import Fraction

from stratval.geometry import count_face_points
from stratval.monoids import LatticeQ
from stratval.poset import Chain, StratPoset


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
