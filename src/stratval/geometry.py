"""Newton-Okounkov simplicial complexes, volumes, degrees, Hilbert counting.

The complex is the order complex of the poset realized with vertices
e_p / deg f_p.  The volume of each maximal simplex, measured in its chain's
lattice, is read off the Hermite normal form of that lattice.
Hilbert functions are sums over faces; sums over chains are cover passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod

from stratval.avector import AVector
from stratval.errors import SchemaError, ValidationFailure
from stratval.monoids import (
    LatticeQ,
    MonoidFan,
    is_saturated,
    lattice_LC,
    weighted_compositions,
)
from stratval.poset import Chain, StratPoset


@dataclass
class SimplexQ:
    chain: Chain
    vertices: list[AVector]   # e_p / deg f_p, top-down


def no_complex(ps: StratPoset) -> list[SimplexQ]:
    """One maximal simplex per maximal chain; together they realize the
    order complex."""
    rep = ps.validate()
    if not rep.ok:
        raise ValidationFailure("; ".join(rep.failures))
    out = []
    for chain in ps.maximal_chains():
        verts = [AVector.unit(p, Fraction(1, ps.fdeg[p])) for p in chain]
        out.append(SimplexQ(chain, verts))
    return out


def complex_to_json(ps: StratPoset) -> dict:
    """Vertices and maximal faces of the Newton-Okounkov simplicial complex."""
    simplices = no_complex(ps)
    return {
        "schema": "stratval-complex/1",
        "vertices": [
            {"id": p, "point": AVector.unit(p, Fraction(1, ps.fdeg[p])).to_json()}
            for p in sorted(ps.ids)
        ],
        "maximal_faces": [list(s.chain) for s in simplices],
    }


def _bottom_vertex(ps: StratPoset, chain: Chain, lattice: LatticeQ) -> AVector:
    """e_{p0} / deg f_{p0} for the chain's bottom p0; refused when it is not
    in the lattice."""
    p0 = chain[-1]
    ell1 = AVector.unit(p0, Fraction(1, ps.fdeg[p0]))
    if not lattice.membership(ell1):
        raise ValidationFailure(
            f"e[{p0}]/{ps.fdeg[p0]} is not in the given lattice; "
            "rational structure undefined"
        )
    return ell1


def _rank_mismatch(rank: int, r: int) -> ValidationFailure:
    return ValidationFailure(f"degree-zero sublattice has rank {rank}, expected {r}")


def chain_volume(ps: StratPoset, chain: Chain, lattice: LatticeQ) -> Fraction:
    """The volume of the chain's simplex in its lattice, in closed form: the
    bottom vertex projected away, the rest in a basis of the degree-zero
    sublattice, |det of the edge matrix| / r!.  The test oracles'
    `rational_structure` and `volume` compute it that way, with the same
    refusals.

    r! vol = |det V| * g / covol(L), where V holds the vertices e_p / deg f_p
    and g generates deg(L).  With h_i the rows of the Hermite normal form of
    den * L: |det V| = 1 / prod_p deg f_p, g = gcd_i(deg h_i) / den, and the
    form is echelon, so covol(L) = prod_i lead(h_i) / den^(r+1), in any
    order of the lattice's coordinates.
    """
    _bottom_vertex(ps, chain, lattice)
    r = len(chain) - 1
    if r == 0:
        return Fraction(1)
    rows = lattice.rows
    if len(rows) != r + 1:
        raise _rank_mismatch(len(rows) - 1, r)
    on_chain = set(chain)
    weights = [ps.fdeg[p] if p in on_chain else 0 for p in lattice.coords]
    # rank r + 1 on the chain's coordinates alone: the span is Q^chain
    if any(x and not w for row in rows for x, w in zip(row, weights)):
        raise ValidationFailure(
            f"lattice does not span the coordinates of {'>'.join(chain)}"
        )
    g = gcd(*(sum(w * x for w, x in zip(weights, row)) for row in rows))
    leads = prod(next(x for x in row if x) for row in rows)
    return Fraction(
        g * lattice.den**r,
        prod(ps.fdeg[p] for p in chain) * leads * factorial(r),
    )


def chain_volumes(
    ps: StratPoset, lattices: dict[Chain, LatticeQ]
) -> dict[Chain, Fraction]:
    """Volume of each maximal chain's projected simplex, in chain order."""
    vols = {}
    for chain in ps.maximal_chains():
        if chain not in lattices:
            raise SchemaError(f"no lattice given for chain {'>'.join(chain)}")
        vols[chain] = chain_volume(ps, chain, lattices[chain])
    return vols


def degree(ps: StratPoset, lattices: dict[Chain, LatticeQ]) -> Fraction:
    """r! times the summed volumes of the projected simplexes."""
    return factorial(ps.r) * sum(chain_volumes(ps, lattices).values(), Fraction(0))


def default_lattices(ps: StratPoset) -> dict[Chain, LatticeQ]:
    return {c: lattice_LC(ps, c) for c in ps.maximal_chains()}


def hodge_degree(ps: StratPoset) -> Fraction:
    """Sum over maximal chains of 1 / (product of the extremal degrees), by
    one pass over the covers."""
    bad = ps.hodge_violations()
    if bad:
        edges = [e for e, _ in bad]
        raise ValidationFailure(f"not of Hodge type: nontrivial bonds {edges}")
    h = ps.chain_sums(
        lambda p, q: Fraction(1, ps.fdeg[p]), lambda q: Fraction(1, ps.fdeg[q])
    )
    return sum((h[p] for p in ps.maximal_elements()), Fraction(0))


def count_face_points(
    ps: StratPoset, face: Chain, lattice: LatticeQ, n: int
) -> int:
    """#{v >= 0 supported in the face, deg v = n, v in the lattice}."""
    return _count_lattice_points(ps, face, lattice, n, 0)


def _count_lattice_points(
    ps: StratPoset, face: Chain, lattice: LatticeQ, n: int, low: int
) -> int:
    """Lattice points of degree n on the face with all entries >= low / den:
    low 0 counts the closed face, low 1 its relative interior."""
    slot = {p: i for i, p in enumerate(lattice.coords)}
    # a point with an entry off the lattice's coordinates is not in it
    if low and not slot.keys() >= set(face):
        return 0
    face = [p for p in face if p in slot]
    cols = [slot[p] for p in face]
    count = 0
    for ws in weighted_compositions([ps.fdeg[p] for p in face], n * lattice.den, low):
        scaled = [0] * len(slot)
        for i, w in zip(cols, ws):
            scaled[i] = w
        count += lattice.contains_scaled(scaled)
    return count


def hilbert_incl_excl(
    ps: StratPoset,
    lattices: dict[Chain, LatticeQ],
    n: int,
    fan: MonoidFan | None = None,
    saturation_bound: int = 8,
) -> int:
    """Lattice points of degree n in the fan, one sum over the faces F of
    the order complex.

    For n > 0: the sum over F of #{v in L_C(F) : deg v = n, v_p > 0 exactly
    on F}, where C(F) is the last chain in ps.maximal_chains() order that
    contains F.  This equals inclusion-exclusion over the sets S of maximal
    chains, each counting the v >= 0 on the meet of S in the lattice of the
    first chain of S: the sets whose first chain contains F cancel unless no
    later chain does.  It holds for any lattices, also ones that disagree on
    F.  For n = 0 the value is the Euler characteristic, sum of (-1)^(|F|+1).

    Valid for normal (saturated) stratifications only; when a fan is supplied
    its chains are certified up to the bound first and the call refuses on a
    witness of non-saturation.
    """
    if n < 0:
        raise SchemaError("hilbert_incl_excl needs n >= 0")
    if fan is not None:
        for chain in fan.chains():
            rep = is_saturated(fan, chain, saturation_bound)
            if not rep.saturated:
                raise ValidationFailure(
                    f"chain {'>'.join(chain)} is not saturated "
                    f"(witness {rep.witness}); inclusion-exclusion refused"
                )
    last_chain = ps.faces_with_last_chain()
    if n == 0:
        return sum((-1) ** (len(face) + 1) for face in last_chain)
    return sum(
        _count_lattice_points(ps, face, lattices[chain], n, 1)
        for face, chain in last_chain.items()
    )


def sr_hilbert(ps: StratPoset, n: int) -> int:
    """Hilbert function of the bond-free degeneration: monomials with chain
    support and weighted degree n (weights deg f_p)."""
    if n < 0:
        raise SchemaError("sr_hilbert needs n >= 0")
    if n == 0:
        return 1
    return sum(
        1
        for face in ps.order_complex()
        for _ in weighted_compositions([ps.fdeg[p] for p in face], n, 1)
    )
