"""Newton-Okounkov simplicial complexes, volumes, degrees, Hilbert counting.

The complex is the order complex of the poset realized with vertices
e_p / deg f_p.  The volume of each maximal simplex, measured in its chain's
lattice, is read off the Hermite normal form of that lattice.
Hilbert functions are sums over faces, each face's lattice points counted
from its fundamental parallelepiped by coin change.  On product and cut
lattices, where a face's count depends on the face alone, the sum is one
pass over the comparable pairs, as are the Stanley-Reisner count and the
Euler characteristic; sums over chains are cover passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from stratval.avector import AVector
from stratval.errors import SchemaError, ValidationFailure
from stratval.intlattice import hnf_basis
from stratval.monoids import LatticeQ, MonoidFan, is_saturated, lattice_LC
from stratval.poset import Chain, StratPoset
from stratval.weyl import chain_gcds, first_direction_counts, is_cut_lattice


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
    _require_lattices(ps, lattices)
    return {c: chain_volume(ps, c, lattices[c]) for c in ps.maximal_chains()}


def _require_lattices(ps: StratPoset, lattices: dict[Chain, LatticeQ]) -> None:
    for chain in ps.maximal_chains():
        if chain not in lattices:
            raise SchemaError(f"no lattice given for chain {'>'.join(chain)}")


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
    """#{v >= 0 supported in the face, deg v = n, v in the lattice}: the zero
    vector at n = 0 and the interior counts of the nonempty subfaces.  A face
    element off the lattice's coordinates carries no lattice point, so the
    count runs over the face's part in the coordinates."""
    if n <= 0:
        return int(n == 0)
    count = 0
    ways: dict = {}
    for mask in range(1, 1 << len(face)):
        sub = tuple(p for i, p in enumerate(face) if mask >> i & 1)
        count += _interior_count(ps, sub, lattice, n, ways)
    return count


def _interior_count(
    ps: StratPoset, face: Chain, lattice: LatticeQ, n: int, ways: dict
) -> int:
    """Lattice points of degree n whose entries are positive exactly on the
    face: each is pi + sum_p k_p t_p e_p with pi in the face's fundamental
    parallelepiped and k >= 0, so the count is the sum over pi of the ways
    to pay the rest of n * den with coins deg f_p * t_p.  `ways` keeps the
    coin-change tables of one caller, keyed by (coins, top)."""
    coins, residues = _parallelepiped(ps, face, lattice)
    top = n * lattice.den
    table = ways.get((coins, top))
    if table is None:
        table = ways[coins, top] = [1] + [0] * top
        for c in coins:
            for d in range(c, top + 1):
                table[d] += table[d - c]
    return sum(table[top - r] for r in residues if r <= top)


def _parallelepiped(
    ps: StratPoset, face: Chain, lattice: LatticeQ
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The face's coins deg f_p * t_p and the sorted degrees of the points
    of its fundamental parallelepiped, both scaled by den; built once per
    (lattice, face) and kept on the lattice.

    L_F = L meet Q^F is spanned by the Hermite rows of den * L, taken with
    the off-face columns first, that vanish off the face.  t_p is the least
    t > 0 with t e_p in L_F, and the parallelepiped holds one representative
    in (0, t_p] per coordinate of each class of G = L_F / (+) t_p Z e_p,
    found by closure over the rows modulo t, one row's cosets at a time; G
    is trivial when prod t_p is the determinant of L_F.  A face that leaves
    the lattice's coordinates holds no point; one where L_F has rank below
    |F| is refused.
    """
    weights = tuple(ps.fdeg[p] for p in face)
    got = lattice._parallelepipeds.get((face, weights))
    if got is not None:
        return got
    slot = {p: i for i, p in enumerate(lattice.coords)}
    if not all(p in slot for p in face):
        got = ((), ())
    else:
        on = [slot[p] for p in face]
        off = [i for i in range(len(slot)) if i not in on]
        k = len(off)
        rows = [
            h[k:]
            for h in hnf_basis([[row[i] for i in off + on] for row in lattice.rows])
            if not any(h[:k])
        ]
        if len(rows) < len(face):
            raise ValidationFailure(
                f"chain {'>'.join(lattice.coords)}: the lattice meets the face "
                f"{'>'.join(face)} in rank {len(rows)}, expected {len(face)}"
            )
        t = [_least_multiple(rows, j) for j in range(len(face))]
        group = [(0,) * len(face)]
        if prod(t) != prod(row[i] for i, row in enumerate(rows)):
            for row in rows:
                # add the cosets of the group by the multiples of the row
                members = set(group)
                step = tuple(x % tp for x, tp in zip(row, t))
                shift, cosets = step, []
                while shift not in members:
                    cosets += [
                        tuple((a + b) % tp for a, b, tp in zip(g, shift, t))
                        for g in group
                    ]
                    shift = tuple((a + b) % tp for a, b, tp in zip(shift, step, t))
                group += cosets
        got = (
            tuple(w * tp for w, tp in zip(weights, t)),
            tuple(sorted(
                sum(w * (x or tp) for w, x, tp in zip(weights, g, t)) for g in group
            )),
        )
    lattice._parallelepipeds[face, weights] = got
    return got


def _least_multiple(rows: list[list[int]], j: int) -> int:
    """The least t > 0 with t e_j in the span of the square echelon rows:
    the least common denominator of the c solving c @ rows = e_j.  Forward
    substitution carries c as v / den in integers; each column multiplies
    den by the least factor that makes its entry integral, so den stays the
    least common denominator."""
    v = [0] * len(rows)
    v[j], den = 1, rows[j][j]
    for col in range(j + 1, len(rows)):
        s = sum(v[i] * rows[i][col] for i in range(j, col))
        g = gcd(s, rows[col][col])
        scale = rows[col][col] // g
        v = [x * scale for x in v]
        v[col], den = -s // g, den * scale
    return den


def hilbert_incl_excl(
    ps: StratPoset,
    lattices: dict[Chain, LatticeQ],
    n: int,
    fan: MonoidFan | None = None,
) -> int:
    """Lattice points of degree n in the fan, one sum over the faces F of
    the order complex (`face_sum`).

    For n > 0 it is counted by one pass over the comparable pairs instead
    when the lattices make each face's count depend on the face alone
    (`pair_count`); every other family of lattices goes through the face
    list.  For n = 0 the value is the Euler characteristic, sum of
    (-1)^(|F|+1), by one pass over the comparable pairs.

    Valid for normal (saturated) stratifications only; when a fan is supplied
    its chains are certified up to `is_saturated`'s default degree bound
    first and the call refuses on a witness of non-saturation.
    """
    if n < 0:
        raise SchemaError("hilbert_incl_excl needs n >= 0")
    _require_lattices(ps, lattices)
    if fan is not None:
        for chain in fan.chains():
            rep = is_saturated(fan, chain)
            if not rep.saturated:
                raise ValidationFailure(
                    f"chain {'>'.join(chain)} is not saturated "
                    f"(witness {rep.witness}); inclusion-exclusion refused"
                )
    if n == 0:
        return _euler_characteristic(ps)
    count = pair_count(ps, lattices, n)
    return face_sum(ps, lattices, n) if count is None else count


def face_sum(ps: StratPoset, lattices: dict[Chain, LatticeQ], n: int) -> int:
    """For n > 0: the sum over the faces F of the order complex of #{v in
    L_C(F) : deg v = n, v_p > 0 exactly on F}, where C(F) is the last chain
    in ps.maximal_chains() order that contains F.

    This equals inclusion-exclusion over the sets S of maximal chains, each
    counting the v >= 0 on the meet of S in the lattice of the first chain
    of S: the sets whose first chain contains F cancel unless no later chain
    does.  It holds for any lattices, also ones that disagree on F.  Each
    face's count is read off its fundamental parallelepiped in L_C(F) by
    coin change (`_interior_count`); no point is enumerated.
    """
    ways: dict = {}
    return sum(
        _interior_count(ps, face, lattices[chain], n, ways)
        for face, chain in ps.faces_with_last_chain().items()
    )


def pair_count(
    ps: StratPoset, lattices: dict[Chain, LatticeQ], n: int
) -> int | None:
    """`face_sum` for n > 0 as one pass over the comparable pairs, for the
    two families of lattices on which a face's count depends on the face
    alone; None for any other lattices.

    - Product lattices: every maximal chain's lattice has full rank and
      diagonal Hermite rows, and each element p has one step s_p on every
      chain through it.  A face's interior points are then the k_p s_p e_p
      with k_p >= 1, so the count is `sr_hilbert`'s with coin deg f_p * s_p
      over the lcm of the step denominators.
    - Cut lattices: every extremal degree is one, each chain's lattice is
      `weyl.lattice_LC_lambda`'s, and the bond gcd g(sigma, tau) of every
      interval is the same along each of its chains (`weyl.chain_gcds`
      refuses it otherwise).  A face's interior points are then the LS
      paths with its elements as directions, and the count is
      `weyl.first_direction_counts` summed.
    """
    chains = ps.maximal_chains()
    steps = _product_steps([(c, lattices[c]) for c in chains])
    if steps is not None:
        scale = lcm(1, *(d for _, d in steps.values()))
        coins = {p: ps.fdeg[p] * x * (scale // d) for p, (x, d) in steps.items()}
        return _coin_chains(ps, coins, n * scale)
    if any(f != 1 for f in ps.fdeg.values()) or not all(
        is_cut_lattice(ps, c, lattices[c]) for c in chains
    ):
        return None
    try:
        gcds = chain_gcds(ps)
    except ValidationFailure:
        return None
    return sum(first_direction_counts(ps, gcds, n).values())


def _product_steps(
    chain_lattices: list[tuple[Chain, LatticeQ]]
) -> dict[str, tuple[int, int]] | None:
    """The step of each element, as a reduced (numerator, denominator) pair,
    when every chain's lattice, on exactly the chain's coordinates, is the
    product of one step per coordinate, and an element has the same step on
    every chain; else None."""
    steps: dict[str, tuple[int, int]] = {}
    for chain, lat in chain_lattices:
        if set(lat.coords) != set(chain) or len(lat.rows) != len(chain):
            return None
        for row in lat.rows:
            entries = [(p, x) for p, x in zip(lat.coords, row) if x]
            if len(entries) != 1:
                return None
            ((p, x),) = entries
            g = gcd(x, lat.den)
            step = (x // g, lat.den // g)
            if steps.setdefault(p, step) != step:
                return None
    return steps


def _euler_characteristic(ps: StratPoset) -> int:
    """The sum of (-1)^(|F|+1) over the faces F, by one pass over the
    comparable pairs: E[p], the sum over the faces with top p, is
    1 - sum over q < p of E[q]."""
    signs: dict[str, int] = {}
    for p in ps.bottom_up():
        signs[p] = 1 - sum(signs[q] for q in ps.below(p) if q != p)
    return sum(signs.values())


def sr_hilbert(ps: StratPoset, n: int) -> int:
    """Hilbert function of the bond-free degeneration: monomials with chain
    support and weighted degree n (weights deg f_p)."""
    if n < 0:
        raise SchemaError("sr_hilbert needs n >= 0")
    return 1 if n == 0 else _coin_chains(ps, ps.fdeg, n)


def _coin_chains(ps: StratPoset, coins: dict[str, int], total: int) -> int:
    """The nonempty chains with positive multiplicities k_p whose sum of
    k_p * coins[p] is total > 0.

    One pass over the comparable pairs, bottom-up: A[p][d] counts the chains
    with top p and positive multiplicities of sum d, and
    A[p][d] = sum over w >= 1 of ([d = w c_p] + sum over q < p of
    A[q][d - w c_p]), kept as A[p][d] = B[d - c_p] + A[p][d - c_p] with B the
    empty chain plus the chains below p.
    """
    tops: dict[str, list[int]] = {}
    for p in ps.bottom_up():
        under = [1] + [0] * total
        for q in ps.below(p):
            if q != p:
                under = [a + b for a, b in zip(under, tops[q])]
        c = coins[p]
        a = [0] * (total + 1)
        for d in range(c, total + 1):
            a[d] = under[d - c] + a[d - c]
        tops[p] = a
    return sum(a[total] for a in tops.values())
