"""Direct reference implementations the library's faster forms replaced,
and code only the tests call.

The library computes Hilbert functions as one sum over the faces of the
order complex, each face counted from its fundamental parallelepiped,
the Stanley-Reisner count and Euler characteristic as passes over
comparable pairs, ring slices from shifted monomials, chain-sum degrees
as one pass over the covers, ordered decompositions from chain-monoid
slices kept on the fan, monoid membership by lookup in an enumerated
slice, indecomposables by a sieve over those already found, chain
volumes off the Hermite form of each lattice, and the transform of a
Hermite form by eliminating [rows | I].  These are the direct forms,
kept as oracles for small inputs: the inclusion-exclusion over every
nonempty set of maximal chains, with each face's lattice points found by
walking every weighted composition and testing its membership, the
Stanley-Reisner count and the Euler characteristic summed over the
listed faces, ring slices built from Laurent products, the degree sums
over an explicit list of maximal chains, a decomposition that enumerates
its slice on every call, membership by a depth-first search over
generator subtractions, indecomposables by testing every ordered pair of
a slice, a chain simplex's rational structure and volume by a
determinant, with its degree-zero sublattice and echelon coordinates
read from the lattice's integer rows, Ehrhart counting over the bounding
box of that projected simplex, a lattice's rational basis with the
degree-zero sublattice and coordinates computed through it over Q, the
Hermite form by row operations that update the transform alongside,
chart substitution with every power expanded in full, formal fractions
of Laurent polynomials for the expanded valuation recursion, the Rees
minimum with the atlas sorted and scanned for each cover and its own
restriction through the outer divisor variables, LS paths as
the union of the cut-lattice points over every maximal chain, read back
as paths, the LS integrality predicate checked on one maximal chain of
each Bruhat interval found by BFS, Freudenthal's recursion over
every weight of the module rather than the dominant ones, and the Weyl
group as integer matrices found by multiplying reflection matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from stratval.avector import AVector, degree_of
from stratval.errors import (
    BoundError,
    ChartError,
    SchemaError,
    StratvalError,
    ValidationFailure,
)
from stratval.geometry import _bottom_vertex, _rank_mismatch
from stratval.intlattice import integer_kernel
from stratval.laurent import LaurentPoly
from stratval.monoids import (
    LatticeQ,
    MonoidFan,
    _monoid_elements_up_to,
    _supp_positions,
    lattice_generated,
    weighted_compositions,
)
from stratval.poset import Chain, StratPoset
from stratval.ringmodel import GradedQuotient
from stratval.weyl import (
    CARTAN_BOUND,
    EMPTY_PATH,
    LSPath,
    RootSystem,
    Weight,
    WeylGroup,
    bonds,
    ls_lattice_points,
    weyl_group,
)

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
        cnt = count_lattice_points(ps, face, lattices[members[0]], n, 0)
        total += cnt if len(members) % 2 == 1 else -cnt
    return total


def count_lattice_points(
    ps: StratPoset, face: Chain, lattice: LatticeQ, n: int, low: int
) -> int:
    """Lattice points of degree n on the face with all entries >= low / den,
    by walking every weighted composition of n * den: low 0 counts the
    closed face, low 1 its relative interior."""
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


def sr_hilbert_by_faces(ps: StratPoset, n: int) -> int:
    """Monomials with chain support and weighted degree n, one face of the
    order complex at a time."""
    if n == 0:
        return 1
    return sum(
        1
        for face in ps.order_complex()
        for _ in weighted_compositions([ps.fdeg[p] for p in face], n, 1)
    )


def euler_by_faces(ps: StratPoset) -> int:
    """Sum of (-1)^(|F|+1) over the faces of the order complex."""
    return sum((-1) ** (len(face) + 1) for face in ps.order_complex())


def ring_slice_by_products(ring: GradedQuotient, m: int):
    """The degree-m slice of the ideal as `GradedQuotient._slice` returns it,
    each shifted relation built as a Laurent product with the shift."""
    monos = ring.monomials(m)
    index = {mo: i for i, mo in enumerate(monos)}
    rows: list[dict[int, Fraction]] = []
    for rel, d in ring.relations:
        if d > m:
            continue
        for shift in ring.monomials(m - d):
            prod = rel * LaurentPoly({shift: Fraction(1)})
            rows.append({index[mo]: c for mo, c in prod.terms.items()})
    reduced: list[dict[int, Fraction]] = []
    pivots: dict[int, int] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            if lead not in pivots:
                inv = 1 / row[lead]
                row = {j: c * inv for j, c in row.items()}
                pivots[lead] = len(reduced)
                reduced.append(row)
                break
            other = reduced[pivots[lead]]
            f = row[lead]
            for j, c in other.items():
                s = row.get(j, Fraction(0)) - f * c
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
    return monos, index, reduced, pivots


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
    indec = unsplit_by_pairs(
        {v for v in elements if degree_of(v, fdeg) <= int(total)}, chain
    )

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


def monoid_membership(
    target: AVector, gens: list[AVector], fdeg: dict[str, int]
) -> bool:
    """Membership in the monoid the generators span, by subtracting
    generators depth first; exact and terminating when every generator has
    positive degree, since the target's degree bounds the search depth."""
    fail: set[tuple] = set()

    def search(v: AVector) -> bool:
        if v.is_zero():
            return True
        key = v.key()
        if key in fail:
            return False
        for g in gens:
            w = v - g
            if all(x >= 0 for x in w.entries.values()) and degree_of(w, fdeg) >= 0:
                if search(w):
                    return True
        fail.add(key)
        return False

    return search(target)


def unsplit_by_pairs(elements: set[AVector], chain: Chain) -> list[AVector]:
    """`monoids._unsplit` testing every ordered pair of the slice's nonzero
    elements."""
    nonzero = sorted((v for v in elements if not v.is_zero()), key=AVector.key)
    out = []
    for a in nonzero:
        split = False
        for a1 in nonzero:
            a2 = a - a1
            if a2.is_zero() or any(x < 0 for x in a2.entries.values()):
                continue
            if a2 not in elements:
                continue
            _, min1 = _supp_positions(a1, chain)
            top2, _ = _supp_positions(a2, chain)
            if min1 <= top2:
                split = True
                break
        if not split:
            out.append(a)
    return out


@dataclass
class RationalStructure:
    chain: Chain
    lattice: LatticeQ
    sublattice: LatticeQ | None          # degree-zero part, rank r; None when r=0
    points: list[list[Fraction]]         # simplex vertices in Z^r coordinates


def kernel_of_degree_by_rows(lat: LatticeQ, fdeg: dict[str, int]) -> LatticeQ:
    """Sublattice of weighted degree zero from integer row combinations,
    over the least denominator that carries them."""
    degrees = [
        [sum(fdeg[p] * x for p, x in zip(lat.coords, row) if x)]
        for row in lat.rows
    ]
    combos = integer_kernel(degrees)
    if not combos:
        raise ValidationFailure("functional kernel is the zero lattice")
    rows = [
        [sum(c * x for c, x in zip(combo, col)) for col in zip(*lat.rows)]
        for combo in combos
    ]
    g = gcd(lat.den, *(x for row in rows for x in row))
    return LatticeQ(lat.coords, [[x // g for x in row] for row in rows], lat.den // g)


def coords_by_echelon(lat: LatticeQ, v: AVector) -> list[Fraction] | None:
    """Exact coordinates of v in the lattice's basis, if v lies in the
    Q-span: elimination down the echelon rows."""
    res = [v[p] * lat.den for p in lat.coords]
    coeffs = []
    for row in lat.rows:
        lead = next(j for j, x in enumerate(row) if x)
        c = res[lead] / row[lead]
        coeffs.append(c)
        res = [a - c * x for a, x in zip(res, row)]
    return None if any(res) else coeffs


def rational_structure(
    ps: StratPoset, chain: Chain, lattice: LatticeQ
) -> RationalStructure:
    """Project away the bottom vertex and rewrite in a degree-zero basis."""
    ell1 = _bottom_vertex(ps, chain, lattice)
    if len(chain) == 1:
        return RationalStructure(chain, lattice, None, [[]])
    sub = kernel_of_degree_by_rows(lattice, ps.fdeg)
    r = len(chain) - 1
    if sub.rank != r:
        raise _rank_mismatch(sub.rank, r)
    points = []
    for p in chain:
        w = AVector.unit(p, Fraction(1, ps.fdeg[p])) - ell1
        coords = coords_by_echelon(sub, w)
        if coords is None:
            raise ValidationFailure(f"vertex of {p} is not in the projected span")
        points.append(coords)
    return RationalStructure(chain, lattice, sub, points)


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def volume(rs: RationalStructure) -> Fraction:
    """Euclidean volume |det of edge matrix| / r!; a point has volume 1."""
    r = len(rs.chain) - 1
    if r == 0:
        return Fraction(1)
    base = rs.points[-1]
    edges = [[a - b for a, b in zip(pt, base)] for pt in rs.points[:-1]]
    d = _det(edges)
    if d == 0:
        raise ValidationFailure("degenerate simplex: zero volume")
    return abs(d) / factorial(r)


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


def hnf_tracking_transform(
    rows: list[list[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite form H with unimodular U, U @ rows == H, by gcd row
    operations applied to H and U alike; zero rows of H sink to the
    bottom."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(r) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    pivot_row = 0
    for col in range(n):
        while True:
            nonzero = [i for i in range(pivot_row, m) if H[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(H[i][col]))
            if i0 != pivot_row:
                H[pivot_row], H[i0] = H[i0], H[pivot_row]
                U[pivot_row], U[i0] = U[i0], U[pivot_row]
            done = True
            for i in range(pivot_row + 1, m):
                if H[i][col]:
                    q = H[i][col] // H[pivot_row][col]
                    for j in range(n):
                        H[i][j] -= q * H[pivot_row][j]
                    for j in range(m):
                        U[i][j] -= q * U[pivot_row][j]
                    if H[i][col]:
                        done = False
            if done:
                break
        if pivot_row < m and H[pivot_row][col] != 0:
            if H[pivot_row][col] < 0:
                H[pivot_row] = [-x for x in H[pivot_row]]
                U[pivot_row] = [-x for x in U[pivot_row]]
            piv = H[pivot_row][col]
            for i in range(pivot_row):
                q = H[i][col] // piv
                if q:
                    for j in range(n):
                        H[i][j] -= q * H[pivot_row][j]
                    for j in range(m):
                        U[i][j] -= q * U[pivot_row][j]
            pivot_row += 1
            if pivot_row == m:
                break
    return H, U


def eager_basis(lat: LatticeQ) -> list[AVector]:
    """The lattice's rows / den as vectors of Fractions, one per row."""
    return [
        AVector({p: Fraction(x, lat.den) for p, x in zip(lat.coords, row)})
        for row in lat.rows
    ]


def kernel_of_functional(lat: LatticeQ, values: list[Fraction]) -> LatticeQ:
    """Sublattice where the linear functional (given on the basis) vanishes,
    summed as rational vectors."""
    m = lcm(1, *(v.denominator for v in values))
    col = [[int(v * m)] for v in values]
    vecs = []
    for combo in integer_kernel(col):
        acc = AVector.zero()
        for c, b in zip(combo, eager_basis(lat)):
            acc = acc + b.scale(c)
        vecs.append(acc)
    if not vecs:
        raise ValidationFailure("functional kernel is the zero lattice")
    return lattice_generated(vecs, lat.coords)


def kernel_of_degree(lat: LatticeQ, fdeg: dict[str, int]) -> LatticeQ:
    return kernel_of_functional(lat, [degree_of(b, fdeg) for b in eager_basis(lat)])


def rational_solve(
    matrix: list[list[Fraction]], target: list[Fraction]
) -> list[Fraction] | None:
    """Solve x @ matrix == target exactly over Q (matrix rows are the basis)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(0)] * m for row in matrix]
    for i in range(m):
        aug[i][n + i] = Fraction(1)
    t = [Fraction(x) for x in target]
    piv_cols = []
    row = 0
    for col in range(n):
        p = next((i for i in range(row, m) if aug[i][col]), None)
        if p is None:
            continue
        aug[row], aug[p] = aug[p], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        piv_cols.append(col)
        row += 1
        if row == m:
            break
    coeffs = [Fraction(0)] * m
    res = list(t)
    for i, col in enumerate(piv_cols):
        f = res[col]
        if f:
            for j in range(n):
                res[j] -= f * aug[i][j]
            for j in range(m):
                coeffs[j] += f * aug[i][n + j]
    if any(res):
        return None
    return coeffs


def coords_in_basis(lat: LatticeQ, v: AVector) -> list[Fraction] | None:
    """Exact coordinates of v in the basis by a general solve over Q."""
    matrix = [[Fraction(b[p]) for p in lat.coords] for b in eager_basis(lat)]
    return rational_solve(matrix, [Fraction(v[p]) for p in lat.coords])


def substitute_full(g: LaurentPoly, table: dict[str, LaurentPoly]) -> LaurentPoly:
    """`LaurentPoly.substitute` with no limits and no kept powers: each power
    expanded by `LaurentPoly.__pow__` for every call, every product formed
    in full."""
    powers: dict[tuple[str, int], LaurentPoly] = {}
    total = LaurentPoly.zero()
    for m, c in g.terms.items():
        term = LaurentPoly.const(c)
        for v, e in m:
            if (v, e) not in powers:
                if v not in table:
                    raise SchemaError(f"unknown variable {v!r} in substitution")
                if e < 0:
                    raise SchemaError(
                        f"negative exponent on {v!r} cannot be substituted"
                    )
                powers[v, e] = table[v] ** e
            term = term * powers[v, e]
        total = total + term
    return total


class LaurentFraction:
    """Formal quotient num/den of Laurent polynomials; den is never zero.

    The valuation recursion carries its rational functions as factors with
    exponents instead (see `valuation`).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def min_exponent(self, var: str) -> int:
        """Vanishing order along {var = 0}: exact because the Laurent ring is a
        domain, so orders of num and den subtract."""
        if self.is_zero():
            raise ChartError("vanishing order of the zero function")
        return self.num.min_exponent(var) - self.den.min_exponent(var)

    def restrict(self, var: str) -> "LaurentFraction":
        """Restriction to the divisor {var = 0}, defined when min_exponent == 0:
        keep the lowest var-order parts of num and den."""
        if self.min_exponent(var) != 0:
            raise ChartError(
                f"restriction to {{{var}=0}} of a function with nonzero order"
            )
        return LaurentFraction(
            self.num.order_and_lowest_part(var)[1],
            self.den.order_and_lowest_part(var)[1],
        )

    def as_constant(self) -> Fraction:
        """Value when num and den are both constants."""
        nt, dt = self.num.terms, self.den.terms
        if set(nt) | set(dt) > {()}:
            raise ChartError("fraction is not constant")
        return nt.get((), Fraction(0)) / dt[()]

    def __str__(self) -> str:
        if self.den == LaurentPoly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def rees_min_by_scan(g: LaurentPoly, p: str, atlas, ps: StratPoset) -> Fraction:
    """min over covers q of (order of g along the divisor of q in the stratum
    of p) / bond, computed on the first chart, in sorted chain order, that
    contains the edge p > q, found by a scan of the sorted atlas."""
    covers = ps.covers_of.get(p)
    if covers is None:
        raise SchemaError(f"unknown id {p!r}")
    if not covers:
        raise ChartError(f"{p!r} is minimal: no covers, no Rees minimum")
    ratios = []
    for q, b in sorted(covers):
        edge_chart = None
        pos = -1
        for chain, chart in sorted(atlas.items()):
            if p in chain:
                i = chain.index(p)
                if i + 1 < len(chain) and chain[i + 1] == q:
                    edge_chart, pos = chart, i
                    break
        if edge_chart is None:
            raise SchemaError(f"no chart in the atlas contains the edge {p} > {q}")
        cur = edge_chart.image(g)
        if cur.is_zero():
            raise ChartError("function is zero on the chart")
        for var in edge_chart.divisor_vars[:pos]:
            order, low = cur.order_and_lowest_part(var)
            if order > 0:
                raise ChartError(f"function vanishes identically on the stratum of {p!r}")
            if order < 0:
                raise ChartError(
                    f"restriction to {{{var}=0}} of a function with nonzero order"
                )
            cur = low
        nu = cur.min_exponent(edge_chart.divisor_vars[pos])
        ratios.append(Fraction(nu, b))
    return min(ratios)


def enumerate_ls_by_chains(
    rs: RootSystem, lam: Weight, m: int, group: WeylGroup | None = None
) -> list[LSPath]:
    """LS paths of degree m as the union over every maximal chain of the
    chain's cut-lattice points, read back as paths."""
    group = group or weyl_group(rs)
    poset = bonds(rs, lam, group)
    vectors: set[AVector] = set()
    for chain in poset.maximal_chains():
        vectors.update(ls_lattice_points(poset, chain, m))
    return [path_from_vector(u, poset) for u in sorted(vectors, key=AVector.key)]


def path_from_vector(u: AVector, poset: StratPoset) -> LSPath:
    """The LS path whose lattice image is u: directions by decreasing
    length, cuts the partial sums of their weights."""
    if u.is_zero():
        return EMPTY_PATH
    supp = sorted(u.support(), key=lambda p: -poset.length(p))
    cuts = []
    acc = Fraction(0)
    for p in supp:
        acc += u[p]
        cuts.append(acc)
    return LSPath(tuple(supp), tuple(cuts))


def _interval_chain(group: WeylGroup, lower: str, upper: str):
    """One maximal chain in the Bruhat interval, as (element, root) steps
    upward, found by BFS over covers."""
    up = {}
    for u, l, beta in group.covers:
        up.setdefault(l, []).append((u, beta))
    target_len = group.by_id[upper].length
    frontier = [(lower, [])]
    while frontier:
        nxt = []
        for current, steps in frontier:
            if current == upper:
                return steps
            if group.by_id[current].length >= target_len:
                continue
            for u, beta in sorted(up.get(current, [])):
                nxt.append((u, steps + [(u, beta)]))
        frontier = nxt
    return None


def is_a_lambda_chain(
    group: WeylGroup, rs: RootSystem, lam: Weight, a: Fraction,
    lower: str, upper: str,
) -> bool:
    """The integrality predicate on one maximal chain of the interval; by the
    all-or-none property of such chains, one witness decides."""
    steps = _interval_chain(group, lower, upper)
    if steps is None:
        return False
    for elem_id, beta in steps:
        pair = rs.coroot_pairing(group.by_id[elem_id].act(lam), beta)
        if (a * pair).denominator != 1:
            return False
    return True


def validate_ls_by_bfs(
    path: LSPath, group: WeylGroup, rs: RootSystem, lam: Weight
) -> bool:
    """`weyl.validate_ls` with each interval's predicate decided by
    `is_a_lambda_chain` instead of the gcd table."""
    for k in range(len(path.dirs) - 1):
        upper, lower = path.dirs[k], path.dirs[k + 1]
        if group.by_id[upper].length <= group.by_id[lower].length:
            return False
        if not is_a_lambda_chain(group, rs, lam, path.cuts[k], lower, upper):
            return False
    return True


Matrix = tuple[tuple[int, ...], ...]


def reflection_matrix(rs: RootSystem, beta: tuple[int, ...]) -> Matrix:
    """s_beta acting on the omega-basis: I - beta_omega beta^vee^T, since
    <omega_j, beta^vee> is the j-th coroot coordinate."""
    coroot = rs.coroots[beta]
    return tuple(
        tuple(int(k == j) - bk * cj for j, cj in enumerate(coroot))
        for k, bk in enumerate(rs.roots_in_omega[beta])
    )


def _mat_mul_int(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def weyl_group_by_matrices(
    rs: RootSystem, bound: int = CARTAN_BOUND,
) -> tuple[list[tuple[str, int, Matrix]], list[tuple[str, str, tuple[int, ...]]]]:
    """The Weyl group as integer matrices on the omega-basis, by BFS over
    right multiplication by the simple reflections: (id, length, matrix) for
    each element, by length and then lex-smallest reduced word, and the
    sorted covers (upper, lower, beta) with upper = s_beta lower, found by
    multiplying each element by the matrix of every positive root."""
    n = rs.rank
    identity: Matrix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    simple = [reflection_matrix(rs, alpha) for alpha in rs.simple_roots]
    elements = {identity: (0, "")}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            length, word = elements[m]
            for i in range(n):
                prod = _mat_mul_int(m, simple[i])
                if prod not in elements:
                    elements[prod] = (length + 1, word + str(i + 1))
                    nxt.append(prod)
                    if len(elements) > bound:
                        raise BoundError(f"Weyl group exceeds bound {bound}")
        frontier = nxt
    elts = sorted(((word or "e", length, m) for m, (length, word) in elements.items()),
                  key=lambda e: (e[1], e[0]))
    by_matrix = {m: (elt_id, length) for elt_id, length, m in elts}
    covers = []
    for elt_id, length, m in elts:
        for beta in rs.positive_roots:
            upper, upper_length = by_matrix[_mat_mul_int(reflection_matrix(rs, beta), m)]
            if upper_length == length + 1:
                covers.append((upper, elt_id, beta))
    return elts, sorted(covers)


def freudenthal_by_levels(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the Weyl module by the Freudenthal recursion
    over every weight, one height level at a time.

    The form is (alpha_i, alpha_j) = d_i a_ij and (omega_j, alpha_i) = d_i
    delta_ij with the integer symmetrizer d.  Each weight mu carries kappa =
    lambda - mu in the simple-root basis, so the denominator (lambda + rho,
    lambda + rho) - (mu + rho, mu + rho) = 2 (lambda + rho, kappa) - (kappa,
    kappa) needs no inverse Cartan matrix."""
    if any(x < 0 for x in lam):
        raise SchemaError("highest weight must be dominant")
    n, sym = rs.rank, rs.sym
    gram = [[d * x for x in row] for d, row in zip(sym, rs.cartan)]
    top = [d * (l + 1) for d, l in zip(sym, lam)]    # (lambda + rho, alpha_j)

    def denominator(kappa: tuple[int, ...]) -> int:
        return sum(
            k * (2 * t - sum(g * c for g, c in zip(row, kappa)))
            for k, t, row in zip(kappa, top, gram)
        )

    pos_omega = [
        (rs.roots_in_omega[beta], sum(beta), [b * d for b, d in zip(beta, sym)])
        for beta in rs.positive_roots
    ]
    simple_omega = [rs.roots_in_omega[alpha] for alpha in rs.simple_roots]
    mults: dict[Weight, int] = {lam: 1}
    level: dict[Weight, tuple[int, ...]] = {lam: (0,) * n}
    depth = 0
    while level:
        # descend one height level at a time so every weight above is known
        depth += 1
        nxt: dict[Weight, tuple[int, ...]] = {}
        for mu, kappa in level.items():
            for i, alpha_o in enumerate(simple_omega):
                down = tuple(m - b for m, b in zip(mu, alpha_o))
                if down not in nxt:
                    nxt[down] = kappa[:i] + (kappa[i] + 1,) + kappa[i + 1:]
        found = {}
        for mu in sorted(nxt):
            if mu in mults:
                continue
            total = 0
            for beta_o, height, beta_sym in pos_omega:
                # mu + k*beta sits k*height levels up; past the top it is gone
                for k in range(1, depth // height + 1):
                    up = tuple(m + k * b for m, b in zip(mu, beta_o))
                    cnt = mults.get(up, 0)
                    if cnt:
                        total += 2 * cnt * sum(u * b for u, b in zip(up, beta_sym))
            denom = denominator(nxt[mu])
            if denom <= 0 or total <= 0:
                continue
            mult, rem = divmod(total, denom)
            if rem:
                raise StratvalError("Freudenthal recursion produced a non-integer")
            if mult > 0:
                mults[mu] = mult
                found[mu] = nxt[mu]
        level = found
    return mults
