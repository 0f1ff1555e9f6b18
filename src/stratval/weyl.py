"""Root systems, Weyl groups, Pieri-Chevalley bonds and the LS-path model.

Matrices act on weights written in the fundamental-weight basis, so every
pairing against a coroot is exact integer arithmetic.  The flag-variety
stratification has the Weyl group with Bruhat order as its poset, degrees
all one, and the bond on a cover pair sigma over tau with tau = s_beta sigma
equal to the pairing of tau(lambda) with the coroot of beta.  LS-paths are
enumerated through the telescoping lattice of cut sequences and validated
independently against the integrality chain predicate.

The Freudenthal character recursion lives here as well, deliberately sharing
no code with the path enumeration: it is the oracle the path model is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from stratval.avector import AVector
from stratval.errors import BoundError, SchemaError, StratvalError, ValidationFailure
from stratval.monoids import LatticeQ
from stratval.poset import Chain, StratPoset

Matrix = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]

CARTAN_BOUND = 10_000


def cartan_matrix(type_name: str) -> list[list[int]]:
    kind = type_name[0].upper()
    try:
        n = int(type_name[1:])
    except ValueError:
        raise SchemaError(f"bad type name {type_name!r}") from None
    if n < 1:
        raise SchemaError("rank must be positive")
    A = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def link(i, j, a=-1, b=-1):
        A[i][j], A[j][i] = a, b

    if kind == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif kind == "B":  # last root short
        for i in range(n - 1):
            link(i, i + 1)
        if n >= 2:
            link(n - 2, n - 1, -2, -1)
    elif kind == "C":
        for i in range(n - 1):
            link(i, i + 1)
        if n >= 2:
            link(n - 2, n - 1, -1, -2)
    elif kind == "D":
        if n < 3:
            raise SchemaError("type D needs rank >= 3")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif kind == "G" and n == 2:
        link(0, 1, -3, -1)
    elif kind == "F" and n == 4:
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif kind == "E" and n in (6, 7, 8):
        for i in range(1, n - 1):
            link(i, i + 1)
        link(0, 3)
    else:
        raise SchemaError(f"unsupported type {type_name!r}")
    return A


class RootSystem:
    def __init__(self, cartan: list[list[int]]):
        n = len(cartan)
        for row in cartan:
            if len(row) != n:
                raise SchemaError("Cartan matrix must be square")
        for i in range(n):
            if cartan[i][i] != 2:
                raise SchemaError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and cartan[i][j] > 0:
                    raise SchemaError("off-diagonal Cartan entries must be <= 0")
        self.cartan = [list(r) for r in cartan]
        self.rank = n
        self.sym = self._symmetrizer()
        self.positive_roots = self._generate_positive_roots()
        self._winv = _invert_rational([list(map(Fraction, r)) for r in self.cartan])

    @staticmethod
    def from_type(type_name: str) -> "RootSystem":
        return RootSystem(cartan_matrix(type_name))

    def _symmetrizer(self) -> list[Fraction]:
        d = [Fraction(0)] * self.rank
        d[0] = Fraction(1)
        changed = True
        while changed:
            changed = False
            for i in range(self.rank):
                for j in range(self.rank):
                    if i != j and self.cartan[i][j] and d[i] and not d[j]:
                        d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
                        changed = True
        if any(not x for x in d):
            # disconnected diagram: symmetrize each component separately
            for i in range(self.rank):
                if not d[i]:
                    d[i] = Fraction(1)
            return self._propagate(d)
        return d

    def _propagate(self, d):
        for _ in range(self.rank):
            for i in range(self.rank):
                for j in range(self.rank):
                    if i != j and self.cartan[i][j]:
                        d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
        return d

    def _generate_positive_roots(self) -> list[tuple[int, ...]]:
        """Closure of the simple roots under simple reflections, in the
        simple-root basis."""
        simples = [
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        ]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    pairing = sum(
                        self.cartan[i][j] * beta[j] for j in range(self.rank)
                    )
                    new = list(beta)
                    new[i] -= pairing
                    new_t = tuple(new)
                    if new_t not in seen:
                        seen.add(new_t)
                        nxt.append(new_t)
                if len(seen) > 4 * CARTAN_BOUND:
                    raise BoundError("root generation exceeded the bound")
            frontier = nxt
        positives = sorted(b for b in seen if all(x >= 0 for x in b))
        return positives

    # -- bilinear forms ------------------------------------------------------

    def root_form(self, beta: tuple[int, ...], gamma: tuple[int, ...]) -> Fraction:
        """(beta, gamma) for roots in the simple-root basis."""
        total = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                if beta[i] and gamma[j]:
                    total += beta[i] * gamma[j] * self.sym[i] * self.cartan[i][j]
        return total

    def weight_root_form(self, lam: Weight, beta: tuple[int, ...]) -> Fraction:
        """(lambda, beta) for a weight in the omega-basis and a root."""
        return sum(
            (beta[j] * self.sym[j] * lam[j] for j in range(self.rank)),
            Fraction(0),
        )

    def coroot_pairing(self, lam, beta: tuple[int, ...]) -> Fraction:
        """<lambda, beta^vee> = 2 (lambda, beta) / (beta, beta)."""
        return 2 * self.weight_root_form(lam, beta) / self.root_form(beta, beta)

    def weight_form(self, lam, mu) -> Fraction:
        """(lambda, mu) for weights in the omega-basis."""
        mu_alpha = _mat_vec(self._winv, [Fraction(x) for x in mu])
        return sum(
            (mu_alpha[j] * self.sym[j] * lam[j] for j in range(self.rank)),
            Fraction(0),
        )

    def root_in_omega(self, beta: tuple[int, ...]) -> Weight:
        return tuple(
            sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def reflection_matrix(self, beta: tuple[int, ...]) -> Matrix:
        """s_beta acting on the omega-basis; integral by crystallography."""
        beta_omega = self.root_in_omega(beta)
        rows = []
        for k in range(self.rank):
            row = []
            for j in range(self.rank):
                unit = tuple(int(t == j) for t in range(self.rank))
                pair = self.coroot_pairing(unit, beta)
                if pair.denominator != 1:
                    raise StratvalError("non-integral coroot pairing")
                row.append(int(k == j) - beta_omega[k] * int(pair))
            rows.append(tuple(row))
        return tuple(rows)


def _invert_rational(mat):
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _mat_vec(mat, vec):
    return [sum(mat[i][j] * vec[j] for j in range(len(vec))) for i in range(len(mat))]


def _mat_mul_int(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class WeylElt:
    matrix: Matrix
    length: int
    word: str        # lex-smallest reduced word, '' for the identity

    @property
    def id(self) -> str:
        return self.word or "e"

    def act(self, lam) -> tuple:
        return tuple(
            sum(self.matrix[i][j] * lam[j] for j in range(len(lam)))
            for i in range(len(lam))
        )


@dataclass
class WeylGroup:
    rs: RootSystem
    elements: list[WeylElt]
    by_id: dict[str, WeylElt]
    by_matrix: dict[Matrix, WeylElt]
    covers: list[tuple[str, str, tuple[int, ...]]]   # (upper, lower, root beta)

    @property
    def w0(self) -> WeylElt:
        return max(self.elements, key=lambda w: w.length)


def weyl_group(rs: RootSystem, bound: int = CARTAN_BOUND) -> WeylGroup:
    """BFS over simple reflections; lengths are BFS distances, words are the
    lexicographically smallest reduced expressions."""
    n = rs.rank
    identity: Matrix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    simple = [rs.reflection_matrix(tuple(int(t == i) for t in range(n)))
              for i in range(n)]
    elements = {identity: WeylElt(identity, 0, "")}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            w = elements[m]
            for i in range(n):
                prod = _mat_mul_int(m, simple[i])
                if prod not in elements:
                    elements[prod] = WeylElt(prod, w.length + 1, w.word + str(i + 1))
                    nxt.append(prod)
                    if len(elements) > bound:
                        raise BoundError(f"Weyl group exceeds bound {bound}")
        frontier = nxt
    elts = sorted(elements.values(), key=lambda w: (w.length, w.word))
    by_id = {w.id: w for w in elts}
    by_matrix = {w.matrix: w for w in elts}
    refl = {rs.reflection_matrix(beta): beta for beta in rs.positive_roots}
    covers = []
    for w in elts:
        for smat, beta in refl.items():
            upper = by_matrix[_mat_mul_int(smat, w.matrix)]
            if upper.length == w.length + 1:
                covers.append((upper.id, w.id, beta))
    n_pos = len(rs.positive_roots)
    if max(w.length for w in elts) != n_pos:
        raise StratvalError("positive-root count does not match the longest element")
    return WeylGroup(rs, elts, by_id, by_matrix, sorted(covers))


def _check_regular_dominant(lam: Weight, rank: int):
    if len(lam) != rank:
        raise SchemaError(f"weight has {len(lam)} coordinates, rank is {rank}")
    if any(x < 1 for x in lam):
        raise ValidationFailure(
            "lambda must be regular dominant (all fundamental coordinates >= 1); "
            "non-regular weights need coset posets and are rejected"
        )


def bonds(rs: RootSystem, lam: Weight, group: WeylGroup | None = None) -> StratPoset:
    """The flag-variety stratification poset: Weyl group with Bruhat covers,
    degrees one, bond <tau(lambda), beta^vee> on the cover through s_beta."""
    _check_regular_dominant(lam, rs.rank)
    group = group or weyl_group(rs)
    elements = [(w.id, w.id) for w in group.elements]
    covers = []
    for upper, lower, beta in group.covers:
        tau = group.by_id[lower]
        pairing = rs.coroot_pairing(tau.act(lam), beta)
        if pairing.denominator != 1 or pairing <= 0:
            raise StratvalError(f"bond on ({upper},{lower}) is {pairing}")
        covers.append((upper, lower, int(pairing)))
    return StratPoset(elements, covers, {w.id: 1 for w in group.elements})


def lattice_LC_lambda(poset: StratPoset, chain: Chain) -> LatticeQ:
    """The telescoping cut lattice of a maximal chain: partial sums down the
    chain are integral after scaling by the bond at each level.  Over the
    lcm L of the bonds its generators are the integer rows
    (L / b_k)(e_k - e_{k+1}) and L e_bottom."""
    bonds_list = [poset.bond[e] for e in zip(chain, chain[1:])]
    den = lcm(1, *bonds_list)
    rows = [[0] * len(chain) for _ in chain]
    for k, b in enumerate(bonds_list):
        rows[k][k], rows[k][k + 1] = den // b, -(den // b)
    rows[-1][-1] = den
    return LatticeQ.from_scaled_rows(chain, rows, den)


def ls_lattice_points(
    poset: StratPoset, chain: Chain, m: int
) -> list[AVector]:
    """Degree-m nonnegative lattice points of the chain's cut lattice,
    enumerated through the telescoping integrality constraints."""
    if m < 0:
        raise SchemaError("degree must be nonnegative")
    if m == 0:
        return [AVector.zero()]
    r = len(chain) - 1
    bonds_list = [poset.bond[(chain[k], chain[k + 1])] for k in range(r)]
    out: list[AVector] = []

    def walk(k: int, partials: list[Fraction]):
        # partials[k] = u_top + ... + u_{level k}, increasing down the chain
        if k == r:
            entries = {}
            prev = Fraction(0)
            for idx in range(r):
                u = partials[idx] - prev
                prev = partials[idx]
                if u:
                    entries[chain[idx]] = u
            u0 = Fraction(m) - prev
            if u0:
                entries[chain[r]] = u0
            out.append(AVector(entries))
            return
        b = bonds_list[k]
        low = partials[-1] if partials else Fraction(0)
        step = Fraction(1, b)
        first = (low / step).__ceil__()
        val = first * step
        while val <= m:
            partials.append(val)
            walk(k + 1, partials)
            partials.pop()
            val += step

    walk(0, [])
    return sorted(out, key=AVector.key)


@dataclass(frozen=True)
class LSPath:
    dirs: tuple[str, ...]        # Bruhat-decreasing, initial direction first
    cuts: tuple[Fraction, ...]   # ascending, last equals the degree

    @property
    def degree(self) -> Fraction:
        return self.cuts[-1] if self.cuts else Fraction(0)

    def to_json(self) -> dict:
        return {
            "dirs": list(self.dirs),
            "cuts": [str(c) for c in self.cuts],
            "degree": str(self.degree),
        }


EMPTY_PATH = LSPath((), ())


def nu(path: LSPath) -> AVector:
    """Lattice image: steps between consecutive cuts weight the directions."""
    entries = {}
    prev = Fraction(0)
    for d, c in zip(path.dirs, path.cuts):
        entries[d] = c - prev
        prev = c
    return AVector(entries)


def path_from_vector(u: AVector, poset: StratPoset) -> LSPath:
    if u.is_zero():
        return EMPTY_PATH
    supp = sorted(u.support(), key=lambda p: -poset.length(p))
    cuts = []
    acc = Fraction(0)
    for p in supp:
        acc += u[p]
        cuts.append(acc)
    return LSPath(tuple(supp), tuple(cuts))


def weight(path: LSPath, group: WeylGroup, lam: Weight) -> Weight:
    total = [Fraction(0)] * len(lam)
    prev = Fraction(0)
    for d, c in zip(path.dirs, path.cuts):
        img = group.by_id[d].act(lam)
        for i in range(len(lam)):
            total[i] += (c - prev) * img[i]
        prev = c
    for x in total:
        if x.denominator != 1:
            raise StratvalError(f"path weight {total} is not integral")
    return tuple(int(x) for x in total)


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


def validate_ls(path: LSPath, group: WeylGroup, rs: RootSystem, lam: Weight) -> bool:
    if not path.dirs:
        return True
    for k in range(len(path.dirs) - 1):
        upper, lower = path.dirs[k], path.dirs[k + 1]
        if group.by_id[upper].length <= group.by_id[lower].length:
            return False
        if not is_a_lambda_chain(group, rs, lam, path.cuts[k], lower, upper):
            return False
    return True


def enumerate_ls(
    rs: RootSystem, lam: Weight, m: int, group: WeylGroup | None = None,
    poset: StratPoset | None = None,
) -> list[LSPath]:
    """All LS-paths of the given shape and degree: union of the per-chain cut
    lattices, then independently validated against the chain predicate."""
    _check_regular_dominant(lam, rs.rank)
    group = group or weyl_group(rs)
    poset = poset if poset is not None else bonds(rs, lam, group)
    vectors: set[AVector] = set()
    for chain in poset.maximal_chains():
        vectors.update(ls_lattice_points(poset, chain, m))
    paths = [path_from_vector(u, poset) for u in sorted(vectors, key=AVector.key)]
    for path in paths:
        if not validate_ls(path, group, rs, lam):
            raise StratvalError(
                f"enumerated path {path} fails the chain predicate; "
                "lattice and path model disagree"
            )
    return paths


# ------------------------------------------------------- character oracle ----

def freudenthal_character(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the Weyl module by the Freudenthal recursion."""
    if any(x < 0 for x in lam):
        raise SchemaError("highest weight must be dominant")
    rho = tuple(1 for _ in range(rs.rank))
    lam_rho = tuple(l + r for l, r in zip(lam, rho))
    norm_top = rs.weight_form(lam_rho, lam_rho)
    pos_omega = [
        (beta, rs.root_in_omega(beta), sum(beta)) for beta in rs.positive_roots
    ]
    simple_omega = [
        rs.root_in_omega(tuple(int(t == i) for t in range(rs.rank)))
        for i in range(rs.rank)
    ]
    mults: dict[Weight, int] = {lam: 1}
    level: list[Weight] = [lam]
    depth = 0
    while level:
        # descend one height level at a time so every weight above is known
        depth += 1
        nxt: set[Weight] = set()
        for mu in level:
            for alpha_o in simple_omega:
                nxt.add(tuple(m - b for m, b in zip(mu, alpha_o)))
        found = []
        for mu in sorted(nxt):
            if mu in mults:
                continue
            total = Fraction(0)
            for beta, beta_o, height in pos_omega:
                # mu + k*beta sits k*height levels up; past the top it is gone
                for k in range(1, depth // height + 1):
                    up = tuple(m + k * b for m, b in zip(mu, beta_o))
                    cnt = mults.get(up, 0)
                    if cnt:
                        total += 2 * cnt * rs.weight_root_form(up, beta)
            mu_rho = tuple(m + r for m, r in zip(mu, rho))
            denom = norm_top - rs.weight_form(mu_rho, mu_rho)
            if denom <= 0 or total <= 0:
                continue
            mult = total / denom
            if mult.denominator != 1:
                raise StratvalError("Freudenthal recursion produced a non-integer")
            if int(mult) > 0:
                mults[mu] = int(mult)
                found.append(mu)
        level = found
    return mults


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    rho = tuple(1 for _ in range(rs.rank))
    lam_rho = tuple(l + r for l, r in zip(lam, rho))
    num, den = Fraction(1), Fraction(1)
    for beta in rs.positive_roots:
        num *= rs.coroot_pairing(lam_rho, beta)
        den *= rs.coroot_pairing(rho, beta)
    dim = num / den
    if dim.denominator != 1:
        raise StratvalError("Weyl dimension formula produced a non-integer")
    return int(dim)


@dataclass
class CharacterReport:
    ok: bool
    paths: list[LSPath]        # the enumerated paths the check compared
    dim: int
    discrepancies: list[str]

    @property
    def path_count(self) -> int:
        return len(self.paths)


CHARACTER_DIM_BOUND = 100_000


def character_check(rs: RootSystem, lam: Weight, m: int,
                    group: WeylGroup | None = None) -> CharacterReport:
    """Compare the multiset of path endpoint weights with the Freudenthal
    character of the m-fold dilated weight."""
    if m < 0:
        raise SchemaError("degree must be nonnegative")
    group = group or weyl_group(rs)
    dilated = tuple(m * x for x in lam)
    dim = weyl_dim(rs, dilated)
    if dim > CHARACTER_DIM_BOUND:
        raise BoundError(
            f"character comparison refused: dim {dim} exceeds "
            f"{CHARACTER_DIM_BOUND}"
        )
    paths = enumerate_ls(rs, lam, m, group=group)
    got: dict[Weight, int] = {}
    for path in paths:
        w = weight(path, group, lam) if path.dirs else tuple(0 for _ in lam)
        got[w] = got.get(w, 0) + 1
    target = freudenthal_character(rs, dilated)
    discrepancies = []
    for w in sorted(set(got) | set(target)):
        a, b = got.get(w, 0), target.get(w, 0)
        if a != b:
            discrepancies.append(f"weight {w}: paths {a}, character {b}")
    if len(paths) != dim:
        discrepancies.append(f"path count {len(paths)} != dim {dim}")
    return CharacterReport(not discrepancies, paths, dim, discrepancies)


def schubert_degree(rs: RootSystem, lam: Weight, tau: str,
                    group: WeylGroup | None = None,
                    poset: StratPoset | None = None) -> int:
    """Sum over the maximal chains below tau of the product of their bonds."""
    if poset is None:
        poset = bonds(rs, lam, group or weyl_group(rs))
    tau_id = tau or "e"
    if tau_id not in poset.covers_of:
        raise SchemaError(f"unknown Weyl element {tau!r}")
    return poset.chain_sums(lambda p, q: poset.bond[(p, q)], lambda q: 1)[tau_id]
