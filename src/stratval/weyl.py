"""Root systems, Weyl groups, Pieri-Chevalley bonds and the LS-path model.

Weights are written in the fundamental-weight basis and each positive root
carries its coroot from the closure of the simple roots, so every coroot
pairing, and so every reflection, is exact integer arithmetic.  A Weyl
element is its lex-smallest reduced word with its image of the regular
weight rho, which determines it.  The flag-variety stratification has the
Weyl group with Bruhat order as its poset, degrees all one, and the bond on
a cover pair sigma over tau with tau = s_beta sigma equal to the pairing of
tau(lambda) with the coroot of beta.  LS-paths are enumerated by a
depth-first walk over (element, cut) states: a step from tau down to sigma
may cut only at multiples of 1 / g(sigma, tau), the gcd of the bonds along
a maximal chain of the Bruhat interval, read from a table built in one pass
over the covers.  Paths keep integer cuts over the lcm of the bonds until
they are handed out, and each is validated against that table.
`path_count` runs the same walk with the counts of its states summed
instead of its paths listed.

The Freudenthal character recursion lives here as well, run over the
dominant weights only and deliberately sharing no code with the path
enumeration: it is the oracle the path model is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod

from stratval.avector import AVector
from stratval.errors import BoundError, SchemaError, StratvalError, ValidationFailure
from stratval.monoids import LatticeQ
from stratval.poset import Chain, StratPoset

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
        if n == 0:
            raise SchemaError("Cartan matrix must be nonempty")
        for row in cartan:
            if len(row) != n:
                raise SchemaError("Cartan matrix must be square")
        for i in range(n):
            if cartan[i][i] != 2:
                raise SchemaError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and cartan[i][j] > 0:
                    raise SchemaError("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise SchemaError("Cartan entries a_ij and a_ji must vanish together")
        self.cartan = [list(r) for r in cartan]
        self.rank = n
        self.sym = self._symmetrizer()
        self.simple_roots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        self.coroots = self._generate_positive_roots()
        self.positive_roots = sorted(self.coroots)
        # alpha_j = sum_i a_ij omega_i, so beta has omega-coordinates A beta
        self.roots_in_omega = {
            b: tuple(sum(a * x for a, x in zip(row, b)) for row in self.cartan)
            for b in self.positive_roots
        }

    @staticmethod
    def from_type(type_name: str) -> "RootSystem":
        return RootSystem(cartan_matrix(type_name))

    def _symmetrizer(self) -> list[int]:
        """Positive integers d with d_i a_ij = d_j a_ji: one traversal of each
        component of the Dynkin diagram from d = 1, then one common scaling."""
        n, a = self.rank, self.cartan
        d: list[Fraction | None] = [None] * n
        for start in range(n):
            if d[start] is None:
                d[start] = Fraction(1)
                component = [start]
                for i in component:
                    for j in range(n):
                        if d[j] is None and a[i][j]:
                            d[j] = d[i] * a[i][j] / a[j][i]
                            component.append(j)
        scale = lcm(*(x.denominator for x in d))
        sym = [int(scale * x) for x in d]
        if any(sym[i] * a[i][j] != sym[j] * a[j][i]
               for i in range(n) for j in range(n)):
            raise SchemaError("Cartan matrix is not symmetrizable")
        return sym

    def _generate_positive_roots(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Closure of the simple roots under simple reflections, carrying each
        root beta (simple-root basis) with its coroot (simple-coroot basis):
        s_i beta = beta - <beta, a_i^vee> a_i and s_i beta^vee = beta^vee -
        <a_i, beta^vee> a_i^vee.  Returns the positive roots' coroots."""
        n, a = self.rank, self.cartan
        coroots = dict(zip(self.simple_roots, self.simple_roots))
        frontier = self.simple_roots
        while frontier:
            nxt = []
            for beta in frontier:
                cobeta = coroots[beta]
                for i in range(n):
                    new = list(beta)
                    new[i] -= sum(a[i][j] * beta[j] for j in range(n))
                    new_t = tuple(new)
                    if new_t not in coroots:
                        co = list(cobeta)
                        co[i] -= sum(cobeta[j] * a[j][i] for j in range(n))
                        coroots[new_t] = tuple(co)
                        nxt.append(new_t)
                if len(coroots) > 4 * CARTAN_BOUND:
                    raise BoundError("root generation exceeded the bound")
            frontier = nxt
        return {b: c for b, c in coroots.items() if all(x >= 0 for x in b)}

    # -- pairings --------------------------------------------------------------

    def coroot_pairing(self, lam, beta: tuple[int, ...]) -> int:
        """<lambda, beta^vee> for a weight in the omega-basis."""
        return sum(l * c for l, c in zip(lam, self.coroots[beta]))

    def reflect(self, mu, beta: tuple[int, ...]) -> Weight:
        """s_beta mu = mu - <mu, beta^vee> beta for a weight in the omega-basis
        and a positive root beta."""
        c = self.coroot_pairing(mu, beta)
        return tuple(m - c * b for m, b in zip(mu, self.roots_in_omega[beta]))


@dataclass(frozen=True)
class WeylElt:
    rho: Weight      # w(rho), which determines w since rho is regular
    length: int
    word: str        # lex-smallest reduced word, '' for the identity
    rs: RootSystem = field(repr=False, compare=False)

    @property
    def id(self) -> str:
        return self.word or "e"

    def act(self, lam) -> Weight:
        """w(lam): the word's simple reflections applied right to left."""
        for letter in reversed(self.word):
            lam = self.rs.reflect(lam, self.rs.simple_roots[int(letter) - 1])
        return tuple(lam)


@dataclass
class WeylGroup:
    rs: RootSystem
    elements: list[WeylElt]   # by length, then word
    by_id: dict[str, WeylElt]
    covers: list[tuple[str, str, tuple[int, ...]]]   # (upper, lower, root beta)

    @property
    def w0(self) -> WeylElt:
        return self.elements[-1]


def weyl_group(rs: RootSystem, bound: int = CARTAN_BOUND) -> WeylGroup:
    """BFS over the orbit of rho, multiplying by s_i on the left: lengths
    are BFS distances.  With the letters i in increasing order outside and
    each level in word order inside, the first word found for an element,
    i followed by the word of s_i w, is its lex-smallest reduced word, and
    each level is found in word order.  The cover upper = s_beta lower is
    read off the image s_beta(lower(rho))."""
    n = rs.rank
    if n > 9:
        raise BoundError(f"Weyl group of rank {n} refused: ids are words of digits 1-9")
    identity = WeylElt((1,) * n, 0, "", rs)
    by_rho = {identity.rho: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for i, alpha in enumerate(rs.simple_roots):
            for w in frontier:
                mu = rs.reflect(w.rho, alpha)
                if mu not in by_rho:
                    by_rho[mu] = WeylElt(mu, w.length + 1, str(i + 1) + w.word, rs)
                    nxt.append(by_rho[mu])
                    if len(by_rho) > bound:
                        raise BoundError(f"Weyl group exceeds bound {bound}")
        frontier = nxt
    elts = list(by_rho.values())
    covers = []
    for w in elts:
        for beta in rs.positive_roots:
            upper = by_rho[rs.reflect(w.rho, beta)]
            if upper.length == w.length + 1:
                covers.append((upper.id, w.id, beta))
    if elts[-1].length != len(rs.positive_roots):
        raise StratvalError("positive-root count does not match the longest element")
    return WeylGroup(rs, elts, {w.id: w for w in elts}, sorted(covers))


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
    images = {w.id: w.act(lam) for w in group.elements}
    covers = []
    for upper, lower, beta in group.covers:
        pairing = rs.coroot_pairing(images[lower], beta)
        if pairing <= 0:
            raise StratvalError(f"bond on ({upper},{lower}) is {pairing}")
        covers.append((upper, lower, pairing))
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
    return LatticeQ(chain, rows, den)


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


def weight(path: LSPath, group: WeylGroup, lam: Weight,
           images: dict[str, tuple] | None = None) -> Weight:
    """The endpoint sum of (c_i - c_{i-1}) * tau_i(lam) over the path's steps,
    summed in integers over the lcm of the cut denominators.  `images` keeps
    tau(lam) by the id of tau, filled on use, for callers that weigh many
    paths of one lam."""
    if images is None:
        images = {}
    for d in path.dirs:
        if d not in images:
            images[d] = group.by_id[d].act(lam)
    den = lcm(1, *(c.denominator for c in path.cuts))
    return _path_weights([path], den, images, len(lam))[0]


def _path_weights(paths: list[LSPath], den: int, images: dict[str, tuple],
                  rank: int) -> list[Weight]:
    """The weight of each path, its cuts read as integers over den, a common
    multiple of their denominators; a weight that is not integral is refused."""
    out = []
    for path in paths:
        total = [0] * rank
        prev = 0
        for d, c in zip(path.dirs, path.cuts):
            cut = c.numerator * (den // c.denominator)
            step = cut - prev
            prev = cut
            total = [t + step * x for t, x in zip(total, images[d])]
        if any(x % den for x in total):
            raise StratvalError(
                f"path weight {[Fraction(x, den) for x in total]} is not integral"
            )
        out.append(tuple(x // den for x in total))
    return out


def chain_gcds(poset: StratPoset) -> dict[str, dict[str, int]]:
    """g(sigma, tau) for every sigma < tau, as gcds[tau][sigma]: the gcd of
    the bonds along a maximal chain of the interval [sigma, tau].

    One bottom-up pass over the covers: g(sigma, tau) = gcd(b(tau, tau'),
    g(sigma, tau')) through every cover tau' of tau above sigma.  When two
    covers disagree the gcd depends on the chain, and the table is refused;
    on a Bruhat interval they always agree."""
    gcds: dict[str, dict[str, int]] = {}
    for tau in poset.bottom_up():
        row: dict[str, int] = {}
        for low, b in poset.covers_of[tau]:
            for sigma, g in ((low, b), *gcds[low].items()):
                g = gcd(b, g)
                if row.setdefault(sigma, g) != g:
                    raise ValidationFailure(
                        f"the bond gcd from {sigma} up to {tau} is "
                        f"{row[sigma]} or {g}, depending on the chain"
                    )
        gcds[tau] = row
    return gcds


def is_cut_lattice(poset: StratPoset, chain: Chain, lattice: LatticeQ) -> bool:
    """Whether the lattice equals lattice_LC_lambda(poset, chain), read off
    its Hermite rows without building the cut lattice: on the chain's
    coordinates, each row h / den has its partial sums down the chain
    integral once scaled by the bond below them (the last one integral),
    and the covolumes prod(pivots) / den^(r+1) and 1 / prod(bonds) agree."""
    if lattice.coords != tuple(chain) or len(lattice.rows) != len(chain):
        return False
    bonds_list = [poset.bond.get(e) for e in zip(chain, chain[1:])]
    if None in bonds_list:
        return False
    den = lattice.den
    for row in lattice.rows:
        partials = list(accumulate(row))
        if partials[-1] % den or any(b * s % den for b, s in zip(bonds_list, partials)):
            return False
    pivots = prod(next(x for x in row if x) for row in lattice.rows)
    return pivots * prod(bonds_list) == den ** len(chain)


def validate_ls(
    path: LSPath, group: WeylGroup, rs: RootSystem, lam: Weight,
    gcds: dict[str, dict[str, int]] | None = None,
) -> bool:
    """Directions strictly decrease in Bruhat order, and each cut c between
    tau and the next direction sigma has c * g(sigma, tau) integral."""
    if not path.dirs:
        return True
    if gcds is None:
        gcds = chain_gcds(bonds(rs, lam, group))
    den = lcm(1, *(c.denominator for c in path.cuts))
    cuts = tuple(c.numerator * (den // c.denominator) for c in path.cuts)
    lengths = {d: group.by_id[d].length for d in path.dirs}
    return _first_break([(path.dirs, cuts)], den, gcds, lengths) is None


IntPath = tuple[tuple[str, ...], tuple[int, ...]]   # (dirs, cuts over a den)


def _first_break(paths: list[IntPath], den: int,
                 gcds: dict[str, dict[str, int]],
                 lengths: dict[str, int]) -> IntPath | None:
    """The first path whose directions do not strictly decrease in length,
    or that cuts between tau and the next direction sigma at a c with
    c * g(sigma, tau) not divisible by den; None when every path passes."""
    for dirs, cuts in paths:
        for upper, lower, cut in zip(dirs, dirs[1:], cuts):
            if lengths[upper] <= lengths[lower]:
                return dirs, cuts
            g = gcds[upper].get(lower)
            if g is None or cut * g % den:
                return dirs, cuts
    return None


def enumerate_ls(
    rs: RootSystem, lam: Weight, m: int, group: WeylGroup | None = None,
    poset: StratPoset | None = None,
) -> list[LSPath]:
    """All LS-paths of the given shape and degree, sorted by nu(path).key().

    A depth-first walk over (element, cut) states with integer cuts over the
    lcm L of the bonds: from (tau, k) a path either ends with cut mL or steps
    down to some sigma < tau at a cut in (k, mL) that is a multiple of
    L / g(sigma, tau).  The paths stay (dirs, integer cuts) through the sort
    and the check of every path against the g table; all steps share the
    denominator L, so the sorted (direction, step) pairs order them as
    nu(path).key() does.  Fraction cuts are formed last, once per value."""
    _check_regular_dominant(lam, rs.rank)
    if m == 0:  # the one path of degree zero
        return [EMPTY_PATH]
    group = group or weyl_group(rs)
    poset = poset if poset is not None else bonds(rs, lam, group)
    gcds = chain_gcds(poset)
    den = lcm(1, *poset.bond.values())
    top = m * den
    steps = {
        tau: [(sigma, den // g) for sigma, g in row.items()]
        for tau, row in gcds.items()
    }
    records: list[tuple] = []   # (sorted (direction, step) pairs, dirs, cuts)
    dirs: list[str] = []
    cuts: list[int] = []
    pairs: list[tuple[str, int]] = []

    def walk(tau: str, k: int):
        dirs.append(tau)
        pairs.append((tau, top - k))
        records.append((tuple(sorted(pairs)), tuple(dirs), (*cuts, top)))
        pairs.pop()
        for sigma, step in steps[tau]:
            for cut in range(k + step - k % step, top, step):
                cuts.append(cut)
                pairs.append((tau, cut - k))
                walk(sigma, cut)
                pairs.pop()
                cuts.pop()
        dirs.pop()

    for tau in poset.ids:
        walk(tau, 0)
    records.sort()
    paths = [(d, c) for _, d, c in records]
    lengths = {w.id: w.length for w in group.elements}
    bad = _first_break(paths, den, gcds, lengths)
    if bad is not None:
        path = LSPath(bad[0], tuple(Fraction(c, den) for c in bad[1]))
        raise StratvalError(
            f"enumerated path {path} fails the chain predicate; "
            "walk and path model disagree"
        )
    fractions = {c: Fraction(c, den) for c in {c for _, cs in paths for c in cs}}
    return [LSPath(d, tuple([fractions[c] for c in cs])) for d, cs in paths]


def first_direction_counts(
    poset: StratPoset, gcds: dict[str, dict[str, int]], m: int
) -> dict[str, int]:
    """For each tau, the number of LS paths of degree m > 0 with first
    direction tau: the walk of `enumerate_ls` over (element, integer cut)
    states with the counts of its paths summed instead of the paths listed.

    N[tau][k], the number of ways a path at direction tau with cut k over
    the lcm L of the bonds can go on, is 1 (it ends at mL) plus, for each
    sigma < tau, the sum of N[sigma][c] over the multiples c of
    L / g(sigma, tau) in (k, mL).  Bottom-up, the sigmas of one step are
    added up first, and one suffix sum over the multiples of that step
    serves every k; the count of tau is N[tau][0]."""
    den = lcm(1, *poset.bond.values())
    top = m * den
    ways: dict[str, list[int]] = {}
    for tau in poset.bottom_up():
        by_step: dict[int, list[int]] = {}
        for sigma, g in gcds[tau].items():
            step = den // g
            at = ways[sigma][step::step]   # at the cuts step, 2 step, ... < top
            acc = by_step.get(step)
            by_step[step] = at if acc is None else [a + b for a, b in zip(acc, at)]
        row = [1] * top
        for step, at in by_step.items():
            # the cuts above k are the multiples from (k // step + 1) step on
            suffix = list(accumulate(reversed(at)))[::-1] + [0]
            row = [x + suffix[k // step] for k, x in enumerate(row)]
        ways[tau] = row
    return {tau: row[0] for tau, row in ways.items()}


def path_count(
    rs: RootSystem, lam: Weight, m: int, tau: str | None = None,
    group: WeylGroup | None = None, poset: StratPoset | None = None,
) -> int:
    """The number of LS paths of the given shape and degree, listing none;
    with tau, only the paths whose first direction is at most tau in Bruhat
    order."""
    _check_regular_dominant(lam, rs.rank)
    if m < 0:
        raise SchemaError("degree must be nonnegative")
    if poset is None:
        poset = bonds(rs, lam, group or weyl_group(rs))
    firsts = poset.ids if tau is None else poset.below(tau or "e")
    if m == 0:  # the one path of degree zero
        return 1
    counts = first_direction_counts(poset, chain_gcds(poset), m)
    return sum(counts[t] for t in firsts)


# ------------------------------------------------------- character oracle ----

def freudenthal_character(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the Weyl module by the Freudenthal recursion,
    run over the dominant weights only (Moody-Patera).

    The dominant weights below lambda are reached from lambda by subtracting
    positive roots and keeping the dominant results (Stembridge).  Each
    carries kappa = lambda - mu in the simple-root basis, and with the form
    (alpha_i, alpha_j) = d_i a_ij, (omega_j, alpha_i) = d_i delta_ij for the
    integer symmetrizer d, the denominator (lambda + rho, lambda + rho) -
    (mu + rho, mu + rho) = 2 (lambda + rho, kappa) - (kappa, kappa) needs no
    inverse Cartan matrix.  Multiplicities are W-invariant, so each mu + k
    beta in the recursion is read at its dominant representative, found by
    simple reflections, and the string stops at the first k that is not a
    weight.  Each dominant weight's orbit is then filled in by simple
    reflections."""
    if any(x < 0 for x in lam):
        raise SchemaError("highest weight must be dominant")
    n, sym = rs.rank, rs.sym
    gram = [[d * x for x in row] for d, row in zip(sym, rs.cartan)]
    top = [d * (l + 1) for d, l in zip(sym, lam)]    # (lambda + rho, alpha_j)
    roots = [
        (rs.roots_in_omega[beta], beta, [b * d for b, d in zip(beta, sym)])
        for beta in rs.positive_roots
    ]
    simple_omega = [rs.roots_in_omega[alpha] for alpha in rs.simple_roots]
    kappas: dict[Weight, tuple[int, ...]] = {lam: (0,) * n}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            kappa = kappas[mu]
            for beta_o, beta, _ in roots:
                low = tuple(m - b for m, b in zip(mu, beta_o))
                if low not in kappas and min(low) >= 0:
                    kappas[low] = tuple(k + b for k, b in zip(kappa, beta))
                    nxt.append(low)
        frontier = nxt

    def dominant(nu: Weight) -> Weight:
        while True:
            for i, x in enumerate(nu):
                if x < 0:   # s_i nu = nu - nu_i alpha_i lies higher
                    nu = tuple(v - x * a for v, a in zip(nu, simple_omega[i]))
                    break
            else:
                return nu

    # a dominant weight above mu has a shorter kappa, so it is known first
    order = sorted(kappas, key=lambda mu: (sum(kappas[mu]), mu))
    mults: dict[Weight, int] = {lam: 1}
    for mu in order[1:]:
        total = 0
        for beta_o, _, beta_sym in roots:
            up = tuple(m + b for m, b in zip(mu, beta_o))
            while (cnt := mults.get(dominant(up), 0)):
                total += 2 * cnt * sum(u * b for u, b in zip(up, beta_sym))
                up = tuple(u + b for u, b in zip(up, beta_o))
        kappa = kappas[mu]
        denom = sum(
            k * (2 * t - sum(g * c for g, c in zip(row, kappa)))
            for k, t, row in zip(kappa, top, gram)
        )
        mult, rem = divmod(total, denom)
        if rem:
            raise StratvalError("Freudenthal recursion produced a non-integer")
        mults[mu] = mult
    for mu in order:
        orbit = [mu]
        for nu in orbit:
            for i, x in enumerate(nu):
                if x:
                    image = tuple(v - x * a for v, a in zip(nu, simple_omega[i]))
                    if image not in mults:
                        mults[image] = mults[mu]
                        orbit.append(image)
    return mults


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """prod <lambda + rho, beta^vee> / prod <rho, beta^vee> over beta > 0."""
    rho = tuple(1 for _ in range(rs.rank))
    lam_rho = tuple(l + r for l, r in zip(lam, rho))
    num = den = 1
    for beta in rs.positive_roots:
        num *= rs.coroot_pairing(lam_rho, beta)
        den *= rs.coroot_pairing(rho, beta)
    dim, rem = divmod(num, den)
    if rem:
        raise StratvalError("Weyl dimension formula produced a non-integer")
    return dim


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
                    group: WeylGroup | None = None,
                    poset: StratPoset | None = None) -> CharacterReport:
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
    poset = poset if poset is not None else bonds(rs, lam, group)
    paths = enumerate_ls(rs, lam, m, group=group, poset=poset)
    # every cut is a multiple of 1 / L with L the lcm of the bonds
    den = lcm(1, *poset.bond.values())
    images = {w.id: w.act(lam) for w in group.elements}
    got: dict[Weight, int] = {}
    for w in _path_weights(paths, den, images, rs.rank):
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
