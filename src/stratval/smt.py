"""Standard monomials, straightening and the subduction loop.

A standard monomial is an ordered product of indecomposable leaves whose
supports descend along the poset.  Subduction rewrites any homogeneous ring
element in that basis by repeatedly matching its quasi-valuation leaf: the
ordered decomposition names the monomial, an iterated-leading-coefficient
ratio on an attaining chain names the scalar, and the remainder strictly
increases in the quasi-valuation, so the loop stops within the dimension of
the degree slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from stratval.avector import AVector, Ordering, TotalOrder, degree_of, lex_compare
from stratval.charts import Atlas
from stratval.errors import SchemaError, StratvalError
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.monoids import (
    MonoidFan,
    _monoid_elements_up_to,
    decompose,
    gamma_degree_slice,
    indecomposables,
)
from stratval.poset import StratPoset
from stratval.ringmodel import GradedQuotient
from stratval.valuation import (
    chain_valuation,
    minimum,
    quasi_valuation,
    valuate_all,
)


@dataclass
class StdMonomial:
    factors: list[AVector]

    def value(self) -> AVector:
        total = AVector.zero()
        for f in self.factors:
            total = total + f
        return total

    def degree(self, fdeg: dict[str, int]) -> Fraction:
        return degree_of(self.value(), fdeg)

    def key(self) -> tuple:
        return tuple(f.key() for f in self.factors)


@dataclass
class Straightening:
    left: tuple[AVector, AVector]
    right: list[tuple[Fraction, StdMonomial]]
    leading_ok: bool          # every right value >=^t the left sum
    annihilated: bool         # supports not on a common chain and product is 0

    def to_json(self) -> dict:
        return {
            "left": [self.left[0].to_json(), self.left[1].to_json()],
            "right": [
                {
                    "coefficient": str(c),
                    "factors": [f.to_json() for f in mono.factors],
                }
                for c, mono in self.right
            ],
            "leading_ok": self.leading_ok,
            "annihilated": self.annihilated,
        }


def _supp_extremes(v: AVector, ps: StratPoset) -> tuple[str, str]:
    """(max, min) of the support in the poset order; support must be a chain."""
    supp = sorted(v.support())
    if not supp:
        raise SchemaError("zero vector has no support extremes")
    if not ps.is_chain(supp):
        raise SchemaError(f"support of {v} is not a chain")
    top = max(supp, key=ps.length)
    bot = min(supp, key=ps.length)
    return top, bot


def is_standard(seq: list[AVector], ps: StratPoset) -> bool:
    """Chained support condition: min supp of each factor dominates the max
    supp of the next."""
    extremes = []
    for a in seq:
        if a.is_zero():
            raise SchemaError("standard monomial factors must be nonzero")
        extremes.append(_supp_extremes(a, ps))   # rejects non-chain supports
    for (_, bot_a), (top_b, _) in zip(extremes, extremes[1:]):
        if not ps.leq(top_b, bot_a):
            return False
    return True


def standard_on_stratum(mono: StdMonomial, p: str, ps: StratPoset) -> bool:
    if not mono.factors:
        return True
    top, _ = _supp_extremes(mono.factors[0], ps)
    return ps.leq(top, p)


def standard_monomials(ps: StratPoset, fan: MonoidFan, m: int) -> list[StdMonomial]:
    """All standard monomials of total degree m in the fan's indecomposables."""
    if m < 0:
        raise SchemaError("degree must be nonnegative")
    pool: dict[tuple, AVector] = {}
    for chain in fan.chains():
        for g in indecomposables(fan, chain, m):
            pool[g.key()] = g
    indec = sorted(pool.values(), key=AVector.key)
    fdeg = ps.fdeg
    out: list[StdMonomial] = []

    def extend(seq: list[AVector], remaining: Fraction):
        if remaining == 0:
            out.append(StdMonomial(list(seq)))
            return
        for g in indec:
            d = degree_of(g, fdeg)
            if d > remaining:
                continue
            if seq:
                _, bot_prev = _supp_extremes(seq[-1], ps)
                top_g, _ = _supp_extremes(g, ps)
                if not ps.leq(top_g, bot_prev):
                    continue
            seq.append(g)
            extend(seq, remaining - d)
            seq.pop()

    extend([], Fraction(m))
    return out


class Representatives:
    """Named ring elements realizing the indecomposable leaves.

    Verified against the quasi-valuation at load: trusting the data author is
    replaced by recomputing each value.
    """

    def __init__(self, table: dict[tuple, tuple[AVector, LaurentPoly]]):
        self.table = table

    @staticmethod
    def from_json(
        entries: list[dict],
        atlas: Atlas,
        ps: StratPoset,
        order: TotalOrder,
    ) -> "Representatives":
        table = {}
        for entry in entries:
            try:
                value = AVector.from_json(entry["value"])
                expr = parse_laurent(entry["expr"])
            except (KeyError, TypeError, ValueError) as e:
                raise SchemaError(f"bad representative entry: {e}") from None
            got = quasi_valuation(expr, atlas, ps, order)
            if got != value:
                raise SchemaError(
                    f"representative {entry['expr']} has value {got}, "
                    f"declared {value}"
                )
            table[value.key()] = (value, expr)
        return Representatives(table)

    def expr(self, a: AVector) -> LaurentPoly:
        try:
            return self.table[a.key()][1]
        except KeyError:
            raise SchemaError(f"no representative for leaf {a}") from None

    def product(self, factors: list[AVector]) -> LaurentPoly:
        total = LaurentPoly.const(1)
        for f in factors:
            total = total * self.expr(f)
        return total


@dataclass
class SubductionResult:
    terms: list[tuple[Fraction, StdMonomial]] = field(default_factory=list)

    def to_json(self) -> list[dict]:
        return [
            {
                "coefficient": str(c),
                "factors": [f.to_json() for f in mono.factors],
            }
            for c, mono in self.terms
        ]


def subduction(
    f: LaurentPoly,
    ring: GradedQuotient,
    atlas: Atlas,
    fan: MonoidFan,
    ps: StratPoset,
    order: TotalOrder,
    reps: Representatives,
) -> SubductionResult:
    """Rewrite a nonzero homogeneous element as a combination of standard
    monomials in the representatives."""
    parts = f.weighted_degree_parts(ring.degree)
    if len(parts) != 1:
        raise SchemaError("subduction requires a nonzero homogeneous input")
    (deg, _), = parts.items()
    if ring.is_zero_in_quotient(f):
        raise SchemaError("subduction input is zero in the ring")
    max_iter = ring.hilbert(deg) + 1
    result = SubductionResult()
    prev_value: AVector | None = None
    current = f
    for _ in range(max_iter):
        if ring.is_zero_in_quotient(current):
            return result
        per_chain = valuate_all(current, atlas, ps)
        a, attaining = minimum(per_chain, order)
        if prev_value is not None and (
            lex_compare(a, prev_value, order) is not Ordering.GREATER
        ):
            raise StratvalError(
                "subduction leading term failed to increase; inconsistent data"
            )
        prev_value = a
        chain = attaining[0]
        factors = decompose(a, fan, chain)
        mono = StdMonomial(factors)
        rep_poly = reps.product(factors)
        res_f = per_chain[chain]
        res_m = chain_valuation(rep_poly, atlas[chain], ps)
        if res_m.value != a:
            raise StratvalError(
                f"representative product has leaf {res_m.value}, expected {a}"
            )
        lam = res_f.own_lc / res_m.own_lc
        result.terms.append((lam, mono))
        current = current - rep_poly.scale(lam)
    raise StratvalError(
        f"subduction did not terminate within {max_iter} iterations"
    )


def straighten(
    a: AVector,
    b: AVector,
    ring: GradedQuotient,
    atlas: Atlas,
    fan: MonoidFan,
    ps: StratPoset,
    order: TotalOrder,
    reps: Representatives,
) -> Straightening:
    """Subduce the product of two leaf representatives and certify the order
    constraint on the right-hand leaves."""
    prod = reps.expr(a) * reps.expr(b)
    if ring.is_zero_in_quotient(prod):
        return Straightening((a, b), [], True, True)
    result = subduction(prod, ring, atlas, fan, ps, order, reps)
    left_sum = a + b
    ok = all(
        lex_compare(left_sum, mono.value(), order)
        in (Ordering.LESS, Ordering.EQUAL)
        for _, mono in result.terms
    )
    return Straightening((a, b), result.terms, ok, False)


@dataclass
class KhovanskiiReport:
    passed: bool
    checked_degrees: list[int]
    missing: list[AVector]


def khovanskii_check(
    basis_elements: list[LaurentPoly],
    atlas: Atlas,
    fan: MonoidFan,
    ps: StratPoset,
    order: TotalOrder,
    max_degree: int,
) -> KhovanskiiReport:
    """Do the values of the given ring elements generate every degree slice of
    the fan up to the bound?"""
    values = [quasi_valuation(g, atlas, ps, order) for g in basis_elements]
    values = [v for v in values if not v.is_zero()]   # constants generate nothing
    generated = {
        chain: _monoid_elements_up_to(
            [v for v in values if v.support() <= set(chain)],
            ps.fdeg,
            Fraction(max_degree),
        )
        for chain in ps.maximal_chains()
    }
    missing: list[AVector] = []
    degrees = list(range(1, max_degree + 1))
    for m in degrees:
        for target in gamma_degree_slice(fan, m):
            chains = ps.chains_through(target.support())
            if not any(target in generated[c] for c in chains):
                missing.append(target)
    return KhovanskiiReport(not missing, degrees, missing)
