"""Chain valuations and the global quasi-valuation.

Along a fixed maximal chain p_r > ... > p_0 a nonzero function g produces a
sequence of rational functions: the next entry is the bond-th power of the
current one, divided by the matching power of the stratum's extremal
function, restricted to the next divisor.  Reading the divisor orders off
that sequence and rescaling by running bond products gives the chain value
in Q^chain; the quasi-valuation is the lexicographic minimum of the chain
values over all maximal chains.

No power is ever expanded.  The Laurent ring is a domain, so divisor orders
add up over a product and the lowest-order part along a divisor is
multiplicative.  Each entry of the sequence is therefore carried in factored
form, as a list of restricted factors h_i with integer exponents e_i standing
for the product of the h_i**e_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from stratval.avector import AVector, TotalOrder, lex_min
from stratval.charts import Atlas, ChainChart, missing_charts
from stratval.errors import ChartError, SchemaError
from stratval.laurent import LaurentPoly
from stratval.poset import Chain, StratPoset

Factors = list[tuple[LaurentPoly, int]]


@dataclass
class ValResult:
    value: AVector                     # embedded in Q^A
    chain: Chain
    # g_r, ..., g_0, each as factors; g_r is the chart image, truncated at
    # the first divisor variable's order limit (see ChainChart.image)
    sequence: list[Factors]
    D: list[Fraction]                  # per-level entries, top-down
    nus: list[int]                     # raw divisor orders
    lc: Fraction                       # iterated leading coefficient
    # the lowest coefficient of g's own factor, the one with exponent the
    # bond product B, so that lc holds its B-th power
    own_lc: Fraction


def _product_variables(factors: Factors) -> set[str]:
    """The variables of the product of h**e over factors with e > 0, read
    without expanding it: in a domain the least and the greatest exponent of
    each variable add up over a product."""
    out = set()
    for v in set().union(*(h.variables() for h, _ in factors)):
        lo = hi = 0
        for h, e in factors:
            h_lo, h_hi = h.exponent_range(v)
            lo += e * h_lo
            hi += e * h_hi
        if lo or hi:
            out.add(v)
    return out


def _cone_order_and_constant(
    factors: Factors, var: str
) -> tuple[int, Fraction, Fraction]:
    """The order of the product along var, the product of the lowest parts
    raised to their exponents, which must be a constant (each part a single
    term, and the monomials of those terms cancelling), and the coefficient
    of the first factor's lowest part."""
    nu = 0
    lc = Fraction(1)
    mono: dict[str, int] = {}
    coefficients = []
    for h, e in factors:
        order, low = h.order_and_lowest_part(var)
        nu += e * order
        if len(low.terms) != 1:
            raise ChartError("fraction is not constant")
        ((m, c),) = low.terms.items()
        coefficients.append(c)
        lc *= c**e
        for v, x in m:
            mono[v] = mono.get(v, 0) + e * x
    if any(mono.values()):
        raise ChartError("fraction is not constant")
    return nu, lc, coefficients[0]


def sequence_of_functions(
    g: LaurentPoly, chart: ChainChart, ps: StratPoset
) -> ValResult:
    """Run the valuation recursion for g along the chart's chain."""
    if g.is_zero():
        raise ChartError("cannot valuate the zero function")
    chain = chart.chain
    bonds = ps.chain_bonds(chain)
    levels = chart.levels(ps)
    factors: Factors = [(g, 1)]
    sequence = [factors]
    nus: list[int] = []
    D: list[Fraction] = []
    denom = 1
    for k, var in enumerate(chart.divisor_vars):
        b = bonds[k]
        denom *= b
        parts = [(h.order_and_lowest_part(var), e) for h, e in factors]
        nu = sum(e * order for (order, _), e in parts)
        chart.check_order(var, nu)
        nus.append(nu)
        D.append(Fraction(nu, denom))
        factors = [(low, e * b) for (_, low), e in parts]
        if nu:
            f_order, f_low = levels[k]
            # g_k**b / f_k**nu has order nu*(b - ord(f_k)) along var
            if b != f_order:
                raise ChartError(
                    f"restriction to {{{var}=0}} of a function with nonzero order"
                )
            factors.append((f_low, -nu))
        sequence.append(factors)
    leftover = (
        _product_variables([(h, e) for h, e in factors if e > 0])
        | _product_variables([(h, -e) for h, e in factors if e < 0])
    ) - {chart.cone_var}
    if leftover:
        raise ChartError(
            f"restriction left extra variables {sorted(leftover)}; "
            "the chart cannot evaluate this function"
        )
    nu0, lc, own_lc = _cone_order_and_constant(factors, chart.cone_var)
    denom *= bonds[-1]
    nus.append(nu0)
    D.append(Fraction(nu0, denom))
    value = AVector({p: D[i] for i, p in enumerate(chain)})
    return ValResult(value, chain, sequence, D, nus, lc, own_lc)


def chain_valuation(g: LaurentPoly, chart: ChainChart, ps: StratPoset) -> ValResult:
    """Valuate a polynomial in ambient coordinates along one chart."""
    image = chart.image(g)
    if image.is_zero():
        raise ChartError("function is zero on the chart (lies in the ideal?)")
    return sequence_of_functions(image, chart, ps)


def valuate_all(
    g: LaurentPoly, atlas: Atlas, ps: StratPoset
) -> dict[Chain, ValResult]:
    """One valuation pass: the chain valuation of g on every maximal chain,
    keyed in the order of `ps.maximal_chains()`."""
    missing = missing_charts(atlas, ps)
    if missing:
        raise SchemaError(f"no chart for maximal chain {'>'.join(missing[0])}")
    return {c: chain_valuation(g, atlas[c], ps) for c in ps.maximal_chains()}


def minimum(
    per_chain: dict[Chain, ValResult], ord: TotalOrder
) -> tuple[AVector, list[Chain]]:
    """The quasi-valuation read off one `valuate_all` pass, with the chains
    attaining it in sorted order."""
    value = lex_min((res.value for res in per_chain.values()), ord)
    return value, [c for c, res in sorted(per_chain.items()) if res.value == value]


def quasi_valuation(
    g: LaurentPoly, atlas: Atlas, ps: StratPoset, ord: TotalOrder
) -> AVector:
    """Lexicographic minimum of the chain values over all maximal chains."""
    return minimum(valuate_all(g, atlas, ps), ord)[0]


def chains_attaining(
    g: LaurentPoly, atlas: Atlas, ps: StratPoset, ord: TotalOrder
) -> list[Chain]:
    """The maximal chains whose chain value equals the quasi-valuation."""
    return minimum(valuate_all(g, atlas, ps), ord)[1]


def rees_min(g: LaurentPoly, p: str, atlas: Atlas, ps: StratPoset) -> Fraction:
    """min over covers q of (order of g along the divisor of q in the stratum
    of p) / bond, computed on the first chart, in sorted chain order, that
    contains the edge p > q."""
    covers = ps.covers_of.get(p)
    if covers is None:
        raise SchemaError(f"unknown id {p!r}")
    if not covers:
        raise ChartError(f"{p!r} is minimal: no covers, no Rees minimum")
    edges = {}
    for chain, chart in sorted(atlas.items()):
        for i, edge in enumerate(zip(chain, chain[1:])):
            edges.setdefault(edge, (chart, i))
    ratios = []
    for q, b in sorted(covers):
        if (p, q) not in edges:
            raise SchemaError(f"no chart in the atlas contains the edge {p} > {q}")
        chart, pos = edges[(p, q)]
        cur = chart.image(g)
        if cur.is_zero():
            raise ChartError("function is zero on the chart")
        nu = chart.restrict(cur, pos).min_exponent(chart.divisor_vars[pos])
        ratios.append(Fraction(nu, b))
    return min(ratios)
