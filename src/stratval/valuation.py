"""Chain valuations and the global quasi-valuation.

Along a fixed maximal chain p_r > ... > p_0 a nonzero function g produces a
sequence of rational functions: the next entry is the bond-th power of the
current one, divided by the matching power of the stratum's extremal
function, restricted to the next divisor.  Reading the divisor orders off
that sequence and rescaling by running bond products gives the chain value
in Q^chain; the quasi-valuation is the lexicographic minimum of the chain
values over all maximal chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from stratval.avector import AVector, TotalOrder, lex_min
from stratval.charts import Atlas, ChainChart
from stratval.errors import ChartError, SchemaError
from stratval.laurent import LaurentFraction, LaurentPoly
from stratval.poset import Chain, StratPoset


@dataclass
class ValResult:
    value: AVector                     # embedded in Q^A
    chain: Chain
    sequence: list[LaurentFraction]    # g_r, ..., g_0
    D: list[Fraction]                  # per-level entries, top-down
    nus: list[int]                     # raw divisor orders
    lc: Fraction                       # iterated leading coefficient

    def tuple_top_down(self) -> list[Fraction]:
        return list(self.D)


def sequence_of_functions(
    g: LaurentPoly, chart: ChainChart, ps: StratPoset
) -> ValResult:
    """Run the valuation recursion for g along the chart's chain."""
    cur = LaurentFraction(g)
    if cur.is_zero():
        raise ChartError("cannot valuate the zero function")
    chain = chart.chain
    bonds = ps.chain_bonds(chain)
    fs = chart.restricted_chain_functions(ps)
    sequence = [cur]
    nus: list[int] = []
    D: list[Fraction] = []
    denom = 1
    for k, var in enumerate(chart.divisor_vars):
        b = bonds[k]
        denom *= b
        nu = cur.min_exponent(var)
        chart.check_order(var, nu)
        nus.append(nu)
        D.append(Fraction(nu, denom))
        nxt = cur**b
        if nu > 0:
            nxt = nxt.div_poly(fs[k] ** nu)
        elif nu < 0:
            nxt = nxt.mul_poly(fs[k] ** (-nu))
        cur = nxt.restrict(var)
        sequence.append(cur)
    leftover = (cur.num.variables() | cur.den.variables()) - {chart.cone_var}
    if leftover:
        raise ChartError(
            f"restriction left extra variables {sorted(leftover)}; "
            "the chart cannot evaluate this function"
        )
    nu0 = cur.min_exponent(chart.cone_var)
    denom *= bonds[-1]
    nus.append(nu0)
    D.append(Fraction(nu0, denom))
    lead = LaurentFraction(
        cur.num, cur.den * LaurentPoly.var(chart.cone_var, nu0)
    ).restrict(chart.cone_var)
    value = AVector({p: D[i] for i, p in enumerate(chain)})
    return ValResult(value, chain, sequence, D, nus, lead.as_constant())


def ambient_image(g: LaurentPoly, chart: ChainChart) -> LaurentPoly:
    """Map a polynomial in ambient coordinates onto the chart."""
    return g.substitute(chart.ambient_map)


def chain_valuation(g: LaurentPoly, chart: ChainChart, ps: StratPoset) -> ValResult:
    """Valuate a polynomial in ambient coordinates along one chart."""
    image = ambient_image(g, chart)
    if image.is_zero():
        raise ChartError("function is zero on the chart (lies in the ideal?)")
    return sequence_of_functions(image, chart, ps)


def valuate_all(
    g: LaurentPoly, atlas: Atlas, ps: StratPoset
) -> dict[Chain, ValResult]:
    """One valuation pass: the chain valuation of g on every maximal chain,
    keyed in the order of `ps.maximal_chains()`."""
    chains = ps.maximal_chains()
    for chain in chains:
        if chain not in atlas:
            raise SchemaError(f"no chart for maximal chain {'>'.join(chain)}")
    return {c: chain_valuation(g, atlas[c], ps) for c in chains}


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
    of p) / bond, computed on any chart containing the edge."""
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
        cur = LaurentFraction(ambient_image(g, edge_chart))
        if cur.is_zero():
            raise ChartError("function is zero on the chart")
        for var in edge_chart.divisor_vars[:pos]:
            if cur.min_exponent(var) > 0:
                raise ChartError(f"function vanishes identically on the stratum of {p!r}")
            cur = cur.restrict(var)
        nu = cur.min_exponent(edge_chart.divisor_vars[pos])
        ratios.append(Fraction(nu, b))
    return min(ratios)
