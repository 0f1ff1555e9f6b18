"""Per-chain Laurent coordinate charts.

A chart models a dense open torus in the top stratum's affine cone, chosen so
that each stratum of the chain is reached by setting one divisor variable to
zero, in top-down order.  The vanishing order of a function along the k-th
divisor is then the minimal exponent of the k-th divisor variable after the
outer restrictions, which is what makes every valuation computation exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from stratval.errors import (
    ChartError, SchemaError, json_int, json_object, json_str, read_json,
)
from stratval.laurent import LaurentPoly, Terms, parse_laurent
from stratval.poset import Chain, StratPoset


@dataclass
class ChainChart:
    chain: Chain
    divisor_vars: list[str]          # t_r, ..., t_1 top-down
    extra_vars: list[str]            # cone coordinate first
    f_exprs: dict[str, LaurentPoly]  # extremal functions on this chart
    ambient_map: dict[str, LaurentPoly]
    # absolute order bound per variable for truncated-series charts; computed
    # vanishing orders beyond it are refused rather than trusted
    order_limits: dict[str, int] | None = None
    # (order, lowest part) of each restricted f_k along its divisor variable
    # t_k, k < r, set by check_bonds: per-level constants of the recursion
    _levels: list[tuple[int, LaurentPoly]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # powers of the ambient_map entries, (var, exponent) -> terms, filled by
    # `image` and truncated as it truncates; nothing changes ambient_map
    # after load, so the table never goes stale
    _powers: dict[tuple[str, int], Terms] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def cone_var(self) -> str:
        return self.extra_vars[0]

    def check_order(self, var: str, nu: int) -> None:
        if self.order_limits and abs(nu) > self.order_limits.get(var, abs(nu)):
            raise self.order_refusal(var, str(nu))

    def order_refusal(self, var: str, order: str) -> ChartError:
        """The order guard's refusal of an order along var past its limit."""
        return ChartError(
            f"order {order} along {var} exceeds the chart's faithful range "
            f"{self.order_limits[var]}; truncated data cannot decide it"
        )

    def image(self, g: LaurentPoly) -> LaurentPoly:
        """Map a polynomial in ambient coordinates onto the chart, through the
        chart's table of powers.

        When the order limits name the first divisor variable u, with limit
        L, the image keeps no term of u-order above L.  That is exact for the
        recursion: if the order nu along u is at most L, dropping those terms
        changes neither nu nor the lowest part along u, and every later level
        reads only that lowest part.  A limit on a later divisor variable is
        not applied, since a dropped term there could set an outer variable's
        order; `check_order` guards such limits.  A nonzero g whose truncated
        image is zero has order above L, which the order guard refuses."""
        var = self.divisor_vars[0] if self.divisor_vars else None
        limit = (self.order_limits or {}).get(var)
        if limit is None:
            return g.substitute(self.ambient_map, powers=self._powers)
        image = g.substitute(self.ambient_map, {var: limit}, self._powers)
        if image.is_zero() and not g.is_zero():
            raise self.order_refusal(var, f"above {limit}")
        return image

    def restrict(self, g: LaurentPoly, k: int) -> LaurentPoly:
        """g restricted through the first k divisor variables to the stratum
        of chain[k], refusing a nonzero order along any of them."""
        for var in self.divisor_vars[:k]:
            order, g = g.order_and_lowest_part(var)
            if order != 0:
                raise ChartError(
                    f"order {order} along {var} above the stratum of "
                    f"{self.chain[k]!r}; expected 0"
                )
        return g

    def restricted_chain_functions(self) -> list[LaurentPoly]:
        """f_{p_k} restricted through the outer divisor variables, for each k:
        it must not vanish identically on any intermediate stratum."""
        out = []
        for k, p in enumerate(self.chain):
            if p not in self.f_exprs:
                raise ChartError(f"chart for {self.chain} lacks f_expr of {p!r}")
            out.append(self.restrict(self.f_exprs[p], k))
        return out

    def check_bonds(self, ps: StratPoset) -> None:
        """The defining property of the chart: divisor orders match the bonds.
        Keeps each level's (order, lowest part) of the restricted f_k."""
        r = len(self.chain) - 1
        if len(self.divisor_vars) != r:
            raise ChartError(
                f"chart for {self.chain}: {len(self.divisor_vars)} divisor vars "
                f"for a chain of length {r}"
            )
        if not self.extra_vars:
            raise ChartError("chart needs a cone coordinate in extra_vars")
        bonds = ps.chain_bonds(self.chain)
        fs = self.restricted_chain_functions()
        levels = [f.order_and_lowest_part(v) for f, v in zip(fs, self.divisor_vars)]
        for k, (got, _) in enumerate(levels):
            if got != bonds[k]:
                raise ChartError(
                    f"chart for {self.chain}: f[{self.chain[k]}] has order {got} "
                    f"along {self.divisor_vars[k]}, bond says {bonds[k]}"
                )
        bottom = fs[r]
        leftover = bottom.variables() - {self.cone_var}
        if leftover:
            raise ChartError(
                f"f[{self.chain[r]}] restricts to extra variables {sorted(leftover)}"
            )
        got = bottom.min_exponent(self.cone_var)
        if got != bonds[r]:
            raise ChartError(
                f"f[{self.chain[r]}] has cone order {got}, degree says {bonds[r]}"
            )
        self._levels = levels

    def levels(self, ps: StratPoset) -> list[tuple[int, LaurentPoly]]:
        """(order, lowest part) of each restricted f_k along t_k, as kept by
        check_bonds; a chart not yet checked is checked against ps first."""
        if self._levels is None:
            self.check_bonds(ps)
        return self._levels

    @staticmethod
    def from_json(doc: dict) -> "ChainChart":
        try:
            limits = json_object(doc).get("order_limits")
            return ChainChart(
                chain=tuple(map(json_str, doc["chain"])),
                divisor_vars=list(map(json_str, doc["divisor_vars"])),
                extra_vars=list(map(json_str, doc["extra_vars"])),
                f_exprs={
                    k: parse_laurent(v) for k, v in json_object(doc["f_exprs"]).items()
                },
                ambient_map={
                    k: parse_laurent(v)
                    for k, v in json_object(doc["ambient_map"]).items()
                },
                order_limits=(
                    {k: json_int(v) for k, v in json_object(limits).items()}
                    if limits else None
                ),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad chart document: {e}") from None

    def to_json(self) -> dict:
        doc = {
            "schema": "stratval-chart/1",
            "chain": list(self.chain),
            "divisor_vars": self.divisor_vars,
            "extra_vars": self.extra_vars,
            "f_exprs": {k: str(v) for k, v in sorted(self.f_exprs.items())},
            "ambient_map": {k: str(v) for k, v in sorted(self.ambient_map.items())},
        }
        if self.order_limits:
            doc["order_limits"] = dict(sorted(self.order_limits.items()))
        return doc


Atlas = dict[Chain, ChainChart]


def load_atlas(path: str, ps: StratPoset) -> Atlas:
    """Load every chart json under a directory and verify the bond invariant."""
    atlas: Atlas = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        chart = ChainChart.from_json(read_json(os.path.join(path, name)))
        chart.check_bonds(ps)
        atlas[chart.chain] = chart
    return atlas


def missing_charts(atlas: Atlas, ps: StratPoset) -> list[Chain]:
    """The maximal chains of ps with no chart in the atlas, in
    `ps.maximal_chains()` order."""
    return [c for c in ps.maximal_chains() if c not in atlas]
