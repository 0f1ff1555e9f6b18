"""Sparse Laurent polynomials over Q.

Monomials are canonical tuples of (variable, exponent) pairs; exponents may
be negative.  These model regular and rational functions on torus charts:
the vanishing order of a function along the divisor {var = 0} is the minimal
exponent of var, and restriction to that divisor keeps the lowest-order part.
"""

from __future__ import annotations

import re
from fractions import Fraction

from stratval.errors import ChartError, SchemaError

Monomial = tuple[tuple[str, int], ...]
Terms = dict[Monomial, Fraction]


def _mono_mul(
    a: Monomial, b: Monomial, limits: dict[str, int] | None = None
) -> Monomial | None:
    """The product a*b; None when its exponent of a variable named in
    `limits` is above that variable's limit."""
    d = dict(a)
    for v, e in b:
        e2 = d.get(v, 0) + e
        if e2:
            d[v] = e2
        else:
            d.pop(v, None)
    if limits:
        for v, top in limits.items():
            if d.get(v, 0) > top:
                return None
    return tuple(sorted(d.items()))


def _exponent(m: Monomial, var: str) -> int:
    """The exponent of var in the monomial m, 0 when m lacks it."""
    for v, e in m:
        if v == var:
            return e
    return 0


def _add_term(out: Terms, m: Monomial, c: Fraction) -> None:
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def _mul_terms(a: Terms, b: Terms, limits: dict[str, int]) -> Terms:
    """The product of two term dicts, without the terms above the limits."""
    out: Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2, limits)
            if m is not None:
                _add_term(out, m, c1 * c2)
    return out


class LaurentPoly:
    """Immutable sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[m] = c
        self.terms = clean

    @staticmethod
    def _of(terms: Terms) -> "LaurentPoly":
        """Wrap terms whose coefficients are already nonzero Fractions."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({(): Fraction(c)})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return LaurentPoly.const(1)
        return LaurentPoly({((name, exp),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[str]:
        return {v for m in self.terms for v, _ in m}

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return LaurentPoly._of(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly._of(_mul_terms(self.terms, other.terms, {}))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly._of({m: c * co for m, co in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def min_exponent(self, var: str) -> int:
        """Least exponent of var over all terms; the vanishing order along {var=0}."""
        return self.order_and_lowest_part(var)[0]

    def exponent_range(self, var: str) -> tuple[int, int]:
        """The least and the greatest exponent of var over the terms."""
        exps = [_exponent(m, var) for m in self.terms]
        return min(exps), max(exps)

    def order_and_lowest_part(self, var: str) -> tuple[int, "LaurentPoly"]:
        """The vanishing order along {var=0}, which is the least exponent of
        var, and the restriction to that divisor: the terms where var attains
        it, with var erased.  One pass over the terms."""
        if not self.terms:
            raise ChartError("min_exponent of the zero polynomial")
        order = None
        low: Terms = {}
        for m, c in self.terms.items():
            e = _exponent(m, var)
            if order is None or e < order:
                order, low = e, {}
            if e == order:
                low[tuple(p for p in m if p[0] != var) if e else m] = c
        return order, LaurentPoly._of(low)

    def weighted_degree_parts(self, weights: dict[str, int]) -> dict[int, "LaurentPoly"]:
        parts: dict[int, Terms] = {}
        for m, c in self.terms.items():
            d = sum(e * weights[v] for v, e in m)
            parts.setdefault(d, {})[m] = c
        return {d: LaurentPoly._of(t) for d, t in parts.items()}

    def substitute(
        self,
        table: dict[str, "LaurentPoly"],
        limits: dict[str, int] | None = None,
        powers: dict[tuple[str, int], Terms] | None = None,
    ) -> "LaurentPoly":
        """Map each variable through table (missing names are an error).
        Exponents must be nonnegative for substituted variables.

        With `limits`, every product drops the terms whose exponent of a
        limited variable is above that variable's limit.  That is exact for
        the terms kept, since no table entry may hold a limited variable at a
        negative exponent: a dropped term can only feed terms further above.

        Each power table[v]**e is built once, by squaring, and kept in
        `powers` under (v, e), truncated at the limits; a caller that passes
        the same dict to many calls must pass the same table and limits."""
        limits = limits or {}
        if powers is None:
            powers = {}

        def power(v: str, e: int) -> Terms:
            p = powers.get((v, e))
            if p is not None:
                return p
            if e == 0:
                p = {(): Fraction(1)}
            elif e == 1:
                p = {}
                for m, c in table[v].terms.items():
                    for w, x in m:
                        if x < 0 and w in limits:
                            raise ChartError(
                                f"the image of {v!r} has a negative exponent of "
                                f"{w!r}, so a limit on {w!r} would not be exact"
                            )
                    if all(x <= limits.get(w, x) for w, x in m):
                        p[m] = c
            elif e % 2:
                p = _mul_terms(power(v, e - 1), power(v, 1), limits)
            else:
                half = power(v, e // 2)
                p = _mul_terms(half, half, limits)
            powers[v, e] = p
            return p

        total: Terms = {}
        for m, c in self.terms.items():
            for v, e in m:
                if v not in table:
                    raise SchemaError(f"unknown variable {v!r} in substitution")
                if e < 0:
                    raise SchemaError(
                        f"negative exponent on {v!r} cannot be substituted"
                    )
            term = {(): c}
            for v, e in m:
                term = _mul_terms(term, power(v, e), limits)
            for mm, cc in term.items():
                _add_term(total, mm, cc)
        return LaurentPoly._of(total)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            factors = [f"{v}^{e}" if e != 1 else v for v, e in m]
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(str(c) + "*" + "*".join(factors))
        s = " + ".join(bits).replace("+ -", "- ")
        return s

    __repr__ = __str__


_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<coef>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\^(?P<exp>-?\d+))?|(?P<mul>\*))"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse sums of signed monomials like '3*a^2*b^-1 - x14 + 1/2'."""
    if not isinstance(text, str):
        raise SchemaError(f"expression must be a string, got {type(text).__name__}")
    pos = 0
    total: Terms = {}
    sign = 1
    coef: Fraction | None = None
    mono: dict[str, int] = {}
    pending = False

    def flush():
        nonlocal sign, coef, mono, pending
        if not pending:
            return
        if coef is None and not mono:
            raise SchemaError(f"dangling sign in {text!r}")
        c = Fraction(sign) * (coef if coef is not None else Fraction(1))
        m = tuple(sorted((v, e) for v, e in mono.items() if e))
        _add_term(total, m, c)
        sign, coef, mono, pending = 1, None, {}, False

    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt or mt.end() == pos:
            raise SchemaError(f"cannot parse expression at ...{text[pos:pos + 20]!r}")
        pos = mt.end()
        if mt.group("sign"):
            flush()
            sign = -1 if mt.group("sign") == "-" else 1
            pending = True
        elif mt.group("coef"):
            if coef is not None:
                raise SchemaError(f"two coefficients in one term: {text!r}")
            try:
                coef = Fraction(mt.group("coef"))
            except ZeroDivisionError:
                raise SchemaError(
                    f"zero denominator in coefficient {mt.group('coef')!r} of {text!r}"
                ) from None
            pending = True
        elif mt.group("var"):
            v = mt.group("var")
            e = int(mt.group("exp") or 1)
            mono[v] = mono.get(v, 0) + e
            pending = True
        # '*' separators carry no content
    flush()
    if not text.strip():
        raise SchemaError("empty expression")
    return LaurentPoly._of(total)

