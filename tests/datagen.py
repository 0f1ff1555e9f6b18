"""Builders for the bundled example data.

Everything derived (adjoint-orbit charts, curve parametrizations, ring
relations) is computed here with exact arithmetic rather than typed in by
hand; the JSON files under src/stratval/data/ are the frozen output of
write_all, and the test suite re-runs these builders against the shipped
files.  Regenerate them with

    PYTHONPATH=src python tests/datagen.py
"""

from __future__ import annotations

import json
import os
from stratval.charts import ChainChart
from stratval.laurent import LaurentPoly
from stratval.poset import StratPoset

# ---------------------------------------------------------------- SL3/B ----

# Hasse diagram with bonds from the Pieri-Chevalley rule for lambda = rho:
# doubled exactly on (21 over 1) and (12 over 2).
SL3B_ELEMENTS = [
    ("121", "s1*s2*s1"),
    ("21", "s2*s1"),
    ("12", "s1*s2"),
    ("2", "s2"),
    ("1", "s1"),
    ("e", "e"),
]
SL3B_COVERS = [
    ("1", "e", 1),
    ("2", "e", 1),
    ("12", "1", 1),
    ("12", "2", 2),
    ("21", "1", 2),
    ("21", "2", 1),
    ("121", "12", 1),
    ("121", "21", 1),
]


def sl3b_poset() -> StratPoset:
    return StratPoset(SL3B_ELEMENTS, SL3B_COVERS, {p: 1 for p, _ in SL3B_ELEMENTS})


def _mat_zero():
    z = LaurentPoly.zero()
    return [[z, z, z] for _ in range(3)]


def _mat_id():
    m = _mat_zero()
    for i in range(3):
        m[i][i] = LaurentPoly.const(1)
    return m


def _mat_mul(a, b):
    out = _mat_zero()
    for i in range(3):
        for j in range(3):
            acc = LaurentPoly.zero()
            for k in range(3):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def _unipotent(i: int, j: int, t: LaurentPoly):
    m = _mat_id()
    m[i][j] = t
    return m


def _ad_chart(steps: list[tuple[str, str]]):
    """Conjugate a*E13 by the listed one-parameter subgroups, innermost first.

    Each step is (simple root name 'a1'|'a2', parameter variable); the matrix
    of U_{-a1}(t) is I + t E21, of U_{-a2}(t) is I + t E32.
    """
    m = _mat_zero()
    m[0][2] = LaurentPoly.var("a")
    for root, var in steps:
        t = LaurentPoly.var(var)
        i, j = (1, 0) if root == "a1" else (2, 1)
        g = _unipotent(i, j, t)
        ginv = _unipotent(i, j, -t)
        m = _mat_mul(_mat_mul(g, m), ginv)
    return m


def _sl3b_coordinates(m) -> dict[str, LaurentPoly]:
    return {
        "fe": m[0][2],
        "f1": m[1][2],
        "f2": m[0][1],
        "f12": m[1][0],
        "f21": m[2][1],
        "f121": m[2][0],
        "h1": m[0][0],
        "h2": -m[2][2],
    }


# chain -> conjugation recipe, innermost step first; the divisor variable t3
# always cuts the top divisor, t1 the bottom stratum.
SL3B_CHAIN_STEPS: dict[tuple[str, ...], list[tuple[str, str]]] = {
    ("121", "21", "1", "e"): [("a1", "t1"), ("a2", "t2"), ("a1", "t3")],
    ("121", "12", "2", "e"): [("a2", "t1"), ("a1", "t2"), ("a2", "t3")],
    ("121", "12", "1", "e"): [("a1", "t3"), ("a2", "t2"), ("a1", "t1")],
    ("121", "21", "2", "e"): [("a2", "t3"), ("a1", "t2"), ("a2", "t1")],
}

_EXTREMAL_NAME = {
    "e": "fe", "1": "f1", "2": "f2", "12": "f12", "21": "f21", "121": "f121",
}


def sl3b_charts() -> list[ChainChart]:
    charts = []
    for chain, steps in SL3B_CHAIN_STEPS.items():
        coords = _sl3b_coordinates(_ad_chart(steps))
        charts.append(
            ChainChart(
                chain=chain,
                divisor_vars=["t3", "t2", "t1"],
                extra_vars=["a"],
                f_exprs={p: coords[_EXTREMAL_NAME[p]] for p in _EXTREMAL_NAME},
                ambient_map=coords,
            )
        )
    return charts


def sl3b_ring() -> dict:
    """The adjoint variety of sl3: traceless matrices M with M^2 = 0."""
    names = [["h1", "f2", "fe"], ["f12", None, "f1"], ["f121", "f21", None]]
    m = _mat_zero()
    for i in range(3):
        for j in range(3):
            if names[i][j]:
                m[i][j] = LaurentPoly.var(names[i][j])
    h1, h2 = LaurentPoly.var("h1"), LaurentPoly.var("h2")
    m[1][1] = h2 - h1
    m[2][2] = -h2
    square = _mat_mul(m, m)
    relations = sorted(
        str(square[i][j]) for i in range(3) for j in range(3)
        if not square[i][j].is_zero()
    )
    return {
        "schema": "stratval-ring/1",
        "vars": [
            {"name": n, "degree": 1}
            for n in ["fe", "f1", "f2", "f12", "f21", "f121", "h1", "h2"]
        ],
        "relations": relations,
    }


# --------------------------------------------------------- elliptic curve ----

SERIES_ORDER = 40


def branch_z_over_y(order: int = SERIES_ORDER) -> LaurentPoly:
    """w(u) with z = w*y on the cone chart at [0:1:0]: solves w = u^3 - u*w^2.

    Fixpoint iteration in the u-adic topology; exact below the cutoff.
    """
    u = LaurentPoly.var("u")
    w = LaurentPoly.zero()
    for _ in range(order):
        w = _truncate(u**3 - u * w * w, "u", order)
    return w


def branch_x_over_z(order: int = SERIES_ORDER) -> LaurentPoly:
    """v(t) with x = t^2*v*z on the cone chart at [0:0:1]: solves v = t^4 v^3 - 1."""
    t = LaurentPoly.var("t")
    v = LaurentPoly.const(-1)
    for _ in range(order):
        v = _truncate(t**4 * v * v * v - LaurentPoly.const(1), "t", order)
    return v


def _truncate(p: LaurentPoly, var: str, order: int) -> LaurentPoly:
    kept = {}
    for mono, c in p.terms.items():
        if dict(mono).get(var, 0) < order:
            kept[mono] = c
    return LaurentPoly(kept)


def elliptic1_poset() -> StratPoset:
    return StratPoset(
        [("X1", "X"), ("X0", "[0:1:0]")], [("X1", "X0", 3)], {"X1": 1, "X0": 1}
    )


def elliptic1_charts() -> list[ChainChart]:
    y = LaurentPoly.var("y")
    w = branch_z_over_y()
    amb = {"x": LaurentPoly.var("u") * y, "y": y, "z": w * y}
    return [
        ChainChart(
            chain=("X1", "X0"),
            divisor_vars=["u"],
            extra_vars=["y"],
            f_exprs={"X1": amb["z"], "X0": amb["y"]},
            ambient_map=amb,
            order_limits={"u": SERIES_ORDER - 5},
        )
    ]


def elliptic2_poset() -> StratPoset:
    return StratPoset(
        [("X1", "X"), ("P01", "[0:1:0]"), ("P02", "[0:0:1]")],
        [("X1", "P01", 1), ("X1", "P02", 2)],
        {"X1": 1, "P01": 1, "P02": 1},
    )


def elliptic2_charts() -> list[ChainChart]:
    y = LaurentPoly.var("y")
    z = LaurentPoly.var("z")
    t = LaurentPoly.var("t")
    w = branch_z_over_y()
    amb1 = {"x": LaurentPoly.var("u") * y, "y": y, "z": w * y}
    v = branch_x_over_z()
    amb2 = {"x": t * t * v * z, "y": t * z, "z": z}
    return [
        ChainChart(
            chain=("X1", "P01"),
            divisor_vars=["u"],
            extra_vars=["y"],
            f_exprs={"X1": amb1["x"], "P01": amb1["y"], "P02": amb1["z"]},
            ambient_map=amb1,
            order_limits={"u": SERIES_ORDER - 5},
        ),
        ChainChart(
            chain=("X1", "P02"),
            divisor_vars=["t"],
            extra_vars=["z"],
            f_exprs={"X1": amb2["x"], "P01": amb2["y"], "P02": amb2["z"]},
            ambient_map=amb2,
            order_limits={"t": SERIES_ORDER - 5},
        ),
    ]


ELLIPTIC_RING = {
    "schema": "stratval-ring/1",
    "vars": [
        {"name": "x", "degree": 1},
        {"name": "y", "degree": 1},
        {"name": "z", "degree": 1},
    ],
    "relations": ["y^2*z - x^3 + x*z^2"],
}


# ------------------------------------------------------------- power set ----

PSET_IDS = ["1", "2", "3", "12", "13", "23", "123"]


def pset_poset() -> StratPoset:
    elements = [(p, "{" + ",".join(p) + "}") for p in PSET_IDS]
    covers = []
    for small in PSET_IDS:
        for big in PSET_IDS:
            if len(big) == len(small) + 1 and set(small) <= set(big):
                covers.append((big, small, 1))
    return StratPoset(elements, covers, {p: len(p) for p in PSET_IDS})


def pset_charts() -> list[ChainChart]:
    ps = pset_poset()
    charts = []
    for chain in ps.maximal_chains():
        top, mid, bot = chain
        j = next(iter(set(mid) - set(bot)))
        k = next(iter(set(top) - set(mid)))
        table = {
            "x" + bot: LaurentPoly.var("a"),
            "x" + j: LaurentPoly.var("u2"),
            "x" + k: LaurentPoly.var("u1"),
        }
        f_exprs = {}
        for p in PSET_IDS:
            expr = LaurentPoly.const(1)
            for letter in p:
                expr = expr * table["x" + letter]
            f_exprs[p] = expr
        charts.append(
            ChainChart(
                chain=chain,
                divisor_vars=["u1", "u2"],
                extra_vars=["a"],
                f_exprs=f_exprs,
                ambient_map=table,
            )
        )
    return charts


PSET_RING = {
    "schema": "stratval-ring/1",
    "vars": [
        {"name": "x1", "degree": 1},
        {"name": "x2", "degree": 1},
        {"name": "x3", "degree": 1},
    ],
    "relations": [],
    "representatives": [
        {"value": {p: "1"}, "expr": "*".join("x" + c for c in p)} for p in PSET_IDS
    ],
}


# ---------------------------------------------------------------- quadric ----

def quadric_poset() -> StratPoset:
    return StratPoset(
        [("X3", "X"), ("X1", "{y=t=0}"), ("X2", "{z=t=0}"), ("X0", "[1:0:0:0]")],
        [("X3", "X1", 1), ("X3", "X2", 1), ("X1", "X0", 1), ("X2", "X0", 1)],
        {p: 1 for p in ["X3", "X1", "X2", "X0"]},
    )


def quadric_charts() -> list[ChainChart]:
    # the quadric yz = t(y+z); on each chart w2 = y+z and w1 is the
    # coordinate that cuts the middle stratum
    a = LaurentPoly.var("a")
    w1, w2 = LaurentPoly.var("w1"), LaurentPoly.var("w2")
    t_expr = w1 - w1 * w1 * LaurentPoly.var("w2", -1)
    amb1 = {"x": a, "y": w1, "z": w2 - w1, "t": t_expr}
    amb2 = {"x": a, "y": w2 - w1, "z": w1, "t": t_expr}
    charts = []
    for chain, amb in [
        (("X3", "X1", "X0"), amb1),
        (("X3", "X2", "X0"), amb2),
    ]:
        charts.append(
            ChainChart(
                chain=chain,
                divisor_vars=["w1", "w2"],
                extra_vars=["a"],
                f_exprs={
                    "X3": amb["t"], "X1": amb["z"], "X2": amb["y"], "X0": amb["x"]
                },
                ambient_map=amb,
            )
        )
    return charts


QUADRIC_RING = {
    "schema": "stratval-ring/1",
    "vars": [
        {"name": "x", "degree": 1},
        {"name": "y", "degree": 1},
        {"name": "z", "degree": 1},
        {"name": "t", "degree": 1},
    ],
    "relations": ["y*z - t*y - t*z"],
    "representatives": [
        {"value": {"X3": "1"}, "expr": "t"},
        {"value": {"X1": "1"}, "expr": "z"},
        {"value": {"X2": "1"}, "expr": "y"},
        {"value": {"X0": "1"}, "expr": "x"},
    ],
}


# --------------------------------------------------- torus compactification ----

HEXAGON = ["A", "T", "B", "nA", "nT", "nB"]   # alpha, theta, beta, then negatives
ROOT_COORDS = {
    "A": (1, 0), "T": (1, 1), "B": (0, 1),
    "nA": (-1, 0), "nT": (-1, -1), "nB": (0, -1),
}


def torus_poset() -> StratPoset:
    """Closure of the rank-2 adjoint torus in P^6; orbit poset is the face
    poset of the Weyl-chamber decomposition of the plane."""
    elements = [("X", "X")] + [
        (f"l_{u}_{v}", f"line({u},{v})")
        for u, v in zip(HEXAGON, HEXAGON[1:] + HEXAGON[:1])
    ] + [(f"p_{g}", f"point({g})") for g in HEXAGON]
    fdeg = {"X": 1}
    covers = []
    for u, v in zip(HEXAGON, HEXAGON[1:] + HEXAGON[:1]):
        line = f"l_{u}_{v}"
        fdeg[line] = 2
        covers.append(("X", line, 1))
        covers.append((line, f"p_{u}", 1))
        covers.append((line, f"p_{v}", 1))
    for g in HEXAGON:
        fdeg[f"p_{g}"] = 1
    return StratPoset(elements, covers, fdeg)


def _edge_coordinates(vertex: str, edge_to: str, other: str):
    """Write each character as vertex + m*(edge_to-vertex) + n*(other-vertex);
    the hexagon is smooth, so (m, n) are nonnegative integers."""
    gx, gy = ROOT_COORDS[vertex]
    e1 = (ROOT_COORDS[edge_to][0] - gx, ROOT_COORDS[edge_to][1] - gy)
    e2 = (ROOT_COORDS[other][0] - gx, ROOT_COORDS[other][1] - gy)
    det = e1[0] * e2[1] - e1[1] * e2[0]
    assert abs(det) == 1
    table = {}
    for name, (cx, cy) in list(ROOT_COORDS.items()) + [("0", (0, 0))]:
        dx, dy = cx - gx, cy - gy
        m = (dx * e2[1] - dy * e2[0]) // det
        n = (e1[0] * dy - e1[1] * dx) // det
        assert m >= 0 and n >= 0, (vertex, name)
        table[name] = (m, n)
    return table


def torus_charts() -> list[ChainChart]:
    """Per-chain monomial charts at the hexagon vertices: the coordinates of
    the dense torus adapted to the two boundary divisors of the chain."""
    ps = torus_poset()
    charts = []
    for chain in ps.maximal_chains():
        _, line, point = chain
        vertex = point[2:]
        u, v = line.split("_")[1:]
        edge_to = v if vertex == u else u
        pos = HEXAGON.index(vertex)
        nbrs = {HEXAGON[(pos + 1) % 6], HEXAGON[(pos - 1) % 6]}
        other = next(iter(nbrs - {edge_to}))
        coords = _edge_coordinates(vertex, edge_to, other)
        a = LaurentPoly.var("a")
        amb = {}
        for name, (m, n) in coords.items():
            amb["x" + name] = a * LaurentPoly.var("u", m) * LaurentPoly.var("v", n)
        f_exprs = {"X": amb["x0"]}
        for w1, w2 in zip(HEXAGON, HEXAGON[1:] + HEXAGON[:1]):
            f_exprs[f"l_{w1}_{w2}"] = amb["x" + w1] * amb["x" + w2]
        for g in HEXAGON:
            f_exprs[f"p_{g}"] = amb["x" + g]
        charts.append(
            ChainChart(
                chain=chain,
                divisor_vars=["v", "u"],
                extra_vars=["a"],
                f_exprs=f_exprs,
                ambient_map=amb,
            )
        )
    return charts


def torus_ring() -> dict:
    """Binomial relations of the hexagon characters: equal sums give equal
    products."""
    chars = list(ROOT_COORDS.items()) + [("0", (0, 0))]
    seen = set()
    relations = []
    pairs = [
        (a, b) for i, a in enumerate(chars) for b in chars[i:]
    ]
    by_sum: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for (na, ca), (nb, cb) in pairs:
        by_sum.setdefault((ca[0] + cb[0], ca[1] + cb[1]), []).append((na, nb))
    for _, group in sorted(by_sum.items()):
        first = group[0]
        for other in group[1:]:
            rel = f"x{first[0]}*x{first[1]} - x{other[0]}*x{other[1]}"
            if rel not in seen:
                seen.add(rel)
                relations.append(rel)
    return {
        "schema": "stratval-ring/1",
        "vars": [{"name": "x0", "degree": 1}]
        + [{"name": "x" + g, "degree": 1} for g in HEXAGON],
        "relations": relations,
    }


# --------------------------------------------------- PSL2 compactification ----


def psl2_poset() -> StratPoset:
    elements = [(f"X{i}", f"X{i}") for i in range(6)]
    covers = [
        ("X5", "X3", 1), ("X5", "X4", 1),
        ("X3", "X1", 1), ("X3", "X2", 1),
        ("X4", "X1", 1), ("X4", "X2", 1),
        ("X1", "X0", 1), ("X2", "X0", 1),
    ]
    fdeg = {"X5": 3, "X4": 2, "X3": 1, "X2": 1, "X1": 1, "X0": 1}
    return StratPoset(elements, covers, fdeg)


def psl2_charts() -> list[ChainChart]:
    """Charts on the space of 2x2 matrices (x y; z t).  The chains through
    the plane {z=0} use the matrix entries themselves; the chains through
    the quadric cone of rank-one matrices use w = xt - yz in place of z."""
    x, y, z, t = (LaurentPoly.var(n) for n in "xyzt")
    w = LaurentPoly.var("w")
    det = x * t - y * z
    flat = {"x": x, "y": y, "z": z, "t": t}
    # on the rank-one side solve xt - yz = w for z
    z_expr = (x * t - w) * LaurentPoly.var("y", -1)
    cone = {"x": x, "y": y, "z": z_expr, "t": t}

    def exprs(amb):
        return {
            "X5": amb["z"] * (amb["x"] * amb["t"] - amb["y"] * amb["z"]),
            "X4": amb["x"] * amb["t"] - amb["y"] * amb["z"],
            "X3": amb["z"],
            "X2": amb["x"],
            "X1": amb["t"],
            "X0": amb["y"],
        }

    return [
        ChainChart(("X5", "X4", "X1", "X0"), ["z", "x", "t"], ["y"],
                   exprs(flat), flat),
        ChainChart(("X5", "X4", "X2", "X0"), ["z", "t", "x"], ["y"],
                   exprs(flat), flat),
        ChainChart(("X5", "X3", "X1", "X0"), ["w", "x", "t"], ["y"],
                   exprs(cone), cone),
        ChainChart(("X5", "X3", "X2", "X0"), ["w", "t", "x"], ["y"],
                   exprs(cone), cone),
    ]


PSL2_RING = {
    "schema": "stratval-ring/1",
    "vars": [
        {"name": "x", "degree": 1},
        {"name": "y", "degree": 1},
        {"name": "z", "degree": 1},
        {"name": "t", "degree": 1},
    ],
    "relations": [],
}


# ------------------------------------------------------------------ write ----

def write_all(base: str) -> None:
    def dump(path, doc):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def dump_charts(dirname, charts):
        for chart in charts:
            name = "chain_" + "_".join(chart.chain) + ".json"
            dump(os.path.join(dirname, name), chart.to_json())

    dump(os.path.join(base, "sl3b", "stratification.json"), sl3b_poset().to_json())
    dump_charts(os.path.join(base, "sl3b", "charts"), sl3b_charts())
    dump(os.path.join(base, "sl3b", "ring.json"), sl3b_ring())

    dump(os.path.join(base, "elliptic1", "stratification.json"),
         elliptic1_poset().to_json())
    dump_charts(os.path.join(base, "elliptic1", "charts"), elliptic1_charts())
    dump(os.path.join(base, "elliptic1", "ring.json"), ELLIPTIC_RING)

    dump(os.path.join(base, "elliptic2", "stratification.json"),
         elliptic2_poset().to_json())
    dump_charts(os.path.join(base, "elliptic2", "charts"), elliptic2_charts())
    dump(os.path.join(base, "elliptic2", "ring.json"), ELLIPTIC_RING)

    dump(os.path.join(base, "pset_p2", "stratification.json"),
         pset_poset().to_json())
    dump_charts(os.path.join(base, "pset_p2", "charts"), pset_charts())
    dump(os.path.join(base, "pset_p2", "ring.json"), PSET_RING)

    dump(os.path.join(base, "quadric", "stratification.json"),
         quadric_poset().to_json())
    dump_charts(os.path.join(base, "quadric", "charts"), quadric_charts())
    dump(os.path.join(base, "quadric", "ring.json"), QUADRIC_RING)

    dump(os.path.join(base, "torus_t2", "stratification.json"),
         torus_poset().to_json())
    dump_charts(os.path.join(base, "torus_t2", "charts"), torus_charts())
    dump(os.path.join(base, "torus_t2", "ring.json"), torus_ring())

    dump(os.path.join(base, "psl2", "stratification.json"), psl2_poset().to_json())
    dump_charts(os.path.join(base, "psl2", "charts"), psl2_charts())
    dump(os.path.join(base, "psl2", "ring.json"), PSL2_RING)


if __name__ == "__main__":
    import stratval

    write_all(os.path.join(os.path.dirname(stratval.__file__), "data"))
