"""Command-line surface.

Subcommands: validate, hasse, degree, hilbert, valuate, subduct, lspaths,
generic.  All outputs are versioned JSON/CSV/DOT with sorted keys so runs are
byte-identical.  Exit codes: 0 ok, 1 validation/computation failure,
2 schema error or unwritable output, 3 bound refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from stratval.charts import missing_charts
from stratval.errors import (
    BoundError,
    SchemaError,
    StratvalError,
    ValidationFailure,
)
from stratval.laurent import parse_laurent
from stratval.poset import generic_model
from stratval.workspace import Workspace, load_workspace


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_validate(ws: Workspace) -> int:
    report = ws.ps.validate()
    chart_failures: list[str] = []
    if report.ok and ws.atlas is not None:
        for c in missing_charts(ws.atlas, ws.ps):
            chart_failures.append(f"no chart for chain {'>'.join(c)}")
    doc = {
        "schema": "stratval-report/1",
        "ok": report.ok and not chart_failures,
        "r": report.r,
        "failures": report.failures + chart_failures,
        "charts": len(ws.atlas or {}),
    }
    _emit(doc)
    return 0 if doc["ok"] else 1


def cmd_hasse(ws: Workspace, out: str | None) -> int:
    dot = ws.ps.hasse_dot()
    if out:
        with open(out, "w") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return 0


def cmd_degree(ws: Workspace) -> int:
    from math import factorial

    from stratval.geometry import (
        chain_volumes,
        complex_to_json,
        default_lattices,
        hodge_degree,
    )

    ps = ws.ps
    r_fact = factorial(ps.r)
    vols = chain_volumes(ps, default_lattices(ps))
    deg = r_fact * sum(vols.values(), Fraction(0))
    doc = {
        "schema": "stratval-degree/1",
        "degree": str(deg),
        "per_chain": [
            {"chain": list(chain), "r_factorial_vol": str(r_fact * vol)}
            for chain, vol in vols.items()
        ],
        "complex": complex_to_json(ps),
    }
    if not ps.hodge_violations():
        hd = hodge_degree(ps)
        doc["hodge_degree"] = str(hd)
        if hd != deg:
            raise ValidationFailure(
                f"volume degree {deg} disagrees with the "
                f"extremal-degree formula {hd}"
            )
    _emit(doc)
    return 0


def cmd_hilbert(ws: Workspace, max_n: int) -> int:
    from stratval.geometry import default_lattices, hilbert_incl_excl, sr_hilbert

    if max_n < 0:
        raise SchemaError(f"--max must be nonnegative, got {max_n}")
    ps = ws.ps
    lattices = default_lattices(ps)
    lines = ["# stratval-csv/1", "n,incl_excl,stanley_reisner,ring"]
    for n in range(max_n + 1):
        ie = hilbert_incl_excl(ps, lattices, n)
        sr = sr_hilbert(ps, n)
        ring = str(ws.ring.hilbert(n)) if ws.ring is not None else ""
        lines.append(f"{n},{ie},{sr},{ring}")
    print("\n".join(lines))
    return 0


def cmd_valuate(ws: Workspace, poly: str) -> int:
    from stratval.valuation import minimum, valuate_all

    g = parse_laurent(poly)
    atlas = ws.require_atlas()
    order = ws.order
    per_chain = valuate_all(g, atlas, ws.ps)
    qv, attaining = minimum(per_chain, order)
    doc = {
        "schema": "stratval-valuation/1",
        "poly": poly,
        "per_chain": [
            {
                "chain": list(chain),
                "value_top_down": [str(x) for x in res.D],
            }
            for chain, res in sorted(per_chain.items())
        ],
        "quasi_valuation": qv.to_json(),
        "support": sorted(qv.support()),
        "attaining": [list(chain) for chain in attaining],
    }
    _emit(doc)
    return 0


def cmd_subduct(ws: Workspace, poly: str) -> int:
    from stratval.monoids import hodge_fan
    from stratval.smt import subduction

    g = parse_laurent(poly)
    atlas = ws.require_atlas()
    ring = ws.require_ring()
    order = ws.order
    fan = hodge_fan(ws.ps)
    reps = ws.representatives()
    result = subduction(g, ring, atlas, fan, ws.ps, order, reps)
    _emit(
        {
            "schema": "stratval-subduction/1",
            "poly": poly,
            "terms": result.to_json(),
        }
    )
    return 0


def cmd_lspaths(type_name: str, lam_text: str, degree: int, tau: str | None) -> int:
    from stratval.weyl import (
        RootSystem,
        bonds,
        character_check,
        schubert_degree,
        weyl_group,
    )

    try:
        lam = tuple(int(x) for x in lam_text.split(","))
    except ValueError:
        raise SchemaError(f"cannot parse weight {lam_text!r}") from None
    rs = RootSystem.from_type(type_name)
    group = weyl_group(rs)
    poset = bonds(rs, lam, group)  # validates the weight before weyl_dim reads it
    report = character_check(rs, lam, degree, group=group, poset=poset)
    tau_id = tau or group.w0.id
    doc = {
        "schema": "stratval-lspaths/1",
        "type": type_name,
        "lambda": list(lam),
        "degree": degree,
        "count": report.path_count,
        "dim": report.dim,
        "character_ok": report.ok,
        "character_discrepancies": report.discrepancies,
        "schubert_degree": {
            "tau": tau_id,
            "value": schubert_degree(rs, lam, tau_id, group, poset),
        },
        "paths": [p.to_json() for p in report.paths],
    }
    _emit(doc)
    return 0 if report.ok else 1


def cmd_generic(s: int, r: int, out: str) -> int:
    ps = generic_model(s, r)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "stratification.json"), "w") as fh:
        json.dump(ps.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(os.path.join(out, "stratification.json"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each call of `main` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="stratval",
        description="valuations, monoids and Hilbert data for stratified posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_workspace(p):
        p.add_argument("-w", "--workspace", required=True, help="data directory")
        return p

    p = with_workspace(sub.add_parser("validate", help="check poset and chart axioms"))
    p.set_defaults(run=lambda a: cmd_validate(load_workspace(a.workspace)))
    p = with_workspace(sub.add_parser("hasse", help="bonded Hasse diagram as DOT"))
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(run=lambda a: cmd_hasse(load_workspace(a.workspace), a.out))
    p = with_workspace(sub.add_parser("degree", help="degree via simplex volumes"))
    p.set_defaults(run=lambda a: cmd_degree(load_workspace(a.workspace)))
    p = with_workspace(sub.add_parser("hilbert", help="Hilbert function table"))
    p.add_argument("--max", type=int, default=5)
    p.set_defaults(run=lambda a: cmd_hilbert(load_workspace(a.workspace), a.max))
    p = with_workspace(sub.add_parser("valuate", help="chain and quasi-valuations"))
    p.add_argument("--poly", required=True)
    p.set_defaults(run=lambda a: cmd_valuate(load_workspace(a.workspace), a.poly))
    p = with_workspace(sub.add_parser("subduct", help="standard monomial expansion"))
    p.add_argument("--poly", required=True)
    p.set_defaults(run=lambda a: cmd_subduct(load_workspace(a.workspace), a.poly))
    p = sub.add_parser("lspaths", help="LS paths, characters, Schubert degrees")
    p.add_argument("--type", required=True, help="Cartan type, e.g. A2")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="fundamental-weight coefficients, e.g. 1,1")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--tau", help="reduced word, e.g. 121 (default: longest)")
    p.set_defaults(run=lambda a: cmd_lspaths(a.type, a.lam, a.degree, a.tau))
    p = sub.add_parser("generic", help="emit a generic-hyperplane model poset")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_generic(a.s, a.r, a.out))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:  # such as an --out path under a missing directory
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except BoundError as e:
        print(f"bound refused: {e}", file=sys.stderr)
        return 3
    except StratvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
