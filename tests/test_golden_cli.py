"""Golden fingerprints of the CLI: exit code and sha256 of stdout and stderr.

`tests/golden_cli.json` pins the observable behaviour of `validate`,
`degree`, `hilbert` and `lspaths` on the bundled sets, two generic models,
the lambda = rho LS-path cases and a few refused inputs, and of `valuate`
and `subduct` on one polynomial of each small degree per set.  A refactor must
leave every fingerprint unchanged.  To rewrite the file after a deliberate
change of output:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from stratval.cli import main
from stratval.workspace import bundled

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

BUNDLED = [
    "elliptic1", "elliptic2", "gr24", "psl2", "pset_p2", "quadric", "sl3b",
    "torus_t2",
]
GENERIC = [(3, 2), (5, 3)]
# (type, lambda = rho, degrees, explicit tau)
LSPATHS = [
    ("A2", "1,1", (1, 2, 3), "12"),
    ("B2", "1,1", (1, 2, 3), "21"),
    ("G2", "1,1", (1,), "121"),
    ("A3", "1,1,1", (1,), "213"),
]
# one polynomial of each degree 1-4 per bundled set; on the elliptic sets
# also a degree-4 monomial whose chart image runs past the order limits
VALUATE = {
    "elliptic1": ["y", "x*z - y^2", "x^3 + y*z^2", "z^4 + x^4", "x^2*z^2"],
    "elliptic2": ["y", "x*z - y^2", "x^3 + y*z^2", "z^4 + x^4", "x^2*z^2"],
    "gr24": ["x14", "x14*x23 - x12*x34", "x13^2*x24", "x12*x34*x14*x23 + x24^4"],
    "psl2": ["x + y", "x*t - y*z", "z^3", "x^2*y*t + t^4"],
    "pset_p2": ["x1", "x1*x2 + x3^2", "x1*x2*x3", "x2^4 - x1^3*x3"],
    "quadric": ["t", "y*z + x^2", "t^3 - x*y*z", "x^4 + y^2*z^2"],
    "sl3b": ["fe", "f12*f21 + h1^2", "f1*f2*f121", "h1^4 - fe*f121*h2^2"],
    "torus_t2": ["xA", "xA*xB + x0^2", "xT*xnT*x0", "xnA^4 + xB^3*x0"],
}
# one polynomial of each degree 1-3
SUBDUCT = {
    "gr24": ["x13", "x13*x24", "x14*x23^2 + x12*x34*x13"],
    "pset_p2": ["x2", "x1*x3 + x2^2", "x1*x2*x3 + x2^3"],
    "quadric": ["z", "y*z + t^2", "y*z^2 + t^3"],
}
# the ring's relation: zero on the curve, refused by the order guard
ELLIPTIC_RELATION = "y^2*z - x^3 + x*z^2"


def _workspace_cases(name: str, root: str) -> list[tuple[str, list[str]]]:
    return [
        (f"validate {name}", ["validate", "-w", root]),
        (f"degree {name}", ["degree", "-w", root]),
        (f"hilbert --max 6 {name}", ["hilbert", "-w", root, "--max", "6"]),
    ]


def cases(generic_root: str) -> list[tuple[str, list[str]]]:
    out = []
    for name in BUNDLED:
        out += _workspace_cases(name, bundled(name))
    for s, r in GENERIC:
        out += _workspace_cases(
            f"generic_{s}_{r}", os.path.join(generic_root, f"generic_{s}_{r}")
        )
    for t, rho, degrees, tau in LSPATHS:
        for m in degrees:
            base = ["lspaths", "--type", t, "--lambda", rho, "--degree", str(m)]
            out.append((f"lspaths {t} m={m}", base))
            out.append((f"lspaths {t} m={m} tau={tau}", base + ["--tau", tau]))
    for lam in ("1,0", "1", "1,1,1", "x"):
        out.append(
            (f"lspaths A2 lambda={lam}", ["lspaths", "--type", "A2", "--lambda", lam])
        )
    out.append(
        ("hilbert --max -3 gr24", ["hilbert", "-w", bundled("gr24"), "--max", "-3"])
    )
    for command, table in (("valuate", VALUATE), ("subduct", SUBDUCT)):
        for name, polys in table.items():
            for poly in polys:
                out.append((
                    f"{command} {name} {poly}",
                    [command, "-w", bundled(name), "--poly", poly],
                ))
    out.append((
        f"valuate elliptic1 {ELLIPTIC_RELATION}",
        ["valuate", "-w", bundled("elliptic1"), "--poly", ELLIPTIC_RELATION],
    ))
    return out


def make_generic(root: str) -> None:
    for s, r in GENERIC:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(
                ["generic", "--s", str(s), "--r", str(r),
                 "--out", os.path.join(root, f"generic_{s}_{r}")]
            )
        assert code == 0


def fingerprint(argv: list[str]) -> dict:
    """Run the CLI in-process; an exception escaping `main` is recorded by
    its type in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = main(argv)
        except Exception as e:  # pinned: only the type, never the traceback
            code = f"raises {type(e).__name__}"
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def all_fingerprints(root: str) -> dict[str, dict]:
    make_generic(root)
    return {name: fingerprint(argv) for name, argv in cases(root)}


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return all_fingerprints(str(tmp_path_factory.mktemp("golden")))


def _golden() -> dict[str, dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)


CASE_NAMES = [name for name, _ in cases("")]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASE_NAMES)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_cli_fingerprint(current, name):
    assert current[name] == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_cli.py --write")
    with tempfile.TemporaryDirectory() as root:
        doc = all_fingerprints(root)
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(doc)} fingerprints written to {GOLDEN}")
