"""Print one line per fixed command-line run: argv, exit code, and digests of
stdout and stderr, with stderr's first line in full.

Run it on two checkouts and diff the outputs to see every change of the
command line's behaviour:

    python3 tools/cli_dump.py --src OLD/src > old.txt
    python3 tools/cli_dump.py > new.txt
    diff old.txt new.txt

All runs share one interpreter, through ``graftwood.cli.execute``; ``--src``
names the package source to import (default: this checkout's ``src``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

SUITES = ("hopf", "duplicial", "dendriform", "leftgraft", "rightgraft", "bigraft",
          "counts", "primtot", "closure")
SETS = ("G", "G0", "G1", "G2", "G3", "T", "Tplus", "Tminus", "Bl", "Br")
# each table the counts suite checks, with its enumeration ceiling
CEILINGS = {
    **{t: 8 for t in ("Binfty_trees", "Binfty_forests", "B0_trees", "B0_forests")},
    **{"Binfty_length(%d)" % k: 8 for k in (1, 2, 3)},
    **{"Bi_%s(%d)" % (kind, i): 8 for kind in ("trees", "forests") for i in range(1, 7)},
    "B_trees": 7,
    "B_forests": 7,
    "D_dims": 5,
}
# the degrees past which each suite was or is refused
SUITE_TOPS = {"hopf": 6, "duplicial": 10, "dendriform": 8, "leftgraft": 10, "rightgraft": 10,
              "bigraft": 10, "counts": 8, "primtot": 5, "closure": 6}
VARIANTS = ("full", "reduced", "left-root", "right-root", "prec", "succ")
OPS = ("concat", "nwarrow", "lgraft", "rgraft")
README = (
    ["enumerate", "--set", "G", "--degree", "2"],
    ["enumerate", "--set", "G", "--degree", "3", "--signature", "+,+,-"],
    ["enumerate", "--set", "T", "--degree", "6", "--count-only"],
    ["op", "lgraft", "1", "1[2]"],
    ["coproduct", "--variant", "reduced", "2[4[1] 3]"],
    ["count", "--table", "B_forests", "--max", "8"],
    ["count", "--table", "D_dims", "--max", "5", "--verify"],
    ["indexings", "--family", "T", "0[0 0]", "--oracle"],
    ["check", "--suite", "hopf"],
    ["op", "rgraft", "()", "1"],
    ["op", "lgraft", "1", "()"],
    ["op", "lgraft", "()", "()"],
)


def _chain(n: int) -> str:
    return "0" + "[0" * (n - 1) + "]" * (n - 1)


def runs() -> list[list[str]]:
    out = [["check", "--suite", s] for s in SUITES]
    out += [["--json", "check", "--suite", s] for s in SUITES]
    out += README
    out += [["enumerate", "--set", s, "--degree", str(n)] for s in SETS for n in range(1, 9)]
    out += [["count", "--table", t, "--max", str(top), "--verify"] for t, top in CEILINGS.items()]
    for forest in ("2[4[1] 3]", "1 3[2] 4", "1[2[3] 4] 5[6]"):
        out += [["coproduct", "--variant", v, forest] for v in VARIANTS]
    for left, right in (("1[2]", "2[1]"), ("1 2", "1[3[2]]"), ("()", "1[2]")):
        out += [["op", op, left, right] for op in OPS]
    for family in ("G", "T"):
        out += [["indexings", "--family", family, shape, "--oracle"]
                for shape in ("0", "0[0 0]", "0[0[0] 0]", _chain(8), "0[0 0 0[0 0]]")]
        out += [["--json", "indexings", "--family", family, "0[0[0 0] 0]"]]
    # every refused degree
    out += [["enumerate", "--set", s, "--degree", str(n)] for s in SETS for n in (0, 9)]
    out += [["indexings", "--oracle", _chain(9)], ["indexings", "--family", "T", _chain(9)]]
    out += [["count", "--table", "B_trees", "--max", str(n)] for n in (0, 64, 65)]
    out += [["count", "--table", t, "--max", str(n), "--verify"]
            for t, top in CEILINGS.items() for n in (0, top + 1)]
    out += [["check", "--suite", s, "--max-degree", str(n)]
            for s, top in SUITE_TOPS.items() for n in (0, top + 1)]
    out += [["--json", "check", "--suite", s, "--max-degree", str(top + 1)]
            for s, top in SUITE_TOPS.items()]
    return out


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the graftwood package")
    ns = parser.parse_args()
    sys.path.insert(0, ns.src)
    from graftwood.cli import execute

    for argv in runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = execute(argv)
        first = err.getvalue().partition("\n")[0]
        print("\t".join([" ".join(argv), str(code), _digest(out.getvalue()),
                         _digest(err.getvalue()), repr(first)]))


if __name__ == "__main__":
    main()
