"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``enumerate`` lists a
family at one degree, ``coproduct`` prints the cut terms of a forest, ``op``
evaluates a binary operation, ``count`` prints a coefficient table,
``indexings`` counts the valid labelings of a plane tree, and ``check`` runs
a verification suite.  ``--json`` switches any subcommand to structured
output with a stable schema.

Exit codes: 0 on success, 1 when a check or verification reports a failure,
2 on usage or parse errors.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .algebra import _VARIANT_ALIASES, COPRODUCT_VARIANTS, coproduct
from .checks import SUITES, run_suite
from .families import (
    NotInFamilyError,
    count_indexings,
    generate_set,
    oracle_count_indexings,
)
from .forest import ForestSyntaxError, parse_forest, parse_plane_tree
from .grafts import GRAFT_OPS, _basis_op
from .series import series_coefficients, verify_against_enumeration

# Each coproduct variant in the library's order, under its command-line alias.
_ALIAS_OF = {variant: alias for alias, variant in _VARIANT_ALIASES.items()}
COPRODUCT_CHOICES = tuple(_ALIAS_OF.get(v, v) for v in COPRODUCT_VARIANTS)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand --json from being reset to the
    # subparser default
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="structured output instead of plain lines",
    )

    parser = argparse.ArgumentParser(
        prog="graftwood",
        parents=[common],
        description="enumerate, combine, and verify labeled plane forests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="list a family at one degree")
    p.add_argument("--set", required=True, dest="selector", metavar="FAMILY",
                   help="G, G0, G<i>, T, Bl, or Br")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--signature", help="narrow G to one signature, e.g. '+,+,-'")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("coproduct", parents=[common], help="print the cut terms of a forest")
    p.add_argument("--variant", choices=COPRODUCT_CHOICES, default="full")
    p.add_argument("forest")

    p = sub.add_parser("op", parents=[common], help="evaluate a binary operation")
    p.add_argument("name", choices=GRAFT_OPS)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("count", parents=[common], help="print a coefficient table")
    p.add_argument("--table", required=True, metavar="ID")
    p.add_argument("--max", required=True, type=int, dest="max_degree")
    p.add_argument("--verify", action="store_true",
                   help="cross-check every row against enumeration")

    p = sub.add_parser("indexings", parents=[common],
                       help="count the valid labelings of a plane tree")
    p.add_argument("--family", choices=("G", "T"), default="G")
    p.add_argument("shape", help="plane tree with all labels 0, e.g. '0[0 0]'")
    p.add_argument("--oracle", action="store_true",
                   help="also count by the peel-move oracle and compare")

    p = sub.add_parser("check", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-degree", type=int, default=None)

    return parser


def _emit(as_json: bool, payload, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _cmd_enumerate(ns: argparse.Namespace, as_json: bool) -> int:
    forests = sorted(
        generate_set(ns.selector, ns.degree, ns.signature), key=lambda f: f.text
    )
    if ns.count_only:
        _emit(as_json, len(forests), [str(len(forests))])
    else:
        texts = [f.text for f in forests]
        _emit(as_json, texts, texts)
    return 0


def _cmd_coproduct(ns: argparse.Namespace, as_json: bool) -> int:
    terms = coproduct(parse_forest(ns.forest), ns.variant).sorted_terms()
    payload = [
        {"lea": lea.text, "roo": roo.text, "coeff": str(coeff)}
        for (lea, roo), coeff in terms
    ]
    lines = [
        "%s * %s (x) %s" % (coeff, lea.text, roo.text)
        for (lea, roo), coeff in terms
    ]
    _emit(as_json, payload, lines)
    return 0


def _cmd_op(ns: argparse.Namespace, as_json: bool) -> int:
    result = _basis_op(ns.name)(parse_forest(ns.left), parse_forest(ns.right))
    # a vanishing graft is the zero element, printed as the algebra prints it
    text = "0" if result is None else result.text
    _emit(as_json, text, [text])
    return 0


def _cmd_count(ns: argparse.Namespace, as_json: bool) -> int:
    if ns.verify:
        report = verify_against_enumeration(ns.table, ns.max_degree)
        lines = [
            "%d %d %d %s"
            % (
                row["degree"],
                row["expected"],
                row["enumerated"],
                "ok" if row["match"] else "MISMATCH",
            )
            for row in report["rows"]
        ]
        lines.append("ok" if report["ok"] else "FAIL")
        _emit(as_json, report, lines)
        return 0 if report["ok"] else 1
    table = series_coefficients(ns.table, ns.max_degree)
    payload = {str(n): table[n] for n in sorted(table)}
    lines = ["%d %d" % (n, table[n]) for n in sorted(table)]
    _emit(as_json, payload, lines)
    return 0


def _cmd_indexings(ns: argparse.Namespace, as_json: bool) -> int:
    shape = parse_plane_tree(ns.shape)
    count = count_indexings(shape, ns.family)
    if not ns.oracle:
        _emit(as_json, {"count": count}, [str(count)])
        return 0
    oracle = oracle_count_indexings(shape, ns.family)
    match = count == oracle
    payload = {"count": count, "oracle": oracle, "match": match}
    lines = ["count %d" % count, "oracle %d" % oracle, "ok" if match else "MISMATCH"]
    _emit(as_json, payload, lines)
    return 0 if match else 1


def _cmd_check(ns: argparse.Namespace, as_json: bool) -> int:
    result = run_suite(ns.suite, ns.max_degree)
    lines = [
        "%s %s: %s" % ("ok  " if row["ok"] else "FAIL", row["label"], row["detail"])
        for row in result["rows"]
    ]
    lines.append(
        "suite %s at degree %d: %s"
        % (result["suite"], result["max_degree"], "pass" if result["ok"] else "FAIL")
    )
    _emit(as_json, result, lines)
    return 0 if result["ok"] else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "coproduct": _cmd_coproduct,
    "op": _cmd_op,
    "count": _cmd_count,
    "indexings": _cmd_indexings,
    "check": _cmd_check,
}


def execute(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    as_json = getattr(ns, "json", False)
    try:
        return _COMMANDS[ns.command](ns, as_json)
    except (ForestSyntaxError, NotInFamilyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> None:
    raise SystemExit(execute(sys.argv[1:] if argv is None else argv))
