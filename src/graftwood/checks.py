"""Verification suites: each runs a bundle of exhaustive small-degree checks
and reports one row per property.

A suite never raises on a mathematical failure; violations land in the row
details so the caller can print them and exit nonzero.  Degrees default to
the documented desk-scale bounds and can be lowered (or raised, within the
library guards) with ``max_degree`` or the GRAFTWOOD_MAX_DEGREE variable.
"""

from __future__ import annotations

import os

from .algebra import (
    DEFAULT_ANTIPODE_DEGREE,
    AlgebraElement,
    _linear,
    antipode,
    check_b_operator_coproduct,
    coproduct,
    counit,
    expand_left,
    expand_right,
    product,
)
from .families import (
    ENUMERATION_MAX_DEGREE,
    count_indexings,
    generate_set,
    generate_words,
    ladders,
    membership,
    oracle_count_indexings,
    signature_of,
)
from .forest import EMPTY_FOREST, OrderedForest, rightmost_path, shape_of
from .grafts import _IDENTITIES, check_identity, generate_closure
from .series import _ceiling, series_coefficients, verify_against_enumeration

__all__ = ["SUITES", "DEGREE_ENV_VAR", "resolve_degree", "run_suite"]

DEGREE_ENV_VAR = "GRAFTWOOD_MAX_DEGREE"


def resolve_degree(suite: str, max_degree: int | None = None) -> int:
    """Effective bound for a suite: explicit argument, then the environment
    override, then the per-suite default.  A bound above a capped suite's
    cap raises ValueError."""
    if suite not in _SUITES:
        raise ValueError("unknown suite %r (expected one of: %s)" % (suite, ", ".join(SUITES)))
    if max_degree is None:
        raw = os.environ.get(DEGREE_ENV_VAR)
        if raw is not None:
            try:
                max_degree = int(raw)
            except ValueError:
                raise ValueError("%s must be an integer, got %r" % (DEGREE_ENV_VAR, raw))
    default, _, capped = _SUITES[suite]
    if max_degree is None:
        return default
    if max_degree < 1:
        raise ValueError("max degree must be positive")
    if capped and max_degree > default:
        raise ValueError(
            "suite %s checks degrees up to its cap of %d, got %d" % (suite, default, max_degree)
        )
    return max_degree


# --- rows and shared universes ----------------------------------------------------


def _row(label: str, failures: list, passed: str, failed: str = "%s", cases=None) -> dict:
    """One suite row, ok when nothing failed.  The detail is ``passed``, or
    else ``failed`` filled in with the first failure, preceded by the number
    of failures and of ``cases`` when that is given."""
    if not failures:
        return {"label": label, "ok": True, "detail": passed}
    args = failures[0] if cases is None else (len(failures), cases, failures[0])
    return {"label": label, "ok": False, "detail": failed % args}


def _words(selector: str, max_total: int) -> list[OrderedForest]:
    out = []
    for k in range(1, max_total + 1):
        out.extend(sorted(generate_words(selector, k), key=lambda f: f.text))
    return out


def _universe(arity: int, max_total: int) -> list[tuple[OrderedForest, ...]]:
    """Every tuple of ``arity`` T-words whose degrees sum to at most
    max_total, in lexicographic order of the word lists."""
    if arity == 0:
        return [()]
    return [
        (f,) + rest
        for f in _words("T", max_total - arity + 1)
        for rest in _universe(arity - 1, max_total - f.degree)
    ]


def _sweep(*names):
    """A suite of identity rows, one per name, each identity checked on every
    tuple of its arity (read from the identity table)."""

    def run(n: int) -> list[dict]:
        rows = []
        for name in names:
            cases = _universe(_IDENTITIES[name][0], n)
            failures = [
                "(%s)" % ", ".join(f.text for f in args)
                for args in cases
                if not check_identity(name, list(args))
            ]
            passed = "%d cases" % len(cases)
            failed = "%d of %d cases fail, e.g. %s"
            rows.append(_row(name, failures, passed, failed, len(cases)))
        return rows

    return run


def _leaks(basis, keeps, variant: str = "full") -> list[str]:
    """The basis forests with a coproduct term outside ``keeps``, each shown
    with its first such term."""
    failures = []
    for f in basis:
        for lea, roo in coproduct(f, variant).terms:
            if not keeps(lea, roo):
                failures.append("%s -> (%s, %s)" % (f.text, lea.text, roo.text))
                break
    return failures


# --- suites -----------------------------------------------------------------------


def _coassociative(f: OrderedForest) -> bool:
    return expand_left(coproduct(f)) == expand_right(coproduct(f))


def _counit_law(f: OrderedForest) -> bool:
    """(eps (x) id) and (id (x) eps) of the coproduct both give f back."""
    t2 = coproduct(f)
    lhs = _linear(lambda pair: AlgebraElement.of(pair[1]) * counit(pair[0]), t2, AlgebraElement)
    rhs = _linear(lambda pair: AlgebraElement.of(pair[0]) * counit(pair[1]), t2, AlgebraElement)
    return lhs == rhs == AlgebraElement.of(f)


def _antipode_law(f: OrderedForest) -> bool:
    """m(S (x) id) and m(id (x) S) of the coproduct both give eps(f) 1."""
    t2 = coproduct(f)
    lhs = _linear(lambda pair: product(antipode(pair[0]), pair[1]), t2, AlgebraElement)
    rhs = _linear(lambda pair: product(pair[0], antipode(pair[1])), t2, AlgebraElement)
    expected = AlgebraElement.unit() * counit(f)
    return lhs == expected and rhs == expected


def _suite_hopf(n: int) -> list[dict]:
    rows = []
    small = min(n, DEFAULT_ANTIPODE_DEGREE)  # the antipode law runs at its default guard
    words = _words("T", small)
    moves = _words("T", min(n, 4))
    for label, forests, law, passed in (
        ("coassociativity", words, _coassociative, "%%d forests, degrees 1..%d" % small),
        ("counit", words, _counit_law, "%d forests"),
        ("antipode", words, _antipode_law, "%d forests"),
        ("append-move-compatibility", moves, check_b_operator_coproduct, "%d forests"),
    ):
        bad = [f.text for f in forests if not law(f)]
        rows.append(_row(label, bad, passed % len(forests), "fails on %s"))

    # Products of signature forests are the words over G trees (equal layer
    # by layer through degree 6, the suite's cap); "word-basis" is B.
    for label, selector in (
        ("signature-products", "G"),
        ("word-basis", "T"),
        ("layer-1", "G1"),
        ("layer-2", "G2"),
        ("layer-3", "G3"),
    ):
        basis = _words(selector, n)
        inside = frozenset(basis) | {EMPTY_FOREST}
        failures = _leaks(basis, lambda lea, roo: lea in inside and roo in inside)
        passed = "%d forests, all factors stay inside" % len(basis)
        failed = "%d of %d forests leak, e.g. %s"
        rows.append(_row("factor-closure-" + label, failures, passed, failed, len(basis)))

    # On single trees the branch legs of the reduced coproduct drop one
    # layer while the trunk stays put.  The first layer has no room to drop
    # (1[3[2]] sheds the branch 2[1]), and at word level the coproduct being
    # multiplicative forces whole factors into either leg, so neither of
    # those variants is asserted.
    for i in (2, 3):
        layer, branch = "G%d" % i, frozenset(_words("G%d" % (i - 1), n))
        trees = [
            f
            for d in range(1, n + 1)
            for f in sorted(generate_set(layer, d), key=lambda x: x.text)
            if f.is_tree
        ]
        failures = _leaks(
            trees,
            lambda lea, roo: lea in branch and roo.is_tree and membership(layer, roo),
            "reduced",
        )
        passed = "%d trees, branches drop a layer" % len(trees)
        failed = "%d of %d trees leak, e.g. %s"
        rows.append(_row("branch-refinement-layer-%d" % i, failures, passed, failed, len(trees)))
    return rows


_COUNT_TABLES = (
    "Binfty_trees",
    "Binfty_forests",
    "Binfty_length(1)",
    "Binfty_length(2)",
    "Binfty_length(3)",
    "B0_trees",
    "B0_forests",
    "Bi_trees(1)",
    "Bi_forests(1)",
    "Bi_trees(2)",
    "Bi_forests(2)",
    "Bi_trees(3)",
    "Bi_forests(3)",
    "Bi_trees(4)",
    "Bi_forests(4)",
    "Bi_trees(5)",
    "Bi_forests(5)",
    "Bi_trees(6)",
    "Bi_forests(6)",
    "B_trees",
    "B_forests",
)


def _suite_counts(n: int) -> list[dict]:
    rows = []
    for series_id in _COUNT_TABLES:
        deg = min(n, _ceiling(series_id))
        report = verify_against_enumeration(series_id, deg)
        bad = [
            "degree %(degree)d expected %(expected)d, enumerated %(enumerated)d" % r
            for r in report["rows"]
            if not r["match"]
        ]
        rows.append(_row("table-" + series_id, bad, "degrees 1..%d agree" % deg))

    failures = []
    for k in range(1, n + 1):
        chains = ladders(k)
        expected_sigs = {"+" * i + "-" * (k - i) for i in range(1, k + 1)}
        # a tree is a chain when its rightmost path holds every vertex
        found = {f for f in generate_set("G", k) if f.is_tree and len(rightmost_path(f)) == k}
        sigs = {signature_of(f) for f in found}
        if not (
            len(chains) == k
            and set(chains) == expected_sigs
            and found == {OrderedForest((t,)) for t in chains.values()}
            and sigs == expected_sigs
        ):
            failures.append("degree %d" % k)
    rows.append(_row("chain-census", failures, "degrees 1..%d, one chain per signature" % n))

    cases = [
        (shape, family)
        for k in range(1, min(n, 6) + 1)
        # post-order labelling makes the Bl trees one per plane shape
        for shape in sorted((shape_of(f)[0] for f in generate_set("Bl", k)), key=str)
        for family in ("G", "T")
    ]
    failures = [
        "%s in %s" % case
        for case in cases
        if count_indexings(*case) != oracle_count_indexings(*case)
    ]
    passed = "%d shape/family cases match the oracle" % len(cases)
    failed = "%d of %d cases disagree, e.g. %s"
    rows.append(_row("indexing-counts", failures, passed, failed, len(cases)))
    return rows


def _suite_primtot(n: int) -> list[dict]:
    report = verify_against_enumeration("D_dims", n)
    bad = [
        "degree %(degree)d expected %(expected)d, got %(enumerated)d" % r
        for r in report["rows"]
        if not r["match"]
    ]
    expected = [r["expected"] for r in report["rows"]]
    rows = [_row("kernel-dimensions", bad, "degrees 1..%d match %s" % (n, expected))]

    n_max = 24
    fb = series_coefficients("B_forests", n_max)
    fb[0] = 1
    d = series_coefficients("D_dims", n_max)
    sq = [sum(fb[a] * fb[m - a] for a in range(m + 1)) for m in range(n_max + 1)]
    ok = all(
        sum(d[k] * sq[m - k] for k in range(1, m + 1)) == fb[m] for m in range(1, n_max + 1)
    )
    failures = [] if ok else ["quotient relation broken"]
    passed = "quotient relation holds to degree %d" % n_max
    rows.append(_row("series-quotient", failures, passed))
    return rows


def _suite_closure(n: int) -> list[dict]:
    rows = []
    for label, ops, selector in (
        ("concat+lgraft+rgraft", ("concat", "lgraft", "rgraft"), "T"),
        ("concat+nwarrow", ("concat", "nwarrow"), "Bl"),
        ("concat+lgraft", ("concat", "lgraft"), "Bl"),
    ):
        got = generate_closure(ops, n)
        want = frozenset(_words(selector, n))
        missing = sorted(f.text for f in want - got)[:3] or "-"
        extra = sorted(f.text for f in got - want)[:3] or "-"
        failures = [] if got == want else ["missing %s / extra %s" % (missing, extra)]
        rows.append(_row(label, failures, "%d forests, degrees 1..%d" % (len(got), n)))
    return rows


# Each suite by name: its default degree, its runner, and whether that degree
# is also its cap, the highest degree its rows check (the sweeps have none).
_SUITES = {
    "hopf": (6, _suite_hopf, True),
    "duplicial": (6, _sweep("E1a", "E1b", "E1c"), False),
    "dendriform": (
        5,
        _sweep(
            "E2a", "E2b", "E2c", "E3prec", "E3succ", "E4prec", "E4succ", "DELTASUCC", "DELTAPREC"
        ),
        False,
    ),
    "leftgraft": (6, _sweep("LGa", "LGb"), False),
    "rightgraft": (6, _sweep("RGa", "RGb"), False),
    "bigraft": (6, _sweep("BIGRAFT"), False),
    "counts": (ENUMERATION_MAX_DEGREE, _suite_counts, True),
    "primtot": (_ceiling("D_dims"), _suite_primtot, True),
    "closure": (6, _suite_closure, True),
}

SUITES = tuple(_SUITES)


def run_suite(suite: str, max_degree: int | None = None) -> dict:
    """Run one named suite and collect its rows.

    The result is {"suite", "max_degree", "ok", "rows"} with one row per
    property; "ok" is the conjunction of the rows.
    """
    n = resolve_degree(suite, max_degree)
    rows = _SUITES[suite][1](n)
    return {
        "suite": suite,
        "max_degree": n,
        "ok": all(r["ok"] for r in rows),
        "rows": rows,
    }
