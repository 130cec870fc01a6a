"""Every degree bound from one table.

Each public entry that bounds a degree refuses the degree past either end of
its range with one ``ValueError`` shape, ``<what> takes degrees <low>..<top>,
got <n>``, accepts its top, and refuses before it does any work.  The CLI
reports the same message on stderr and exits 2.
"""

import re

import pytest

from graftwood import (
    antipode,
    generate_closure,
    generate_set,
    generate_words,
    oracle_count_indexings,
    parse_forest,
    parse_plane_tree,
    prim_tot_dimension,
    resolve_degree,
    series_coefficients,
    verify_against_enumeration,
)
from graftwood.cli import execute


def _row(n):
    """The forest of n isolated vertices, () for n = 0."""
    return parse_forest(" ".join(map(str, range(1, n + 1))) or "()")


def _chain(n):
    """The chain shape with n vertices."""
    return parse_plane_tree("0" + "[0" * (n - 1) + "]" * (n - 1))


ANTIPODE = "antipode (max_degree raises the bound)"
PRIMTOT = "prim_tot_dimension (max_degree raises the bound)"

# id -> (the call at degree n, low, top, what the message names)
BOUNDS = {
    "generate_set": (lambda n: generate_set("Bl", n), 1, 8, "set Bl"),
    "generate_set-T": (lambda n: generate_set("T", n), 1, 8, "set T"),
    "generate_words": (lambda n: generate_words("Bl", n), 0, 8, "words over Bl"),
    "oracle": (lambda n: oracle_count_indexings(_chain(n), "T"), 1, 8, "oracle"),
    "antipode": (lambda n: antipode(_row(n)), 0, 5, ANTIPODE),
    "antipode-raised": (lambda n: antipode(_row(n), max_degree=7), 0, 7, ANTIPODE),
    "prim_tot_dimension": (prim_tot_dimension, 1, 5, PRIMTOT),
    "prim_tot_dimension-lowered": (lambda n: prim_tot_dimension(n, 3), 1, 3, PRIMTOT),
    "generate_closure": (lambda n: generate_closure(("concat",), n), 1, 7, "closure"),
    "series_coefficients": (lambda n: series_coefficients("B_trees", n), 1, 64, "table B_trees"),
    **{
        "verify-" + table: (
            lambda n, table=table: verify_against_enumeration(table, n),
            1,
            top,
            "enumeration of " + table,
        )
        for table, top in (
            ("Binfty_forests", 8),
            ("Binfty_length(2)", 8),
            ("Bi_trees(3)", 8),
            ("B0_forests", 8),
            ("B_trees", 7),
            ("B_forests", 7),
            ("D_dims", 5),
        )
    },
    **{
        "suite-" + suite: (lambda n, suite=suite: resolve_degree(suite, n), 1, top, "suite " + suite)
        for suite, top in (
            ("hopf", 6),
            ("duplicial", 10),
            ("dendriform", 8),
            ("leftgraft", 10),
            ("rightgraft", 10),
            ("bigraft", 10),
            ("counts", 8),
            ("primtot", 5),
            ("closure", 6),
        )
    },
}

# no forest has a negative degree and no shape degree 0, so the antipode and
# the oracle cannot be called below their low ends
LOW_ENDS = [key for key in BOUNDS if not key.startswith(("antipode", "oracle"))]


def _message(what, low, top, n):
    return "%s takes degrees %d..%d, got %d" % (what, low, top, n)


@pytest.mark.parametrize("key", BOUNDS)
def test_past_the_top_is_refused_with_the_one_message(key):
    call, low, top, what = BOUNDS[key]
    with pytest.raises(ValueError, match="^%s$" % re.escape(_message(what, low, top, top + 1))):
        call(top + 1)


@pytest.mark.parametrize("key", LOW_ENDS)
def test_below_the_low_end_is_refused_with_the_one_message(key):
    call, low, top, what = BOUNDS[key]
    with pytest.raises(ValueError, match="^%s$" % re.escape(_message(what, low, top, low - 1))):
        call(low - 1)


@pytest.mark.parametrize("key", BOUNDS)
def test_both_ends_are_accepted(key):
    call, low, top, _ = BOUNDS[key]
    call(top)
    call(low)


# argv -> the message it exits 2 with
CLI_REFUSALS = {
    ("enumerate", "--set", "T", "--degree", "9"): _message("set T", 1, 8, 9),
    ("enumerate", "--set", "G2", "--degree", "0"): _message("set G2", 1, 8, 0),
    ("indexings", "--oracle", "0" + "[0" * 8 + "]" * 8): _message("oracle", 1, 8, 9),
    ("count", "--table", "B_trees", "--max", "65"): _message("table B_trees", 1, 64, 65),
    ("count", "--table", "D_dims", "--max", "0"): _message("table D_dims", 1, 64, 0),
    ("count", "--table", "B_trees", "--max", "8", "--verify"):
        _message("enumeration of B_trees", 1, 7, 8),
    ("count", "--table", "D_dims", "--max", "6", "--verify"):
        _message("enumeration of D_dims", 1, 5, 6),
    ("count", "--table", "Binfty_forests", "--max", "9", "--verify"):
        _message("enumeration of Binfty_forests", 1, 8, 9),
    ("check", "--suite", "hopf", "--max-degree", "0"): _message("suite hopf", 1, 6, 0),
    ("check", "--suite", "dendriform", "--max-degree", "9"): _message("suite dendriform", 1, 8, 9),
    ("check", "--suite", "bigraft", "--max-degree", "11"): _message("suite bigraft", 1, 10, 11),
    ("check", "--suite", "primtot", "--max-degree", "6"): _message("suite primtot", 1, 5, 6),
}


@pytest.mark.parametrize("argv", CLI_REFUSALS, ids=" ".join)
@pytest.mark.parametrize("json", [(), ("--json",)], ids=["plain", "json"])
def test_cli_exits_two_with_the_message(capsys, argv, json):
    code = execute([*json, *argv])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: %s\n" % CLI_REFUSALS[argv])


REFUSE_THEN_COUNT = """
import graftwood
from graftwood import families

for call in (lambda: graftwood.run_suite("bigraft", 11),
             lambda: graftwood.generate_words("T", 9),
             lambda: graftwood.run_suite("dendriform", 9)):
    try:
        call()
    except ValueError:
        pass
    else:
        raise SystemExit("accepted")
print(families._words_over.cache_info().currsize, families._tree_layer.cache_info().currsize)
"""


def test_a_refusal_does_no_work(fresh_python):
    done = fresh_python(["-c", REFUSE_THEN_COUNT])
    assert (done.returncode, done.stdout, done.stderr) == (0, b"0 0\n", b"")
