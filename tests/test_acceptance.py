"""Gate checks: one test per shipped guarantee, all assertions exact.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per guarantee.  The optional degree-8 enumeration row is enabled with
``GRAFTWOOD_DEGREE8=1``.
"""

import os
import time

import pytest

from graftwood.checks import run_suite
from graftwood.families import (
    count_indexings,
    generate_set,
    generate_words,
    ladders,
    membership,
    oracle_count_indexings,
    signature_of,
)
from graftwood.forest import (
    OrderedForest,
    concat,
    lgraft_basis,
    parse_forest,
    rgraft_basis,
    shape_of,
)
from graftwood.algebra import prim_tot_dimension
from graftwood.grafts import generate_closure
from graftwood.series import series_coefficients

P = parse_forest

G_FORESTS = [1, 3, 10, 35, 126, 462, 1716, 6435]
G_TREES = [1, 2, 6, 20, 70, 252, 924, 3432]

LAYER_TREES = {
    0: [1, 1, 2, 5, 14, 42, 132, 429],
    1: [1, 2, 4, 10, 28, 84, 264, 858],
    2: [1, 2, 6, 14, 38, 112, 348, 1122],
    3: [1, 2, 6, 20, 50, 142, 432, 1374],
    4: [1, 2, 6, 20, 70, 182, 532, 1654],
    5: [1, 2, 6, 20, 70, 252, 672, 2004],
    6: [1, 2, 6, 20, 70, 252, 924, 2508],
}
LAYER_FORESTS = {
    0: [1, 2, 5, 14, 42, 132, 429, 1430],
    1: [1, 3, 9, 29, 97, 333, 1165, 4135],
    2: [1, 3, 11, 37, 129, 461, 1669, 6107],
    3: [1, 3, 11, 43, 153, 557, 2065, 7739],
    4: [1, 3, 11, 43, 173, 637, 2385, 9059],
    5: [1, 3, 11, 43, 173, 707, 2665, 10179],
    6: [1, 3, 11, 43, 173, 707, 2917, 11187],
}

T_TREES = [1, 2, 6, 22, 90, 394, 1806]
T_WORDS = [1, 3, 11, 45, 197, 903, 4279]


@pytest.fixture(scope="module")
def hopf_run():
    """Shared degree-6 closure/coalgebra sweep; checks 6 and 7 read
    different rows of it."""
    start = time.perf_counter()
    result = run_suite("hopf", 6)
    return result, time.perf_counter() - start


def test_criterion_01_signature_family_counts():
    start = time.perf_counter()
    forests = [len(generate_set("G", n)) for n in range(1, 9)]
    trees = [
        sum(1 for f in generate_set("G", n) if f.is_tree) for n in range(1, 9)
    ]
    elapsed = time.perf_counter() - start
    assert forests == G_FORESTS
    assert trees == G_TREES
    assert elapsed < 30.0


def test_criterion_02_layer_counts():
    start = time.perf_counter()
    for i in range(0, 7):
        sel = "G%d" % i
        trees = [
            sum(1 for f in generate_set(sel, n) if f.is_tree)
            for n in range(1, 9)
        ]
        words = [len(generate_words(sel, n)) for n in range(1, 9)]
        assert trees == LAYER_TREES[i], sel
        assert words == LAYER_FORESTS[i], sel
    assert time.perf_counter() - start < 60.0


def test_criterion_03_free_family_counts():
    trees = [len(generate_set("T", n)) for n in range(1, 8)]
    words = [len(generate_words("T", n)) for n in range(1, 8)]
    assert trees == T_TREES
    assert words == T_WORDS


@pytest.mark.skipif(
    os.environ.get("GRAFTWOOD_DEGREE8") != "1",
    reason="set GRAFTWOOD_DEGREE8=1 to enumerate the degree-8 row",
)
def test_criterion_03_optional_degree_eight():
    assert len(generate_set("T", 8)) == 8558
    assert len(generate_words("T", 8)) == 20793


def test_criterion_04_indexing_formulas_match_oracle():
    start = time.perf_counter()
    shapes_at_seven = 0
    for n in range(1, 8):
        # post-order labelling makes the Bl trees one per plane shape
        for shape in (shape_of(f)[0] for f in generate_set("Bl", n)):
            if n == 7:
                shapes_at_seven += 1
            for family in ("G", "T"):
                expected = oracle_count_indexings(shape, family)
                got = count_indexings(shape, family)
                assert got == expected, (str(shape), family, got, expected)
    elapsed = time.perf_counter() - start
    assert shapes_at_seven == 132
    assert elapsed < 120.0


def test_criterion_05_one_ladder_per_signature():
    for n in range(1, 9):
        rungs = ladders(n)
        assert len(rungs) == n
        assert set(rungs) == {"+" * i + "-" * (n - i) for i in range(1, n + 1)}
        as_forests = {
            sig: OrderedForest((tree,)) for sig, tree in rungs.items()
        }
        for sig, forest in as_forests.items():
            assert signature_of(forest) == sig
        # census against the full enumeration: the ladders are exactly the
        # chain-shaped members, one per signature
        chains = {f for f in generate_set("G", n) if _is_chain(f)}
        assert chains == set(as_forests.values())


def _is_chain(forest):
    if not forest.is_tree:
        return False
    node = forest.trees[0]
    while node.children:
        if len(node.children) != 1:
            return False
        node = node.children[0]
    return True


def test_criterion_06_coproduct_factor_closure(hopf_run):
    result, _ = hopf_run
    assert result["max_degree"] == 6
    by = {row["label"]: row for row in result["rows"]}
    closure_rows = [
        "factor-closure-signature-products",
        "factor-closure-word-basis",
        "factor-closure-layer-1",
        "factor-closure-layer-2",
        "factor-closure-layer-3",
        "branch-refinement-layer-2",
        "branch-refinement-layer-3",
    ]
    violations = [
        "%s (%s)" % (label, by[label]["detail"])
        for label in closure_rows
        if not by[label]["ok"]
    ]
    assert violations == [], "closure violations: " + "; ".join(violations)


def test_criterion_07_axiom_suites(hopf_run):
    hopf_result, hopf_elapsed = hopf_run
    start = time.perf_counter()
    rows = []
    for suite, degree in [
        ("duplicial", 6),
        ("leftgraft", 6),
        ("rightgraft", 6),
        ("bigraft", 6),
        ("dendriform", 5),
    ]:
        result = run_suite(suite, degree)
        rows += [(suite, row) for row in result["rows"]]
    rows += [
        ("hopf", row)
        for row in hopf_result["rows"]
        if row["label"] in ("coassociativity", "counit", "antipode")
    ]
    elapsed = time.perf_counter() - start + hopf_elapsed
    assert elapsed < 600.0
    violations = [
        "%s %s (%s)" % (suite, row["label"], row["detail"])
        for suite, row in rows
        if not row["ok"]
    ]
    assert violations == [], "axiom violations: " + "; ".join(violations)


def test_criterion_08_totally_primitive_dimensions():
    dims = [prim_tot_dimension(n) for n in range(1, 6)]
    assert dims == [1, 1, 2, 6, 22]
    table = series_coefficients("D_dims", 24)
    assert [table[n] for n in range(1, 6)] == dims
    # series quotient: dims * words^2 == words - 1, coefficientwise
    fb = {0: 1, **series_coefficients("B_forests", 24)}
    fd = {0: 0, **table}
    fb2 = {m: sum(fb[a] * fb[m - a] for a in range(m + 1)) for m in range(25)}
    for m in range(25):
        lhs = sum(fd[k] * fb2[m - k] for k in range(m + 1))
        assert lhs == fb[m] - (1 if m == 0 else 0), m


def test_criterion_09_generated_closures():
    t_words = frozenset(f for n in range(1, 7) for f in generate_words("T", n))
    assert generate_closure(("concat", "lgraft", "rgraft"), 6) == t_words
    bl_words = frozenset(f for n in range(1, 7) for f in generate_words("Bl", n))
    assert generate_closure(("concat", "nwarrow"), 6) == bl_words
    assert generate_closure(("concat", "lgraft"), 6) == bl_words


def test_criterion_10_structure_witnesses():
    one = P("1")
    # neither one-sided graft is associative
    assert lgraft_basis(lgraft_basis(one, one), one) == P("3[2[1]]")
    assert lgraft_basis(one, lgraft_basis(one, one)) == P("3[1 2]")
    assert rgraft_basis(rgraft_basis(one, one), one) == P("1[2 3]")
    assert rgraft_basis(one, rgraft_basis(one, one)) == P("1[3[2]]")
    # two distinct operation words land on the same forest, so the single
    # vertex does not generate freely under the pair of grafts
    assert rgraft_basis(one, rgraft_basis(one, one)) == rgraft_basis(
        one, lgraft_basis(one, one)
    )
    # the signature family is not closed under its own product
    assert membership("G", P("1[2]"))
    assert membership("G", P("2[1]"))
    assert not membership("G", concat(P("1[2]"), P("2[1]")))
