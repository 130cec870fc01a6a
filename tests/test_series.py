"""Coefficient tables: frozen rows, closed forms, recurrence identities,
and the enumeration cross-checks."""

import math
from collections import Counter
from functools import lru_cache

import pytest

from graftwood.series import (
    MAX_SERIES_DEGREE,
    SERIES_IDS,
    parse_series_id,
    series_coefficients,
    verify_against_enumeration,
)


def row(series_id, n_max=8):
    table = series_coefficients(series_id, n_max)
    return [table[n] for n in range(1, n_max + 1)]


# --- frozen tables ------------------------------------------------------------

FROZEN = {
    "Binfty_trees": [1, 2, 6, 20, 70, 252, 924, 3432],
    "Binfty_forests": [1, 3, 10, 35, 126, 462, 1716, 6435],
    "B0_trees": [1, 1, 2, 5, 14, 42, 132, 429],
    "B0_forests": [1, 2, 5, 14, 42, 132, 429, 1430],
    "Bi_trees(1)": [1, 2, 4, 10, 28, 84, 264, 858],
    "Bi_forests(1)": [1, 3, 9, 29, 97, 333, 1165, 4135],
    "Bi_trees(2)": [1, 2, 6, 14, 38, 112, 348, 1122],
    "Bi_forests(2)": [1, 3, 11, 37, 129, 461, 1669, 6107],
    "Bi_trees(3)": [1, 2, 6, 20, 50, 142, 432, 1374],
    "Bi_forests(3)": [1, 3, 11, 43, 153, 557, 2065, 7739],
    "Bi_trees(4)": [1, 2, 6, 20, 70, 182, 532, 1654],
    "Bi_forests(4)": [1, 3, 11, 43, 173, 637, 2385, 9059],
    "Bi_trees(5)": [1, 2, 6, 20, 70, 252, 672, 2004],
    "Bi_forests(5)": [1, 3, 11, 43, 173, 707, 2665, 10179],
    "Bi_trees(6)": [1, 2, 6, 20, 70, 252, 924, 2508],
    "Bi_forests(6)": [1, 3, 11, 43, 173, 707, 2917, 11187],
    "B_trees": [1, 2, 6, 22, 90, 394, 1806, 8558],
    "B_forests": [1, 3, 11, 45, 197, 903, 4279, 20793],
    "D_dims": [1, 1, 2, 6, 22, 90, 394, 1806],
}


@pytest.mark.parametrize("series_id", sorted(FROZEN))
def test_frozen_rows(series_id):
    assert row(series_id) == FROZEN[series_id]


def test_length_rows_frozen():
    assert row("Binfty_length(1)") == FROZEN["Binfty_trees"]
    assert row("Binfty_length(2)") == [0, 1, 3, 10, 35, 126, 462, 1716]
    assert row("Binfty_length(3)") == [0, 0, 1, 4, 15, 56, 210, 792]
    assert row("Binfty_length(8)") == [0, 0, 0, 0, 0, 0, 0, 1]


# --- closed forms (central binomials), exercised to the degree ceiling --------


def test_tree_count_closed_form():
    table = series_coefficients("Binfty_trees", MAX_SERIES_DEGREE)
    for k in range(1, MAX_SERIES_DEGREE + 1):
        assert table[k] == math.comb(2 * k - 2, k - 1)


def test_forest_count_closed_form():
    table = series_coefficients("Binfty_forests", MAX_SERIES_DEGREE)
    for k in range(1, MAX_SERIES_DEGREE + 1):
        assert table[k] == math.factorial(2 * k) // (2 * math.factorial(k) ** 2)


def test_catalan_closed_form():
    trees = series_coefficients("B0_trees", 20)
    forests = series_coefficients("B0_forests", 20)
    for k in range(1, 21):
        assert forests[k] == math.comb(2 * k, k) // (k + 1)
        assert trees[k] == math.comb(2 * k - 2, k - 1) // k


# --- recurrence identities across tables --------------------------------------


def test_trees_are_twice_shorter_forests():
    trees = series_coefficients("Binfty_trees", MAX_SERIES_DEGREE)
    forests = series_coefficients("Binfty_forests", MAX_SERIES_DEGREE)
    for n in range(2, MAX_SERIES_DEGREE + 1):
        assert trees[n] == 2 * forests[n - 1]


def test_length_columns_vanish_below_their_index():
    for k in (2, 5, 9, 17):
        table = series_coefficients("Binfty_length(%d)" % k, 24)
        for n in range(1, min(k, 25)):
            assert table[n] == 0
        if k <= 24:
            assert table[k] == 1


def test_length_columns_sum_to_forests():
    n_max = 24
    forests = series_coefficients("Binfty_forests", n_max)
    columns = [series_coefficients("Binfty_length(%d)" % k, n_max) for k in range(1, n_max + 1)]
    for n in range(1, n_max + 1):
        assert sum(col[n] for col in columns) == forests[n]


def test_length_three_term_difference():
    # Consecutive columns satisfy next = current - shift(previous), the
    # coefficient form of the three-term relation between them.
    n_max = 24
    cols = {k: series_coefficients("Binfty_length(%d)" % k, n_max) for k in range(1, n_max + 1)}
    for l in range(1, n_max - 1):
        for n in range(2, n_max + 1):
            assert cols[l + 2][n] == cols[l + 1][n] - cols[l][n - 1], (l, n)


def test_layered_trees_agree_with_unrestricted_up_to_depth():
    binf = series_coefficients("Binfty_trees", 32)
    for i in range(1, 9):
        table = series_coefficients("Bi_trees(%d)" % i, 32)
        for k in range(1, i + 2):
            assert table[k] == binf[k]
        assert table[i + 2] != binf[i + 2]


def test_first_layer_trees_double_catalan():
    trees = series_coefficients("Bi_trees(1)", 32)
    cat = series_coefficients("B0_forests", 32)
    for k in range(2, 33):
        assert trees[k] == 2 * cat[k - 1]


def test_wrap_trees_double_shorter_words():
    trees = series_coefficients("B_trees", 32)
    forests = series_coefficients("B_forests", 32)
    for k in range(2, 33):
        assert trees[k] == 2 * forests[k - 1]


def test_wrap_trees_quadratic_relation():
    # T^2 + (x - 1) T + x = 0 coefficientwise, with T having no constant term.
    n_max = 32
    t = series_coefficients("B_trees", n_max)
    t[0] = 0
    for n in range(1, n_max + 1):
        conv = sum(t[a] * t[n - a] for a in range(n + 1))
        linear = t[n - 1] - t[n] + (1 if n == 1 else 0)
        assert conv + linear == 0, n


def test_kernel_dims_shift_the_wrap_trees():
    d = series_coefficients("D_dims", 32)
    t = series_coefficients("B_trees", 32)
    assert d[1] == 1
    for k in range(2, 33):
        assert d[k] == t[k - 1]


def test_wrap_trees_are_the_large_schroeder_numbers():
    # OEIS A006318: (m + 1) S(m) = 3 (2m - 1) S(m - 1) - (m - 2) S(m - 2)
    s = [1, 2]
    for m in range(2, MAX_SERIES_DEGREE):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    t = series_coefficients("B_trees", MAX_SERIES_DEGREE)
    d = series_coefficients("D_dims", MAX_SERIES_DEGREE)
    for n in range(1, MAX_SERIES_DEGREE + 1):
        assert t[n] == s[n - 1], n
    for n in range(2, MAX_SERIES_DEGREE + 1):
        assert d[n] == s[n - 2], n


def test_kernel_dims_defining_quotient():
    # f_D * (1 + f_B)^2 == f_B coefficientwise in positive degrees; the table
    # is built from B_trees alone, so this checks the relation, not a restatement.
    n_max = MAX_SERIES_DEGREE
    fb = series_coefficients("B_forests", n_max)
    fb[0] = 1
    d = series_coefficients("D_dims", n_max)
    d[0] = 0
    sq = [sum(fb[a] * fb[m - a] for a in range(m + 1)) for m in range(n_max + 1)]
    for n in range(1, n_max + 1):
        assert sum(d[k] * sq[n - k] for k in range(n + 1)) == fb[n]


def test_deep_layers_reduce_to_unrestricted():
    binf = row("Binfty_trees")
    assert row("Bi_trees(7)") == binf
    assert row("Bi_trees(40)") == binf


# --- id parsing and argument guards -------------------------------------------


def test_parse_series_id():
    assert parse_series_id("B_trees") == ("B_trees", None)
    assert parse_series_id("Binfty_length(3)") == ("Binfty_length", 3)
    assert parse_series_id("Bi_forests(12)") == ("Bi_forests", 12)


@pytest.mark.parametrize(
    "bad",
    ["", "b_trees", "Bi_trees", "Bi_trees()", "Bi_trees(0)", "Bi_trees(-1)", "D_dims(2)", "Binfty_length(x)"],
)
def test_parse_series_id_rejects(bad):
    with pytest.raises(ValueError):
        parse_series_id(bad)


def test_series_ids_listing_covers_every_shape():
    assert "B_trees" in SERIES_IDS and "Bi_forests(i)" in SERIES_IDS
    assert len(SERIES_IDS) == 10


def test_degree_bounds():
    with pytest.raises(ValueError):
        series_coefficients("B_trees", 0)
    with pytest.raises(ValueError):
        series_coefficients("B_trees", MAX_SERIES_DEGREE + 1)
    assert len(series_coefficients("B_trees", 1)) == 1


# --- enumeration cross-checks --------------------------------------------------


@pytest.mark.parametrize(
    "series_id,n_max",
    [
        ("Binfty_forests", 6),
        ("Binfty_trees", 6),
        ("Binfty_length(1)", 6),
        ("Binfty_length(3)", 6),
        ("B0_trees", 6),
        ("B0_forests", 6),
        ("Bi_trees(1)", 6),
        ("Bi_trees(2)", 6),
        ("Bi_forests(1)", 6),
        ("Bi_forests(3)", 6),
        ("B_trees", 5),
        ("B_forests", 5),
        ("D_dims", 4),
    ],
)
def test_verification_reports_agree(series_id, n_max):
    report = verify_against_enumeration(series_id, n_max)
    assert report["ok"] is True
    assert report["id"] == series_id
    assert [r["degree"] for r in report["rows"]] == list(range(1, n_max + 1))
    for r in report["rows"]:
        assert r["expected"] == r["enumerated"]
        assert r["match"] is True


def test_verification_row_values_are_plain_ints():
    report = verify_against_enumeration("Binfty_forests", 4)
    assert [r["enumerated"] for r in report["rows"]] == [1, 3, 10, 35]


def test_verification_degree_ceilings():
    with pytest.raises(ValueError):
        verify_against_enumeration("B_trees", 8)
    with pytest.raises(ValueError):
        verify_against_enumeration("D_dims", 6)
    with pytest.raises(ValueError):
        verify_against_enumeration("Binfty_forests", 9)


# --- the G tables past the enumeration ceiling ---------------------------------
#
# A shape is a nested tuple: a tree is the tuple of its children, a forest the
# tuple of its trees.  The labellings of a shape in G (in G0) are its complete
# peel sequences, undoing one move per step with the top label.


@lru_cache(maxsize=None)
def _shape_forests(n):
    """Every plane forest with n vertices."""
    if n == 0:
        return ((),)
    return tuple(
        (kids,) + rest
        for k in range(1, n + 1)
        for kids in _shape_forests(k - 1)
        for rest in _shape_forests(n - k)
    )


@lru_cache(maxsize=None)
def _peels(forest, minus):
    """Complete peel sequences of a shape forest.  "-" (when allowed) unwraps
    a lone tree; "+" drops a bare last tree, or unhangs the last child of the
    last root, whose children become the last trees."""
    if forest == ((),):
        return 1
    last = forest[-1]
    count = _peels(last, minus) if minus and len(forest) == 1 else 0
    if last:
        return count + _peels(forest[:-1] + (last[:-1],) + last[-1], minus)
    return count + _peels(forest[:-1], minus)


def test_g_tables_match_the_shape_peel_count_past_the_enumeration_ceiling():
    n_max = 10
    tables = {
        series_id: series_coefficients(series_id, n_max)
        for series_id in (
            "Binfty_forests",
            "Binfty_trees",
            "Binfty_length(1)",
            "Binfty_length(2)",
            "Binfty_length(3)",
            "B0_forests",
            "B0_trees",
        )
    }
    for n in range(1, n_max + 1):
        # labellings by the number of trees, with and without the "-" move
        g, g0 = Counter(), Counter()
        for forest in _shape_forests(n):
            g[len(forest)] += _peels(forest, True)
            g0[len(forest)] += _peels(forest, False)
        counted = {
            "Binfty_forests": sum(g.values()),
            "Binfty_trees": g[1],
            "Binfty_length(1)": g[1],
            "Binfty_length(2)": g[2],
            "Binfty_length(3)": g[3],
            "B0_forests": sum(g0.values()),
            "B0_trees": g0[1],
        }
        for series_id, table in tables.items():
            assert table[n] == counted[series_id], (series_id, n)
