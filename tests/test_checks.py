"""Suite runners: structure, degree resolution, honest failure reporting,
and the pinned boundaries of the coproduct refinement."""

import pytest

from graftwood.algebra import coproduct
from graftwood.checks import DEGREE_ENV_VAR, SUITES, resolve_degree, run_suite
from graftwood.families import membership
from graftwood.forest import OrderedForest, parse_forest, standardize

P = parse_forest


def word_blocks(forest):
    """Standardized label-contiguous blocks, or None if the forest is not a
    word of blocks."""
    out = []
    offset = 0
    for t in forest.trees:
        labels = sorted(t.labels())
        if labels != list(range(offset + 1, offset + t.degree + 1)):
            return None
        out.append(standardize(OrderedForest((t,))))
        offset += t.degree
    return out


def is_word_over(selector, forest):
    blocks = word_blocks(forest)
    if blocks is None:
        return False
    return all(membership(selector, b) for b in blocks)


# --- plumbing -------------------------------------------------------------------


def test_suites_listing():
    assert SUITES == (
        "hopf",
        "duplicial",
        "dendriform",
        "leftgraft",
        "rightgraft",
        "bigraft",
        "counts",
        "primtot",
        "closure",
    )


def test_resolve_degree_precedence(monkeypatch):
    monkeypatch.delenv(DEGREE_ENV_VAR, raising=False)
    assert resolve_degree("hopf") == 6
    assert resolve_degree("dendriform") == 5
    assert resolve_degree("counts") == 8
    monkeypatch.setenv(DEGREE_ENV_VAR, "3")
    assert resolve_degree("hopf") == 3
    assert resolve_degree("hopf", 4) == 4
    monkeypatch.setenv(DEGREE_ENV_VAR, "many")
    with pytest.raises(ValueError):
        resolve_degree("hopf")


def test_resolve_degree_rejects(monkeypatch):
    monkeypatch.delenv(DEGREE_ENV_VAR, raising=False)
    with pytest.raises(ValueError):
        resolve_degree("sideways")
    with pytest.raises(ValueError):
        resolve_degree("hopf", 0)


def test_resolve_degree_caps(monkeypatch):
    monkeypatch.delenv(DEGREE_ENV_VAR, raising=False)
    for suite, cap in (("hopf", 6), ("counts", 8), ("primtot", 5), ("closure", 6)):
        assert resolve_degree(suite) == resolve_degree(suite, cap) == cap
        with pytest.raises(ValueError, match="cap of %d" % cap):
            resolve_degree(suite, cap + 1)
    # the sweeps have no cap; their universes grow with the bound
    assert resolve_degree("bigraft", 9) == 9
    monkeypatch.setenv(DEGREE_ENV_VAR, "6")
    assert resolve_degree("hopf") == 6
    with pytest.raises(ValueError, match="cap of 5"):
        resolve_degree("primtot")


def test_run_suite_structure():
    r = run_suite("bigraft", 4)
    assert r["suite"] == "bigraft"
    assert r["max_degree"] == 4
    assert r["ok"] is True
    assert [row["label"] for row in r["rows"]] == ["BIGRAFT"]
    assert set(r["rows"][0]) == {"label", "ok", "detail"}


# --- the suites at desk scale -----------------------------------------------------


def test_triple_identity_suites_pass():
    for suite in ("duplicial", "leftgraft", "rightgraft"):
        r = run_suite(suite, 4)
        assert r["ok"], r


def test_hopf_suite_passes_at_default_degrees():
    r = run_suite("hopf")
    assert r["ok"], [row for row in r["rows"] if not row["ok"]]
    labels = [row["label"] for row in r["rows"]]
    assert "coassociativity" in labels
    assert "factor-closure-signature-products" in labels
    assert "factor-closure-word-basis" in labels
    assert "branch-refinement-layer-2" in labels
    assert "branch-refinement-layer-3" in labels


def test_dendriform_suite_reports_the_false_compatibility():
    r = run_suite("dendriform")
    assert r["ok"] is False
    by = {row["label"]: row for row in r["rows"]}
    for name in ("E2a", "E2b", "E2c", "E3prec", "E3succ", "E4prec", "E4succ", "DELTASUCC"):
        assert by[name]["ok"], name
    bad = by["DELTAPREC"]
    assert bad["ok"] is False
    assert bad["detail"].startswith("58 of 194 cases fail")
    assert "(1, 1[2])" in bad["detail"]


def test_counts_suite_small():
    r = run_suite("counts", 4)
    assert r["ok"], [row for row in r["rows"] if not row["ok"]]
    labels = [row["label"] for row in r["rows"]]
    assert "table-Binfty_forests" in labels
    assert "table-B_forests" in labels
    assert "chain-census" in labels
    assert "indexing-counts" in labels


def test_primtot_and_closure_suites_small():
    assert run_suite("primtot", 3)["ok"]
    assert run_suite("closure", 4)["ok"]


# --- refinement boundary, pinned case by case -------------------------------------


def test_branches_drop_a_layer_on_second_layer_trees():
    f = P("4[3[1[2]]]")
    assert membership("G2", f)
    legs = list(coproduct(f, "reduced").terms)
    for lea, roo in legs:
        assert is_word_over("G1", lea), lea.text
        assert roo.is_tree and membership("G2", roo), roo.text


def test_trunk_side_reading_fails_on_trees():
    # the deepest-leaf cut of the same tree leaves a trunk outside the
    # first layer, so the containment cannot hold with the legs swapped
    f = P("4[3[1[2]]]")
    legs = {(lea.text, roo.text) for lea, roo in coproduct(f, "reduced").terms}
    assert ("1", "3[2[1]]") in legs
    assert not is_word_over("G1", P("3[2[1]]"))


def test_branch_refinement_fails_at_layer_one():
    f = P("1[3[2]]")
    assert membership("G1", f)
    legs = {(lea.text, roo.text) for lea, roo in coproduct(f, "reduced").terms}
    assert ("2[1]", "1") in legs
    assert not is_word_over("G0", P("2[1]"))


def test_no_refinement_at_word_level():
    # the coproduct is multiplicative, so cutting out a whole factor puts a
    # bare second-layer tree into the trunk leg
    w = P("1 3[2 4]")
    assert is_word_over("G2", w)
    legs = {(lea.text, roo.text) for lea, roo in coproduct(w, "reduced").terms}
    assert ("1", "2[1 3]") in legs
    assert membership("G2", P("2[1 3]"))
    assert not is_word_over("G1", P("2[1 3]"))
