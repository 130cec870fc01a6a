"""Span arithmetic, the cut coproduct and variants, antipode, primitives."""

import copy
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftwood import algebra
from graftwood.algebra import (
    COPRODUCT_VARIANTS,
    AlgebraElement,
    Tensor2Element,
    _sparse_rank,
    antipode,
    check_b_operator_coproduct,
    coproduct,
    counit,
    expand_left,
    expand_right,
    prim_tot_dimension,
    product,
)
from graftwood.families import generate_set, generate_words, is_basis_forest
from graftwood.forest import (
    EMPTY_FOREST,
    OrderedForest,
    admissible_cuts,
    blocks,
    cut_split,
    parse_forest,
    rightmost_path,
)

P = parse_forest


def elem(*pairs) -> AlgebraElement:
    return AlgebraElement({P(text): Fraction(c) for text, c in pairs})


def tensor(*triples) -> Tensor2Element:
    return Tensor2Element({(P(a), P(b)): Fraction(c) for a, b, c in triples})


def small_forests(max_degree):
    out = [EMPTY_FOREST]
    for n in range(1, max_degree + 1):
        out.extend(sorted(generate_set("G", n) | generate_words("T", n),
                          key=lambda f: f.text))
    return out


def labelled_forests(max_degree):
    """Every labelled plane forest of degree 1..max_degree, words or not: each
    plane forest takes every order of the labels on its vertices in preorder."""

    def templates(n):  # the plane forests of n vertices, "{}" for each label
        if n == 0:
            return [""]
        return [
            ("{}[%s]" % kids if kids else "{}") + (" " + rest if rest else "")
            for k in range(1, n + 1)
            for kids in templates(k - 1)
            for rest in templates(n - k)
        ]

    return [
        P(t.format(*labels))
        for n in range(1, max_degree + 1)
        for t in templates(n)
        for labels in itertools.permutations(range(1, n + 1))
    ]


def basis_forests(max_degree, include_unit=False):
    out = [EMPTY_FOREST] if include_unit else []
    for n in range(1, max_degree + 1):
        out.extend(sorted(generate_words("T", n), key=lambda f: f.text))
    return out


# --- element arithmetic -------------------------------------------------------


def test_element_basics():
    a = elem(("1[2]", 2), ("1 2", -1))
    b = elem(("1 2", 1))
    assert (a + b) == elem(("1[2]", 2))
    assert (a - a).is_zero
    assert (3 * b) == elem(("1 2", 3))
    assert AlgebraElement.unit().terms == {EMPTY_FOREST: 1}
    assert repr(AlgebraElement.zero()) == "0"


def test_sums_take_only_the_same_type():
    f = P("1[2]")
    x = AlgebraElement.of(f, 3) + AlgebraElement.of(P("1 2"), -1)
    for other in (Tensor2Element.of(f, f), 1):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x - other
    assert x - x == AlgebraElement.zero()
    assert coproduct(f) - coproduct(f) == Tensor2Element.zero()


def test_product_concatenates_and_shifts():
    assert product(P("1[2]"), P("2[1]")) == elem(("1[2] 4[3]", 1))
    assert product(P("1"), P("1")) == elem(("1 2", 1))
    a = elem(("1", 2))
    assert product(a, a) == elem(("1 2", 4))
    assert product(AlgebraElement.unit(), a) == a


def test_product_is_associative_small():
    forests = [EMPTY_FOREST, P("1"), P("1 2"), P("1[2]"), P("2[1]")]
    for x in forests:
        for y in forests:
            for z in forests:
                assert product(product(x, y), z) == product(x, product(y, z))


def test_counit():
    assert counit(AlgebraElement.unit()) == 1
    assert counit(P("1[2]")) == 0
    assert counit(elem(("1", 5)) + 2 * AlgebraElement.unit()) == 2


# --- coefficients and printed forms ---------------------------------------------


def test_coefficients_from_integer_inputs_are_int():
    for n in range(1, 5):
        for f in generate_set("G", n):
            for variant in COPRODUCT_VARIANTS:
                for c in coproduct(f, variant).terms.values():
                    assert type(c) is int, (f.text, variant, c)
    for n in range(6):
        for f in generate_words("T", n):
            for c in antipode(f).terms.values():
                assert type(c) is int, (f.text, c)


def test_non_integer_scalars_stay_exact():
    f = P("1[2]")
    assert AlgebraElement.of(f, 0.5).terms[f] == Fraction(1, 2)
    assert type(AlgebraElement.of(f, 0.5).terms[f]) is Fraction
    assert AlgebraElement.of(f, "1/3").terms[f] == Fraction(1, 3)
    assert type(AlgebraElement.of(f, True).terms[f]) is Fraction
    assert AlgebraElement.of(f, Fraction(1, 2)) * 2 == AlgebraElement.of(f)
    assert (AlgebraElement.of(f) * 0.25).terms[f] == Fraction(1, 4)
    for scalar in ("2", ["2"]):
        with pytest.raises(TypeError):
            AlgebraElement.of(f, 3) * scalar
        with pytest.raises(TypeError):
            scalar * AlgebraElement.of(f, 3)


def test_linear_maps_scale_fraction_coefficients():
    f, g = P("2[1] 3"), P("1[2[3]]")
    x = AlgebraElement.of(f, Fraction(1, 3)) + AlgebraElement.of(g, -2)
    for variant in COPRODUCT_VARIANTS:
        expected = coproduct(f, variant) * Fraction(1, 3) + coproduct(g, variant) * -2
        assert coproduct(x, variant) == expected, variant
    assert antipode(x) == antipode(f) * Fraction(1, 3) + antipode(g) * -2


ANTIPODE_REPRS = {
    "()": "1*()",
    "1": "-1*1",
    "1 2": "1*1 2",
    "1[2]": "1*1 2 + -1*1[2]",
    "2[1]": "1*1 2 + -1*2[1]",
    "1 2 3": "-1*1 2 3",
    "1 2[3]": "-1*1 2 3 + 1*1[2] 3",
    "1 3[2]": "-1*1 2 3 + 1*2[1] 3",
    "1[2 3]": "-1*1 2 3 + 2*1 2[3] + -1*1[2 3]",
    "1[2] 3": "-1*1 2 3 + 1*1 2[3]",
    "1[3[2]]": "-1*1 2 3 + 1*1 2[3] + -1*1[3[2]] + 1*2[1] 3",
    "2[1 3]": "-1*1 2 3 + 1*1 2[3] + 1*1 3[2] + -1*2[1 3]",
    "2[1] 3": "-1*1 2 3 + 1*1 3[2]",
    "3[1 2]": "-1*1 2 3 + 2*1 3[2] + -1*3[1 2]",
    "3[1[2]]": "-1*1 2 3 + 1*1 3[2] + 1*1[2] 3 + -1*3[1[2]]",
    "3[2[1]]": "-1*1 2 3 + 1*1 3[2] + 1*2[1] 3 + -1*3[2[1]]",
}

_CATERPILLAR_REDUCED = (
    "1*(1 (x) 1[3 2]) + 1*(1 (x) 2[3[1]]) + 1*(1 2 (x) 1[2]) + 1*(2[1] (x) 1[2])"
    " + 1*(3[1] 2 (x) 1)"
)
_CATERPILLAR_ONE_SIDED = "1*(() (x) 2[4[1] 3]) + " + _CATERPILLAR_REDUCED

CATERPILLAR_REPRS = {
    "full": "1*(2[4[1] 3] (x) ()) + " + _CATERPILLAR_ONE_SIDED,
    "reduced": _CATERPILLAR_REDUCED,
    "leftRoot": _CATERPILLAR_ONE_SIDED,
    "rightRoot": _CATERPILLAR_ONE_SIDED,
    "precRed": "1*(1 (x) 2[3[1]]) + 1*(1 2 (x) 1[2]) + 1*(3[1] 2 (x) 1)",
    "succRed": "1*(1 (x) 1[3 2]) + 1*(2[1] (x) 1[2])",
}


def test_printed_forms_are_pinned():
    words = [f for n in range(4) for f in generate_words("T", n)]
    assert {f.text: repr(antipode(f)) for f in words} == ANTIPODE_REPRS
    g = P("2[4[1] 3]")
    assert {v: repr(coproduct(g, v)) for v in COPRODUCT_VARIANTS} == CATERPILLAR_REPRS
    x = AlgebraElement.of(P("1[2]"), Fraction(1, 2)) - AlgebraElement.of(P("1 2"), 3)
    assert repr(x) == "-3*1 2 + 1/2*1[2]"
    assert repr(coproduct(x)) == (
        "-3*(1 2 (x) ()) + 1/2*(1[2] (x) ()) + -3*(() (x) 1 2) + 1/2*(() (x) 1[2])"
        " + -11/2*(1 (x) 1)"
    )


# --- the coproduct ------------------------------------------------------------


def test_coproduct_of_unit_and_vertex():
    assert coproduct(EMPTY_FOREST) == tensor(("()", "()", 1))
    assert coproduct(P("1")) == tensor(("1", "()", 1), ("()", "1", 1))


def test_coproduct_term_order_matches_contract():
    terms = coproduct(P("1")).sorted_terms()
    assert [(a.text, b.text) for (a, b), _ in terms] == [("1", "()"), ("()", "1")]


def test_coproduct_two_vertices():
    assert coproduct(P("1 2")) == tensor(
        ("1 2", "()", 1), ("()", "1 2", 1), ("1", "1", 2)
    )


def test_coproduct_caterpillar_frozen():
    # all seven admissible cuts of 2[4[1] 3], one term each
    assert coproduct(P("2[4[1] 3]")) == tensor(
        ("2[4[1] 3]", "()", 1),
        ("()", "2[4[1] 3]", 1),
        ("1", "1[3 2]", 1),
        ("2[1]", "1[2]", 1),
        ("1", "2[3[1]]", 1),
        ("1 2", "1[2]", 1),
        ("3[1] 2", "1", 1),
    )


def test_coproduct_variants_frozen():
    f = P("1 2")
    assert coproduct(f, "reduced") == tensor(("1", "1", 2))
    assert coproduct(f, "precRed") == tensor(("1", "1", 1))
    assert coproduct(f, "succRed") == tensor(("1", "1", 1))
    assert coproduct(f, "leftRoot") == tensor(("()", "1 2", 1), ("1", "1", 1))
    assert coproduct(f, "rightRoot") == tensor(("()", "1 2", 1), ("1", "1", 1))
    g = P("2[4[1] 3]")
    assert coproduct(g, "precRed") == tensor(
        ("1", "2[3[1]]", 1), ("1 2", "1[2]", 1), ("3[1] 2", "1", 1)
    )
    assert coproduct(g, "succRed") == tensor(
        ("1", "1[3 2]", 1), ("2[1]", "1[2]", 1)
    )


def test_variant_aliases_and_errors():
    f = P("1[2]")
    assert coproduct(f, "prec") == coproduct(f, "precRed")
    assert coproduct(f, "succ") == coproduct(f, "succRed")
    assert coproduct(f, "left-root") == coproduct(f, "leftRoot")
    assert coproduct(f, "right-root") == coproduct(f, "rightRoot")
    with pytest.raises(ValueError):
        coproduct(f, "sideways")


def _word(n):
    """The word of n single vertices, 1 2 ... n."""
    return P(" ".join(map(str, range(1, n + 1)))) if n else EMPTY_FOREST


def test_single_vertex_words_have_a_binomial_coproduct():
    n, word = 16, _word(16)
    full = Tensor2Element({(_word(k), _word(n - k)): comb(n, k) for k in range(n + 1)})
    assert coproduct(word) == full
    trivial = Tensor2Element.of(word, EMPTY_FOREST) + Tensor2Element.of(EMPTY_FOREST, word)
    assert coproduct(word, "reduced") == full - trivial
    with pytest.raises(ValueError) as exc:
        coproduct(_word(17))
    assert str(exc.value) == "131072 admissible cuts exceed the budget of 65536"


def _reference_coproducts(f):
    """All six variants by their cut conditions, each a sum over the admissible
    cuts of the whole forest split by the public ``cut_split``: the coproduct
    with no block factorisation."""
    roots = {t.label for t in f.trees}
    leaf_path = set()
    if f.trees:
        node = f.trees[-1]
        leaf_path.add(node.label)
        while node.children:
            node = node.children[-1]
            leaf_path.add(node.label)
    keeps = {
        "full": lambda cut: True,
        "reduced": lambda cut: cut and cut != roots,
        "leftRoot": lambda cut: not f.trees or f.trees[0].label not in cut,
        "rightRoot": lambda cut: not f.trees or f.trees[-1].label not in cut,
        "precRed": lambda cut: cut and cut != roots and cut & leaf_path,
        "succRed": lambda cut: cut and cut != roots and not cut & leaf_path,
    }
    terms = {v: {} for v in keeps}
    for cut in admissible_cuts(f):
        pair = cut_split(f, cut)
        for v, keep in keeps.items():
            if keep(cut):
                terms[v][pair] = terms[v].get(pair, 0) + 1
    return {v: Tensor2Element(t) for v, t in terms.items()}


def test_coproduct_matches_the_sum_over_all_cuts_of_the_whole_forest():
    every = labelled_forests(4)
    assert len(every) == len(set(every)) == 371
    forests = small_forests(5) + every + sorted(generate_words("T", 6), key=lambda f: f.text)
    # all six variants on all 4,279 degree-7 words take several seconds: a seeded sample
    forests += random.Random(7).sample(sorted(generate_words("T", 7), key=lambda f: f.text), 500)
    for f in forests:
        assert {v: coproduct(f, v) for v in COPRODUCT_VARIANTS} == _reference_coproducts(f), f.text


def test_one_sided_reduced_parts_sum_to_reduced():
    for f in small_forests(5):
        if f.is_empty:
            continue
        assert coproduct(f, "precRed") + coproduct(f, "succRed") == coproduct(
            f, "reduced"
        ), f.text


def test_reduced_plus_trivials_is_full():
    for f in small_forests(4):
        if f.is_empty:
            continue
        full = coproduct(f, "reduced") + Tensor2Element.of(
            f, EMPTY_FOREST
        ) + Tensor2Element.of(EMPTY_FOREST, f)
        assert full == coproduct(f), f.text


def test_leaf_extracted_and_leaf_kept_cuts_split_full():
    trees = [f for n in range(1, 7) for f in generate_set("T", n) if f.is_tree]
    for f in trees + labelled_forests(4):
        halves = [algebra._forest_coproduct(f, v) for v in ("leafExtracted", "leafKept")]
        assert halves[0] + halves[1] == coproduct(f), f.text


@pytest.mark.parametrize("text", ["1[2[3] 4]", "3[1 4] 2", "2 1", "2 3 1"])
def test_leaf_extracted_of_a_cached_block_splits_only_leaf_kept_cuts(monkeypatch, text):
    f = P(text)
    assert blocks(f) == (f,)
    algebra._forest_coproduct.cache_clear()
    full = coproduct(f)
    seen = []
    inner = algebra.cut_split
    monkeypatch.setattr(algebra, "cut_split", lambda g, cut: seen.append(cut) or inner(g, cut))
    prec = coproduct(f, "precRed")
    path = set(rightmost_path(f))
    assert seen == [cut for cut in admissible_cuts(f) if not cut & path]
    assert prec + coproduct(f, "succRed") == coproduct(f, "reduced") != full


def test_coproduct_is_multiplicative():
    forests = [EMPTY_FOREST, P("1"), P("1 2"), P("1[2]"), P("2[1]"), P("1[2 3]")]
    for x in forests:
        for y in forests:
            assert coproduct(product(x, y)) == coproduct(x) * coproduct(y)


def test_coproduct_coassociative_small():
    for f in small_forests(4):
        d = coproduct(f)
        assert expand_left(d) == expand_right(d), f.text


def test_one_sided_coproducts_mixed_coassociativity():
    # the full coproduct on the outside leg, the one-sided one inside
    for f in basis_forests(4):
        dl = coproduct(f, "leftRoot")
        assert expand_left(dl, "full") == expand_right(dl, "leftRoot"), f.text
        dr = coproduct(f, "rightRoot")
        assert expand_left(dr, "full") == expand_right(dr, "rightRoot"), f.text


def _assert_hopf_laws(f):
    """Coassociativity, the counit law and the antipode law on one forest."""
    zero, unit = AlgebraElement.zero(), AlgebraElement.of
    d = coproduct(f)
    assert expand_left(d) == expand_right(d), f.text
    terms = d.terms.items()

    def s(x):
        return antipode(x, max_degree=f.degree)

    assert sum((unit(b) * (counit(a) * c) for (a, b), c in terms), zero) == unit(f), f.text
    assert sum((unit(a) * (counit(b) * c) for (a, b), c in terms), zero) == unit(f), f.text
    assert sum((product(s(a), b) * c for (a, b), c in terms), zero) == zero, f.text
    assert sum((product(a, s(b)) * c for (a, b), c in terms), zero) == zero, f.text


def test_hopf_laws_on_every_labelled_forest():
    """The three laws on all 371 labelled forests of degree <= 4, multi-tree
    blocks such as 2 1 and 2 3 1 included."""
    for f in labelled_forests(4):
        _assert_hopf_laws(f)


def _forest_at_depths(depths, labels):
    """The forest whose vertices, in preorder, sit at the given depths (each at
    most one below the one before, the first a root) with the given labels."""
    text, prev = [], -1
    for depth, label in zip(depths, labels):
        if depth > prev >= 0:
            text.append("[")
        elif depth <= prev:
            text.append("]" * (prev - depth) + " ")
        text.append(str(label))
        prev = depth
    return P("".join(text) + "]" * prev)


def test_cut_sum_and_hopf_laws_on_sampled_non_words_of_degree_5_and_6():
    rng, sample = random.Random(56), set()
    for n in (5, 6):
        drawn = set()
        while len(drawn) < 30:
            depths = [0]
            for _ in range(n - 1):
                depths.append(rng.randint(0, depths[-1] + 1))
            f = _forest_at_depths(depths, rng.sample(range(1, n + 1), n))
            if not is_basis_forest(f):
                drawn.add(f)
        sample |= drawn
    for f in sorted(sample, key=lambda f: f.text):
        assert {v: coproduct(f, v) for v in COPRODUCT_VARIANTS} == _reference_coproducts(f), f.text
        _assert_hopf_laws(f)


@st.composite
def labelled_forests_of_degree(draw, lo, hi):
    """A random plane forest, drawn as the depths of its vertices in preorder,
    with a random labelling: words or not."""
    n = draw(st.integers(lo, hi))
    depths = [0]
    for _ in range(n - 1):
        depths.append(draw(st.integers(0, depths[-1] + 1)))
    return _forest_at_depths(depths, draw(st.permutations(range(1, n + 1))))


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(labelled_forests_of_degree(8, 10))
def test_cut_sum_and_coassociativity_on_drawn_labelled_forests(f):
    assert {v: coproduct(f, v) for v in COPRODUCT_VARIANTS} == _reference_coproducts(f)
    d = coproduct(f)
    assert expand_left(d) == expand_right(d)


def test_counit_axiom():
    for f in small_forests(4):
        left = AlgebraElement.zero()
        right = AlgebraElement.zero()
        for (a, b), c in coproduct(f).terms.items():
            left = left + AlgebraElement.of(b) * (counit(a) * c)
            right = right + AlgebraElement.of(a) * (counit(b) * c)
        assert left == right == AlgebraElement.of(f), f.text


# --- antipode ------------------------------------------------------------------


def test_antipode_frozen():
    assert antipode(P("1")) == elem(("1", -1))
    assert antipode(P("1 2")) == elem(("1 2", 1))
    assert antipode(P("1[2]")) == elem(("1[2]", -1), ("1 2", 1))
    assert antipode(P("2[1]")) == elem(("2[1]", -1), ("1 2", 1))
    assert antipode(EMPTY_FOREST) == AlgebraElement.unit()


def test_antipode_law():
    for f in basis_forests(4, include_unit=True):
        lhs = AlgebraElement.zero()
        rhs = AlgebraElement.zero()
        for (a, b), c in coproduct(f).terms.items():
            lhs = lhs + product(antipode(a), b) * c
            rhs = rhs + product(a, antipode(b)) * c
        expected = AlgebraElement.unit() * counit(f)
        assert lhs == expected and rhs == expected, f.text


def test_antipode_reverses_products():
    # the concatenation product is noncommutative, so only the
    # antihomomorphism law holds: S(xy) = S(y)S(x)
    assert antipode(P("1 2[3]")) == elem(("1[2] 3", 1), ("1 2 3", -1))
    for x, y in [(P("1"), P("1[2]")), (P("1 2"), P("2[1]")), (P("2[1]"), P("1[2]"))]:
        assert antipode(product(x, y)) == product(antipode(y), antipode(x))
    assert antipode(product(P("1"), P("1[2]"))) != product(
        antipode(P("1")), antipode(P("1[2]"))
    )


# forests that split into blocks only part of the way, or not at all
PARTLY_FACTORING = (
    "1 3[2] 4", "2[1] 3", "1 2[3] 4", "3[1] 2", "1 2[3]", "2 1", "2 1 3",
    "1 4[2] 3 5", "3[1] 2 4[5]", "1[3] 2 4 5[6]",
)


def _reference_antipode():
    """S(f) = -f - sum S(f')·f'' over the reduced coproduct, for every forest,
    memoised here and built only on the public coproduct and product."""
    memo = {EMPTY_FOREST: AlgebraElement.unit()}

    def s(f):
        if f not in memo:
            out = -AlgebraElement.of(f)
            for (lea, roo), c in coproduct(f, "reduced").terms.items():
                out = out - product(s(lea), roo) * c
            memo[f] = out
        return memo[f]

    return s


def test_antipode_matches_the_plain_recursion():
    reference = _reference_antipode()
    for f in small_forests(5) + [P(t) for t in PARTLY_FACTORING]:
        assert antipode(f, max_degree=6) == reference(f), f.text


def _has_block_prefix(f):
    """Some proper prefix of the trees carries exactly the labels 1..k."""
    heads = (OrderedForest(f.trees[:k]) for k in range(1, len(f.trees)))
    return any(sorted(h.labels()) == list(range(1, h.degree + 1)) for h in heads)


def test_only_forests_without_a_block_prefix_recurse(monkeypatch):
    seen = []
    inner = algebra._forest_coproduct
    monkeypatch.setattr(
        algebra, "_forest_coproduct", lambda f, v: seen.append((f, v)) or inner(f, v)
    )
    algebra._antipode_forest.cache_clear()
    word = P(" ".join(str(i) for i in range(1, 13)))
    assert antipode(word, max_degree=12) == elem((word.text, 1))
    assert seen == [(P("1"), "full")]
    for f in small_forests(5) + [P(t) for t in PARTLY_FACTORING]:
        antipode(f, max_degree=6)
    assert len(seen) > 1 and {v for _, v in seen} == {"full"}
    assert not [f.text for f, _ in seen if _has_block_prefix(f)]


def test_only_single_blocks_have_their_cuts_enumerated(monkeypatch):
    seen = set()
    inner = algebra.admissible_cuts
    monkeypatch.setattr(algebra, "admissible_cuts", lambda f: seen.add(f) or inner(f))
    algebra._forest_coproduct.cache_clear()
    words = [f for n in range(7) for f in generate_words("T", n)]
    for f in words:
        for v in COPRODUCT_VARIANTS:
            coproduct(f, v)
    assert {f for f in words if len(f.trees) <= 1} <= seen
    assert not [f.text for f in seen if _has_block_prefix(f)]


@pytest.mark.parametrize("n", [1200, 1201])
def test_antipode_of_a_long_word_folds_over_its_blocks(n):
    word = _word(n)
    assert antipode(word, max_degree=n) == AlgebraElement.of(word, (-1) ** n)


def test_antipode_degree_guard():
    big = P("1[2 3 4 5 6]")
    with pytest.raises(ValueError):
        antipode(big)
    assert not antipode(big, max_degree=6).is_zero


# --- primitives ------------------------------------------------------------------


def test_prim_tot_dimension_small():
    assert [prim_tot_dimension(n) for n in range(1, 5)] == [1, 1, 2, 6]


def test_sparse_rank_is_exact_on_int_rows():
    # 1 - 49 * (1/49) is not 0 in floating point
    assert _sparse_rank([{0: 49, 1: 1}, {0: 49, 1: 1}]) == 1
    assert _sparse_rank([{0: 49, 1: 1}, {0: 7, 1: 3}]) == 2


def test_sparse_rank_peels_rows_alone_in_a_column():
    # column 0 holds only the first row; once it is peeled, column 1 holds
    # only the second, and the last two rows, one twice the other, are left
    rows = [{0: 1, 1: 2}, {1: 1, 2: 1}, {2: 1, 3: 1}, {2: 2, 3: 2}]
    assert _sparse_rank(rows) == _dense_rank(rows) == 3
    assert _sparse_rank(rows[::-1]) == 3
    assert _sparse_rank(rows[:2] + [{2: 1, 3: 1}, {2: 1, 3: 2}]) == 4


def test_prim_tot_dimension_degree_6():
    assert prim_tot_dimension(6, max_degree=6) == 90


def _dense_rank(rows):
    """Rank over Q by textbook Gaussian elimination on a dense Fraction matrix;
    rows with a zero in the pivot column and the pivot row's zeros are skipped."""
    cols = sorted({k for row in rows for k in row})
    matrix = [[Fraction(row.get(k, 0)) for k in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        lead = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if lead is None:
            continue
        matrix[rank], matrix[lead] = matrix[lead], matrix[rank]
        pivot = matrix[rank]
        support = [k for k in range(j, len(cols)) if pivot[k]]
        for row in matrix[rank + 1 :]:
            if row[j]:
                factor = row[j] / pivot[j]
                for k in support:
                    row[k] -= factor * pivot[k]
        rank += 1
    return rank


def _random_int_rows(rng):
    """Sparse int rows over a few columns, with zero rows, duplicate and
    proportional rows, negative leads and entries near 10**30."""
    def entry():
        small = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7])
        return small * 10**30 + rng.randint(-3, 3) if rng.random() < 0.2 else small

    ncols = rng.randint(1, 8)
    rows = [
        {k: entry() for k in rng.sample(range(ncols), rng.randint(1, ncols))}
        for _ in range(rng.randint(0, 8))
    ]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["zero", "duplicate", "proportional"])
        if kind == "zero" or not rows:
            rows.append(rng.choice([{}, {0: 0}]))
        else:
            scale = 1 if kind == "duplicate" else rng.choice([-10**30, -6, -1, 2, 5])
            rows.append({k: scale * v for k, v in rng.choice(rows).items()})
    rng.shuffle(rows)
    return rows


def test_sparse_rank_matches_dense_fraction_elimination():
    rng = random.Random(20110607)
    for _ in range(400):
        rows = _random_int_rows(rng)
        before = copy.deepcopy(rows)
        rank = _sparse_rank(rows)
        assert rows == before
        assert rank == _dense_rank(rows), rows
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert _sparse_rank(shuffled) == rank, shuffled


_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.dictionaries(st.integers(0, 7), _ENTRIES, max_size=6), max_size=9))
def test_sparse_rank_matches_dense_fraction_elimination_on_drawn_rows(rows):
    assert _sparse_rank(rows) == _dense_rank(rows)


@pytest.mark.parametrize("n, dimension", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 22)])
def test_sparse_rank_matches_dense_fraction_elimination_on_prim_tot_rows(n, dimension):
    basis = sorted(generate_words("T", n), key=lambda f: f.text)
    rows = [
        {
            (v, a.text, b.text): c
            for v in ("precRed", "succRed")
            for (a, b), c in coproduct(f, v).terms.items()
        }
        for f in basis
    ]
    rank = _dense_rank(rows)
    assert _sparse_rank(rows) == rank
    assert prim_tot_dimension(n) == len(basis) - rank == dimension


def test_prim_tot_guard():
    with pytest.raises(ValueError):
        prim_tot_dimension(6)
    with pytest.raises(ValueError):
        prim_tot_dimension(0)


# --- compatibility of the vertex-append moves ------------------------------------


def test_b_operator_coproduct_vertex_example():
    # both sides on the single vertex reduce to the three-term display
    assert check_b_operator_coproduct(P("1"))


def test_b_operator_coproduct_small():
    for f in basis_forests(4):
        assert check_b_operator_coproduct(f), f.text


def test_b_operator_coproduct_rejects_unit():
    with pytest.raises(ValueError):
        check_b_operator_coproduct(EMPTY_FOREST)
