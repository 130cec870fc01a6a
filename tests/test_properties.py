"""Randomized laws past the exhaustive sweeps: T words of degree 8-11.

A T tree of degree n is ``b_minus`` or ``b_plus`` of a T word of degree
n - 1, and a T word concatenates T trees; the strategies below draw words by
those moves.  Runs are derandomized, so every run tests the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from graftwood.algebra import (
    AlgebraElement,
    Tensor2Element,
    antipode,
    coproduct,
    counit,
    expand_left,
    expand_right,
    product,
)
from graftwood.families import b_minus, b_plus, membership
from graftwood.forest import EMPTY_FOREST, OrderedForest, OrderedTree, concat, parse_forest
from graftwood.grafts import check_identity

MAX_DEGREE = 10

laws = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def t_trees(draw, n):
    if n == 1:
        return OrderedTree(1)
    move = draw(st.sampled_from([b_minus, b_plus]))
    return move(draw(t_words(n - 1)))


@st.composite
def t_words(draw, n):
    word = EMPTY_FOREST
    while n:
        k = draw(st.integers(1, n))
        word = concat(word, OrderedForest((draw(t_trees(k)),)))
        n -= k
    return word


def t_words_of_degree(lo, hi):
    return st.integers(lo, hi).flatmap(t_words)


@st.composite
def t_word_pairs(draw):
    n = draw(st.integers(8, MAX_DEGREE))
    k = draw(st.integers(1, n - 1))
    return draw(t_words(k)), draw(t_words(n - k))


def s(x):
    return antipode(x, max_degree=MAX_DEGREE)


@laws
@given(t_words_of_degree(8, MAX_DEGREE))
def test_drawn_words_are_t_words(word):
    assert membership("B", word) and word.degree >= 8


@laws
@given(t_words_of_degree(8, MAX_DEGREE))
def test_antipode_law(word):
    left = right = AlgebraElement.zero()
    for (a, b), c in coproduct(word).terms.items():
        left = left + product(s(a), b) * c
        right = right + product(a, s(b)) * c
    assert left.is_zero and right.is_zero


@laws
@given(t_word_pairs())
def test_antipode_reverses_products(pair):
    a, b = pair
    assert s(concat(a, b)) == product(s(b), s(a))


@laws
@given(t_words_of_degree(9, 11))
def test_coproduct_is_coassociative(word):
    d = coproduct(word)
    assert expand_left(d) == expand_right(d)


@laws
@given(t_words_of_degree(9, 11))
def test_counit_law(word):
    left = right = AlgebraElement.zero()
    for (a, b), c in coproduct(word).terms.items():
        left = left + AlgebraElement.of(b) * (counit(a) * c)
        right = right + AlgebraElement.of(a) * (counit(b) * c)
    assert left == right == AlgebraElement.of(word)


@laws
@given(t_words_of_degree(9, 11))
def test_coproduct_splitting_identities(word):
    for name in ("E2a", "E2b", "E2c"):
        assert check_identity(name, [word]), name


@laws
@given(t_words_of_degree(9, 11))
def test_one_sided_reduced_parts_sum_to_reduced(word):
    assert coproduct(word, "precRed") + coproduct(word, "succRed") == coproduct(word, "reduced")


@laws
@given(t_words_of_degree(9, 11))
def test_reduced_plus_trivials_is_full(word):
    trivials = Tensor2Element.of(word, EMPTY_FOREST) + Tensor2Element.of(EMPTY_FOREST, word)
    assert coproduct(word, "reduced") + trivials == coproduct(word)


@laws
@given(t_words_of_degree(9, 11))
def test_text_parses_back(word):
    assert parse_forest(word.text) == word
