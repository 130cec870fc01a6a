"""Linear grafts, tensor extension, axiom checkers, closure generation."""

import itertools

import pytest

from graftwood.algebra import AlgebraElement, Tensor2Element, coproduct
from graftwood.families import generate_set, generate_words
from graftwood.forest import BothUnitsError, EMPTY_FOREST, parse_forest, rgraft_basis
from graftwood.grafts import (
    CLOSURE_MAX_DEGREE,
    GRAFT_OPS,
    IDENTITY_NAMES,
    check_identity,
    generate_closure,
    lgraft,
    rgraft,
    tensor_graft,
)

P = parse_forest
UNIT = EMPTY_FOREST


def words_upto(n, include_unit=False):
    out = [EMPTY_FOREST] if include_unit else []
    for k in range(1, n + 1):
        out.extend(sorted(generate_words("T", k), key=lambda f: f.text))
    return out


def nonempty_triples(total):
    singles = words_upto(total - 2)
    for x, y, z in itertools.product(singles, repeat=3):
        if x.degree + y.degree + z.degree <= total:
            yield x, y, z


def nonempty_pairs(total):
    singles = words_upto(total - 1)
    for x, y in itertools.product(singles, repeat=2):
        if x.degree + y.degree <= total:
            yield x, y


# --- element-level grafts ----------------------------------------------------


def test_lgraft_element_level():
    assert lgraft(P("1"), P("1")) == AlgebraElement.of(P("2[1]"))
    assert lgraft(P("1[2]"), UNIT).is_zero
    assert lgraft(UNIT, P("1[2]")) == AlgebraElement.of(P("1[2]"))
    with pytest.raises(BothUnitsError):
        lgraft(UNIT, UNIT)


def test_rgraft_element_level():
    assert rgraft(P("1"), P("1")) == AlgebraElement.of(P("1[2]"))
    assert rgraft(UNIT, P("1[2]")).is_zero
    assert rgraft(P("1[2]"), UNIT) == AlgebraElement.of(P("1[2]"))
    with pytest.raises(BothUnitsError):
        rgraft(UNIT, UNIT)


def test_grafts_are_bilinear():
    a = AlgebraElement.of(P("1"), 2) + AlgebraElement.of(P("1 2"), 1)
    b = AlgebraElement.of(P("1"), 3)
    assert lgraft(a, b) == AlgebraElement.of(P("2[1]"), 6) + AlgebraElement.of(
        P("3[1 2]"), 3
    )
    assert rgraft(b, a) == AlgebraElement.of(P("1[2]"), 6) + AlgebraElement.of(
        P("1[2 3]"), 3
    )


def test_one_sided_grafts_are_not_associative():
    dot = P("1")
    left_nested = lgraft(dot, lgraft(dot, dot))
    left_chained = lgraft(lgraft(dot, dot), dot)
    assert left_nested == AlgebraElement.of(P("3[1 2]"))
    assert left_chained == AlgebraElement.of(P("3[2[1]]"))
    assert left_nested != left_chained
    right_nested = rgraft(dot, rgraft(dot, dot))
    right_chained = rgraft(rgraft(dot, dot), dot)
    assert right_nested == AlgebraElement.of(P("1[3[2]]"))
    assert right_chained == AlgebraElement.of(P("1[2 3]"))
    assert right_nested != right_chained


def test_grafts_are_not_free_jointly():
    # two different operation words produce the same forest
    dot = P("1")
    assert rgraft(dot, rgraft(dot, dot)) == rgraft(dot, lgraft(dot, dot))


# --- tensor extension ---------------------------------------------------------


def test_tensor_graft_frozen():
    dot = P("1")
    x = Tensor2Element.of(dot, UNIT)
    y = Tensor2Element.of(UNIT, dot)
    assert tensor_graft("lgraft", x, x) == Tensor2Element.of(P("2[1]"), UNIT)
    assert tensor_graft("lgraft", x, y) == Tensor2Element.of(dot, dot)
    assert tensor_graft("rgraft", y, x) == Tensor2Element.of(dot, dot)


def test_tensor_graft_drops_vanishing_terms():
    dot = P("1")
    x = Tensor2Element.of(UNIT, dot)   # right leg lands in rgraft's left slot
    y = Tensor2Element.of(dot, UNIT)
    # (1 (x) dot) lgraft (dot (x) 1): right legs (dot, 1): dot lgraft 1 vanishes
    assert tensor_graft("lgraft", x, y).is_zero


def test_tensor_graft_rejects_unknown_op():
    t = Tensor2Element.of(P("1"), UNIT)
    with pytest.raises(ValueError):
        tensor_graft("warp", t, t)


# --- identity checkers --------------------------------------------------------


def test_identity_names_and_arities():
    assert set(IDENTITY_NAMES) == {
        "E1a", "E1b", "E1c", "E2a", "E2b", "E2c",
        "E3prec", "E3succ", "E4prec", "E4succ",
        "LGa", "LGb", "RGa", "RGb", "BIGRAFT", "DELTASUCC", "DELTAPREC",
    }
    with pytest.raises(ValueError):
        check_identity("E0", [P("1")])
    with pytest.raises(ValueError):
        check_identity("E1a", [P("1")])


@pytest.mark.parametrize("name", ["E1a", "E1b", "E1c"])
def test_duplicial_identities_small(name):
    for x, y, z in nonempty_triples(4):
        assert check_identity(name, [x, y, z]), (name, x.text, y.text, z.text)


def test_e1c_needs_a_nonempty_middle():
    # with the middle argument empty the two sides graft at different leaves
    assert not check_identity("E1c", [P("1"), UNIT, P("1")])


@pytest.mark.parametrize("name", ["E2a", "E2b", "E2c"])
def test_coproduct_splitting_identities_small(name):
    for f in words_upto(4):
        assert check_identity(name, [f]), (name, f.text)


@pytest.mark.parametrize("name", ["E3prec", "E3succ", "E4prec", "E4succ"])
def test_pair_identities_small(name):
    for x, y in nonempty_pairs(4):
        assert check_identity(name, [x, y]), (name, x.text, y.text)


@pytest.mark.parametrize("name", ["LGa", "LGb", "RGa", "RGb", "BIGRAFT"])
def test_graft_associativity_identities_small(name):
    for x, y, z in nonempty_triples(4):
        assert check_identity(name, [x, y, z]), (name, x.text, y.text, z.text)


def test_bigraft_with_exactly_one_unit():
    forests = words_upto(2)
    for a, b in itertools.product(forests, repeat=2):
        assert check_identity("BIGRAFT", [UNIT, a, b])
        assert check_identity("BIGRAFT", [a, UNIT, b])
        assert check_identity("BIGRAFT", [a, b, UNIT])


def _root_is_block_max(forest):
    def top(t):
        m = t.label
        for c in t.children:
            m = max(m, top(c))
        return m

    return all(t.label == top(t) for t in forest.trees)


def test_graft_coproduct_compatibilities_small():
    for f, g in nonempty_pairs(4):
        assert check_identity("DELTASUCC", [f, g]), (f.text, g.text)
    for g in words_upto(3):
        assert check_identity("DELTASUCC", [UNIT, g])
        assert check_identity("DELTAPREC", [g, UNIT])


def test_deltaprec_splits_on_the_right_factor_shape():
    # The right-graft relabels each grafted tree's root to the top of its
    # block.  Extracting such a tree whole therefore standardizes to a
    # different forest, so the compatibility only survives when every
    # right-factor root already carries its block maximum.
    for f, g in nonempty_pairs(5):
        expected = _root_is_block_max(g)
        assert check_identity("DELTAPREC", [f, g]) is expected, (f.text, g.text)


def test_deltaprec_counterexample_terms():
    # Smallest failing pair: the extracted whole right factor standardizes
    # root-down ("2[1]"), while the tensor side keeps it root-up ("1[2]").
    f, g = parse_forest("1"), parse_forest("1[2]")
    lhs = coproduct(rgraft_basis(f, g), "rightRoot")
    rhs = tensor_graft("rgraft", coproduct(f, "rightRoot"), coproduct(g))
    diff = {}
    for key, c in lhs.terms.items():
        diff[key] = diff.get(key, 0) + c
    for key, c in rhs.terms.items():
        diff[key] = diff.get(key, 0) - c
    diff = {(a.text, b.text): c for (a, b), c in diff.items() if c}
    assert diff == {("2[1]", "1"): 1, ("1[2]", "1"): -1}


# --- closures -----------------------------------------------------------------


def test_closure_of_all_three_ops_is_the_word_basis():
    closure = generate_closure(("concat", "lgraft", "rgraft"), 4)
    expected = set(words_upto(4))
    assert closure == expected


def test_closure_concat_nwarrow_is_the_wrap_word_basis():
    expected = {f for k in range(1, 5) for f in generate_words("Bl", k)}
    assert generate_closure(("concat", "nwarrow"), 4) == expected
    assert generate_closure(("concat", "lgraft"), 4) == expected


def test_closure_concat_only_is_the_dot_words():
    closure = generate_closure(("concat",), 4)
    assert sorted(f.text for f in closure) == ["1", "1 2", "1 2 3", "1 2 3 4"]


def test_closure_matches_br_family_layers():
    # Br as the paper defines it, the closure of the single vertex under
    # concatenation and the right graft, against its Bl-word layers
    closure = generate_closure(("concat", "rgraft"), CLOSURE_MAX_DEGREE)
    for d in range(1, CLOSURE_MAX_DEGREE + 1):
        trees = {f for f in closure if f.degree == d and f.is_tree}
        assert trees == generate_set("Br", d), d


def test_closure_guards():
    with pytest.raises(ValueError):
        generate_closure(("concat",), 8)
    with pytest.raises(ValueError):
        generate_closure(("concat",), 0)
    with pytest.raises(ValueError):
        generate_closure((), 3)
    with pytest.raises(ValueError):
        generate_closure(("concat", "twist"), 3)
    assert "concat" in GRAFT_OPS
