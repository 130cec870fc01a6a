"""Signature families, membership peels, counting rules, canonical labels."""

import itertools
import time
from collections import Counter

import pytest

from graftwood.families import (
    ENUMERATION_MAX_DEGREE,
    NotInFamilyError,
    _hang,
    _moves,
    _words_over,
    b_minus,
    b_plus,
    canonical_indexing,
    canonical_signature,
    count_indexings,
    generate_set,
    generate_words,
    is_basis_forest,
    ladders,
    membership,
    oracle_count_indexings,
    signature_of,
)
from graftwood.forest import (
    EMPTY_FOREST,
    OrderedForest,
    OrderedTree,
    PlaneTree,
    SINGLE_VERTEX,
    concat,
    parse_forest,
    parse_plane_tree,
    rgraft_basis,
    shape_of,
)
from graftwood.series import series_coefficients


def texts(forests):
    return sorted(f.text for f in forests)


def all_shapes(n):
    """Every plane tree with n vertices (independent recursive generator)."""
    if n == 1:
        return [PlaneTree()]
    out = []
    for kids in _shape_forests(n - 1):
        out.append(PlaneTree(kids))
    return out


def _shape_forests(m):
    if m == 0:
        return [()]
    out = []
    for k in range(1, m + 1):
        for head in all_shapes(k):
            for rest in _shape_forests(m - k):
                out.append((head,) + rest)
    return out


# --- the two vertex-append moves --------------------------------------------


def test_b_minus_frozen():
    assert str(b_minus(parse_forest("1[2] 3"))) == "4[1[2] 3]"
    assert str(b_minus(EMPTY_FOREST)) == "1"
    assert str(b_minus(parse_forest("1"))) == "2[1]"


def test_b_plus_frozen():
    assert str(b_plus(parse_forest("3[1 2]"))) == "3[1 2 4]"
    assert str(b_plus(parse_forest("1[2] 3"))) == "1[2 4[3]]"
    assert str(b_plus(EMPTY_FOREST)) == "1"
    assert str(b_plus(parse_forest("1"))) == "1[2]"


# --- signatures --------------------------------------------------------------


def test_canonical_signature():
    assert canonical_signature("+,+,-") == "++-"
    assert canonical_signature("-+-") == "++-"
    assert canonical_signature("+ + +") == "+++"
    assert canonical_signature("+−") == "+-"
    with pytest.raises(ValueError):
        canonical_signature("")
    with pytest.raises(ValueError):
        canonical_signature("+*")


SIGNATURE_CASES = [
    ("1", "+"),
    ("1 2", "++"),
    ("1[2]", "++"),
    ("2[1]", "+-"),
    ("2[1] 3", "+-+"),
    ("1[3[2]]", "+++"),
    ("3[1[2]]", "++-"),
    ("4[3[2[1]]]", "+---"),
    ("1[2 4[3]]", "++++"),
    ("3[1 2] 4", "++-+"),
]


@pytest.mark.parametrize("text,sig", SIGNATURE_CASES)
def test_signature_of_frozen(text, sig):
    assert signature_of(parse_forest(text)) == sig


@pytest.mark.parametrize("text", ["2[4[1] 3]", "1[3 2]", "2 1[3]", "()"])
def test_signature_of_rejects(text):
    with pytest.raises(NotInFamilyError):
        signature_of(parse_forest(text))


# --- frozen signature sets up to degree 4 ------------------------------------

SIGNATURE_SETS = {
    "+": ["1"],
    "++": ["1 2", "1[2]"],
    "+-": ["2[1]"],
    "+++": ["1 2 3", "1 2[3]", "1[2 3]", "1[2] 3", "1[3[2]]"],
    "++-": ["3[1 2]", "3[1[2]]"],
    "+-+": ["2[1 3]", "2[1] 3"],
    "+--": ["3[2[1]]"],
    "++++": [
        "1 2 3 4",
        "1 2 3[4]",
        "1 2[3 4]",
        "1 2[3] 4",
        "1 2[4[3]]",
        "1[2 3 4]",
        "1[2 3] 4",
        "1[2 4[3]]",
        "1[2] 3 4",
        "1[2] 3[4]",
        "1[3[2] 4]",
        "1[3[2]] 4",
        "1[4[2 3]]",
        "1[4[2[3]]]",
    ],
    "+++-": ["4[1 2 3]", "4[1 2[3]]", "4[1[2 3]]", "4[1[2] 3]", "4[1[3[2]]]"],
    "++-+": ["3[1 2 4]", "3[1 2] 4", "3[1[2] 4]", "3[1[2]] 4"],
    "++--": ["4[3[1 2]]", "4[3[1[2]]]"],
    "+-++": ["2[1 3 4]", "2[1 3] 4", "2[1 4[3]]", "2[1] 3 4", "2[1] 3[4]"],
    "+-+-": ["4[2[1 3]]", "4[2[1] 3]"],
    "+--+": ["3[2[1] 4]", "3[2[1]] 4"],
    "+---": ["4[3[2[1]]]"],
}


@pytest.mark.parametrize("sig", sorted(SIGNATURE_SETS))
def test_signature_sets_frozen(sig):
    got = texts(generate_set("G", len(sig), sig))
    assert got == SIGNATURE_SETS[sig]


def test_signature_set_comma_spelling():
    assert texts(generate_set("G", 3, "+,+,-")) == ["3[1 2]", "3[1[2]]"]


def test_signature_sets_are_disjoint():
    for n in range(1, 7):
        sigs = ["+" + "".join(c) for c in __import__("itertools").product("+-", repeat=n - 1)]
        union = set()
        total = 0
        for sig in sigs:
            s = generate_set("G", n, sig)
            total += len(s)
            union |= s
        assert len(union) == total == len(generate_set("G", n))


def test_signature_round_trip():
    for n in range(1, 7):
        for f in generate_set("G", n):
            sig = signature_of(f)
            assert f in generate_set("G", n, sig)


def _grown(f):
    """Each forest one move above f, as (letter, trees): the bare append and
    ``_hang`` at every tree for "+", ``b_minus`` for "-"."""
    n, trees = f.degree + 1, f.trees
    yield "+", trees + (OrderedTree(n),)
    for i in range(len(trees)):
        yield "+", _hang(trees, i, n)
    yield "-", (b_minus(f),)


def test_the_peel_moves_undo_the_append_moves():
    # every move applied to a G forest of degree <= 6 is undone by exactly one
    # peel move, the one that removes the new vertex; together the moves grow
    # each signature set into the sets one letter longer
    for k in range(1, 7):
        for tail in itertools.product("+-", repeat=k - 1):
            sig = "+" + "".join(tail)
            grown = {"+": set(), "-": set()}
            for f in generate_set("G", k, sig):
                for letter, trees in _grown(f):
                    undo = [(m[0], m[2]) for m in _moves(trees) if m[1].label == k + 1]
                    assert undo == [(letter, f.trees)], (f.text, letter, trees)
                    grown[letter].add(OrderedForest(trees))
            for letter, forests in grown.items():
                assert forests == generate_set("G", k + 1, sig + letter), sig + letter


GF_COUNTS = [1, 3, 10, 35, 126, 462]
GT_COUNTS = [1, 2, 6, 20, 70, 252]


def test_g_counts_small():
    for n, (fc, tc) in enumerate(zip(GF_COUNTS, GT_COUNTS), start=1):
        s = generate_set("G", n)
        assert len(s) == fc
        assert sum(1 for f in s if f.is_tree) == tc


# --- the T family ------------------------------------------------------------

T_PLUS_3 = ["1[2 3]", "1[3[2]]", "2[1 3]"]
T_MINUS_3 = ["3[1 2]", "3[1[2]]", "3[2[1]]"]
T_PLUS_4 = [
    "1[2 3 4]",
    "1[2 4[3]]",
    "1[3[2] 4]",
    "1[4[2 3]]",
    "1[4[2[3]]]",
    "1[4[3[2]]]",
    "2[1 3 4]",
    "2[1 4[3]]",
    "3[1 2 4]",
    "3[1[2] 4]",
    "3[2[1] 4]",
]
T_MINUS_4 = [
    "4[1 2 3]",
    "4[1 2[3]]",
    "4[1 3[2]]",
    "4[1[2 3]]",
    "4[1[2] 3]",
    "4[1[3[2]]]",
    "4[2[1 3]]",
    "4[2[1] 3]",
    "4[3[1 2]]",
    "4[3[1[2]]]",
    "4[3[2[1]]]",
]


def test_t_sets_frozen():
    assert texts(generate_set("Tplus", 3)) == T_PLUS_3
    assert texts(generate_set("Tminus", 3)) == T_MINUS_3
    assert texts(generate_set("Tplus", 4)) == T_PLUS_4
    assert texts(generate_set("Tminus", 4)) == T_MINUS_4
    assert texts(generate_set("T", 1)) == ["1"]
    assert texts(generate_set("T", 2)) == ["1[2]", "2[1]"]


def test_t_halves_partition():
    for n in range(2, 6):
        plus = generate_set("Tplus", n)
        minus = generate_set("Tminus", n)
        assert not plus & minus
        assert plus | minus == generate_set("T", n)
        assert len(plus) == len(minus)


def test_word_counts_small():
    for n, count in enumerate([1, 3, 11, 45], start=1):
        assert len(generate_words("T", n)) == count


def test_word_layers_hold_each_word_once():
    for selector in ("T", "Bl", "G0", "G2"):
        for n in range(7):
            layer = _words_over(selector, n)
            assert type(layer) is tuple and len(layer) == len(generate_words(selector, n))
            # a fresh set per call, equal to the last
            assert generate_words(selector, n) is not generate_words(selector, n)
            assert generate_words(selector, n) == frozenset(layer)


# --- membership --------------------------------------------------------------

MEMBER_CASES = [
    ("G", "1 2", True),
    ("G", "2[4[1] 3]", False),
    ("G0", "1 2", True),
    ("G0", "2[1]", False),
    ("G1", "2[1]", True),
    ("G1", "3[1 2]", True),
    ("G1", "4[3[1 2]]", False),
    ("G2", "4[3[1 2]]", True),
    ("T", "2[1 3]", True),
    ("T", "1[3 2]", False),
    ("T", "2[4[1] 3]", False),
    ("Tplus", "1[2 3]", True),
    ("Tplus", "3[1 2]", False),
    ("Tminus", "3[1 2]", True),
    ("Tminus", "1", True),
    ("Tplus", "1", True),
    ("Bl", "3[1 2]", True),
    ("Bl", "3[2[1]]", True),
    ("Bl", "3[1[2]]", False),
    ("Bl", "1[2 3]", False),
    ("Bl", "2[1 3]", False),
    ("Br", "1[2]", True),
    ("Br", "2[1]", False),
    ("Br", "1[3[2]]", True),
    ("B", "1[2] 3", True),
    ("B", "2[1] 3", True),
    ("B", "2 1[3]", False),
    ("B", "1[3 2]", False),
    ("B", "()", True),
    ("G", "()", False),
    ("T", "1[2] 3", False),
]


@pytest.mark.parametrize("family,text,expected", MEMBER_CASES)
def test_membership_cases(family, text, expected):
    assert membership(family, parse_forest(text)) is expected


def test_membership_matches_generation():
    for n in range(1, 6):
        for family in ("G", "G0", "G1", "G2", "T", "Tplus", "Tminus", "Bl", "Br"):
            generated = generate_set(family, n)
            everything = generate_set("G", n) | generate_words("T", n)
            for f in everything:
                assert membership(family, f) is (f in generated), (family, f.text)


def test_is_basis_forest_matches_words():
    for n in range(1, 6):
        words = generate_words("T", n)
        for f in generate_set("G", n) | words:
            assert is_basis_forest(f) is (f in words), f.text
    assert is_basis_forest(EMPTY_FOREST)


def test_selector_errors():
    with pytest.raises(ValueError):
        generate_set("X", 3)
    with pytest.raises(ValueError):
        generate_set("T", 3, "+++")
    with pytest.raises(ValueError):
        generate_set("G", 0)
    with pytest.raises(ValueError):
        generate_set("G", 9)
    with pytest.raises(ValueError):
        generate_set("Br", 9)
    with pytest.raises(ValueError):
        generate_set("G", 3, "++")


# --- counting indexings -------------------------------------------------------

COUNT_CASES = [
    ("0", "G", 1),
    ("0", "T", 1),
    ("0[0]", "G", 2),
    ("0[0]", "T", 2),
    ("0[0 0]", "G", 3),
    ("0[0 0]", "T", 3),
    ("0[0[0]]", "G", 3),
    ("0[0[0]]", "T", 3),
    ("0[0 0 0]", "G", 4),
    ("0[0 0 0]", "T", 4),
    ("0[0[0] 0]", "G", 5),
    ("0[0[0] 0]", "T", 5),
    ("0[0 0[0]]", "G", 3),
    ("0[0 0[0]]", "T", 4),
    ("0[0[0[0]]]", "G", 4),
    ("0[0[0[0]]]", "T", 5),
    # a star with k leaves has k + 1 T indexings; large, to keep the count linear
    pytest.param("0[%s]" % " ".join(["0"] * 20000), "T", 20001, id="star-20000-T-20001"),
]


@pytest.mark.parametrize("shape,family,expected", COUNT_CASES)
def test_count_indexings_frozen(shape, family, expected):
    assert count_indexings(parse_plane_tree(shape), family) == expected


def test_count_indexings_bad_family():
    with pytest.raises(ValueError):
        count_indexings(parse_plane_tree("0"), "Bl")


def test_counts_match_oracle_small():
    for n in range(1, 6):
        for shape in all_shapes(n):
            for family in ("G", "T"):
                assert count_indexings(shape, family) == oracle_count_indexings(
                    shape, family
                ), (str(shape), family)


def test_bl_trees_are_one_per_shape():
    # post-order labelling is a bijection from plane shapes onto Bl trees
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 9):
        shapes = [shape_of(f)[0] for f in generate_set("Bl", n)]
        assert len(set(shapes)) == len(shapes) == catalan[n - 1]
        if n <= 6:
            assert set(shapes) == set(all_shapes(n))


def test_counts_sum_to_tree_counts():
    # summing the per-shape counts over all shapes recovers the tree tables
    for n, (g, t) in enumerate(zip([1, 2, 6, 20, 70], [1, 2, 6, 22, 90]), start=1):
        shapes = all_shapes(n)
        assert sum(count_indexings(s, "G") for s in shapes) == g
        assert sum(count_indexings(s, "T") for s in shapes) == t


def test_enumerated_trees_tally_to_counts_per_shape_at_degree_8():
    # one Bl tree per plane shape, as test_bl_trees_are_one_per_shape pins
    shapes = [shape_of(f)[0] for f in generate_set("Bl", 8)]
    assert len(shapes) == 429
    for family, total in (("G", 3432), ("T", 8558)):
        tally = Counter(shape_of(f)[0] for f in generate_set(family, 8) if f.is_tree)
        assert sum(tally.values()) == total
        assert set(tally) <= set(shapes)
        for shape in shapes:
            assert tally[shape] == count_indexings(shape, family), (str(shape), family)


def test_oracle_generic_path_agrees():
    shape = parse_plane_tree("0[0 0[0]]")
    assert oracle_count_indexings(shape, "Bl") == 1
    assert oracle_count_indexings(shape, "G0") == 1
    assert oracle_count_indexings(shape, "Tminus") == sum(
        1 for f in generate_set("Tminus", 4) if shape_of(f)[0] == shape
    )
    # every family against its own enumeration, shape by shape
    for n in range(1, 8):
        for family in ("G", "G0", "G1", "G2", "T", "Tplus", "Tminus", "Bl", "Br"):
            tally = Counter(shape_of(f)[0] for f in generate_set(family, n) if f.is_tree)
            shapes = all_shapes(n)
            assert set(tally) <= set(shapes)
            for shape in shapes:
                assert oracle_count_indexings(shape, family) == tally[shape], (str(shape), family)
    with pytest.raises(ValueError):
        oracle_count_indexings(PlaneTree((PlaneTree(),) * 8), "G")


def test_oracle_matches_counts_on_every_shape_at_degree_8():
    shapes = [shape_of(f)[0] for f in generate_set("Bl", 8)]
    assert len(shapes) == 429
    for shape in shapes:
        for family in ("G", "T"):
            expected = count_indexings(shape, family)
            assert oracle_count_indexings(shape, family) == expected, (str(shape), family)


# --- canonical indexings and ladders -----------------------------------------

CANONICAL_CASES = [
    ("0[0]", "G0", "1[2]"),
    ("0[0]", "Bl", "2[1]"),
    ("0[0 0]", "G0", "1[2 3]"),
    ("0[0 0]", "Bl", "3[1 2]"),
    ("0[0[0]]", "G0", "1[3[2]]"),
    ("0[0[0]]", "Bl", "3[2[1]]"),
    ("0[0[0] 0]", "G0", "1[3[2] 4]"),
    ("0[0[0] 0]", "Bl", "4[2[1] 3]"),
    ("0[0 0[0]]", "G0", "1[2 4[3]]"),
    ("0[0 0[0]]", "Bl", "4[1 3[2]]"),
    ("0[0[0[0]]]", "G0", "1[4[2[3]]]"),
    ("0[0[0[0]]]", "Bl", "4[3[2[1]]]"),
]


@pytest.mark.parametrize("shape,family,expected", CANONICAL_CASES)
def test_canonical_indexing_frozen(shape, family, expected):
    assert str(canonical_indexing(parse_plane_tree(shape), family)) == expected


def test_canonical_indexing_is_the_unique_member():
    for n in range(1, 6):
        for shape in all_shapes(n):
            for family in ("G0", "Bl"):
                tree = canonical_indexing(shape, family)
                forest = OrderedForest((tree,))
                assert shape_of(forest)[0] == shape
                assert membership(family, forest)
                same_shape = [
                    f
                    for f in generate_set(family, n)
                    if f.is_tree and shape_of(f)[0] == shape
                ]
                assert same_shape == [forest]


def test_canonical_indexing_bad_family():
    with pytest.raises(ValueError):
        canonical_indexing(parse_plane_tree("0"), "T")


def test_ladders_frozen():
    assert {s: str(t) for s, t in ladders(4).items()} == {
        "++++": "1[4[2[3]]]",
        "+++-": "4[1[3[2]]]",
        "++--": "4[3[1[2]]]",
        "+---": "4[3[2[1]]]",
    }
    assert {s: str(t) for s, t in ladders(1).items()} == {"+": "1"}
    assert {s: str(t) for s, t in ladders(2).items()} == {"++": "1[2]", "+-": "2[1]"}


def test_ladders_are_the_chain_members():
    for n in range(1, 7):
        lads = ladders(n)
        assert len(lads) == n
        for sig, tree in lads.items():
            forest = OrderedForest((tree,))
            assert signature_of(forest) == sig
            assert forest in generate_set("G", n, sig)
            # chain shape: every vertex has at most one child
            node = tree
            while node.children:
                (node,) = node.children
        # no other chain-shaped member exists in any signature set
        chains = [
            f
            for f in generate_set("G", n)
            if f.is_tree and all(len(c.children) <= 1 for c in _vertices(f.trees[0]))
        ]
        assert len(chains) == n


def test_ladders_match_the_wrapped_all_plus_chains():
    # the construction by the moves: the all-plus chain on 1..i, wrapped n - i times
    for n in range(1, 31):
        chain, expected = PlaneTree(), {}
        for i in range(1, n + 1):
            tree = canonical_indexing(chain, "G0")
            for _ in range(n - i):
                tree = b_minus(OrderedForest((tree,)))
            expected["+" * i + "-" * (n - i)] = tree
            chain = PlaneTree((chain,))
        assert list(ladders(n).items()) == list(expected.items()), n


def test_ladders_are_linear_in_their_output():
    start = time.perf_counter()
    lads = ladders(600)
    elapsed = time.perf_counter() - start
    assert len(lads) == 600 and elapsed <= 2.0, elapsed
    top = lads["+" * 600]
    assert (top.label, top.children[0].label) == (1, 600)


def _vertices(tree):
    yield tree
    for c in tree.children:
        yield from _vertices(c)


# --- word bases over family trees --------------------------------------------


def test_allplus_words_equal_allplus_forests():
    # the all-plus family is the free monoid over its trees
    for n in range(1, 6):
        assert generate_words("G0", n) == generate_set("G0", n)


def test_signed_words_differ_from_signed_forests():
    # one level of signing already breaks freeness: at degree 4 the word
    # count (29) exceeds the signature-union count (19)
    assert len(generate_set("G1", 4)) == 19
    assert len(generate_words("G1", 4)) == 29


def test_signature_forest_products_are_g_words():
    # the hopf suite's factor-closure-signature-products row (degrees <= 6)
    # takes the span of the G forests under the product to be the G words
    layers = [{EMPTY_FOREST}]
    for d in range(1, 7):
        layer = set(generate_set("G", d))
        for k in range(1, d):
            layer |= {concat(g, w) for g in generate_set("G", k) for w in layers[d - k]}
        assert layer == generate_words("G", d)
        layers.append(layer)


def test_br_layer_frozen():
    assert texts(generate_set("Br", 3)) == ["1[2 3]", "1[3[2]]"]
    assert texts(generate_set("Br", 2)) == ["1[2]"]


def test_br_trees_are_the_single_vertex_right_grafted_with_bl_words():
    # the enumeration, and the membership peel on the root's children, against
    # one right graft of each Bl word
    for n in range(2, ENUMERATION_MAX_DEGREE + 1):
        grafted = {rgraft_basis(SINGLE_VERTEX, w) for w in generate_words("Bl", n - 1)}
        assert grafted == generate_set("Br", n), n
        assert all(membership("Br", f) for f in grafted), n


def test_br_at_degree_8_is_one_tree_per_plane_shape():
    # past the degree the concat/rgraft closure is generated to
    layer = generate_set("Br", 8)
    assert len(layer) == series_coefficients("B0_trees", 8)[8] == 429
    assert {shape_of(f) for f in layer} == {shape_of(f) for f in generate_set("Bl", 8)}
    assert all(f.trees[0].label == 1 for f in layer)
    for n in range(1, 9):
        for shape in all_shapes(n):
            assert oracle_count_indexings(shape, "Br") == 1, str(shape)


# --- the trees the surgery builds --------------------------------------------

# Run in a fresh interpreter: a forest equal to one built elsewhere in the
# session, from trees made by hand, is that interned forest with its leaves.
_CONSTRUCTOR_CHECK = """
from graftwood.families import _moves, b_minus, b_plus, generate_set, generate_words
from graftwood.forest import (
    OrderedTree, PlaneTree, admissible_cuts, concat, cut_split, parse_forest,
    shape_of, standardize,
)

def nodes(trees):
    stack = list(trees)
    while stack:
        t = stack.pop()
        yield t
        stack.extend(t.children)

forests = {f for n in range(1, 7) for f in generate_set("G", n)}
forests |= {w for n in range(1, 7) for w in generate_words("T", n)}
kept, peeled, shapes = [], [], []
for f in forests:
    kept += f.trees + parse_forest(f.text).trees + concat(f, f).trees
    kept += standardize(f.trees[::-1]).trees + (b_plus(f), b_minus(f))
    for cut in admissible_cuts(f):
        for leg in cut_split(f, cut):
            kept += leg.trees
    if f.degree > 1:
        for _, removed, rest in _moves(f.trees):
            peeled += (removed,) + rest
        for _, removed, rest in _moves(shape_of(f)):
            shapes += (removed,) + rest
leaves = {}
for t in nodes(kept):
    assert type(t) is OrderedTree and type(t.children) is tuple, t
    if not t.children:
        assert leaves.setdefault(t.label, t) is t, t
for t in nodes(peeled):
    assert type(t) is OrderedTree and type(t.children) is tuple, t
for t in nodes(shapes):
    assert type(t) is PlaneTree and type(t.children) is tuple, t
"""


def test_the_constructors_build_plain_trees_over_shared_leaves(fresh_python):
    """Every tree built on the hot paths, from every G forest and T word of
    degree <= 6, is a plain OrderedTree (a PlaneTree for shapes) over a tuple
    of children, and each label has one leaf.  The rests of ``_moves`` are
    peeled, not kept, so an unhung root there may be a leaf of its own: only
    their types are checked."""
    proc = fresh_python(["-c", _CONSTRUCTOR_CHECK])
    assert proc.returncode == 0, proc.stderr.decode()
