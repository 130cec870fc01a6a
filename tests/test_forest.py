"""Core forest surgery: grammar round-trips, cuts, and the three grafts."""

import copy
import functools
import gc
import itertools
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftwood.families import generate_set, ladders
from graftwood.forest import (
    _INTERNED,
    _MAX_CUTS,
    _MAX_DEPTH,
    _MAX_DIGITS,
    _count_cuts,
    BothUnitsError,
    EMPTY_FOREST,
    ForestSyntaxError,
    OrderedForest,
    OrderedTree,
    PlaneTree,
    admissible_cuts,
    blocks,
    concat,
    cut_split,
    format_forest,
    lgraft_basis,
    nwarrow,
    parse_forest,
    parse_plane_tree,
    rgraft_basis,
    rightmost_path,
    shape_of,
    standardize,
)


ROUND_TRIPS = [
    "()",
    "1",
    "1 2",
    "1[2]",
    "2[1]",
    "2[4[1] 3]",
    "1[2 3] 4",
    "3[1[2] 4] 5",
    "1 2 3 4 5",
    "5[4[3[2[1]]]]",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_parse_format_round_trip(text):
    assert format_forest(parse_forest(text)) == text


def test_parse_normalizes_whitespace():
    assert parse_forest("  2[ 4[1]   3 ] ").text == "2[4[1] 3]"


# each rejected text with its message
REJECTS = {
    "": "empty input (the empty forest is written '()')",
    "1 1": "labels must be exactly 1..2, got [1, 1]",
    "1 3": "labels must be exactly 1..2, got [1, 3]",
    "0": "labels must be exactly 1..1, got [0]",
    "2": "labels must be exactly 1..1, got [2]",
    "1[": "unexpected end of input",
    "1]": "unbalanced closing bracket",
    "[1]": "expected a label, got '['",
    "1[2": "unexpected end of input",
    "a": "unexpected character 'a' at position 0",
    "1,2": "unexpected character ',' at position 1",
    "() 1": "unexpected character '(' at position 0",
    "\u0661": "unexpected character '\u0661' at position 0",
    "1[\uff12]": "unexpected character '\uff12' at position 2",
    "01": "label '01' has a leading zero",
    "1[02]": "label '02' has a leading zero",
    "2[1] 03": "label '03' has a leading zero",
    "1[]": "expected a label, got ']'",
    "1[2] [3]": "expected a label, got '['",
    "1[2]]": "unbalanced closing bracket",
    "1[2 3]x": "unexpected character 'x' at position 6",
    # a stray character is reported before any grammar error
    "1]x": "unexpected character 'x' at position 2",
}


@pytest.mark.parametrize("bad", list(REJECTS))
def test_parse_rejects(bad):
    with pytest.raises(ForestSyntaxError) as err:
        parse_forest(bad)
    assert str(err.value) == REJECTS[bad]


_CHARS = st.sampled_from("0123456789[] \t\u00a0x(,\u0661")


@st.composite
def near_forest_texts(draw):
    """A forest's text with up to three characters inserted, dropped or replaced."""
    texts = ROUND_TRIPS + ["1[2[3] 4[5 6]] 7", "10[9 8[7]] 6 5[4 3[2 1]]"]
    text = list(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text[i : i + draw(st.integers(0, 1))] = draw(st.text(_CHARS, max_size=1))
    return "".join(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.one_of(st.text(_CHARS, max_size=16), near_forest_texts()))
def test_parse_accepts_or_rejects_cleanly(text):
    """Any string parses to a forest that reads back from its text, or raises
    ForestSyntaxError; no other exception escapes."""
    try:
        forest = parse_forest(text)
    except ForestSyntaxError:
        pass
    else:
        assert parse_forest(forest.text) == forest
    try:
        shape = parse_plane_tree(text)
    except ForestSyntaxError:
        pass
    else:
        assert parse_plane_tree(str(shape)) == shape


def _chain(n):
    return "".join("%d[" % i for i in range(1, n)) + str(n) + "]" * (n - 1)


def test_parse_nesting_cap():
    assert parse_forest(_chain(_MAX_DEPTH)).degree == _MAX_DEPTH
    for depth in (_MAX_DEPTH + 1, 1500):
        with pytest.raises(ForestSyntaxError, match="nested deeper"):
            parse_forest(_chain(depth))
    # the cap counts the vertices on one root-to-leaf path, not in the forest
    two = parse_forest(_chain(_MAX_DEPTH) + " %d" % (_MAX_DEPTH + 1))
    assert two.degree == _MAX_DEPTH + 1
    with pytest.raises(ForestSyntaxError):
        parse_plane_tree("0[" * _MAX_DEPTH + "0" + "]" * _MAX_DEPTH)


def test_parse_rejects_labels_past_the_int_conversion_limit():
    # int() refuses more digits than this with a plain ValueError
    message = "label has %d digits, more than %d" % (_MAX_DIGITS + 1, _MAX_DIGITS)
    for parse in (parse_forest, parse_plane_tree):
        for text in ("1" * (_MAX_DIGITS + 1), "1[%s]" % ("2" * (_MAX_DIGITS + 1))):
            with pytest.raises(ForestSyntaxError) as err:
                parse(text)
            assert str(err.value) == message
    # a label at the limit still converts; the shape reader ignores its value
    assert parse_plane_tree("9" * _MAX_DIGITS) == PlaneTree()


def test_labels_walk_in_preorder_with_an_explicit_stack():
    f = parse_forest("3[1 5[2]] 4")
    assert list(f.labels()) == [3, 1, 5, 2, 4]
    assert list(f.trees[0].labels()) == [3, 1, 5, 2]
    assert list(EMPTY_FOREST.labels()) == []
    # a generator nested per level would exceed the recursion limit here
    deep = OrderedTree(1)
    for label in range(2, 5001):
        deep = OrderedTree(label, (deep,))
    assert list(deep.labels()) == list(range(5000, 0, -1))
    assert list(OrderedForest((deep, OrderedTree(5001))).labels())[-2:] == [1, 5001]


def test_text_and_degree_of_a_deep_chain_walk_with_an_explicit_stack():
    # a walk nested per level would exceed the recursion limit here
    chain = ladders(600)["+" * 600]
    forest = OrderedForest((chain,))
    labels = list(forest.labels())
    assert forest.text == format_forest(forest) == "[".join(map(str, labels)) + "]" * 599
    assert forest.degree == chain.degree == 600
    shape = PlaneTree()
    for _ in range(4999):
        shape = PlaneTree((shape,))
    assert shape.degree == 5000


def test_shapes_print_and_peel_with_an_explicit_stack():
    # a walk nested per level would exceed the recursion limit here
    (shape,) = shape_of(OrderedForest((ladders(600)["+" * 600],)))
    assert str(shape) == "0[" * 599 + "0" + "]" * 599
    assert shape.degree == 600
    shapes = shape_of(parse_forest("2[4[1] 3] 5 6[8 7[9]]"))
    assert [str(s) for s in shapes] == ["0[0[0] 0]", "0", "0[0 0[0]]"]


def test_degree_and_flags():
    f = parse_forest("2[4[1] 3]")
    assert f.degree == 4 and f.is_tree and not f.is_empty
    assert EMPTY_FOREST.degree == 0 and EMPTY_FOREST.is_empty


def test_tree_types_are_immutable_tuples():
    tree = parse_forest("2[4[1] 3]").trees[0]
    assert repr(tree) == (
        "OrderedTree(label=2, children=(OrderedTree(label=4, children=(OrderedTree(label=1, "
        "children=()),)), OrderedTree(label=3, children=())))"
    )
    shape = parse_plane_tree("0[0[0] 0]")
    assert repr(shape) == (
        "PlaneTree(children=(PlaneTree(children=(PlaneTree(children=()),)), "
        "PlaneTree(children=())))"
    )
    rebuilt = OrderedTree(2, (OrderedTree(4, (OrderedTree(1),)), OrderedTree(3)))
    assert rebuilt == tree and hash(rebuilt) == hash(tree)
    assert PlaneTree(shape.children) == shape and hash(PlaneTree(shape.children)) == hash(shape)
    for obj, field in ((tree, "label"), (tree, "children"), (shape, "children")):
        with pytest.raises(AttributeError):
            setattr(obj, field, ())
    for obj in (tree, shape, parse_forest("2[4[1] 3] 5")):
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and type(clone) is type(obj) and str(clone) == str(obj)
    forest = parse_forest("2[4[1] 3] 5")
    assert not hasattr(forest, "__dict__")
    with pytest.raises(AttributeError):
        setattr(forest, "trees", ())
    assert repr(forest) == (
        "OrderedForest(trees=(OrderedTree(label=2, children=(OrderedTree(label=4, "
        "children=(OrderedTree(label=1, children=()),)), OrderedTree(label=3, children=()))), "
        "OrderedTree(label=5, children=())))"
    )


def test_forests_are_interned():
    forest = parse_forest("2[4[1] 3] 5")
    assert OrderedForest(forest.trees) is forest
    assert parse_forest("2[4[1] 3] 5") is parse_forest("2[4[1] 3] 5") is forest
    # equal trees that are other objects still give the live forest
    assert OrderedForest(pickle.loads(pickle.dumps(forest.trees))) is forest
    for clone in (pickle.loads(pickle.dumps(forest)), copy.copy(forest), copy.deepcopy(forest)):
        assert clone is forest
    assert hash(forest) == object.__hash__(forest)


def test_the_intern_table_drops_a_forest_nothing_holds():
    # labels no memo sees, so only this test holds the forest
    trees = (OrderedTree(9001, (OrderedTree(9002),)),)
    gc.collect()  # so that no other forest is freed while this test counts
    size = len(_INTERNED)
    forest = OrderedForest(trees)
    alive = weakref.ref(forest)
    assert _INTERNED[trees]() is forest and len(_INTERNED) == size + 1
    del forest
    assert alive() is None
    assert trees not in _INTERNED and len(_INTERNED) == size


def test_standardize_subforest():
    host = parse_forest("2[4[1] 3]")
    # remove vertex 1: the rest is 2[4 3], which standardizes to 1[3 2]
    t = host.trees[0]
    pruned = OrderedTree(t.label, (OrderedTree(4), t.children[1]))
    assert standardize((pruned,)).text == "1[3 2]"


def _rank_relabel(trees):
    """Reference for standardize: each label becomes its rank among all labels."""
    labels = []

    def collect(t):
        labels.append(t.label)
        for c in t.children:
            collect(c)

    for t in trees:
        collect(t)
    rank = {label: i for i, label in enumerate(sorted(labels), start=1)}

    def go(t):
        return OrderedTree(rank[t.label], tuple(go(c) for c in t.children))

    return tuple(go(t) for t in trees)


def _shifted(left, right):
    """Reference for concat: the right trees' labels go up by len(left labels)."""
    k = len(list(left.labels()))

    def go(t):
        return OrderedTree(t.label + k, tuple(go(c) for c in t.children))

    return left.trees + tuple(go(t) for t in right.trees)


def _raw_legs(forest, cut):
    """Both legs of a cut before standardization."""
    extracted = []

    def prune(t):
        if t.label in cut:
            extracted.append(t)
            return None
        return OrderedTree(t.label, tuple(k for k in map(prune, t.children) if k is not None))

    remainder = [r for r in map(prune, forest.trees) if r is not None]
    return extracted, remainder


def test_memoised_relabelling_matches_references_on_every_cut():
    for n in range(1, 6):
        for f in sorted(generate_set("G", n), key=str):
            for cut in admissible_cuts(f):
                legs = []
                for raw in _raw_legs(f, cut):
                    leg = standardize(raw)
                    assert leg.trees == _rank_relabel(raw), (f.text, sorted(cut))
                    assert leg.degree == len(list(OrderedForest(tuple(raw)).labels()))
                    legs.append(leg)
                assert cut_split(f, cut) == tuple(legs), (f.text, sorted(cut))
                lea, roo = legs
                for a, b in ((lea, roo), (roo, lea), (f, lea), (roo, f)):
                    assert concat(a, b).trees == _shifted(a, b), (a.text, b.text)
                    assert concat(a, b).text == format_forest(OrderedForest(_shifted(a, b)))


def test_memoised_relabelling_tells_label_orders_apart():
    # same shape, same label set, different order: neither key alone suffices
    a = (OrderedTree(3, (OrderedTree(5),)), OrderedTree(4))
    b = (OrderedTree(5, (OrderedTree(3),)), OrderedTree(4))
    assert (standardize(a).text, standardize(b).text) == ("1[3] 2", "3[1] 2")
    assert (standardize(b).text, standardize(a).text) == ("3[1] 2", "1[3] 2")
    x, y = parse_forest("1[2]"), parse_forest("2[1]")
    assert (concat(x, y).text, concat(y, x).text, concat(x, x).text) == (
        "1[2] 4[3]", "2[1] 3[4]", "1[2] 3[4]"
    )
    assert concat(y, y).text == "2[1] 4[3]"


def test_memoised_relabelling_accepts_any_sequence():
    f = parse_forest("3[1[2] 4] 5")
    trees = f.trees[0].children
    results = [standardize(list(trees)), standardize(tuple(trees)), standardize(OrderedForest(trees))]
    assert all(r == results[0] for r in results) and results[0].text == "1[2] 3"
    # equal inputs share one frozen forest, with its text computed once
    assert all(r is results[0] for r in results)
    assert standardize(f) is standardize(list(f.trees)) and standardize(f) == f
    g = parse_forest("1[2]")
    assert concat(g, f) is concat(OrderedForest(tuple(g.trees)), OrderedForest(tuple(f.trees)))


def test_shape_equality_ignores_labels():
    assert shape_of(parse_forest("3[1 2]")) == shape_of(parse_forest("1[2 3]"))
    assert shape_of(parse_forest("1[2 3]")) != shape_of(parse_forest("1[2[3]]"))


def test_parse_plane_tree_ignores_label_values():
    assert parse_plane_tree("0[0 0]") == shape_of(parse_forest("3[1 2]"))[0]
    with pytest.raises(ForestSyntaxError):
        parse_plane_tree("0 0")


# --- admissible cuts -------------------------------------------------------


def _parents(forest):
    out = {}

    def walk(t):
        for c in t.children:
            out[c.label] = t.label
            walk(c)

    for t in forest.trees:
        walk(t)
    return out


def _oracle_cuts(forest):
    """Independent brute force: every vertex subset that is an antichain."""
    parent = _parents(forest)

    def strict_ancestors(v):
        while v in parent:
            v = parent[v]
            yield v

    labels = sorted(forest.labels())
    cuts = set()
    for r in range(len(labels) + 1):
        for sub in itertools.combinations(labels, r):
            chosen = set(sub)
            if any(a in chosen for v in sub for a in strict_ancestors(v)):
                continue
            cuts.add(frozenset(sub))
    return cuts


@pytest.mark.parametrize(
    "text",
    ["1", "1 2", "2[4[1] 3]", "1[2 3] 4", "3[1[2] 4] 5", "1[2[3[4]]]", "2[1] 4[3] 5"],
)
def test_cuts_match_brute_force(text):
    f = parse_forest(text)
    assert admissible_cuts(f) == tuple(sorted(_oracle_cuts(f), key=sorted))


def test_cuts_match_brute_force_on_every_g_forest():
    for n in range(1, 6):
        for f in generate_set("G", n):
            assert admissible_cuts(f) == tuple(sorted(_oracle_cuts(f), key=sorted)), f.text


def test_cut_counts_pinned():
    # 16 subsets of the 4-vertex caterpillar, 7 of them antichains
    assert len(admissible_cuts(parse_forest("2[4[1] 3]"))) == 7
    # a chain of n vertices has n+1 antichains
    for n, text in [(1, "1"), (2, "2[1]"), (3, "1[3[2]]"), (4, "1[4[2[3]]]")]:
        assert len(admissible_cuts(parse_forest(text))) == n + 1


def test_cut_count_formula_matches_enumeration():
    for n in range(1, 6):
        for f in generate_set("G", n):
            count = 1
            for t in f.trees:
                count *= _count_cuts(t)
            assert count == len(admissible_cuts(f)), f.text


def test_cut_budget():
    # n isolated vertices have 2^n cuts: 16 sit exactly at the budget
    assert _MAX_CUTS == 2**16
    assert len(admissible_cuts(parse_forest(" ".join(map(str, range(1, 17)))))) == 2**16
    with pytest.raises(ValueError, match="budget"):
        admissible_cuts(parse_forest(" ".join(map(str, range(1, 18)))))


def test_cuts_deterministic_order():
    f = parse_forest("1 2")
    assert [sorted(c) for c in admissible_cuts(f)] == [[], [1], [1, 2], [2]]


def test_empty_forest_has_only_empty_cut():
    assert admissible_cuts(EMPTY_FOREST) == (frozenset(),)


CUT_SPLITS = [
    # host "2[4[1] 3]", one case per proper cut
    ("2[4[1] 3]", {1}, "1", "1[3 2]"),
    ("2[4[1] 3]", {3}, "1", "2[3[1]]"),
    ("2[4[1] 3]", {4}, "2[1]", "1[2]"),
    ("2[4[1] 3]", {1, 3}, "1 2", "1[2]"),
    ("2[4[1] 3]", {3, 4}, "3[1] 2", "1"),
    ("2[4[1] 3]", {2}, "2[4[1] 3]", "()"),
    ("2[4[1] 3]", set(), "()", "2[4[1] 3]"),
]


@pytest.mark.parametrize("host,cut,lea,roo", CUT_SPLITS)
def test_cut_split_frozen(host, cut, lea, roo):
    left, right = cut_split(parse_forest(host), frozenset(cut))
    assert (left.text, right.text) == (lea, roo)


def test_cut_split_rejects_non_antichain():
    f = parse_forest("2[4[1] 3]")
    with pytest.raises(ValueError, match=r"^cut is not an antichain: \[2, 4\]$"):
        cut_split(f, frozenset({2, 4}))
    with pytest.raises(ValueError, match="^cut contains labels outside the forest$"):
        cut_split(f, frozenset({5}))
    with pytest.raises(ValueError, match="^cut contains labels outside the forest$"):
        cut_split(f, frozenset({1, 5}))


def test_rightmost_path():
    for text, path in [
        ("1", (1,)),
        ("1 2[3]", (2, 3)),
        ("2[4[1] 3]", (2, 3)),
        ("3[1[2] 4] 5[6[7] 8[9]]", (5, 8, 9)),
        ("1[2[3[4]]]", (1, 2, 3, 4)),
    ]:
        f = parse_forest(text)
        assert rightmost_path(f) == path
    with pytest.raises(ValueError, match="no leaves"):
        rightmost_path(EMPTY_FOREST)


# --- concatenation --------------------------------------------------------


def test_concat_shifts_right_factor():
    a, b = parse_forest("1[2]"), parse_forest("2[1]")
    assert concat(a, b).text == "1[2] 4[3]"
    assert concat(EMPTY_FOREST, a) is a and concat(a, EMPTY_FOREST) is a


@pytest.mark.parametrize(
    "text, factors",
    [
        ("1 2 3", ["1", "1", "1"]),
        ("1 3[2] 4", ["1", "2[1]", "1"]),
        ("2[1] 3[4]", ["2[1]", "1[2]"]),
        ("3[1] 2 4 6[5]", ["3[1] 2", "1", "2[1]"]),
        ("1[2] 4 3", ["1[2]", "2 1"]),
    ],
)
def test_blocks_are_the_finest_standardized_factors(text, factors):
    f = parse_forest(text)
    assert [b.text for b in blocks(f)] == factors
    product = EMPTY_FOREST
    for b in blocks(f):
        product = concat(product, b)
    assert product == f


def test_a_forest_without_a_block_prefix_is_its_own_factor():
    for text in ("()", "1", "2[4[1] 3]", "2 1", "3[1] 2"):
        f = parse_forest(text)
        assert blocks(f) == (f,) and blocks(f)[0] is f


def test_rightmost_leaf():
    for text, leaf in [("1", 1), ("1 2[3]", 3), ("2[1 3]", 3), ("2[4[1] 3]", 3)]:
        assert rightmost_path(parse_forest(text))[-1] == leaf
    with pytest.raises(ValueError):
        rightmost_path(EMPTY_FOREST)[-1]


# --- grafting surgery ------------------------------------------------------

NWARROW_CASES = [
    ("1 2 3", "1[2]", "1 2 5[3[4]]"),
    ("2[1]", "2[1]", "4[3[2[1]]]"),
    ("1 2[3]", "2[1]", "1 2[5[4[3]]]"),
    ("1[2]", "1 2", "1[4[2 3]]"),
    ("1 2", "1 2", "1 4[2 3]"),
    ("2[1 3]", "1", "2[1 4[3]]"),
    ("1", "1 2", "3[1 2]"),
]


@pytest.mark.parametrize("f,g,expected", NWARROW_CASES)
def test_nwarrow_frozen(f, g, expected):
    assert nwarrow(parse_forest(f), parse_forest(g)).text == expected


def test_nwarrow_units():
    f = parse_forest("1[2] 3")
    assert nwarrow(EMPTY_FOREST, f) == f
    assert nwarrow(f, EMPTY_FOREST) == f


LGRAFT_CASES = [
    ("1", "1[2]", "2[1 3]"),
    ("1 2", "1", "3[1 2]"),
    ("1", "1 2[3]", "2[1] 3[4]"),
    ("2[1]", "1[2] 3", "3[2[1] 4] 5"),
    ("1 2 3", "1", "4[1 2 3]"),
    ("1", "1[3[2]]", "2[1 4[3]]"),
    ("2[1 3]", "1", "4[2[1 3]]"),
    ("1 3[2]", "1", "4[1 3[2]]"),
    ("1 2", "1[3[2]]", "3[1 2 5[4]]"),
]


@pytest.mark.parametrize("f,g,expected", LGRAFT_CASES)
def test_lgraft_frozen(f, g, expected):
    assert lgraft_basis(parse_forest(f), parse_forest(g)).text == expected


def test_lgraft_conventions():
    f = parse_forest("1[2]")
    assert lgraft_basis(EMPTY_FOREST, f) == f
    assert lgraft_basis(f, EMPTY_FOREST) is None
    with pytest.raises(BothUnitsError):
        lgraft_basis(EMPTY_FOREST, EMPTY_FOREST)


RGRAFT_CASES = [
    ("1[2]", "1[2]", "1[2 4[3]]"),
    ("1", "1 2 3", "1[2 3 4]"),
    ("1 2", "1 2", "1 2[3 4]"),
    ("1 3[2]", "1", "1 3[2 4]"),
    ("1 2", "1[2 3]", "1 2[5[3 4]]"),
    ("1[2]", "1 2[3]", "1[2 3 5[4]]"),
    ("1[2]", "2[1 3]", "1[2 5[3 4]]"),
    ("1[2]", "2[3[1]]", "1[2 5[4[3]]]"),
    ("1", "2[1]", "1[3[2]]"),
    ("1", "1[2]", "1[3[2]]"),
]


@pytest.mark.parametrize("f,g,expected", RGRAFT_CASES)
def test_rgraft_frozen(f, g, expected):
    assert rgraft_basis(parse_forest(f), parse_forest(g)).text == expected


def test_rgraft_conventions():
    f = parse_forest("1[2]")
    assert rgraft_basis(f, EMPTY_FOREST) == f
    assert rgraft_basis(EMPTY_FOREST, f) is None
    with pytest.raises(BothUnitsError):
        rgraft_basis(EMPTY_FOREST, EMPTY_FOREST)


def test_grafts_collide_on_nested_chain():
    # the same degree-3 chain arises from both one-sided grafts
    dot = parse_forest("1")
    inner_r = rgraft_basis(dot, dot)
    inner_l = lgraft_basis(dot, dot)
    assert inner_r.text == "1[2]" and inner_l.text == "2[1]"
    assert rgraft_basis(dot, inner_r).text == "1[3[2]]"
    assert rgraft_basis(dot, inner_l).text == "1[3[2]]"


# --- the basis operations against a rank-relabel reference -----------------


def _plane_forests(n):
    """Every plane forest of n vertices, as a tuple of shapes."""
    if n == 0:
        return [()]
    return [
        (PlaneTree(kids),) + rest
        for k in range(1, n + 1)
        for kids in _plane_forests(k - 1)
        for rest in _plane_forests(n - k)
    ]


def _labelled_forests(n):
    """Every labelled plane forest of degree n, words or not: each plane
    forest with every order of 1..n on its vertices in preorder."""

    def label(shape, labels):
        return OrderedTree(next(labels), tuple(label(c, labels) for c in shape.children))

    return [
        OrderedForest(tuple(label(s, labels) for s in shapes))
        for shapes in _plane_forests(n)
        for labels in map(iter, itertools.permutations(range(1, n + 1)))
    ]


@functools.lru_cache(maxsize=None)
def _keyed(trees, prefix, suffix=()):
    """The trees as nested (key, children) pairs, the key of label a being
    prefix + (a,) + suffix, and the keys in preorder."""
    keys = []

    def go(t):
        keys.append(prefix + (t.label,) + suffix)
        return keys[-1], tuple(map(go, t.children))

    return tuple(map(go, trees)), keys


def _ranked(keys, *keyed):
    """Each forest of keyed trees as plain (label, children) tuples, each key
    replaced by its rank 1..n among the keys."""
    rank = dict(zip(sorted(keys), itertools.count(1)))

    def go(node):
        return rank[node[0]], tuple(map(go, node[1])) if node[1] else ()

    return [tuple(map(go, trees)) for trees in keyed]


def _reference_ops(left, right):
    """The trees of the four basis operations built as their docstrings state
    them: each vertex gets a sort key, and the keys are ranked to 1..n.  None
    where a graft vanishes."""
    if not (left.trees and right.trees):  # a unit, on the side a graft needs or not
        other = left.trees or right.trees
        return {"concat": other, "nwarrow": other,
                "lgraft": right.trees or None, "rgraft": left.trees or None}
    (lk, lkeys), (rk, rkeys) = _keyed(left.trees, (0,)), _keyed(right.trees, (1,))
    # lgraft: the left trees lead the children of the first right root
    lgrafted = ((rk[0][0], lk + rk[0][1]),) + rk[1:]
    concat_trees, lgraft_trees = _ranked(lkeys + rkeys, lk + rk, lgrafted)
    # rgraft: per right tree its other vertices in order, then its root (the
    # first key in preorder)
    hung, keys = (), list(lkeys)
    for j, t in enumerate(right.trees):
        ((_, kids),), tree_keys = _keyed((t,), (1, j, 0))
        hung += (((1, j, 1), kids),)
        keys += [(1, j, 1)] + tree_keys[1:]
    (rgraft_trees,) = _ranked(keys, lk[:-1] + ((lk[-1][0], lk[-1][1] + hung),))
    # nwarrow: the right trees hang below the rightmost leaf and rank just below it
    leaf = left.trees[-1]
    while leaf.children:
        leaf = leaf.children[-1]
    hung, hung_keys = _keyed(right.trees, (leaf.label, 0))

    def hang(v):
        return (v[0], hung) if not v[1] else (v[0], v[1][:-1] + (hang(v[1][-1]),))

    host, host_keys = _keyed(left.trees, (), (1,))
    (nwarrow_trees,) = _ranked(host_keys + hung_keys, host[:-1] + (hang(host[-1]),))
    return {"concat": concat_trees, "nwarrow": nwarrow_trees,
            "lgraft": lgraft_trees, "rgraft": rgraft_trees}


def test_basis_operations_match_the_rank_relabel_reference():
    # every ordered pair of nonempty labelled forests of total degree <= 6, the
    # empty forest on either side of every forest of degree <= 4, and two
    # chains at the depth cap, one labelled down and one up
    by_degree = [None] + [_labelled_forests(n) for n in range(1, 6)]
    assert [len(fs) for fs in by_degree[1:]] == [1, 4, 30, 336, 5040]
    pairs = [
        (a, b)
        for k in range(1, 6)
        for a in by_degree[k]
        for j in range(1, 7 - k)
        for b in by_degree[j]
    ]
    small = [f for fs in by_degree[1:5] for f in fs]
    pairs += [(EMPTY_FOREST, f) for f in small] + [(f, EMPTY_FOREST) for f in small]
    down = "".join("%d[" % i for i in range(_MAX_DEPTH, 1, -1)) + "1" + "]" * (_MAX_DEPTH - 1)
    chains = [parse_forest(_chain(_MAX_DEPTH)), parse_forest(down)]
    pairs += [(a, b) for a in chains for b in chains]
    ops = {"concat": concat, "nwarrow": nwarrow, "lgraft": lgraft_basis, "rgraft": rgraft_basis}
    for a, b in pairs:
        want = _reference_ops(a, b)
        for name, op in ops.items():
            got = op(a, b)
            assert (got and got.trees) == want[name], (name, a.text, b.text)
