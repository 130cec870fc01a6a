"""Families of labelled forests generated by the two vertex-append moves.

A forest of degree n is reached from the single vertex by a sequence of
moves, one per added vertex.  At step k the move is either

* "-": wrap the whole forest under a new root labelled k (``b_minus``), or
* "+": append the new vertex k as a bare tree, or hang it as the new
  rightmost child of the root of some tree while the trees to its right
  become the new vertex's children (``forest._hang``; ``b_plus`` hangs at the
  first tree).

``_moves`` undoes them: it lists each vertex that may have been added last.
Reading the moves as letters gives the signature of the forest.  The first
letter is conventionally "+" (both moves agree on a single vertex).  Several
families are carved out of this picture:

* ``G``      every forest reachable by some signature,
* ``G0``     the all-plus signature only,
* ``G<i>``   signatures whose minus letters sit in the last i positions,
* ``T``      trees built from sequences of whole-forest moves applied to
             products of smaller such trees (two orientations, ``Tplus`` and
             ``Tminus``),
* ``Bl``     trees built with the wrap move only,
* ``Br``     the single vertex right-grafted with a ``Bl`` word: root 1
             over a ``Bl`` word on the labels 2..n (the closure of the
             single vertex under concatenation and the right graft),
* ``B``      forests whose label-block factors are all ``T`` trees (the
             word basis the coproduct lives on).
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator

from .forest import (
    EMPTY_FOREST,
    OrderedForest,
    OrderedTree,
    PlaneTree,
    SINGLE_VERTEX,
    _check_degree,
    _hang,
    _leaf,
    concat,
    rgraft_basis,
)

__all__ = [
    "NotInFamilyError",
    "b_minus",
    "b_plus",
    "canonical_signature",
    "signature_of",
    "generate_set",
    "generate_words",
    "membership",
    "count_indexings",
    "oracle_count_indexings",
    "canonical_indexing",
    "ladders",
    "is_basis_forest",
]

ENUMERATION_MAX_DEGREE = 8


class NotInFamilyError(ValueError):
    """Raised when a forest cannot be produced by the requested moves."""


def b_minus(forest: OrderedForest) -> OrderedTree:
    """Wrap the forest under a new maximal root (single vertex if empty)."""
    if forest.is_empty:
        return _leaf(1)
    return tuple.__new__(OrderedTree, (forest.degree + 1, forest.trees))


def b_plus(forest: OrderedForest) -> OrderedTree:
    """Hang a new maximal vertex as the rightmost child of the first tree's
    root; the remaining trees become the new vertex's children."""
    if forest.is_empty:
        return _leaf(1)
    return _hang(forest.trees, 0, forest.degree + 1)[0]


# --- signatures -------------------------------------------------------------


def canonical_signature(signature: str) -> str:
    """Normalize a signature string: commas and spaces are dropped, a unicode
    minus is accepted, and the first letter is forced to '+'."""
    cleaned = signature.replace(",", "").replace(" ", "").replace("−", "-")
    if not cleaned or any(ch not in "+-" for ch in cleaned):
        raise ValueError("signature must be a nonempty word over '+'/'-': %r" % signature)
    return "+" + cleaned[1:]


def signature_of(forest: OrderedForest) -> str:
    """Recover the move sequence, canonicalized to start with '+'.

    The peel is deterministic: at most one removal shape matches the maximal
    label at each step.  Raises NotInFamilyError when none does.
    """
    if forest.is_empty:
        raise NotInFamilyError("the empty forest has no signature")
    trees, letters = forest.trees, []
    for k in range(forest.degree, 1, -1):
        move = next((m for m in _moves(trees) if m[1].label == k), None)
        if move is None:
            raise NotInFamilyError("vertex %d is not removable in %s" % (k, forest.text))
        letters.append(move[0])
        trees = move[2]
    return "+" + "".join(reversed(letters))


@lru_cache(maxsize=None)
def _signature_set(signature: str) -> frozenset[OrderedForest]:
    """All forests with the given canonical signature."""
    if len(signature) == 1:
        return frozenset({SINGLE_VERTEX})
    n = len(signature)
    out: set[OrderedForest] = set()
    for f in _signature_set(signature[:-1]):
        if signature[-1] == "-":
            out.add(OrderedForest((b_minus(f),)))
        else:
            out.add(OrderedForest(f.trees + (_leaf(n),)))
            out.update(OrderedForest(_hang(f.trees, i, n)) for i in range(len(f.trees)))
    return frozenset(out)


# --- family selectors -------------------------------------------------------

# ASCII digits only, and no leading zero, as for forest labels
_GI_RE = re.compile(r"G(0|[1-9][0-9]*)\Z")


def _parse_selector(selector: str) -> tuple[str, int | None]:
    if selector == "G":
        return "G", None
    m = _GI_RE.match(selector)
    if m:
        return "Gi", int(m.group(1))
    if selector in ("T", "Tplus", "Tminus", "Bl", "Br", "B"):
        return selector, None
    raise ValueError("unknown family selector: %r" % selector)


def generate_set(
    selector: str, n: int, signature: str | None = None
) -> frozenset[OrderedForest]:
    """Enumerate the degree-n members of a family.

    G/G0/G<i> selectors return forests (the union over the admissible
    signatures); the tree families (T, Tplus, Tminus, Bl, Br) return their
    trees as single-tree forests, Br as the single vertex right-grafted with
    each Bl word of degree n - 1.  A signature narrows the G selector to one
    signature set and is rejected for every other selector.
    """
    kind, i = _parse_selector(selector)
    _check_degree("set " + selector, n, ENUMERATION_MAX_DEGREE)
    if signature is not None:
        if kind != "G":
            raise ValueError("a signature can only narrow the G selector")
        sig = canonical_signature(signature)
        if len(sig) != n:
            raise ValueError("signature length %d does not match degree %d" % (len(sig), n))
        return _signature_set(sig)
    if kind in ("G", "Gi"):
        # the signatures whose letters before the last ``tail`` are all "+"
        tail = n - 1 if kind == "G" else min(i, n - 1)
        tails = itertools.product("+-", repeat=tail)
        return frozenset().union(*(_signature_set("+" * (n - tail) + "".join(t)) for t in tails))
    if kind == "Br":
        return frozenset(rgraft_basis(SINGLE_VERTEX, w) for w in _words_over("Bl", n - 1))
    if kind in _TREE_FAMILIES:
        return _tree_layer(kind, n)
    raise ValueError("selector %r cannot be enumerated by degree" % selector)


# --- the tree families T (and its one-sided halves) and Bl ------------------

# For each tree family: the moves that may add its top label, and the family
# whose words sit below that label.
_TREE_FAMILIES = {
    "T": ("+-", "T"),
    "Tplus": ("+", "T"),
    "Tminus": ("-", "T"),
    "Bl": ("-", "Bl"),
}


@lru_cache(maxsize=None)
def _tree_layer(kind: str, n: int) -> frozenset[OrderedForest]:
    if n == 1:
        return frozenset({SINGLE_VERTEX})
    top, below = _TREE_FAMILIES[kind]
    build = {"+": b_plus, "-": b_minus}
    words = _words_over(below, n - 1)
    return frozenset(OrderedForest((build[move](w),)) for move in top for w in words)


def generate_words(selector: str, n: int) -> frozenset[OrderedForest]:
    """All degree-n words (block concatenations) over a family's trees: a
    fresh set per call over the memoised layer."""
    _check_degree("words over " + selector, n, ENUMERATION_MAX_DEGREE, low=0)
    return frozenset(_words_over(selector, n))


@lru_cache(maxsize=None)
def _words_over(selector: str, n: int) -> tuple[OrderedForest, ...]:
    """The degree-n words as a tuple, which costs a fraction of a set.  A word
    is its first tree followed by a shorter word, and both are read back from
    it, so no word is built twice."""
    if n == 0:
        return (EMPTY_FOREST,)
    return tuple(
        concat(f, tail)
        for k in range(1, n + 1)
        for f in generate_set(selector, k)
        if f.is_tree
        for tail in _words_over(selector, n - k)
    )


# --- membership: the peel moves ---------------------------------------------


def _moves(trees: tuple) -> Iterator[tuple[str, tuple, tuple]]:
    """Each vertex the peel may remove next from a forest of degree >= 2, as
    (letter, removed vertex, what is left): the inverse of the moves.  "-"
    unwraps a lone root (``b_minus``), "+" drops a bare last tree or unhangs
    the last child of the last root (``_hang``).  The trees may be labelled
    (``OrderedTree``) or shapes (``PlaneTree``)."""
    last = trees[-1]
    kids = last.children
    if len(trees) == 1:
        yield "-", last, kids
    if kids:
        unhung = tuple.__new__(type(last), last[:-1] + (kids[:-1],))  # a tree or a shape
        rest = trees[:-1] + (unhung,) + kids[-1].children
        yield "+", kids[-1], rest
    else:
        yield "+", last, trees[:-1]


def _g_count(trees: tuple, n: int, floor: int, labelled: bool) -> int:
    """Complete peel sequences of a degree-n forest, with "-" only while more
    than ``floor`` vertices are left.  A labelled forest follows the one move
    that removes its top label, so it counts 1 when it lies in the family."""
    count, stack = 0, [(trees, n)]
    while stack:
        trees, k = stack.pop()
        if k == 1:
            count += 1
            continue
        stack.extend(
            (rest, k - 1)
            for letter, removed, rest in _moves(trees)
            if (letter == "+" or k > floor) and (not labelled or removed.label == k)
        )
    return count


def _word_count(trees: tuple, offset: int, top: str, moves: str, labelled: bool) -> int:
    """Product of the trees' peel sequences, each tree on the next consecutive
    label block from offset + 1 on: its top label by one of the ``top`` moves,
    then what is left as a word built by ``moves``.  A labelled tree must
    remove exactly the labels of its block."""
    total = 1
    for t in trees:
        size = t.degree
        if size == 1:
            total *= not labelled or t.label == offset + 1
        else:
            total *= sum(
                _word_count(rest, offset, moves, moves, labelled)
                for letter, removed, rest in _moves((t,))
                if letter in top and (not labelled or removed.label == offset + size)
            )
        offset += size
    return total


def _count(kind: str, i: int | None, trees: tuple, n: int, labelled: bool) -> int:
    """Peel sequences in a family of the trees of a nonempty degree-n forest:
    for a labelled forest 1 when it is a member and 0 when not, for shapes
    the number of their labellings in the family."""
    if kind == "B":
        return _word_count(trees, 0, "+-", "+-", labelled)
    if kind in ("G", "Gi"):
        # G<i> allows "-" only on the labels above n - i
        return _g_count(trees, n, 0 if kind == "G" else n - i, labelled)
    if len(trees) != 1:
        return 0
    if kind == "Br":
        # root 1 over a Bl word on the labels 2..n
        root = trees[0]
        return (not labelled or root.label == 1) * _word_count(root.children, 1, "-", "-", labelled)
    top, below = _TREE_FAMILIES[kind]
    return _word_count(trees, 0, top, _TREE_FAMILIES[below][0], labelled)


def is_basis_forest(forest: OrderedForest) -> bool:
    """True when the forest is a word over T trees (the empty word counts)."""
    return membership("B", forest)


def membership(selector: str, forest: OrderedForest) -> bool:
    """Decide whether a forest belongs to a family.

    The G selectors accept forests; the tree selectors require a single tree.
    ``B`` accepts any word over T trees, including the empty forest.
    """
    kind, i = _parse_selector(selector)
    if forest.is_empty:
        return kind == "B"
    return bool(_count(kind, i, forest.trees, forest.degree, True))


# --- counting indexings of a shape ------------------------------------------


def count_indexings(shape: PlaneTree, family: str) -> int:
    """Number of ways to label a shape into the family ("G" or "T").

    For "G": one plus, for each proper depth i along the leftmost path, the
    product of the fertilities of the path vertices at depth <= i.

    For "T": the recursive count a(v); a leaf counts 1, and an inner vertex
    with children c_1..c_k counts prod a(c_j) plus, for each split point i,
    (prod of a(c_j) for j < i) times (prod over the children d of each c_j
    with j >= i of a(d)).
    """
    if family == "G":
        total, prod = 1, 1
        node = shape
        while node.children:
            prod *= len(node.children)
            total += prod
            node = node.children[0]
        return total
    if family == "T":
        return _t_indexings(shape)[0]
    raise ValueError("count_indexings supports the families 'G' and 'T', got %r" % family)


def _t_indexings(v: PlaneTree) -> tuple[int, int]:
    """(a(v), the product of a over v's children), with the split terms
    summed from the last child back in one pass."""
    total, splits, tail = 1, 0, 1
    for a, below in map(_t_indexings, reversed(v.children)):
        total, tail = total * a, tail * below
        splits = a * splits + tail
    return total + splits, total


def oracle_count_indexings(shape: PlaneTree, family: str = "G") -> int:
    """Count the complete peel move sequences of the unlabelled shape.

    Each sequence labels the vertex removed at step k by k, and a labelling
    lies in the family exactly when its peel follows one, so the sequences
    are the labellings.  Independent of the counting formulas.  A word
    multiplies over its trees' consecutive label blocks; a Br tree is its
    root 1 over a Bl word on the labels 2..n.
    Guarded to degree <= 8.
    """
    n = shape.degree
    _check_degree("oracle", n, ENUMERATION_MAX_DEGREE)
    kind, i = _parse_selector(family)
    return _count(kind, i, (shape,), n, False)


# --- canonical indexings and ladders ----------------------------------------


def canonical_indexing(shape: PlaneTree, family: str) -> OrderedTree:
    """The unique labelling of a shape inside an index-one family.

    "G0": peel the root's last child v, label the shape with v removed, then
    re-attach via the plus move (v's children ride along as new trees first).
    "Bl": label in post-order (each subtree before its root, left to right).
    """
    if family == "G0":
        return _canonical_allplus(shape)
    if family == "Bl":
        counter = itertools.count(1)

        def go(s: PlaneTree) -> OrderedTree:
            kids = tuple(go(c) for c in s.children)
            return OrderedTree(next(counter), kids)

        return go(shape)
    raise ValueError("canonical_indexing supports 'G0' and 'Bl', got %r" % family)


def _canonical_allplus(shape: PlaneTree) -> OrderedTree:
    if not shape.children:
        return _leaf(1)
    last = shape.children[-1]
    head = _canonical_allplus(PlaneTree(shape.children[:-1]))
    forest = OrderedForest((head,))
    for sub in last.children:
        forest = concat(forest, OrderedForest((_canonical_allplus(sub),)))
    return b_plus(forest)


def ladders(n: int) -> dict[str, OrderedTree]:
    """The n chain-shaped members of the signature families, one per
    canonical signature of length n (plus block first, then minus letters).
    From the root down, +^i -^(n-i) reads n, ..., i+1, one root per minus,
    then the all-plus chain 1, i, 2, i-1, ... (``_canonical_allplus``)."""
    if n < 1:
        raise ValueError("degree must be positive")
    out: dict[str, OrderedTree] = {}
    for i in range(1, n + 1):
        labels = [*range(n, i, -1), *(i - k // 2 if k % 2 else k // 2 + 1 for k in range(i))]
        tree = _leaf(labels.pop())
        for label in reversed(labels):
            tree = OrderedTree(label, (tree,))
        out["+" * i + "-" * (n - i)] = tree
    return out
