"""Labelled plane forests: parsing, printing, cuts, and grafting surgery.

An ordered forest of degree n is a finite sequence of plane rooted trees whose
vertices carry each label 1..n exactly once.  Text form: a leaf prints as its
label, an inner vertex as ``label[child child ...]``, sibling trees are
separated by single spaces, and the empty forest prints as ``()``.

Trees and shapes are immutable named tuples, ``(label, children)`` and
``(children,)``, that hash and compare as plain tuples.  Every leaf the package
builds is the one leaf of its label (``_leaf``), and the hot paths build inner
vertices with ``tuple.__new__``, past the named tuple's Python constructor.
Forests are interned (hash-consed) immutable slotted objects over their trees,
through a dict of weak references that drop their own entries: equal forests
are one object, so they compare and hash by identity, and each takes its
degree and its text once, when first asked.  ``standardize``
is memoised on the trees and ``concat`` on the two forests; both return
shared forests, so each distinct cut leg is relabelled, measured and printed
once.  Cuts are not memoised: the coproduct keeps its own results.

Everything in this module is plain tree surgery; linear combinations live in
:mod:`graftwood.algebra`.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence


class ForestSyntaxError(ValueError):
    """Raised when a forest string does not match the grammar."""


class BothUnitsError(ValueError):
    """Raised when a graft gets the empty forest on both sides."""


class OrderedTree(NamedTuple):
    """A rooted plane tree with integer vertex labels."""

    label: int
    children: tuple["OrderedTree", ...] = ()

    @property
    def degree(self) -> int:
        return _size(self)

    def labels(self) -> Iterator[int]:
        """All vertex labels in preorder."""
        return iter(_preorder((self,)))

    def __str__(self) -> str:
        out, stack = [], [self]  # the stack holds trees and the text between them
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            else:
                out.append(str(getattr(t, "label", 0)))
                if t.children:  # "[", the children spaced apart and "]", pushed in reverse
                    stack += ["]", *(x for c in reversed(t.children) for x in (c, " "))]
                    stack[-1] = "["
        return "".join(out)


# The one leaf of each label: most vertices of a forest are leaves, and only a
# few labels occur, so sharing them saves most of the tree objects.
_leaf = lru_cache(maxsize=None)(OrderedTree)


class _Ref(weakref.ref):
    """A weak reference to an interned forest that carries its table key."""

    __slots__ = ("key",)


# The live forests by their trees, held weakly: a strong table would only grow,
# and clearing it would split equal forests into separate objects.  A plain dict
# of ``_Ref``s keeps the lookup and the registration in C; a dying forest's
# callback drops its entry.
_INTERNED: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, table: dict = _INTERNED) -> None:
    """Drop a dead forest's entry, unless a newer forest holds the key.  The
    table is bound here, so the callback still finds it while the interpreter
    tears the module down."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class OrderedForest:
    """A sequence of ordered trees; the labels are expected to be 1..degree.

    Immutable, without an instance ``__dict__``, and interned: trees equal to
    those of a live forest give that forest, so ``==`` and ``hash`` are
    ``object``'s own, by identity.
    """

    __slots__ = ("trees", "_degree", "_text", "__weakref__")

    def __new__(cls, trees: tuple[OrderedTree, ...] = ()):
        ref = _INTERNED.get(trees)
        if ref is not None:
            forest = ref()
            if forest is not None:
                return forest
        forest = object.__new__(cls)
        object.__setattr__(forest, "trees", trees)
        ref = _INTERNED[trees] = _Ref(forest, _forget)
        ref.key = trees
        return forest

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        return OrderedForest, (self.trees,)

    def __repr__(self) -> str:
        return "OrderedForest(trees=%r)" % (self.trees,)

    @property
    def degree(self) -> int:
        try:
            return self._degree
        except AttributeError:
            object.__setattr__(self, "_degree", sum(t.degree for t in self.trees))
            return self._degree

    @property
    def is_empty(self) -> bool:
        return not self.trees

    @property
    def is_tree(self) -> bool:
        return len(self.trees) == 1

    @property
    def text(self) -> str:
        try:
            return self._text
        except AttributeError:
            object.__setattr__(self, "_text", format_forest(self))
            return self._text

    def labels(self) -> Iterator[int]:
        return iter(_preorder(self.trees))

    def __str__(self) -> str:
        return self.text


class PlaneTree(NamedTuple):
    """An unlabelled plane rooted tree (a shape)."""

    children: tuple["PlaneTree", ...] = ()

    @property
    def degree(self) -> int:
        return _size(self)

    __str__ = OrderedTree.__str__  # one printer; a vertex without a label prints as 0


EMPTY_FOREST = OrderedForest(())
SINGLE_VERTEX = OrderedForest((_leaf(1),))

_TOKEN = re.compile(r"[0-9]+|[\[\]]")
_STRAY = re.compile(r"[^0-9\[\]\s]")

# Deepest root-to-leaf path, in vertices, that the parser accepts (the README
# states the rule).  The parser keeps its own stack, but some other tree walks
# recurse once per level and nwarrow stacks one input on the other, so the cap
# keeps twice its depth within Python's default recursion limit.
_MAX_DEPTH = 100
_MAX_DIGITS = 4300  # longest label: Python's default limit on the digits int() reads


def _size(t: OrderedTree | PlaneTree) -> int:
    """The vertices of a tree or shape, counted with an explicit stack."""
    n, stack = 0, [t]
    while stack:
        n += 1
        stack.extend(stack.pop().children)
    return n


def _preorder(trees: Sequence[OrderedTree]) -> list[int]:
    """The labels of the trees in preorder, walked with an explicit stack."""
    out, stack = [], list(reversed(trees))
    while stack:
        t = stack.pop()
        out.append(t.label)
        stack.extend(reversed(t.children))
    return out


def _parse_trees(text: str) -> tuple[OrderedTree, ...]:
    """The trees of a stripped, nonempty forest text, read in one pass."""
    stray = _STRAY.search(text)
    if stray:
        raise ForestSyntaxError(
            "unexpected character %r at position %d" % (stray.group(), stray.start())
        )
    levels: list[list[OrderedTree]] = [[]]  # the trees read so far at each open depth
    prev = "["  # a label must come first
    for tok in _TOKEN.findall(text):
        if tok == "]" and prev != "[":
            if len(levels) == 1:
                raise ForestSyntaxError("unbalanced closing bracket")
            kids = tuple(levels.pop())
            levels[-1][-1] = tuple.__new__(OrderedTree, (levels[-1][-1].label, kids))
        elif tok == "[" and prev.isdigit():
            levels.append([])
        elif not tok.isdigit():
            raise ForestSyntaxError("expected a label, got %r" % tok)
        elif len(tok) > 1 and tok[0] == "0":
            raise ForestSyntaxError("label %r has a leading zero" % tok)
        elif len(tok) > _MAX_DIGITS:
            raise ForestSyntaxError("label has %d digits, more than %d" % (len(tok), _MAX_DIGITS))
        elif len(levels) > _MAX_DEPTH:
            raise ForestSyntaxError("trees nested deeper than %d vertices" % _MAX_DEPTH)
        else:
            levels[-1].append(_leaf(int(tok)))
        prev = tok
    if prev == "[" or len(levels) > 1:
        raise ForestSyntaxError("unexpected end of input")
    return tuple(levels[0])


def parse_forest(text: str) -> OrderedForest:
    """Parse the text form of an ordered forest.

    The labels must be exactly 1..n for some n; ``()`` is the empty forest.
    """
    stripped = text.strip()
    if stripped == "()":
        return EMPTY_FOREST
    if not stripped:
        raise ForestSyntaxError("empty input (the empty forest is written '()')")
    trees = _parse_trees(stripped)
    forest = OrderedForest(trees)
    seen = sorted(forest.labels())
    if seen != list(range(1, forest.degree + 1)):
        raise ForestSyntaxError(
            "labels must be exactly 1..%d, got %s" % (forest.degree, seen)
        )
    return forest


def format_forest(forest: OrderedForest) -> str:
    """Inverse of :func:`parse_forest`."""
    if forest.is_empty:
        return "()"
    return " ".join(str(t) for t in forest.trees)


def parse_plane_tree(text: str) -> PlaneTree:
    """Parse a shape written in the forest grammar; label values are ignored."""
    stripped = text.strip()
    if not stripped or stripped == "()":
        raise ForestSyntaxError("a plane tree needs at least one vertex")
    trees = _parse_trees(stripped)
    if len(trees) != 1:
        raise ForestSyntaxError("expected a single tree, got %d" % len(trees))
    return shape_of(OrderedForest(trees))[0]


def shape_of(forest: OrderedForest) -> tuple[PlaneTree, ...]:
    """Forget the labels, with an explicit stack: a vertex comes off it again
    once its children's shapes are built, and takes them off the end of ``done``."""
    done: list[PlaneTree] = []
    stack = [(t, False) for t in reversed(forest.trees)]
    while stack:
        t, ready = stack.pop()
        if ready:
            n = len(done) - len(t.children)
            done[n:] = [PlaneTree(tuple(done[n:]))]
        else:
            stack += [(t, True), *((c, False) for c in reversed(t.children))]
    return tuple(done)


def _relabel(t: OrderedTree, remap) -> OrderedTree:
    """The same tree with every label replaced by remap(label)."""
    if not t.children:
        return _leaf(remap(t.label))
    return tuple.__new__(
        OrderedTree, (remap(t.label), tuple([_relabel(c, remap) for c in t.children]))
    )


def standardize(vertices: Sequence[OrderedTree] | OrderedForest) -> OrderedForest:
    """Relabel a sub-forest order-preservingly onto 1..k; memoised."""
    trees = vertices.trees if isinstance(vertices, OrderedForest) else tuple(vertices)
    return _standardized(trees)


@lru_cache(maxsize=None)
def _standardized(trees: tuple[OrderedTree, ...]) -> OrderedForest:
    labels = sorted(_preorder(trees))
    remap = {old: new for new, old in enumerate(labels, start=1)}
    return OrderedForest(tuple(_relabel(t, remap.__getitem__) for t in trees))


def concat(left: OrderedForest, right: OrderedForest) -> OrderedForest:
    """Concatenate, shifting the right factor's labels up by the left degree; memoised."""
    if not left.trees:
        return right
    if not right.trees:
        return left
    return _concatenated(left, right)


@lru_cache(maxsize=None)
def _concatenated(left: OrderedForest, right: OrderedForest) -> OrderedForest:
    k = left.degree
    return OrderedForest(left.trees + tuple(_relabel(t, k.__add__) for t in right.trees))


def blocks(forest: OrderedForest) -> tuple[OrderedForest, ...]:
    """The finest standardized factors b1, ..., bk whose ``concat`` in turn is
    the forest: runs of trees labelled exactly by the next 1..m, none with a
    proper block prefix.  A forest with none, () too, is its own only factor."""
    trees, runs, start, size, top = forest.trees, [], 0, 0, 0
    for k, t in enumerate(trees[:-1], start=1):
        labels = _preorder((t,))
        size, top = size + len(labels), max(top, *labels)
        if top == size:
            runs.append(trees[start:k])
            start = k
    return tuple(map(standardize, runs + [trees[start:]])) if runs else (forest,)


def root_labels(forest: OrderedForest) -> tuple[int, ...]:
    return tuple(t.label for t in forest.trees)


def rightmost_path(forest: OrderedForest) -> tuple[int, ...]:
    """Labels from the root of the last tree down to its rightmost leaf,
    always taking the last child."""
    if forest.is_empty:
        raise ValueError("the empty forest has no leaves")
    node = forest.trees[-1]
    path = [node.label]
    while node.children:
        node = node.children[-1]
        path.append(node.label)
    return tuple(path)


AdmissibleCut = frozenset[int]

# Most admissible cuts a forest may have before enumerating them is refused.
_MAX_CUTS = 2**16


def _count_cuts(t: OrderedTree) -> int:
    """Antichains of one tree: the root alone, or any choice in each child."""
    return 1 + math.prod(_count_cuts(c) for c in t.children)


def _cuts_of(trees: tuple[OrderedTree, ...]) -> Iterator[tuple[AdmissibleCut, ...]]:
    """The cuts of a forest by the recursion _count_cuts counts: one part per
    tree, each either the tree's root alone or a cut of its children."""
    return itertools.product(
        *(
            [frozenset({t.label})] + [frozenset().union(*c) for c in _cuts_of(t.children)]
            for t in trees
        )
    )


def _check_cut_budget(forest: OrderedForest) -> None:
    """Refuse a forest with more admissible cuts than the budget."""
    total = math.prod(_count_cuts(t) for t in forest.trees)
    if total > _MAX_CUTS:
        raise ValueError("%d admissible cuts exceed the budget of %d" % (total, _MAX_CUTS))


def _check_degree(what: str, n: int, top: int, low: int = 1) -> None:
    """Refuse a degree outside low..top: the one degree bound of every entry."""
    if not low <= n <= top:
        raise ValueError("%s takes degrees %d..%d, got %d" % (what, low, top, n))


def admissible_cuts(forest: OrderedForest) -> tuple[AdmissibleCut, ...]:
    """All antichains of the ancestry order, as label sets.

    Includes the empty cut and the total cut (all roots).  Deterministic
    order: lexicographic on the sorted label tuples, so () comes first,
    then (1), (1,2), ..., (2), ...
    """
    _check_cut_budget(forest)
    return tuple(sorted((frozenset().union(*c) for c in _cuts_of(forest.trees)), key=sorted))


def cut_split(
    forest: OrderedForest, cut: AdmissibleCut
) -> tuple[OrderedForest, OrderedForest]:
    """Split along a cut: (extracted sub-forest, remainder), both standardized.

    The extracted part lists the subtrees rooted at cut vertices in planar
    encounter order; the remainder is what is left after removing them.
    """
    cut = frozenset(cut)
    extracted, remainder = [], []
    stack = [(None, iter(forest.trees), remainder)]  # (vertex, children to visit, kept)
    while stack:
        t, todo, kept = stack[-1]
        for c in todo:
            if c.label in cut:
                extracted.append(c)
            elif c.children:
                stack.append((c, iter(c.children), []))
                break
            else:
                kept.append(c)
        else:
            stack.pop()
            if t is not None:
                kids = tuple(kept)
                stack[-1][2].append(
                    t if kids == t.children else tuple.__new__(OrderedTree, (t.label, kids))
                )
    # the walk stops at every cut vertex, so a cut label it never reached
    # lies outside the forest or below another cut vertex
    if len(extracted) != len(cut):
        if not cut <= set(forest.labels()):
            raise ValueError("cut contains labels outside the forest")
        raise ValueError("cut is not an antichain: %s" % sorted(cut))
    return standardize(extracted), standardize(remainder)


# ---------------------------------------------------------------------------
# Grafting surgery on plain forests.  The linear wrappers are in grafts.py.


def nwarrow(left: OrderedForest, right: OrderedForest) -> OrderedForest:
    """Hang the right forest below the rightmost leaf of the left one.

    The host leaf keeps its position; the grafted vertices take the labels
    just below it, so the host labels at or above the leaf's label shift up.
    The empty forest is a two-sided unit.
    """
    if left.is_empty:
        return right
    if right.is_empty:
        return left
    path = [left.trees[-1]]  # the vertices from the last root down to the leaf
    while path[-1].children:
        path.append(path[-1].children[-1])
    leaf, gsize = path.pop().label, right.degree

    def remap(label: int) -> int:
        return label if label < leaf else label + gsize

    shift = (leaf - 1).__add__
    node = OrderedTree(remap(leaf), tuple(_relabel(t, shift) for t in right.trees))
    for t in reversed(path):
        kids = tuple(_relabel(c, remap) for c in t.children[:-1])
        node = OrderedTree(remap(t.label), kids + (node,))
    return OrderedForest(tuple(_relabel(t, remap) for t in left.trees[:-1]) + (node,))


def lgraft_basis(left: OrderedForest, right: OrderedForest) -> OrderedForest | None:
    """Left graft on basis forests: the left forest becomes the leftmost
    children of the first tree of the right forest.  The labels are those of
    ``concat(left, right)``.

    Returns None for the vanishing case (nonempty ``left``, empty ``right``).
    Both arguments empty is undefined and raises.
    """
    if left.is_empty and right.is_empty:
        raise BothUnitsError("left graft of two empty forests is undefined")
    if left.is_empty:
        return right
    if right.is_empty:
        return None
    trees, m = concat(left, right).trees, len(left.trees)
    root = OrderedTree(trees[m].label, trees[:m] + trees[m].children)
    return OrderedForest((root,) + trees[m + 1 :])


def _hang(trees: tuple, i: int, n: int) -> tuple:
    """The "+" hang: vertex n becomes the last child of the root of tree i,
    and the trees after i become n's children."""
    t, below = trees[i], trees[i + 1 :]
    hung = tuple.__new__(OrderedTree, (n, below)) if below else _leaf(n)
    return trees[:i] + (tuple.__new__(OrderedTree, (t.label, t.children + (hung,))),)


def rgraft_basis(left: OrderedForest, right: OrderedForest) -> OrderedForest | None:
    """Right graft on basis forests: each tree of the right forest is hung,
    in order, as a new rightmost child of the root of the left forest's last
    tree.  That is the "+" move (``_hang``) at the last tree over the grafted
    tree's standardized children, with its root as the largest fresh label.

    Returns None for the vanishing case (empty ``left``, nonempty ``right``).
    Both arguments empty is undefined and raises.
    """
    if left.is_empty and right.is_empty:
        raise BothUnitsError("right graft of two empty forests is undefined")
    if left.is_empty:
        return None
    for t in right.trees:
        below = concat(left, standardize(t.children))
        left = OrderedForest(_hang(below.trees, len(left.trees) - 1, left.degree + t.degree))
    return left


# The binary basis operations by name; a vanishing graft returns None.
_BASIS_OPS = {
    "concat": concat,
    "nwarrow": nwarrow,
    "lgraft": lgraft_basis,
    "rgraft": rgraft_basis,
}
