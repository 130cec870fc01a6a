"""Linear spans of forests, the cut coproduct and its variants, the antipode.

Elements are finite combinations of ordered forests with exact coefficients,
made exact where a caller's scalars come in and added up by one accumulator
(``_sum``); tensors are combinations of forest pairs.  The coproduct of a
forest sums, over its admissible cuts, the extracted sub-forest tensor the remainder.
Variants restrict which cuts contribute:

* ``full``      all cuts,
* ``reduced``   neither the empty cut nor the total one,
* ``leftRoot``  cuts avoiding the root of the leftmost tree,
* ``rightRoot`` cuts avoiding the root of the rightmost tree,
* ``precRed``   nontrivial cuts extracting the rightmost leaf,
* ``succRed``   nontrivial cuts keeping the rightmost leaf.

A forest is the product b1·…·bk of its blocks (``forest.blocks``) and the
coproduct is multiplicative, so a word folds over its memoised prefix
p = b1·…·b(k−1): an unreduced variant v is Δ_v(p)·Δ(bk) for ``full`` and
``leftRoot`` and Δ(p)·Δ_v(bk) for the rest.  On one block the cuts that extract
the rightmost leaf are those that do not keep it: leafExtracted = full − leafKept.
A reduced variant is its unreduced companion less f⊗() and ()⊗f, its only
terms with an empty leg.  The antipode reverses products, S(a·b) = S(b)·S(a):
only a single block has its cuts enumerated or recurses over its full coproduct.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd
from operator import mul

from .families import _words_over, b_minus, b_plus
from .forest import (
    EMPTY_FOREST,
    OrderedForest,
    _check_cut_budget,
    _check_degree,
    admissible_cuts,
    blocks,
    concat,
    cut_split,
    rightmost_path,
    root_labels,
    standardize,
)

__all__ = [
    "AlgebraElement",
    "Tensor2Element",
    "COPRODUCT_VARIANTS",
    "product",
    "coproduct",
    "counit",
    "antipode",
    "prim_tot_dimension",
    "check_b_operator_coproduct",
    "expand_left",
    "expand_right",
    "as_element",
]


def _sum(pairs) -> dict:
    """Add (key, coefficient) pairs by key and drop the sums that cancel."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return out if all(out.values()) else {key: c for key, c in out.items() if c}


class _Combination:
    """A finite combination of hashable keys with exact coefficients: plain
    ``int``s, and exact rationals only where a caller scales by a non-integer.
    Only the constructor converts scalars (an ``int`` stays one, any other
    becomes its exact ``Fraction``); ``_summed`` adds up terms already exact.
    Subclasses say how keys multiply (``_times``), sort (``_order``) and print (``_show``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        terms = (terms or {}).items()
        self.terms: dict = _sum((key, c if type(c) is int else Fraction(c)) for key, c in terms)

    @classmethod
    def _summed(cls, pairs):
        """The sum of (key, coefficient) pairs whose coefficients are exact."""
        x = object.__new__(cls)
        x.terms = _sum(pairs)
        return x

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._summed(chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return self._summed((key, -c) for key, c in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return _bilinear(self._times, self, other)
        if isinstance(other, str):  # an int coefficient times a str repeats it
            return NotImplemented
        return type(self)({key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: self._order(item[0]))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(self._show(key, c) for key, c in self.sorted_terms())


def _bilinear(op, x: _Combination, y: _Combination) -> _Combination:
    """Extend an operation on keys bilinearly; keys it maps to None drop."""
    terms = y.terms.items()
    return x._summed(
        (p, c * d) for k, c in x.terms.items() for k2, d in terms if (p := op(k, k2)) is not None
    )


def _linear(op, x: _Combination, cls) -> _Combination:
    """Extend a map from keys to combinations of type ``cls`` linearly."""
    return cls._summed((key, c * d) for k, c in x.terms.items() for key, d in op(k).terms.items())


class AlgebraElement(_Combination):
    """A finite combination of ordered forests."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "AlgebraElement":
        return cls({EMPTY_FOREST: 1})

    @classmethod
    def of(cls, forest: OrderedForest, coeff=1) -> "AlgebraElement":
        return cls({forest: coeff})

    _times = staticmethod(concat)

    @staticmethod
    def _order(forest: OrderedForest) -> str:
        return forest.text

    @staticmethod
    def _show(forest: OrderedForest, c) -> str:
        return "%s*%s" % (c, forest.text)


class Tensor2Element(_Combination):
    """A finite combination of forest pairs."""

    __slots__ = ()

    @classmethod
    def of(cls, left: OrderedForest, right: OrderedForest, coeff=1) -> "Tensor2Element":
        return cls({(left, right): coeff})

    @staticmethod
    def _times(p, q):
        return concat(p[0], q[0]), concat(p[1], q[1])

    @staticmethod
    def _order(pair):
        """The whole-forest-extracted pair first, the untouched pair second,
        then lexicographic on the printed pair."""
        lea, roo = pair
        return (not roo.is_empty, not lea.is_empty, lea.text, roo.text)

    @staticmethod
    def _show(pair, c) -> str:
        return "%s*(%s (x) %s)" % (c, pair[0].text, pair[1].text)

    def map_legs(self, left=None, right=None) -> "Tensor2Element":
        """Apply forest-to-forest maps to the legs of every term."""
        return self._summed(
            ((left(a) if left else a, right(b) if right else b), c)
            for (a, b), c in self.terms.items()
        )


def as_element(x) -> AlgebraElement:
    if isinstance(x, AlgebraElement):
        return x
    if isinstance(x, OrderedForest):
        return AlgebraElement._summed(((x, 1),))
    raise TypeError("expected a forest or an algebra element, got %r" % type(x))


def product(a, b) -> AlgebraElement:
    """Bilinear extension of shifted concatenation."""
    return _bilinear(concat, as_element(a), as_element(b))


def counit(x):
    """Coefficient of the empty forest (``0`` when it is absent)."""
    return as_element(x).terms.get(EMPTY_FOREST, 0)


COPRODUCT_VARIANTS = (
    "full",
    "reduced",
    "leftRoot",
    "rightRoot",
    "precRed",
    "succRed",
)

_VARIANT_ALIASES = {
    "left-root": "leftRoot",
    "right-root": "rightRoot",
    "prec": "precRed",
    "succ": "succRed",
}

def _normalize_variant(variant: str) -> str:
    variant = _VARIANT_ALIASES.get(variant, variant)
    if variant not in COPRODUCT_VARIANTS:
        raise ValueError("unknown coproduct variant: %r" % variant)
    return variant


# The unreduced companion of each reduced variant
_REDUCED = {"reduced": "full", "precRed": "leafExtracted", "succRed": "leafKept"}


@lru_cache(maxsize=None)
def _forest_coproduct(forest: OrderedForest, variant: str) -> Tensor2Element:
    if variant in _REDUCED:  # less f⊗() and ()⊗f, the terms of the total and the empty cut
        terms = _forest_coproduct(forest, _REDUCED[variant]).terms.items()
        return Tensor2Element._summed(((a, b), c) for (a, b), c in terms if a.trees and b.trees)
    factors = blocks(forest)
    if len(factors) > 1:  # Δ(b1·…·bk) = Δ(b1·…·b(k−1))·Δ(bk), the condition on an end block
        _check_cut_budget(forest)  # the cuts of the whole forest, as for a single block
        prefix = OrderedForest(forest.trees[: len(forest.trees) - len(factors[-1].trees)])
        if variant in ("full", "leftRoot"):
            return _forest_coproduct(prefix, variant) * _forest_coproduct(factors[-1], "full")
        return _forest_coproduct(prefix, "full") * _forest_coproduct(factors[-1], variant)
    if variant == "leafExtracted":  # the cuts that leafKept leaves out
        return _forest_coproduct(forest, "full") - _forest_coproduct(forest, "leafKept")
    roots = root_labels(forest)
    path = rightmost_path(forest) if roots else ()
    # each condition on a single block: the cut avoids these vertices
    avoid = {"full": (), "leftRoot": roots[:1], "rightRoot": roots[-1:], "leafKept": path}[variant]
    cuts = (c for c in admissible_cuts(forest) if c.isdisjoint(avoid))
    return Tensor2Element._summed((cut_split(forest, c), 1) for c in cuts)


def coproduct(x, variant: str = "full") -> Tensor2Element:
    """Cut coproduct of a forest or an element, in the requested variant: the
    product of its blocks' coproducts, within the cut budget of the whole forest."""
    variant = _normalize_variant(variant)
    if isinstance(x, OrderedForest):
        return _forest_coproduct(x, variant)
    return _linear(lambda f: _forest_coproduct(f, variant), as_element(x), Tensor2Element)


def expand_left(t2: Tensor2Element, variant: str = "full") -> dict:
    """Apply a coproduct variant to the left legs: terms (a', a'', b)."""
    return _expand(t2, variant, "left")


def expand_right(t2: Tensor2Element, variant: str = "full") -> dict:
    """Apply a coproduct variant to the right legs: terms (a, b', b'')."""
    return _expand(t2, variant, "right")


def _expand(t2: Tensor2Element, variant: str, side: str) -> dict:
    variant = _normalize_variant(variant)
    return _sum(
        ((x, y, b) if side == "left" else (a, x, y), c * d)
        for (a, b), c in t2.terms.items()
        for (x, y), d in _forest_coproduct(a if side == "left" else b, variant).terms.items()
    )


DEFAULT_ANTIPODE_DEGREE = 5


def antipode(x, max_degree: int = DEFAULT_ANTIPODE_DEGREE) -> AlgebraElement:
    """The antipode.  A forest is the product b1·…·bk of its blocks, and
    S(b1·…·bk) = S(bk)·…·S(b1), folded in a loop; only a single block
    recurses over its full coproduct, degree by degree.

    The degree guard is a runtime budget only; raise it when needed.
    """
    x = as_element(x)
    for f in x.terms:
        _check_degree("antipode (max_degree raises the bound)", f.degree, max_degree, low=0)
    return _linear(_antipode_forest, x, AlgebraElement)


@lru_cache(maxsize=None)
def _antipode_forest(forest: OrderedForest) -> AlgebraElement:
    if forest.is_empty:
        return AlgebraElement.unit()
    factors = blocks(forest)
    if len(factors) > 1:  # S(b1·…·bk) = S(bk)·…·S(b1)
        return reduce(mul, map(_antipode_forest, reversed(factors)))
    return AlgebraElement._summed(  # from m(S⊗id)Δ(f) = 0
        (concat(g, roo), -c * d)
        for (lea, roo), c in _forest_coproduct(forest, "full").terms.items()
        if not roo.is_empty  # only the total cut leaves nothing
        for g, d in _antipode_forest(lea).terms.items()
    )


def prim_tot_dimension(n: int, max_degree: int = DEFAULT_ANTIPODE_DEGREE) -> int:
    """Dimension of the joint kernel of the two one-sided reduced coproducts
    on the degree-n span of the word basis."""
    _check_degree("prim_tot_dimension (max_degree raises the bound)", n, max_degree)
    basis = sorted(_words_over("T", n), key=lambda f: f.text)

    def terms(f):  # the precRed and succRed terms of f, each pair tagged by its side
        return (((tag, a, b), c) for tag, v in enumerate(("leafExtracted", "leafKept"))
                for (a, b), c in _forest_coproduct(f, v).terms.items() if a.trees and b.trees)

    keys = {key for f in basis for key, _ in terms(f)}
    # integer columns in pivot order, left-leg degree first: far less fill-in than by text
    keys = sorted(keys, key=lambda k: (k[0], k[1].degree, k[1].text, k[2].text))
    column = {key: i for i, key in enumerate(keys)}
    return len(basis) - _sparse_rank([{column[key]: c for key, c in terms(f)} for f in basis])


def _sparse_rank(rows: list[dict]) -> int:
    """Integer rows, exact rank over Q, fraction-free, sparsest first.

    A row that is the only one left nonzero in some column is independent of
    the others: it is peeled off and counted, until no such row is left.
    Then the shortest rows go first, each reduced at its least column by
    ``row <- (a/g)*row - (b/g)*pivot`` (``a`` the pivot's lead, ``b`` the
    row's entry, ``g = gcd(a, b)``).  A row left nonzero is stored as the
    pivot of that column, divided by the gcd of its entries, lead positive.
    """
    rows = [{k: v for k, v in row.items() if v} for row in rows]
    holders: dict = {}  # column -> the indices of the unpeeled rows nonzero in it
    for i, row in enumerate(rows):
        for k in row:
            holders.setdefault(k, set()).add(i)
    peeled, lone = set(), list(holders)  # lone: the columns to look at again
    while lone:
        if len(held := holders[lone.pop()]) == 1:
            (i,) = held
            peeled.add(i)
            for k in rows[i]:
                holders[k].discard(i)
                if len(holders[k]) == 1:
                    lone.append(k)
    pivots: dict = {}
    for row in sorted((r for i, r in enumerate(rows) if i not in peeled), key=len):
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*row.values()) * (1 if row[col] > 0 else -1)
                pivots[col] = {k: v // g for k, v in row.items()}
                break
            g = gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                new = row.get(k, 0) - b * v
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
    return len(peeled) + len(pivots)


def check_b_operator_coproduct(forest: OrderedForest) -> bool:
    """Both compatibility identities of the vertex-append moves with the cut
    coproduct, checked on one nonempty basis forest."""
    if forest.is_empty:
        raise ValueError("needs a nonempty basis forest")

    def wrap(f: OrderedForest) -> OrderedForest:
        return OrderedForest((b_minus(f),))

    def hang(f: OrderedForest) -> OrderedForest:
        return OrderedForest((b_plus(f),))

    wrapped = wrap(forest)
    lhs_minus = _forest_coproduct(wrapped, "full")
    rhs_minus = _forest_coproduct(forest, "full").map_legs(right=wrap) + Tensor2Element.of(
        wrapped, EMPTY_FOREST
    )
    if lhs_minus != rhs_minus:
        return False

    hung = hang(forest)
    lhs_plus = _forest_coproduct(hung, "full")
    first = OrderedForest((forest.trees[0],))
    rest = standardize(forest.trees[1:])
    rhs_plus = (
        _forest_coproduct(forest, "leftRoot").map_legs(right=hang)
        + Tensor2Element.of(hung, EMPTY_FOREST)
        + _forest_coproduct(first, "leftRoot") * Tensor2Element.of(wrap(rest), EMPTY_FOREST)
    )
    return lhs_plus == rhs_plus
