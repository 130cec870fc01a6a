"""The one-sided grafts as linear operations, their axioms, and closures.

The left graft hangs its first argument as the leftmost children of the
other side's first root; the right graft hangs each right-hand tree below
the root of the left side's last tree.  Concatenation and the
rightmost-leaf graft (nwarrow) stay basis-valued; the one-sided grafts
vanish on one unit argument and are undefined on two.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .algebra import (
    AlgebraElement,
    Tensor2Element,
    _bilinear,
    as_element,
    coproduct,
    expand_left,
    expand_right,
    product,
)
from .forest import (
    _BASIS_OPS,
    EMPTY_FOREST,
    OrderedForest,
    SINGLE_VERTEX,
    concat,
    lgraft_basis,
    nwarrow,
    rgraft_basis,
)

__all__ = [
    "GRAFT_OPS",
    "IDENTITY_NAMES",
    "lgraft",
    "rgraft",
    "nwarrow",
    "tensor_graft",
    "check_identity",
    "generate_closure",
]

GRAFT_OPS = tuple(_BASIS_OPS)

CLOSURE_MAX_DEGREE = 7


def _basis_op(name: str):
    try:
        return _BASIS_OPS[name]
    except KeyError:
        raise ValueError("unknown graft operation: %r" % name) from None


def lgraft(x, y) -> AlgebraElement:
    """Left graft, extended bilinearly; one empty side vanishes or passes
    through per the basis rules, two empty sides raise."""
    return _bilinear(lgraft_basis, as_element(x), as_element(y))


def rgraft(x, y) -> AlgebraElement:
    """Right graft, extended bilinearly (mirror conventions of lgraft)."""
    return _bilinear(rgraft_basis, as_element(x), as_element(y))


def tensor_graft(op: str, x: Tensor2Element, y: Tensor2Element) -> Tensor2Element:
    """Extend a graft to tensors: when both right legs are empty the
    operation lands in the left leg, otherwise the left legs multiply and
    the operation lands in the right leg.  Vanishing applications drop."""
    basis = _basis_op(op)

    def on_pairs(p, q):
        (a, b), (a2, b2) = p, q
        if b.is_empty and b2.is_empty:
            res = basis(a, a2)
            return None if res is None else (res, EMPTY_FOREST)
        res = basis(b, b2)
        return None if res is None else (concat(a, a2), res)

    return _bilinear(on_pairs, x, y)


# --- identity checkers -------------------------------------------------------
#
# Single letters name the checker arguments only; every identity is closed
# over the operations defined above.


def _e1a(x, y, z):
    return concat(concat(x, y), z) == concat(x, concat(y, z))


def _e1b(x, y, z):
    return nwarrow(nwarrow(x, y), z) == nwarrow(x, nwarrow(y, z))


def _e1c(x, y, z):
    return nwarrow(concat(x, y), z) == concat(x, nwarrow(y, z))


def _e2a(x):
    t2 = coproduct(x, "precRed")
    return expand_left(t2, "precRed") == expand_right(t2, "reduced")


def _e2b(x):
    # Splitting the middle axiom: the rightmost leaf lands in the middle
    # tensor leg either way, so the two iterated refinements agree.
    lhs = expand_left(coproduct(x, "precRed"), "succRed")
    return lhs == expand_right(coproduct(x, "succRed"), "precRed")


def _e2c(x):
    t2 = coproduct(x, "succRed")
    return expand_left(t2, "reduced") == expand_right(t2, "succRed")


def _e3(x, y, side: str):
    w = concat(x, y)
    lhs = coproduct(w, side)
    red_x = coproduct(x, "reduced")
    one_y = coproduct(y, side)
    if side == "precRed":
        rhs = Tensor2Element.of(y, x)
        rhs = rhs + red_x.map_legs(left=lambda f: concat(f, y))
    else:
        rhs = Tensor2Element.of(x, y)
        rhs = rhs + red_x.map_legs(right=lambda f: concat(f, y))
    rhs = rhs + one_y.map_legs(left=lambda f: concat(x, f))
    rhs = rhs + one_y.map_legs(right=lambda f: concat(x, f))
    rhs = rhs + red_x * one_y
    return lhs == rhs


def _e4prec(x, y):
    lhs = coproduct(nwarrow(x, y), "precRed")
    prec_x = coproduct(x, "precRed")
    succ_x = coproduct(x, "succRed")
    prec_y = coproduct(y, "precRed")
    rhs = Tensor2Element.of(y, x)
    rhs = rhs + prec_y.map_legs(right=lambda f: nwarrow(x, f))
    rhs = rhs + prec_x.map_legs(left=lambda f: nwarrow(f, y))
    rhs = rhs + succ_x.map_legs(left=lambda f: concat(f, y))
    # the right legs of the reduced halves are never empty, so the tensor
    # graft concatenates the left legs and nwarrows the right ones
    rhs = rhs + tensor_graft("nwarrow", succ_x, prec_y)
    return lhs == rhs


def _e4succ(x, y):
    lhs = coproduct(nwarrow(x, y), "succRed")
    succ_x = coproduct(x, "succRed")
    succ_y = coproduct(y, "succRed")
    rhs = succ_y.map_legs(right=lambda f: nwarrow(x, f))
    rhs = rhs + succ_x.map_legs(right=lambda f: nwarrow(f, y))
    rhs = rhs + tensor_graft("nwarrow", succ_x, succ_y)
    return lhs == rhs


def _lga(x, y, z):
    return lgraft(concat(x, y), z) == lgraft(x, lgraft(y, z))


def _lgb(x, y, z):
    return product(lgraft(x, y), AlgebraElement.of(z)) == lgraft(x, concat(y, z))


def _rga(x, y, z):
    return rgraft(x, concat(y, z)) == rgraft(rgraft(x, y), z)


def _rgb(x, y, z):
    return product(AlgebraElement.of(x), rgraft(y, z)) == rgraft(concat(x, y), z)


def _bigraft(x, y, z):
    return rgraft(lgraft(x, y), z) == lgraft(x, rgraft(y, z))


def _deltasucc(f, g):
    lhs = coproduct(lgraft(f, g), "leftRoot")
    return lhs == tensor_graft("lgraft", coproduct(f), coproduct(g, "leftRoot"))


def _deltaprec(f, g):
    lhs = coproduct(rgraft(f, g), "rightRoot")
    return lhs == tensor_graft("rgraft", coproduct(f, "rightRoot"), coproduct(g))


_IDENTITIES = {
    "E1a": (3, _e1a),
    "E1b": (3, _e1b),
    "E1c": (3, _e1c),
    "E2a": (1, _e2a),
    "E2b": (1, _e2b),
    "E2c": (1, _e2c),
    "E3prec": (2, lambda x, y: _e3(x, y, "precRed")),
    "E3succ": (2, lambda x, y: _e3(x, y, "succRed")),
    "E4prec": (2, _e4prec),
    "E4succ": (2, _e4succ),
    "LGa": (3, _lga),
    "LGb": (3, _lgb),
    "RGa": (3, _rga),
    "RGb": (3, _rgb),
    "BIGRAFT": (3, _bigraft),
    "DELTASUCC": (2, _deltasucc),
    "DELTAPREC": (2, _deltaprec),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def check_identity(name: str, args: Sequence[OrderedForest]) -> bool:
    """Evaluate one named compatibility identity on concrete forests.

    Three-argument identities take (x, y, z); the coproduct-splitting ones
    take a single forest; the mixed ones take a pair.  Arguments are plain
    forests, and the unit conventions of the operations apply.
    """
    entry = _IDENTITIES.get(name)
    if entry is None:
        raise ValueError("unknown identity: %r" % name)
    arity, fn = entry
    if len(args) != arity:
        raise ValueError("%s takes %d argument(s), got %d" % (name, arity, len(args)))
    return fn(*args)


@lru_cache(maxsize=None)
def _closure_layer(ops: tuple[str, ...], n: int) -> frozenset[OrderedForest]:
    """Degree-n layer of the closure of the single vertex under the named
    basis operations.  Every operation adds degrees, so layer n is built
    from the pairs of lower layers alone."""
    if n == 1:
        return frozenset({SINGLE_VERTEX})
    fns = [_BASIS_OPS[op] for op in ops]
    out: set[OrderedForest] = set()
    for k in range(1, n):
        for a in _closure_layer(ops, k):
            for b in _closure_layer(ops, n - k):
                for fn in fns:
                    res = fn(a, b)
                    if res is not None:
                        out.add(res)
    return frozenset(out)


def generate_closure(ops: Iterable[str], max_degree: int) -> frozenset[OrderedForest]:
    """Close the single vertex under the named operations, up to a degree.

    Returns every forest of degree 1..max_degree reachable by repeatedly
    applying the operations to already-reached forests.
    """
    names = tuple(sorted(set(ops)))
    for name in names:
        _basis_op(name)
    if not names:
        raise ValueError("need at least one operation")
    if not 1 <= max_degree <= CLOSURE_MAX_DEGREE:
        raise ValueError("closure degree must be in 1..%d" % CLOSURE_MAX_DEGREE)
    return frozenset().union(*(_closure_layer(names, d) for d in range(1, max_degree + 1)))
