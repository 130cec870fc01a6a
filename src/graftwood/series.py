"""Integer coefficient tables for the family counting series.

Each table is produced by an exact integer recurrence; the closed forms
with radicals never appear numerically.  Degrees are 1-based throughout,
matching the enumeration (`series_coefficients(...)[n]` counts degree-n
objects).  `verify_against_enumeration` replays a table against the
actual generated sets and reports per-degree agreement.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Sequence

from .algebra import DEFAULT_ANTIPODE_DEGREE, prim_tot_dimension
from .families import ENUMERATION_MAX_DEGREE, _words_over, generate_set
from .forest import _check_degree

__all__ = [
    "MAX_SERIES_DEGREE",
    "SERIES_IDS",
    "parse_series_id",
    "series_coefficients",
    "verify_against_enumeration",
]

MAX_SERIES_DEGREE = 64

# ASCII digits only, and no leading zero, as for forest labels
_ID = re.compile(r"(\w+)(?:\((0|[1-9][0-9]*)\))?")


def parse_series_id(series_id: str) -> tuple[str, int | None]:
    """Split a series id into (name, parameter); parameter is None for the
    plain tables."""
    m = _ID.fullmatch(series_id)
    series = _SERIES.get(m.group(1)) if m else None
    if series is None or (m.group(2) is None) != (not series.param):
        raise ValueError(
            "unknown series id %r (expected one of: %s)" % (series_id, ", ".join(SERIES_IDS))
        )
    if m.group(2) is None:
        return m.group(1), None
    param = int(m.group(2))
    if param < 1:
        raise ValueError("series parameter must be >= 1, got %d" % param)
    return m.group(1), param


def _length_triangle(n_max: int):
    """f[n][k] = degree-n forests made of exactly k trees, with the forest
    totals alongside.  Row recurrence: a new forest is a tree prepended to a
    shorter suffix, summed over admissible suffix lengths."""
    f = [[0] * (n + 1) for n in range(n_max + 1)]
    totals = [0] * (n_max + 1)
    if n_max >= 1:
        f[1][1] = 1
        totals[1] = 1
    for n in range(2, n_max + 1):
        f[n][1] = 2 * totals[n - 1]
        for k in range(2, n + 1):
            f[n][k] = sum(f[n - 1][j] for j in range(k - 1, n))
        totals[n] = sum(f[n][1:])
    return f, totals


def _catalan(n_max: int):
    c = [0] * (n_max + 1)
    c[0] = 1
    for n in range(1, n_max + 1):
        c[n] = sum(c[j] * c[n - 1 - j] for j in range(n))
    return c


def _compose_words(trees: Sequence[int], n_max: int) -> list[int]:
    """Free-word composition: a word is a tree followed by a shorter word."""
    f = [0] * (n_max + 1)
    f[0] = 1
    for n in range(1, n_max + 1):
        f[n] = sum(trees[k] * f[n - k] for k in range(1, n + 1))
    return f


def _wrap_trees(n_max: int) -> tuple[int, ...]:
    """Tree counts for the two-operator family: quadratic recurrence
    t[n] = t[n-1] + sum t[a] t[n-a]."""
    t = [0] * (n_max + 1)
    if n_max >= 1:
        t[1] = 1
    for n in range(2, n_max + 1):
        t[n] = t[n - 1] + sum(t[a] * t[n - a] for a in range(1, n))
    return tuple(t)


def _layered_trees(i: int, n_max: int) -> tuple[int, ...]:
    """Single-tree counts of the i-th layered family: the unrestricted tree
    count minus the overhanging word corrections."""
    binf, cat = _length_column(1, n_max), _catalan(n_max)
    return (0,) + tuple(  # no correction up to degree i + 1, where the sum is empty
        binf[k] - sum(cat[j] * binf[k - j] for j in range(1, k - i)) for k in range(1, n_max + 1)
    )


def _length_column(k: int, n_max: int) -> list[int]:
    f, _ = _length_triangle(n_max)
    return [0] + [f[n][k] if k <= n else 0 for n in range(1, n_max + 1)]


def _d_dims(_, n_max: int) -> list[int]:
    """Dimensions d[n] = [n = 1] + t[n-1]: the quotient relation F = 1 + D F^2
    on the words F = 1/(1 - T), with T = x + xT + T^2, gives D = T(1 - T) = x(1 + T)."""
    return [0, 1] + list(_wrap_trees(n_max)[1:n_max])


def _tree_count(selector: str, n: int) -> int:
    return sum(1 for f in generate_set(selector, n) if f.is_tree)


class _Series(NamedTuple):
    param: str  # placeholder of a parametrized id, "" for a plain table
    values: Callable  # (param, n_max) -> coefficients indexed by degree
    enumerated: Callable  # (param, n) -> size of the generated degree-n set
    ceiling: int = ENUMERATION_MAX_DEGREE  # highest degree the enumeration reaches


# Each table by name, in the order of SERIES_IDS.  Each ceiling is the guard of
# what it counts (for D_dims the antipode's default, which prim_tot_dimension
# runs under), except the 7 of B_trees and B_forests: a time budget.
_SERIES = {
    "Binfty_forests": _Series(
        "", lambda _, n: _length_triangle(n)[1], lambda _, n: len(generate_set("G", n))
    ),
    "Binfty_trees": _Series(
        "", lambda _, n: _length_column(1, n), lambda _, n: _tree_count("G", n)
    ),
    "Binfty_length": _Series(
        "(k)",
        _length_column,
        lambda k, n: sum(1 for f in generate_set("G", n) if len(f.trees) == k),
    ),
    "B0_trees": _Series("", lambda _, n: [0] + _catalan(n)[:n], lambda _, n: _tree_count("G0", n)),
    "B0_forests": _Series("", lambda _, n: _catalan(n), lambda _, n: len(generate_set("G0", n))),
    "Bi_trees": _Series("(i)", _layered_trees, lambda i, n: _tree_count("G%d" % i, n)),
    "Bi_forests": _Series(
        "(i)",
        lambda i, n: _compose_words(_layered_trees(i, n), n),
        lambda i, n: len(_words_over("G%d" % i, n)),
    ),
    "B_trees": _Series("", lambda _, n: _wrap_trees(n), lambda _, n: len(generate_set("T", n)), 7),
    "B_forests": _Series(
        "",
        lambda _, n: _compose_words(_wrap_trees(n), n),
        lambda _, n: len(_words_over("T", n)),
        7,
    ),
    "D_dims": _Series("", _d_dims, lambda _, n: prim_tot_dimension(n), DEFAULT_ANTIPODE_DEGREE),
}

# Template placeholders document the parametrized ids accepted by
# parse_series_id; the parameter must be a positive integer.
SERIES_IDS = tuple(name + series.param for name, series in _SERIES.items())


def _ceiling(series_id: str) -> int:
    """Highest degree verify_against_enumeration accepts for a table."""
    return _SERIES[parse_series_id(series_id)[0]].ceiling


def series_coefficients(series_id: str, n_max: int) -> dict[int, int]:
    """Exact coefficients of one counting series for degrees 1..n_max."""
    name, param = parse_series_id(series_id)
    _check_degree("table " + series_id, n_max, MAX_SERIES_DEGREE)
    values = _SERIES[name].values(param, n_max)
    return {n: int(values[n]) for n in range(1, n_max + 1)}


def verify_against_enumeration(series_id: str, n_max: int) -> dict:
    """Compare a coefficient table against brute enumeration degree by
    degree.  Mismatches land in the report rows, never in an exception."""
    name, param = parse_series_id(series_id)
    series = _SERIES[name]
    _check_degree("enumeration of " + series_id, n_max, series.ceiling)
    table = series_coefficients(series_id, n_max)
    rows = []
    for n in range(1, n_max + 1):
        expected = table[n]
        counted = series.enumerated(param, n)
        rows.append(
            {
                "degree": n,
                "expected": expected,
                "enumerated": counted,
                "match": expected == counted,
            }
        )
    return {
        "id": series_id,
        "max_degree": n_max,
        "rows": rows,
        "ok": all(r["match"] for r in rows),
    }
