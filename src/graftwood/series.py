"""Integer coefficient tables for the family counting series.

Each table is produced by an exact integer recurrence; the closed forms
with radicals never appear numerically.  Degrees are 1-based throughout,
matching the enumeration (`series_coefficients(...)[n]` counts degree-n
objects).  `verify_against_enumeration` replays a table against the
actual generated sets and reports per-degree agreement.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .algebra import prim_tot_dimension
from .families import generate_set, generate_words

__all__ = [
    "MAX_SERIES_DEGREE",
    "SERIES_IDS",
    "parse_series_id",
    "series_coefficients",
    "verify_against_enumeration",
]

MAX_SERIES_DEGREE = 64

# Template placeholders document the parametrized ids accepted by
# parse_series_id; the parameter must be a positive integer.
SERIES_IDS = (
    "Binfty_forests",
    "Binfty_trees",
    "Binfty_length(k)",
    "B0_trees",
    "B0_forests",
    "Bi_trees(i)",
    "Bi_forests(i)",
    "B_trees",
    "B_forests",
    "D_dims",
)

_PLAIN = frozenset(s for s in SERIES_IDS if "(" not in s)

_PARAMETRIZED = re.compile(r"^(Binfty_length|Bi_trees|Bi_forests)\((\d+)\)$")


def parse_series_id(series_id: str) -> tuple[str, int | None]:
    """Split a series id into (name, parameter); parameter is None for the
    plain tables."""
    if series_id in _PLAIN:
        return series_id, None
    m = _PARAMETRIZED.match(series_id)
    if m is None:
        raise ValueError(
            "unknown series id %r (expected one of: %s)" % (series_id, ", ".join(SERIES_IDS))
        )
    param = int(m.group(2))
    if param < 1:
        raise ValueError("series parameter must be >= 1, got %d" % param)
    return m.group(1), param


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _catalan(n_max: int):
    c = [0] * (n_max + 1)
    c[0] = 1
    for n in range(1, n_max + 1):
        c[n] = sum(c[j] * c[n - 1 - j] for j in range(n))
    return c


def _compose_words(trees: list[int], n_max: int) -> list[int]:
    """Free-word composition: a word is a tree followed by a shorter word."""
    f = [0] * (n_max + 1)
    f[0] = 1
    for n in range(1, n_max + 1):
        f[n] = sum(trees[k] * f[n - k] for k in range(1, n + 1))
    return f


@lru_cache(maxsize=None)
def _wrap_trees(n_max: int) -> tuple[int, ...]:
    """Tree counts for the two-operator family: quadratic recurrence
    t[n] = t[n-1] + sum t[a] t[n-a]."""
    t = [0] * (n_max + 1)
    if n_max >= 1:
        t[1] = 1
    for n in range(2, n_max + 1):
        t[n] = t[n - 1] + sum(t[a] * t[n - a] for a in range(1, n))
    return tuple(t)


@lru_cache(maxsize=None)
def _layered_trees(i: int, n_max: int) -> tuple[int, ...]:
    """Single-tree counts of the i-th layered family: the unrestricted tree
    count minus the overhanging word corrections."""
    binf = _binfty_trees(n_max)
    cat = _catalan(n_max)
    trees = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        base = binf[k]
        if k > i + 1:
            base -= sum(cat[j] * binf[k - j] for j in range(1, k - i))
        trees[k] = base
    return tuple(trees)


@lru_cache(maxsize=None)
def _binfty_trees(n_max: int) -> tuple[int, ...]:
    f, _ = _length_triangle(max(n_max, 1))
    return tuple(f[n][1] if 1 <= n <= n_max else 0 for n in range(n_max + 1))


def series_coefficients(series_id: str, n_max: int) -> dict[int, int]:
    """Exact coefficients of one counting series for degrees 1..n_max."""
    if not 1 <= n_max <= MAX_SERIES_DEGREE:
        raise ValueError("max degree must be between 1 and %d" % MAX_SERIES_DEGREE)
    name, param = parse_series_id(series_id)
    if name == "Binfty_forests":
        _, totals = _length_triangle(n_max)
        values = totals
    elif name == "Binfty_trees":
        values = _binfty_trees(n_max)
    elif name == "Binfty_length":
        f, _ = _length_triangle(n_max)
        values = [0] + [f[n][param] if param <= n else 0 for n in range(1, n_max + 1)]
    elif name == "B0_trees":
        cat = _catalan(n_max)
        values = [0] + [cat[n - 1] for n in range(1, n_max + 1)]
    elif name == "B0_forests":
        values = _catalan(n_max)
    elif name == "Bi_trees":
        values = _layered_trees(param, n_max)
    elif name == "Bi_forests":
        values = _compose_words(list(_layered_trees(param, n_max)), n_max)
    elif name == "B_trees":
        values = _wrap_trees(n_max)
    elif name == "B_forests":
        values = _compose_words(list(_wrap_trees(n_max)), n_max)
    else:  # D_dims
        fb = _compose_words(list(_wrap_trees(n_max)), n_max)
        fb2 = [sum(fb[a] * fb[m - a] for a in range(m + 1)) for m in range(n_max + 1)]
        d = [0] * (n_max + 1)
        for n in range(1, n_max + 1):
            d[n] = fb[n] - sum(d[k] * fb2[n - k] for k in range(1, n))
        values = d
    return {n: int(values[n]) for n in range(1, n_max + 1)}


# Enumeration ceilings for the cross-check; beyond them the generated sets
# are either unguaranteed (family guards) or not independently available.
_VERIFY_LIMITS = {
    "Binfty_forests": 8,
    "Binfty_trees": 8,
    "Binfty_length": 8,
    "B0_trees": 8,
    "B0_forests": 8,
    "Bi_trees": 8,
    "Bi_forests": 8,
    "B_trees": 7,
    "B_forests": 7,
    "D_dims": 5,
}


def _enumerated_value(name: str, param: int | None, n: int) -> int:
    if name == "Binfty_forests":
        return len(generate_set("G", n))
    if name == "Binfty_trees":
        return sum(1 for f in generate_set("G", n) if f.is_tree)
    if name == "Binfty_length":
        return sum(1 for f in generate_set("G", n) if len(f.trees) == param)
    if name == "B0_trees":
        return sum(1 for f in generate_set("G0", n) if f.is_tree)
    if name == "B0_forests":
        return len(generate_set("G0", n))
    if name == "Bi_trees":
        return sum(1 for f in generate_set("G%d" % param, n) if f.is_tree)
    if name == "Bi_forests":
        return len(generate_words("G%d" % param, n))
    if name == "B_trees":
        return len(generate_set("T", n))
    if name == "B_forests":
        return len(generate_words("T", n))
    return prim_tot_dimension(n)


def verify_against_enumeration(series_id: str, n_max: int) -> dict:
    """Compare a coefficient table against brute enumeration degree by
    degree.  Mismatches land in the report rows, never in an exception."""
    name, param = parse_series_id(series_id)
    limit = _VERIFY_LIMITS[name]
    if not 1 <= n_max <= limit:
        raise ValueError(
            "enumeration for %s is only available up to degree %d" % (series_id, limit)
        )
    table = series_coefficients(series_id, n_max)
    rows = []
    for n in range(1, n_max + 1):
        expected = table[n]
        counted = _enumerated_value(name, param, n)
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
