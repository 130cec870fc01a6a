"""Seeded benchmark inputs and the independent references that check outputs.

Nothing here imports graftwood.  A tree is a tuple ``(label, children)`` and
a forest is a tuple of trees.  Inputs are built from the package's two
vertex-append moves, restated here from their definitions (``b_minus`` wraps
a forest under a new maximal root, ``b_plus`` hangs a new maximal vertex as
the rightmost child of the first root with the remaining trees below it).
The references (cut counts, coproduct terms, family counts) are recomputed
from the definitions too, so a check never trusts the program it checks.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod

# --- counting (T trees and T words by degree) --------------------------------


@lru_cache(maxsize=None)
def t_tree_count(n: int) -> int:
    """T trees of degree n: b_plus and b_minus are injective with disjoint
    images for n >= 2, and agree on the single vertex."""
    return 1 if n == 1 else 2 * t_word_count(n - 1)


@lru_cache(maxsize=None)
def t_word_count(n: int) -> int:
    """Block concatenations of T trees with total degree n."""
    if n == 0:
        return 1
    return sum(t_tree_count(k) * t_word_count(n - k) for k in range(1, n + 1))


# --- forests as tuples -----------------------------------------------------------


def degree(forest) -> int:
    return sum(tree_degree(t) for t in forest)


def tree_degree(tree) -> int:
    return 1 + sum(tree_degree(c) for c in tree[1])


def shift(tree, k: int):
    return (tree[0] + k, tuple(shift(c, k) for c in tree[1]))


def b_minus(forest):
    return (degree(forest) + 1, forest)


def b_plus(forest):
    first = forest[0]
    return (first[0], first[1] + ((degree(forest) + 1, forest[1:]),))


def fmt_tree(tree) -> str:
    if not tree[1]:
        return str(tree[0])
    return "%d[%s]" % (tree[0], " ".join(fmt_tree(c) for c in tree[1]))


def fmt(forest) -> str:
    return " ".join(fmt_tree(t) for t in forest) if forest else "()"


_TOKEN = re.compile(r"\d+|\[|\]")


def parse(text: str):
    """Read the text form back into tuples (no validation beyond the grammar)."""
    if text.strip() == "()":
        return ()
    tokens = _TOKEN.findall(text)
    pos = 0

    def tree():
        nonlocal pos
        label = int(tokens[pos])
        pos += 1
        kids = []
        if pos < len(tokens) and tokens[pos] == "[":
            pos += 1
            while tokens[pos] != "]":
                kids.append(tree())
            pos += 1
        return (label, tuple(kids))

    trees = []
    while pos < len(tokens):
        trees.append(tree())
    return tuple(trees)


def text_degree(text: str) -> int:
    return 0 if text.strip() == "()" else len(re.findall(r"\d+", text))


def strip_labels(tree) -> str:
    if not tree[1]:
        return "0"
    return "0[%s]" % " ".join(strip_labels(c) for c in tree[1])


def standardize(trees):
    """Relabel order-preservingly onto 1..k."""
    labels = []

    def collect(t):
        labels.append(t[0])
        for c in t[1]:
            collect(c)

    for t in trees:
        collect(t)
    rank = {old: new for new, old in enumerate(sorted(labels), start=1)}

    def go(t):
        return (rank[t[0]], tuple(go(c) for c in t[1]))

    return tuple(go(t) for t in trees)


def block_factors(forest):
    """The tree factors of a word, each shifted down to labels 1..k."""
    out, offset = [], 0
    for t in forest:
        out.append(shift(t, -offset))
        offset += tree_degree(t)
    return out


# --- cuts ---------------------------------------------------------------------


def tree_cut_count(tree) -> int:
    """c(tree) = 1 + prod c(children): cut at the root, or combine the cuts
    of the children."""
    return 1 + prod(tree_cut_count(c) for c in tree[1])


def cut_count(forest) -> int:
    return prod(tree_cut_count(t) for t in forest)


def _tree_splits(tree):
    """(extracted trees, remainder tree or None) for every cut of one tree."""
    yield (tree,), None
    for parts in _product_splits(tree[1]):
        extracted = tuple(x for ex, _ in parts for x in ex)
        kept = tuple(r for _, r in parts if r is not None)
        yield extracted, (tree[0], kept)


def _product_splits(trees):
    if not trees:
        yield ()
        return
    for head in _tree_splits(trees[0]):
        for rest in _product_splits(trees[1:]):
            yield (head,) + rest


def coproduct_terms(forest) -> Counter:
    """Full cut coproduct as a Counter over (extracted text, remainder text)."""
    out: Counter = Counter()
    for parts in _product_splits(forest):
        extracted = tuple(x for ex, _ in parts for x in ex)
        remainder = tuple(r for _, r in parts if r is not None)
        out[(fmt(standardize(extracted)), fmt(standardize(remainder)))] += 1
    return out


def reduced_coproduct_lines(forest) -> list[str]:
    """The reduced coproduct printed the way the CLI prints terms, sorted."""
    whole = fmt(forest)
    terms = coproduct_terms(forest)
    terms.pop(("()", whole), None)
    terms.pop((whole, "()"), None)
    return sorted("%d * %s (x) %s" % (c, a, b) for (a, b), c in terms.items())


# --- sampling -------------------------------------------------------------------


def sample_tree(rng: random.Random, n: int):
    """A uniform T tree of degree n."""
    if n == 1:
        return (1, ())
    word = sample_word(rng, n - 1)
    return b_minus(word) if rng.random() < 0.5 else b_plus(word)


def sample_word(rng: random.Random, n: int):
    """A uniform T word of degree n: the first factor's degree k is drawn
    with weight t(k) * w(n - k)."""
    trees, offset = [], 0
    while n:
        r = rng.randrange(t_word_count(n))
        k = 1
        while r >= t_tree_count(k) * t_word_count(n - k):
            r -= t_tree_count(k) * t_word_count(n - k)
            k += 1
        trees.append(shift(sample_tree(rng, k), offset))
        offset += k
        n -= k
    return tuple(trees)


def stratified_words(rng: random.Random, n: int, count: int, pool: int) -> list[str]:
    """``count`` distinct T words of degree n, taken at evenly spaced cut-count
    quantiles of ``pool`` distinct uniform draws.

    Coproduct cost follows the cut count, which is heavy-tailed; spacing the
    picks over its quantiles keeps the mix of cheap and costly words the same
    from seed to seed while the words themselves change.
    """
    pool = min(pool, t_word_count(n))
    count = min(count, pool)
    seen: dict[str, int] = {}
    while len(seen) < pool:
        word = sample_word(rng, n)
        text = fmt(word)
        if text not in seen:
            seen[text] = cut_count(word)
    ranked = sorted(seen, key=lambda text: (seen[text], text))
    return [ranked[int((i + 0.5) * pool / count)] for i in range(count)]


def stream_properties(texts: list[str]) -> dict:
    """Degree histogram, cut counts, and the share of tree factors already
    seen earlier in the stream (what a tree-keyed cache could reuse)."""
    degrees: Counter = Counter()
    cuts = []
    seen_trees: set[str] = set()
    factors = repeated = 0
    for text in texts:
        forest = parse(text)
        degrees[degree(forest)] += 1
        cuts.append(cut_count(forest))
        for tree in block_factors(forest):
            key = fmt_tree(tree)
            factors += 1
            repeated += key in seen_trees
            seen_trees.add(key)
    cuts.sort()
    return {
        "forests": len(texts),
        "degree_histogram": {str(d): degrees[d] for d in sorted(degrees)},
        "cuts_total": sum(cuts),
        "cuts_min": cuts[0],
        "cuts_median": cuts[len(cuts) // 2],
        "cuts_max": cuts[-1],
        "tree_factors": factors,
        "tree_factors_seen_before_share": repeated / factors,
    }


# --- references for the library workloads ------------------------------------


def check_coproduct_lines(text: str, lines: list[str]) -> bool:
    """Full coproduct output of one forest, in the CLI's ``c * a (x) b`` form.

    The coefficients sum to the cut count, the two trivial terms have
    coefficient 1, and every term's legs have degrees adding up to n.
    """
    forest = parse(text)
    n = degree(forest)
    whole = fmt(forest)
    total = 0
    trivial = {}
    for line in lines:
        coeff_text, sep, rest = line.partition(" * ")
        lea, sep2, roo = rest.partition(" (x) ")
        if not (sep and sep2):
            return False
        coeff = Fraction(coeff_text)
        if coeff.denominator != 1 or coeff <= 0:
            return False
        if text_degree(lea) + text_degree(roo) != n:
            return False
        total += coeff
        if (lea, roo) in (("()", whole), (whole, "()")):
            trivial[(lea, roo)] = coeff
    return total == cut_count(forest) and trivial == {("()", whole): 1, (whole, "()"): 1}


D_DIMS = (1, 1, 2, 6, 22, 90)


def _concat_texts(left: str, right: str) -> str:
    """Shifted concatenation of two forests given as text."""
    if left == "()":
        return right
    if right == "()":
        return left
    k = text_degree(left)
    return left + " " + re.sub(r"\d+", lambda m: str(int(m.group()) + k), right)


@lru_cache(maxsize=None)
def text_coproduct_terms(text: str) -> Counter:
    """``coproduct_terms`` of a forest given as text; the caller must not
    change the result, which is shared."""
    return coproduct_terms(parse(text))


def antipode_legs(text: str) -> set[str]:
    """Extracted legs of the full coproduct: the forests whose antipode the
    law needs."""
    return {a for a, _ in text_coproduct_terms(text)}


def check_antipode_law(text: str, antipode_of) -> bool:
    """sum over cuts of S(a) * b must equal the counit of the forest.

    ``antipode_of`` maps a forest's text to its antipode as {text: coeff};
    the coproduct and the product are this module's own.
    """
    acc: Counter = Counter()
    for (a, b), c in text_coproduct_terms(text).items():
        terms = antipode_of.get(a)
        if terms is None:
            return False
        for g, d in terms.items():
            acc[_concat_texts(g, b)] += c * d
    expected = {"()": 1} if text == "()" else {}
    return {k: v for k, v in acc.items() if v} == expected


# --- references for the CLI examples ---------------------------------------------


def signature_forests(signature: str) -> list[str]:
    """Forests reached by the move sequence ``signature`` (e.g. '++-'),
    sorted by text.  '-' wraps the forest under a new root; '+' appends a
    bare vertex, or hangs it as the rightmost child of some root with the
    trees to its right as its children."""
    forests = {((1, ()),)}
    for k, letter in enumerate(signature[1:], start=2):
        grown = set()
        for f in forests:
            if letter == "-":
                grown.add(((k, f),))
                continue
            grown.add(f + ((k, ()),))
            for i, (label, kids) in enumerate(f):
                grown.add(f[:i] + ((label, kids + ((k, f[i + 1 :]),)),))
        forests = grown
    return sorted(fmt(f) for f in forests)


@lru_cache(maxsize=None)
def all_t_words(n: int) -> tuple:
    if n == 0:
        return ((),)
    return tuple(
        (tree,) + tuple(shift(t, k) for t in tail)
        for k in range(1, n + 1)
        for tree in all_t_trees(k)
        for tail in all_t_words(n - k)
    )


@lru_cache(maxsize=None)
def all_t_trees(n: int) -> tuple:
    if n == 1:
        return ((1, ()),)
    words = all_t_words(n - 1)
    return tuple({b_minus(w) for w in words} | {b_plus(w) for w in words})


def t_indexings(shape: str) -> int:
    """Number of T trees whose unlabelled shape is ``shape``."""
    target = strip_labels(parse(shape)[0])
    return sum(1 for t in all_t_trees(text_degree(shape)) if strip_labels(t) == target)


# --- workloads ----------------------------------------------------------------------

ANTIPODE_MAX_DEGREE = 7
PRIMTOT_MAX_DEGREE = 6

SUITES = (
    "hopf",
    "duplicial",
    "dendriform",
    "leftgraft",
    "rightgraft",
    "bigraft",
    "counts",
    "primtot",
    "closure",
)

# The README's CLI examples, less ``check --suite hopf`` (cli-suites runs it).
README_EXAMPLES = (
    ("enumerate", "--set", "G", "--degree", "2"),
    ("enumerate", "--set", "G", "--degree", "3", "--signature", "+,+,-"),
    ("enumerate", "--set", "T", "--degree", "6", "--count-only"),
    ("op", "lgraft", "1", "1[2]"),
    ("coproduct", "--variant", "reduced", "2[4[1] 3]"),
    ("count", "--table", "B_forests", "--max", "8"),
    ("count", "--table", "D_dims", "--max", "5", "--verify"),
    ("indexings", "--family", "T", "0[0 0]", "--oracle"),
)

COPRODUCT_DEGREES = (7, 8, 9, 10)
COPRODUCT_PER_DEGREE = 100
ANTIPODE_SWEEP_DEGREE = 6
ANTIPODE_SAMPLED = 600
ANTIPODE_POOL = 1200
README_ROUNDS = 4
POOL_FACTOR = 6


def workload_ops(workload: str, seed: int) -> list:
    """The op list of one pass; the same seed gives the same list."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "coproduct-stream":
        ops = [
            text
            for n in COPRODUCT_DEGREES
            for text in stratified_words(
                rng, n, COPRODUCT_PER_DEGREE, POOL_FACTOR * COPRODUCT_PER_DEGREE
            )
        ]
        rng.shuffle(ops)
        return ops
    if workload == "antipode-primtot":
        # every word up to the sweep degree by rising degree, in seeded order
        # within a degree, then a sample one degree higher whose legs are
        # all cached by then
        words = []
        for n in range(1, ANTIPODE_SWEEP_DEGREE + 1):
            batch = sorted(fmt(w) for w in all_t_words(n))
            rng.shuffle(batch)
            words += batch
        n = ANTIPODE_SWEEP_DEGREE + 1
        words += stratified_words(rng, n, ANTIPODE_SAMPLED, ANTIPODE_POOL)
        return [["antipode", w] for w in words] + [
            ["primtot", n] for n in range(1, PRIMTOT_MAX_DEGREE + 1)
        ]
    if workload == "cli-suites":
        return [["check", "--suite", s] for s in rng.sample(SUITES, len(SUITES))]
    if workload == "cli-readme":
        return [
            list(argv)
            for _ in range(README_ROUNDS)
            for argv in rng.sample(README_EXAMPLES, len(README_EXAMPLES))
        ]
    raise ValueError("unknown workload %r" % workload)


def input_properties(workload: str, ops: list) -> dict:
    if workload == "coproduct-stream":
        return stream_properties(ops)
    if workload == "antipode-primtot":
        props = stream_properties([arg for kind, arg in ops if kind == "antipode"])
        props["primtot_degrees"] = [arg for kind, arg in ops if kind == "primtot"]
        return props
    return {"commands": [" ".join(argv) for argv in ops]}


def _readme_expected(argv: tuple) -> list[str]:
    """Expected stdout lines; the sorted ones are compared as sorted."""
    if argv == README_EXAMPLES[0]:
        return ["1 2", "1[2]", "2[1]"]
    if argv == README_EXAMPLES[1]:
        return signature_forests("++-")
    if argv == README_EXAMPLES[2]:
        return [str(t_tree_count(6))]
    if argv == README_EXAMPLES[3]:
        return ["2[1 3]"]
    if argv == README_EXAMPLES[4]:
        return reduced_coproduct_lines(parse("2[4[1] 3]"))
    if argv == README_EXAMPLES[5]:
        return ["%d %d" % (n, t_word_count(n)) for n in range(1, 9)]
    if argv == README_EXAMPLES[6]:
        return ["%d %d %d ok" % (n, d, d) for n, d in enumerate(D_DIMS[:5], start=1)] + ["ok"]
    if argv == README_EXAMPLES[7]:
        k = t_indexings("0[0 0]")
        return ["count %d" % k, "oracle %d" % k, "ok"]
    raise ValueError("not a README example: %r" % (argv,))


def check_cli(argv: list, code: int, stdout: str) -> bool:
    """Exit code and output of one CLI op against the README and the
    references above.  ``dendriform`` must fail on exactly the documented
    DELTAPREC row."""
    lines = stdout.splitlines()
    if argv[0] == "check":
        suite = argv[2]
        rows, summary = lines[:-1], lines[-1] if lines else ""
        failed = [r for r in rows if not r.startswith("ok  ")]
        if suite == "dendriform":
            return (
                code == 1
                and len(failed) == 1
                and failed[0].startswith("FAIL DELTAPREC: 58 of 194 ")
                and summary.startswith("suite dendriform at degree ")
                and summary.endswith(": FAIL")
            )
        return (
            code == 0
            and bool(rows)
            and not failed
            and summary.startswith("suite %s at degree " % suite)
            and summary.endswith(": pass")
        )
    argv = tuple(argv)
    expected = _readme_expected(argv)
    if argv[0] == "coproduct":
        lines = sorted(lines)
    return code == 0 and lines == expected
