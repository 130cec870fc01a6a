"""No result depends on a warm memo: every functools cache can be cleared.

``MEMOS`` is the inventory of the package's memos: a memo added or dropped
fails the test until it is listed here or taken off.
"""

import sys

from graftwood import antipode, coproduct, count_indexings, generate_set, run_suite
from graftwood.algebra import COPRODUCT_VARIANTS
from graftwood.forest import parse_forest, shape_of


def _caches():
    """The functools caches defined in the loaded graftwood modules, by name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("graftwood."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == name:
                out["%s.%s" % (name, attr)] = value
    return out


def _results():
    forests = [f for n in range(1, 5) for f in sorted(generate_set("G", n), key=str)]
    words = [parse_forest(t) for t in ("1[2[3[4[5]]]]", "2[1] 3 5[4]", "1 4[2 3] 5")]
    return (
        run_suite("hopf", 4),
        run_suite("closure", 3),
        [coproduct(f, v) for f in forests for v in COPRODUCT_VARIANTS],
        [antipode(w) for w in words],
        [count_indexings(shape_of(f)[0], "T") for f in sorted(generate_set("Bl", 6), key=str)],
    )


MEMOS = (
    "graftwood.forest._leaf",
    "graftwood.forest._standardized",
    "graftwood.forest._concatenated",
    "graftwood.algebra._forest_coproduct",
    "graftwood.algebra._antipode_forest",
    "graftwood.families._signature_set",
    "graftwood.families._tree_layer",
    "graftwood.grafts._closure_layer",
    "graftwood.families._words_over",
)


def test_results_do_not_depend_on_warm_caches():
    first = _results()
    assert _results() == first
    caches = _caches()
    assert set(caches) == set(MEMOS)
    for name in MEMOS:
        assert caches[name].cache_info().currsize > 0, name
    for cache in caches.values():
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
    assert _results() == first


# The counts suite builds every family table and word layer the package
# memoises, so it is the heaviest suite: it peaks at about 9.8 MB.
_COUNTS_PEAK = """
import tracemalloc
from graftwood import run_suite
tracemalloc.start()
run_suite("counts")
print(tracemalloc.get_traced_memory()[1])
"""


def test_the_counts_suite_peaks_under_12_mb_of_python_allocations(fresh_python):
    proc = fresh_python(["-c", _COUNTS_PEAK])
    assert proc.returncode == 0, proc.stderr.decode()
    peak = int(proc.stdout)
    assert peak <= 12 * 2**20, "%.2f MB" % (peak / 2**20)
