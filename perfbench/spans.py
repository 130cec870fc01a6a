"""Spans around graftwood's public functions, recorded from outside the package.

``install()`` rebinds every public function of each ``graftwood.<module>``
wherever a module of the package holds it: module globals (so calls between
modules, such as ``algebra`` calling ``cut_split``, are seen) and module-level
dicts of functions.  Each call then records a span (name, start, end, parent)
in flat in-memory arrays; ``dump()`` writes them out once, at exit.
``summarize()`` turns a dump into self times per function and per layer.

The layer of a span is the module that defines the function, whatever
namespace the call went through.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("forest", "families", "algebra", "grafts", "series", "checks", "cli")

_perf_ns = time.perf_counter_ns


class Tracer:
    """Flat span storage: four parallel int64 arrays and a name table."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, fn, name: str, label=None, count=None):
        """A stand-in for ``fn`` that records one span per call while active.

        ``label(args, kwargs)`` refines the span name; ``count(args, kwargs,
        result)`` adds to the tracer's counters.
        """
        fixed = self.name_id(name)
        stack = self._stack
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(fixed if label is None else self.name_id(label(args, kwargs)))
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__graftwood_traced__ = True
        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans and counters: a JSON header line, then the arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "extra": extra or {},
        }
        with open(path, "wb") as out:
            blob = json.dumps(header).encode()
            out.write(struct.pack("<q", len(blob)))
            out.write(blob)
            for arr in (self.name_of, self.start, self.end, self.parent):
                out.write(arr.tobytes())


def load(path: str) -> dict:
    with open(path, "rb") as src:
        (size,) = struct.unpack("<q", src.read(8))
        header = json.loads(src.read(size))
        n = header["spans"]
        arrays = []
        for _ in range(4):
            arr = array("q")
            arr.frombytes(src.read(8 * n))
            arrays.append(arr)
    header["name_of"], header["start"], header["end"], header["parent"] = arrays
    return header


def summarize(dump: dict) -> dict:
    """Self and inclusive time per span name, self time per layer.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the time covered by
    the top-level spans.
    """
    names = dump["names"]
    name_of, start, end, parent = dump["name_of"], dump["start"], dump["end"], dump["parent"]
    n = len(start)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    incl_ns = [0] * len(names)
    top_ns = 0
    for i in range(n):
        dur = end[i] - start[i]
        k = name_of[i]
        calls[k] += 1
        self_ns[k] += dur - child_ns[i]
        # recursion nests a name inside itself; count its outermost span only
        p = parent[i]
        while p >= 0 and name_of[p] != k:
            p = parent[p]
        if p < 0:
            incl_ns[k] += dur
        if parent[i] < 0:
            top_ns += dur
    layer_self = {layer: 0 for layer in LAYERS}
    per_name = {}
    for k, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += self_ns[k]
        per_name[name] = {"calls": calls[k], "self_ns": self_ns[k], "incl_ns": incl_ns[k]}
    return {
        "spans": n,
        "top_ns": top_ns,
        "layer_self_ns": layer_self,
        "per_name": per_name,
        "counts": dump["counts"],
    }


# --- what gets traced ----------------------------------------------------------------


def _count_cuts(counts, args, kwargs, result):
    counts["forest.admissible_cuts.cuts"] += len(result)


def _count_terms(counts, args, kwargs, result):
    counts["algebra.coproduct.terms"] += len(result.terms)


def _count_false(counts, args, kwargs, result):
    counts["grafts.check_identity.false"] += result is False


def _count_labellings(counts, args, kwargs, result):
    shape = args[0] if args else kwargs["shape"]
    counts["families.oracle.labellings"] += math.factorial(shape.degree)
    counts["families.oracle.accepted"] += result


def _suite_label(args, kwargs):
    return "checks.run_suite.%s" % (args[0] if args else kwargs["suite"])


_COUNTERS = {
    "forest.admissible_cuts": _count_cuts,
    "algebra.coproduct": _count_terms,
    "grafts.check_identity": _count_false,
    "families.oracle_count_indexings": _count_labellings,
}
_LABELS = {"checks.run_suite": _suite_label}


def install(tracer: Tracer) -> int:
    """Rebind the public functions of every loaded ``graftwood`` module.

    Returns the number of distinct functions wrapped.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "graftwood" or name.startswith("graftwood."))]
    wrapped: dict[int, object] = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, value in vars(module).items():
            if (
                attr.startswith("_")
                or not isinstance(value, types.FunctionType)
                or value.__module__ != module.__name__
                or getattr(value, "__graftwood_traced__", False)
            ):
                continue
            name = "%s.%s" % (layer, attr)
            wrapped[id(value)] = tracer.wrap(
                value, name, label=_LABELS.get(name), count=_COUNTERS.get(name)
            )
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
    return len(wrapped)
