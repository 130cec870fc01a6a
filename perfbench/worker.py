"""One measured pass of a library workload, in a fresh interpreter.

Reads a job (JSON) on stdin, runs its op list through graftwood and prints
one JSON result line with the latencies and a digest of every output.  With
``check`` set, every output is also checked against the references in
``inputs`` after the timed loop; ``run.py`` checks the first pass of a run
this way and compares the later passes' digests with it.  With
``trace_path`` set, the public functions are wrapped first and the spans of
the timed loop are dumped to that path.

``python3 perfbench/worker.py --setup WORKLOAD SEED`` instead times nothing
itself: it imports the package and builds the workload's inputs, which is
what the benchmark's set-up costs a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import ChainMap
from fractions import Fraction

import inputs
import spans

_perf_ns = time.perf_counter_ns


def run_coproduct_stream(lib, ops):
    parse_forest, coproduct = lib.parse_forest, lib.coproduct
    outputs, lat = [], []
    for text in ops:
        t0 = _perf_ns()
        terms = coproduct(parse_forest(text), "full").sorted_terms()
        lines = ["%s * %s (x) %s" % (c, a.text, b.text) for (a, b), c in terms]
        lat.append(_perf_ns() - t0)
        outputs.append(lines)
    return outputs, lat


def run_antipode_primtot(lib, ops):
    antipode, prim_tot_dimension = lib.antipode, lib.prim_tot_dimension
    parsed = [lib.parse_forest(arg) if kind == "antipode" else arg for kind, arg in ops]
    outputs, lat = [], []
    for (kind, _), arg in zip(ops, parsed):
        t0 = _perf_ns()
        if kind == "antipode":
            out = antipode(arg, max_degree=inputs.ANTIPODE_MAX_DEGREE)
        else:
            out = prim_tot_dimension(arg, max_degree=inputs.PRIMTOT_MAX_DEGREE)
        lat.append(_perf_ns() - t0)
        outputs.append(out)
    return outputs, lat


def antipode_table(lib, ops) -> dict[str, dict[str, Fraction]]:
    """The program's antipode of every leg the law needs, as text."""
    legs = set()
    for kind, arg in ops:
        if kind == "antipode":
            legs |= inputs.antipode_legs(arg)
    return {
        leg: as_text(lib.antipode(lib.parse_forest(leg), max_degree=inputs.ANTIPODE_MAX_DEGREE))
        for leg in legs
    }


def as_text(element) -> dict[str, Fraction]:
    return {f.text: c for f, c in element.terms.items()}


def digest(workload: str, out) -> str:
    """A short hash of one op's output, the same whatever the term order."""
    if workload == "coproduct-stream":
        text = "\n".join(sorted(out))
    elif isinstance(out, int):
        text = str(out)
    else:
        text = repr(sorted(as_text(out).items()))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def check_outputs(workload: str, ops, outputs, antipode_of=None) -> list[bool]:
    """One verdict per op, from references the program did not produce."""
    if workload == "coproduct-stream":
        return [inputs.check_coproduct_lines(text, lines) for text, lines in zip(ops, outputs)]
    verdicts = []
    for (kind, arg), out in zip(ops, outputs):
        if kind == "antipode":
            # the op's own output stands in for S(f) in the law
            table = ChainMap({arg: as_text(out)}, antipode_of)
            verdicts.append(inputs.check_antipode_law(arg, table))
        else:
            verdicts.append(out == inputs.D_DIMS[arg - 1])
    return verdicts


RUNNERS = {
    "coproduct-stream": run_coproduct_stream,
    "antipode-primtot": run_antipode_primtot,
}


def main() -> int:
    if sys.argv[1:2] == ["--setup"]:
        workload, seed = sys.argv[2], int(sys.argv[3])
        if workload.startswith("cli-"):
            import graftwood.cli  # noqa: F401
        else:
            import graftwood  # noqa: F401
        inputs.workload_ops(workload, seed)
        return 0

    job = json.load(sys.stdin)
    workload, ops = job["workload"], job["ops"]
    import graftwood as lib

    tracer = None
    if job.get("trace_path"):
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    t0 = _perf_ns()
    outputs, lat = RUNNERS[workload](lib, ops)
    loop_ns = _perf_ns() - t0
    # the program's peak, before the checks below add their own data
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.active = False
        tracer.dump(job["trace_path"])
    result = {
        "lat_ns": lat,
        "loop_ns": loop_ns,
        "maxrss_kb": maxrss_kb,
        "digests": [digest(workload, out) for out in outputs],
    }
    if job.get("check"):
        t0 = _perf_ns()
        table = antipode_table(lib, ops) if workload == "antipode-primtot" else None
        result["ok"] = check_outputs(workload, ops, outputs, table)
        result["check_ns"] = _perf_ns() - t0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
