"""graftwood benchmark: one workload per run, closed loop, one process at a time.

    python3 perfbench/run.py --workload coproduct-stream --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass of a workload's op list runs in a fresh interpreter (library
workloads) or as one fresh CLI process per op (CLI workloads), because the
package's module caches grow without bound and cannot be reset.  Passes
repeat until ``--seconds`` is used up; timings are medians over passes.
Every output is checked against ``inputs``' references (for a library
workload: in the first pass, and later passes must reproduce those outputs
exactly) and a failed check counts as a failed op.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``, which hold the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The line before
it is a report with the machine, the input properties, the per-pass
figures and, when tracing, every per-layer figure.  See SCHEMA.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("coproduct-stream", "antipode-primtot", "cli-suites", "cli-readme")
SETUP_REPEATS = 9
SETUP_SLOTS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
CLI_MAIN = "from graftwood.cli import main; main()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GRAFTWOOD_MAX_DEGREE", None)
    return env


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
    }


TAIL_CAP = 0.95


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile, up to p95, that has at least ten samples
    above it, with its rank; the maximum when there are ten samples or fewer.

    Above p95 the order is decided by which ops a full garbage collection
    lands on (several per pass, tens to hundreds of ms each), and that
    changes from process to process.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = min(math.ceil(TAIL_CAP * n), n - 10)
    return ordered[rank - 1], 100.0 * rank / n


# --- passes ---------------------------------------------------------------------


def setup_times(workload: str, seed: int, repeats: int) -> list[float]:
    """Spawn-to-exit times of fresh interpreters that each import the package
    and build the inputs."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--setup", workload, str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: %s" % proc.stderr.decode()[-2000:])
    return times


def library_pass(workload: str, ops: list, trace_path: str | None,
                 reference: dict | None = None) -> dict:
    """One pass in a fresh worker.  Without a ``reference`` the worker checks
    every output against ``inputs``; with one (an earlier checked pass of the
    same ops), an op passes only if that op passed there and its output
    digest is the same."""
    job = json.dumps({"workload": workload, "ops": ops, "trace_path": trace_path,
                      "check": reference is None})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=job.encode(), env=child_env(),
            cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        result = json.loads(proc.stdout.decode().splitlines()[-1])
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "ops": len(ops), "failed": len(ops)}
    except (IndexError, ValueError):
        return {"error": proc.stderr.decode()[-2000:], "ops": len(ops), "failed": len(ops)}
    summary = None
    if trace_path:
        summary = spans.summarize(spans.load(trace_path))
    digests = result["digests"]
    if reference is None:
        ok = result["ok"]
    else:
        ok = [good and d == ref for good, d, ref in
              zip(reference["ok"], digests, reference["digests"])]
    return {
        "wall_ns": result["loop_ns"],
        "lat_ns": result["lat_ns"],
        "maxrss_kb": result["maxrss_kb"],
        "check_ns": result.get("check_ns", 0),
        "digests": digests,
        "ok": ok,
        "ops": len(ops),
        "failed": ok.count(False),
        "summary": summary,
        "cli_import_ns": 0,
        "cli_process_ns": 0,
    }


def cli_pass(ops: list, trace_dir: str | None) -> dict:
    lat, failed, summaries = [], 0, []
    import_ns = process_ns = 0
    for i, argv in enumerate(ops):
        if trace_dir:
            dump = os.path.join(trace_dir, "op%d.bin" % i)
            cmd = [sys.executable, str(HERE / "cli_entry.py"), dump] + argv
        else:
            cmd = [sys.executable, "-c", CLI_MAIN] + argv
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            lat.append(time.perf_counter_ns() - t0)
            failed += 1
            continue
        wall = time.perf_counter_ns() - t0
        lat.append(wall)
        failed += not inputs.check_cli(argv, proc.returncode, proc.stdout.decode())
        if trace_dir:
            data = spans.load(dump)
            os.unlink(dump)
            summary = spans.summarize(data)
            summaries.append(summary)
            import_ns += data["extra"]["import_ns"]
            process_ns += wall - summary["per_name"].get("cli.execute", {}).get("incl_ns", 0)
    return {
        "wall_ns": sum(lat),
        "lat_ns": lat,
        "ops": len(ops),
        "failed": failed,
        "summary": merge(summaries) if trace_dir else None,
        "cli_import_ns": import_ns,
        "cli_process_ns": process_ns,
    }


def merge(summaries: list[dict]) -> dict:
    out = {"spans": 0, "top_ns": 0, "layer_self_ns": {l: 0 for l in spans.LAYERS},
           "per_name": {}, "counts": {}}
    for s in summaries:
        out["spans"] += s["spans"]
        out["top_ns"] += s["top_ns"]
        for layer, ns in s["layer_self_ns"].items():
            out["layer_self_ns"][layer] += ns
        for name, row in s["per_name"].items():
            acc = out["per_name"].setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            for key in acc:
                acc[key] += row[key]
        for name, value in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
    return out


# --- metrics ----------------------------------------------------------------------

_FOREST_FNS = ("parse_forest", "admissible_cuts", "cut_split", "standardize", "concat")


def layer_metrics(p: dict, untraced_wall_ns: float) -> dict:
    """Every per-layer figure of one traced pass, as {name: (value, unit)}."""
    s = p["summary"]
    per = s["per_name"]

    def calls(name):
        return (per.get(name, {}).get("calls", 0), "count")

    def self_s(*names):
        return (sum(per.get(n, {}).get("self_ns", 0) for n in names) / 1e9, "s")

    def count(name):
        return (s["counts"].get(name, 0), "count")

    def layer(name):
        return (s["layer_self_ns"][name] / 1e9, "s")

    m = {}
    for fn in _FOREST_FNS:
        m["forest.%s.calls" % fn] = calls("forest." + fn)
        m["forest.%s.self_s" % fn] = self_s("forest." + fn)
    m["forest.format_forest.self_s"] = self_s("forest.format_forest")
    m["forest.admissible_cuts.cuts"] = count("forest.admissible_cuts.cuts")
    m["forest.self_s"] = layer("forest")

    m["families.generate_set.self_s"] = self_s("families.generate_set")
    m["families.generate_words.self_s"] = self_s("families.generate_words")
    for fn in ("membership", "oracle_count_indexings"):
        m["families.%s.calls" % fn] = calls("families." + fn)
        m["families.%s.self_s" % fn] = self_s("families." + fn)
    tried = s["counts"].get("families.oracle.labellings", 0)
    m["families.oracle.labellings"] = (tried, "count")
    accepted = s["counts"].get("families.oracle.accepted", 0)
    m["families.oracle.accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    m["families.self_s"] = layer("families")

    m["algebra.coproduct.calls"] = calls("algebra.coproduct")
    m["algebra.coproduct.self_s"] = self_s("algebra.coproduct")
    m["algebra.coproduct.terms"] = count("algebra.coproduct.terms")
    for fn in ("antipode", "product"):
        m["algebra.%s.calls" % fn] = calls("algebra." + fn)
        m["algebra.%s.self_s" % fn] = self_s("algebra." + fn)
    m["algebra.prim_tot_dimension.self_s"] = self_s("algebra.prim_tot_dimension")
    m["algebra.expand.self_s"] = self_s("algebra.expand_left", "algebra.expand_right")
    m["algebra.self_s"] = layer("algebra")

    m["grafts.check_identity.calls"] = calls("grafts.check_identity")
    m["grafts.check_identity.self_s"] = self_s("grafts.check_identity")
    m["grafts.check_identity.false"] = count("grafts.check_identity.false")
    m["grafts.generate_closure.self_s"] = self_s("grafts.generate_closure")
    m["grafts.self_s"] = layer("grafts")

    m["series.verify_against_enumeration.self_s"] = self_s("series.verify_against_enumeration")
    m["series.self_s"] = layer("series")

    for suite in inputs.SUITES:
        incl = per.get("checks.run_suite.%s" % suite, {}).get("incl_ns", 0)
        m["checks.run_suite.%s.s" % suite] = (incl / 1e9, "s")
    m["checks.self_s"] = layer("checks")

    m["cli.import_s"] = (p["cli_import_ns"] / 1e9, "s")
    m["cli.execute.self_s"] = self_s("cli.execute")
    m["cli.self_s"] = layer("cli")
    m["cli.process_s"] = (p["cli_process_ns"] / 1e9, "s")

    m["trace.spans"] = (s["spans"], "count")
    m["trace.wall_s"] = (p["wall_ns"] / 1e9, "s")
    m["trace.outside_s"] = ((p["wall_ns"] - s["top_ns"]) / 1e9, "s")
    m["trace.overhead_ratio"] = (p["wall_ns"] / untraced_wall_ns, "ratio")
    return m


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    """Medians over passes of each pass's wall time, p50 and tail."""
    wall = statistics.median(p["wall_ns"] / 1e9 for p in passes)
    p50 = statistics.median(statistics.median(p["lat_ns"]) / 1e6 for p in passes)
    tail_ms = statistics.median(tail(p["lat_ns"])[0] / 1e6 for p in passes)
    if "maxrss_kb" in passes[0]:
        rss_kb = max(p["maxrss_kb"] for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (passes[0]["ops"] / wall, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


# --- one run ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    ops = inputs.workload_ops(workload, seed)
    setups: list[float] = []

    def take_setups():
        setups.extend(setup_times(workload, seed, SETUP_REPEATS // SETUP_SLOTS))

    scratch = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        passes = run_passes(workload, ops, seconds, trace, scratch, take_setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    while len(setups) < SETUP_REPEATS:
        take_setups()
    setup_s = statistics.median(setups)
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    timed = [p for p in passes if "wall_ns" in p]
    plain = [p for p in timed if p["summary"] is None]
    traced = [p for p in timed if p["summary"] is not None]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "inputs": inputs.input_properties(workload, ops),
        "passes": [
            {"wall_s": p.get("wall_ns", 0) / 1e9, "ops": p["ops"], "failed": p["failed"],
             "traced": p.get("summary") is not None, "error": p.get("error")}
            for p in passes
        ],
        "fail_ratio": failed / attempted,
    }
    metrics = {}
    if plain:
        e2e = end_to_end(plain, setup_s)
        report["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        report["tail"] = {"percentile": tail(plain[0]["lat_ns"])[1],
                          "samples_per_pass": plain[0]["ops"], "passes": len(plain)}
        if not trace:
            metrics = e2e
    if trace and plain and traced:
        untraced = statistics.median(p["wall_ns"] for p in plain)
        per_pass = [layer_metrics(p, untraced) for p in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        report["layers"] = {k: v for k, (v, _) in metrics.items()}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def run_passes(workload: str, ops: list, seconds: float, trace: bool, scratch: str,
               take_setups) -> list:
    """Closed loop: at least MIN_PASSES passes back to back, then more until
    the next would overrun ``seconds``.  Traced runs alternate untraced and
    traced passes.  ``take_setups`` runs before each of the first SETUP_SLOTS
    passes, so set-up is timed at several moments of the run.  A library
    workload's first good pass is the reference for the later ones.  The
    set-ups and that pass's full check do not count against ``seconds``."""
    deadline = time.perf_counter() + seconds
    passes = []
    reference = None
    while True:
        if len(passes) < SETUP_SLOTS:
            t0 = time.perf_counter()
            take_setups()
            deadline += time.perf_counter() - t0
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if workload.startswith("cli-"):
            trace_dir = None
            if traced:
                trace_dir = os.path.join(scratch, "pass%d" % len(passes))
                os.mkdir(trace_dir)
            p = cli_pass(ops, trace_dir)
        else:
            trace_path = os.path.join(scratch, "pass%d.bin" % len(passes)) if traced else None
            p = library_pass(workload, ops, trace_path, reference)
            if reference is None and "ok" in p:
                reference = p
        passes.append(p)
        check_s = p.get("check_ns", 0) / 1e9
        deadline += check_s
        last = time.perf_counter() - t0 - check_s
        if len(passes) >= MIN_PASSES and time.perf_counter() + last > deadline:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graftwood" / "__init__.py").is_file():
        print("error: no graftwood sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, metric["value"], metric["unit"]), file=sys.stderr)
    print("fail_ratio %g (%d of %d ops)" % (report["fail_ratio"], result["failed"],
                                            result["attempted"]), file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print("== %s" % workload)
        print(proc.stderr, end="")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("run failed with exit %d" % proc.returncode)
            return 1
        print(lines[-2])
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
