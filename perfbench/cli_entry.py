"""Traced CLI process: ``python3 perfbench/cli_entry.py DUMP_PATH ARGS...``.

Imports ``graftwood.cli`` (timed), wraps the package's public functions,
runs ``graftwood.cli.execute(ARGS)`` as the console script would, then
writes the spans to DUMP_PATH and exits with the command's exit code.
"""

import sys
import time

import spans


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import graftwood.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    code = graftwood.cli.execute(argv)
    tracer.active = False
    sys.stdout.flush()
    tracer.dump(dump_path, extra={"import_ns": import_ns})
    return code


if __name__ == "__main__":
    sys.exit(main())
