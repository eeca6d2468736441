"""``python -m polyderive.cli`` with the benchmark's tracer installed.

Usage: python3 bench/trace_child.py TRACE_OUT CLI_ARGS...

Runs one CLI command in a fresh interpreter, as the ``cli-cold`` workload
does, and writes the tracer's aggregates and spans, plus the package import
time, to TRACE_OUT as JSON. The exit code is the CLI's.
"""

import sys
import time

import tracing

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import polyderive.cli

    import_ns = time.perf_counter_ns() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = polyderive.cli.main(argv)
    finally:
        tracer.uninstall()
        payload = tracer.dump()
        payload["import_ns"] = import_ns
        tracing.write(out, payload)
    sys.exit(code)
