"""Traced entry point: ``python3 perfbench/shim.py SPOOL_DIR <repro CLI args...>``.

Imports the program, installs the span wrappers of :mod:`tracing` and calls
``repro.cli.main`` with the remaining arguments.  The main process's spans
and its wall interval are written to ``SPOOL_DIR`` when ``main`` returns
(``serve`` returns on SIGINT); pool workers write their own on exit.
"""

from __future__ import annotations

import sys
from time import perf_counter

T0 = perf_counter()

from tracing import Tracer, install  # noqa: E402  (T0 must precede the imports)


def main(argv) -> int:
    spool_dir, cli_args = argv[0], argv[1:]
    tracer = Tracer(spool_dir)
    with tracer.span("startup.import"):
        import repro.cli
    with tracer.span("trace.install"):
        install(tracer)
        tracer.follow_forks()
    code = 1
    try:
        code = repro.cli.main(cli_args)
    finally:
        tracer.flush(meta={"main": True, "t0": T0, "t1": perf_counter(), "exit": code})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
