"""A cli-cold child process that reports on itself.

Measures interpreter start plus ``import steinberg.cli`` as the time from
``BENCH_SPAWNED_AT`` (the parent's ``time.monotonic()`` just before it
started this process; the clock is shared across processes) to the end of
the import.  With arguments, it then installs the tracer and runs them as
one ``steinberg`` invocation.  It writes ``{"startup_s", "trace"}`` as JSON
to the pipe whose descriptor is ``BENCH_REPORT_FD`` and exits with the
invocation's code.
"""

import json
import os
import sys
import time

import steinberg.cli as cli

startup_s = time.monotonic() - float(os.environ["BENCH_SPAWNED_AT"])
report = {"startup_s": startup_s, "trace": None}
code = 0
if len(sys.argv) > 1:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.run(sys.argv[1:])
    report["trace"] = tracer.totals()
with os.fdopen(int(os.environ["BENCH_REPORT_FD"]), "w") as fh:
    json.dump(report, fh)
sys.exit(code)
