"""Run the ``fdrlink`` command line with the span recorder installed.

Usage: ``python3 bench/cli_shim.py TRACE_FILE fdrlink-arguments...``

Writes the process's spans, counters, the time it took to import
``fdrlink.cli`` and the CPU time of its pool workers to TRACE_FILE as one JSON
document, then exits with the command's exit code. The package must be
importable (the benchmark puts ``src`` on PYTHONPATH).
"""

import json
import resource
import sys
from time import perf_counter

t0 = perf_counter()
import fdrlink.cli  # noqa: E402

IMPORT_S = perf_counter() - t0

from spans import Recorder, install  # noqa: E402


def main() -> int:
    trace_file = sys.argv[1]
    rec = Recorder()
    install(rec)
    code = fdrlink.cli.main(sys.argv[2:])
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(trace_file, "w") as handle:
        json.dump(dict(import_s=IMPORT_S, exit_code=code,
                       children_cpu_s=children.ru_utime + children.ru_stime,
                       recorder=rec.to_json()), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
