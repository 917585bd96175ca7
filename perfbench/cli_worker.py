"""The narybands CLI in a fresh interpreter, as its console script runs it.

    python3 perfbench/cli_worker.py [--trace SPANS] ARGS...

Runs narybands.cli.main(ARGS) and exits with its code.  With --trace the
layer wrappers are installed before main is called, and the spans and the
import time are written to SPANS when main returns.
"""

import json
import os
import sys
import time

T_IMPORT = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
import narybands  # noqa: E402
from narybands import cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - T_IMPORT) * 1000


def main(argv) -> int:
    if argv[:1] != ["--trace"]:
        return cli.main(argv)
    import tracing

    spans_path, argv = argv[1], argv[2:]
    tracer = tracing.Tracer()
    tracer.install(narybands)
    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"import_ms": IMPORT_MS, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
