"""Run one qgwave invocation with the benchmark's tracer attached.

    python3 perfbench/shim.py TRACE_OUT.json <qgwave arguments...>

Behaves like `python3 -m qgwave.cli <arguments...>` (same stdout, stderr and
exit code) and writes the invocation's spans to TRACE_OUT.json.
"""

import os
import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import qgwave.cli

    t = tracer.Tracer(invocation=os.path.basename(out))
    t.install(sys.modules)
    try:
        return qgwave.cli.main(argv)
    finally:
        t.dump(out)


if __name__ == "__main__":
    sys.exit(main())
