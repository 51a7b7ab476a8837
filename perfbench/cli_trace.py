"""Run one softprob CLI command with the layer wrappers installed.

Usage: python perfbench/cli_trace.py SPANS_JSON ARG...

Behaves like ``python -m softprob.cli ARG...`` (softprob must be on the
path) and writes the spans and counts it recorded to SPANS_JSON.
"""

import json
import sys

from tracer import CLI_PATCHES, LIBRARY_PATCHES, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import softprob.cli
    tracer = Tracer()
    try:
        with tracer:
            tracer.install(LIBRARY_PATCHES)
            tracer.install(CLI_PATCHES)
            return softprob.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
