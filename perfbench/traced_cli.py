"""Run one `mixbound` command with the layer wrappers installed.

    python perfbench/traced_cli.py SPANS_FILE <mixbound arguments...>

Output and exit code are those of the command; the spans and counters
go to SPANS_FILE when it ends.
"""

import sys

import mixbound.cli

from tracing import Tracer


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mixbound.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
