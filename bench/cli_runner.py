"""Run one ``diffmon`` command with the benchmark's span wrappers installed.

Usage: python3 cli_runner.py SPANS_FILE COMMAND [ARGS...]

Installs the wrappers before calling ``diffmon.cli.main``, writes the spans
and counters it recorded to SPANS_FILE, and exits with the command's code.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import diffmon.cli

    run = tracer.wrap("cli.main", diffmon.cli.main)
    tracer.active = True
    try:
        return run(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_file, {"argv": argv})


if __name__ == "__main__":
    sys.exit(main())
