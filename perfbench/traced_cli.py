"""Run one oddsig CLI command with the layer spans recorded.

    python perfbench/traced_cli.py SPANS_OUT ARG...

Imports `oddsig.cli` (timed), installs the wrappers of `tracer`, calls
`oddsig.cli.run_command(ARG...)`, writes the spans to SPANS_OUT and exits
with the command's exit code. stdout and stderr are the command's own.
"""

import sys
from time import perf_counter


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    started = perf_counter()
    import oddsig.cli  # imports every layer
    import_s = perf_counter() - started
    from tracer import Recorder

    recorder = Recorder()
    recorder.install()
    code = oddsig.cli.run_command(argv)
    sys.stdout.flush()
    recorder.dump(out, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
