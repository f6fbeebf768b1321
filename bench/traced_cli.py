"""Run one picardkit command in this fresh interpreter with the tracer on.

    python3 bench/traced_cli.py <picardkit arguments>

Prints one JSON line: the exit code, the command's output, and the spans and
counts recorded around picardkit.cli.main and the layers it calls.
"""

import contextlib
import io
import json
import sys

import harness

if __name__ == "__main__":
    harness.require_program()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import picardkit.cli

    main = tracer.wrap("cli", picardkit.cli.main)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
    print(json.dumps({"exit": code, "output": captured.getvalue(),
                      "spans": tracer.spans, "counts": tracer.counts}))
