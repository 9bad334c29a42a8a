"""Run the hyperchrome CLI with the benchmark's tracing wrappers installed.

    python3 perfbench/launcher.py SPANS_JSON CLI_ARG...

behaves like ``python3 -m hyperchrome.cli CLI_ARG...`` (``src`` must be on
PYTHONPATH) and also writes the spans of the run, rooted at ``cli.main``, to
SPANS_JSON.  The traced cli_roundtrip passes go through it.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    from hyperchrome import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
