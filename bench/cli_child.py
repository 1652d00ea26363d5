"""Run one totpos command with the layer spans of bench/tracing.py.

    python3 bench/cli_child.py SPANS_FILE ARGUMENTS...

Used for the traced rounds of the cli workload in place of
``python -m totpos.cli ARGUMENTS...``: it exits with the command's exit
code and writes the spans of the run to SPANS_FILE as JSON.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracing import Tracer  # noqa: E402

import totpos.cli  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return totpos.cli.main(sys.argv[2:])
    except SystemExit as exc:   # argparse usage errors
        return exc.code
    finally:
        tracer.active = False
        Path(sys.argv[1]).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
