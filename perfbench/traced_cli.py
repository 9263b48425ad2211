"""Run one lyricmelody command with the traced functions rebound.

    python3 perfbench/traced_cli.py SPANS_OUT [lyricmelody arguments...]

The same as the ``lyricmelody`` console script, except that the command's
spans (and those of the scorers it loads) are written to ``SPANS_OUT``, one
JSON list per line.  Exits with the command's own exit code.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    import lyricmelody.cli

    tracer = Tracer()
    tracer.op = 0
    tracer.install(wrap_models=True)
    try:
        return lyricmelody.cli.main(sys.argv[2:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
