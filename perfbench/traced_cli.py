"""Run the dualcurl CLI with the span tracer installed.

    python3 perfbench/traced_cli.py <spans.json> <dualcurl CLI arguments...>

Writes the spans and counters to <spans.json> when the CLI returns and
exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import dualcurl.cli

from spans import Tracer

tracer = Tracer()
tracer.install()
try:
    code = dualcurl.cli.main(sys.argv[2:])
finally:
    tracer.remove()
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump()))
sys.exit(code)
