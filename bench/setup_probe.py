"""Set-up probe: import ``fwdcal.cli`` and parse one declaration file.

    python3 bench/setup_probe.py FILE

Prints ``ready`` once the file is parsed.  ``run.py`` times it from starting
the interpreter to that line.  It imports nothing of the benchmark's own, so
``setup_s`` is the program's set-up cost alone.
"""

import sys

from fwdcal import cli  # noqa: F401
from fwdcal import parsing

with open(sys.argv[1], encoding="utf-8") as f:
    parsing.parse_file(f.read())
print("ready", flush=True)
