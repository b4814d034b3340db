"""One cold set-up of the package, in a fresh process.

    python3 perfbench/coldstart.py SRC CONFIG

Imports `relcost` from SRC and loads and validates CONFIG with
`cli.load_config`, the set-up every CLI command does before its first
simulated run.  Prints the seconds from this process's first statement to the
end of `load_config`.  `run.py` starts it before the first round and after
each round, and reports the fastest as `setup_s`.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402  (the clock starts before any import)

sys.path.insert(0, sys.argv[1])
from relcost import cli  # noqa: E402

cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - T_START))
