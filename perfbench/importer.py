"""Time ``import excisionlab.scenarios`` in this fresh interpreter.

    python3 perfbench/importer.py SRC_DIR

Prints the normalised import time in seconds (see ``hostclock``).  Only
the standard library is loaded before the import, so the time includes
numpy and every module-level computation of the package.
"""

import sys
import time

from hostclock import PYTHON_PROBE_REF_S, ProbeClock, python_probe

sys.path.insert(0, sys.argv[1])
with ProbeClock(python_probe, PYTHON_PROBE_REF_S, interval_s=0.005) as clock:
    t0 = time.perf_counter()
    import excisionlab.scenarios  # noqa: E402,F401
    t1 = time.perf_counter()
print(repr(clock.seconds(t0, t1)))
