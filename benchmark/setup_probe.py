"""One set-up sample in a fresh interpreter: import gsfactor, then
make_field_q and build_ctx for each field given.  Prints the seconds taken.

    python3 benchmark/setup_probe.py 1999 2003
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gsfactor  # noqa: E402

for q in sys.argv[1:]:
    gsfactor.build_ctx(gsfactor.make_field_q(int(q)))
print(time.perf_counter() - start)
