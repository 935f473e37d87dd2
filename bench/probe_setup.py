"""Set-up probe: time ``import varsel`` plus ``ingest_csv`` in a fresh process.

Usage: python3 bench/probe_setup.py TABLE.csv TARGET  (from a checkout root;
prints the seconds taken).  Interpreter start-up is not included.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")
import varsel  # noqa: E402

varsel.ingest_csv(sys.argv[1], sys.argv[2])
print(time.perf_counter() - start)
