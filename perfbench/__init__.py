"""End-to-end and per-layer benchmark of the COPA reproduction.

Run from the repository root: ``python3 perfbench/run.py --workload
ncell_4ap --seed 1 --seconds 20 --trace 0``.  See ``README.md`` here.

The benchmark measures the ``repro`` package of the checkout it sits in,
so importing this package puts that checkout's ``src`` first on
``sys.path``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
