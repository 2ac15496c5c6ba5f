"""One set-up in a fresh process: ``python -m perfbench.setup_probe WORKLOAD SEED``.

Imports ``repro`` and runs the workload's warm-up experiment on a single
topology, which fills the program's lazy tables.  ``run.py`` times the
whole process from the outside; this process runs a
:class:`~perfbench.clock.SpeedClock` and prints, as one JSON line, the
seconds its calibration passes took and their mean, so that ``run.py``
can take the passes out and scale the rest.
"""

import json
import sys

import perfbench  # noqa: F401  (puts the checkout's src on sys.path)
from perfbench.clock import SpeedClock


def main(argv) -> int:
    workload, seed = argv
    clock = SpeedClock()
    with clock:
        import repro  # noqa: F401
        from perfbench.workloads import WORKLOADS

        WORKLOADS[workload](int(seed), workdir="").warmup()
    print(json.dumps({"stolen_s": clock.stolen_wall_s, "calibration_s": sum(clock.durations) / len(clock.durations)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
