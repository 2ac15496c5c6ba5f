"""The second service worker: ``python -m perfbench.worker SHARD_DIR CACHE LEVEL OUT TIMEOUT``.

Installs the dispatch probes (level ``probe``) or every layer wrapper
(level ``full``), drains the shard directory through
``repro.sim.service.worker_entry`` with the program's own collector on,
and writes its counts and spans to ``OUT`` as JSON on exit.  At level
``probe`` it also runs calibration passes, as the measuring process does,
and writes them out, so that the drain both processes share is scaled by
both processes' host speed.
"""

import json
import sys

import perfbench  # noqa: F401  (puts the checkout's src on sys.path)
from perfbench.clock import CALIBRATION_INTERVAL_S, SpeedClock
from perfbench.layers import Installation, Tracer


def main(argv) -> int:
    shard_dir, cache_root, level, out_path, timeout_s = argv
    from repro.sim.service import worker_entry

    tracer = Tracer(record_spans=level == "full")
    clock = SpeedClock(CALIBRATION_INTERVAL_S if level == "probe" else 0)
    installation = Installation(tracer, level)
    try:
        with clock:
            tracer.root(0, worker_entry, shard_dir, cache_root, timeout_s=float(timeout_s))
    finally:
        installation.close()
    payload = tracer.payload()
    payload["calibration"] = {
        "starts": clock.starts,
        "durations": clock.durations,
        "stolen_cpu_s": clock.stolen_cpu_s,
    }
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
