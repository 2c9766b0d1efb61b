"""Time ``smoothed_gradient`` at a saved potential in a fresh process.

    python3 perfbench/gradient_probe.py WORKLOAD SEED PSI.npy [OVERRIDES_JSON]

run.py starts this with the BLAS thread variables set to 1, so the result is
the single-thread baseline of the same call it times in its own process.
Prints one JSON line ``{"gradient_ms": ...}``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from run import per_call  # noqa: E402


def main(argv):
    workload, seed, psi_path = argv[0], int(argv[1]), argv[2]
    overrides = json.loads(argv[3]) if len(argv) > 3 else {}
    harness.cli.build_instance = harness.relabelled(harness.cli.build_instance, seed)
    p = harness.setup(harness.workload_config(workload, harness.OUT, **overrides))
    psi = np.load(psi_path)
    ms = 1e3 * per_call(lambda: harness.smoothed_dual.smoothed_gradient(
        psi, p.source, p.target, p.centered, p.lam))
    print(json.dumps({"gradient_ms": ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
