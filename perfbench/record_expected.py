"""Record the simulated stretch of each simulator workload per seed.

    python3 perfbench/record_expected.py --seeds 0-31

Writes ``perfbench/expected.json``. A run of ``run.py`` on a recorded
seed fails its output check unless the simulated stretch is bit-identical
to the recorded value, so re-record only when the simulated behaviour is
meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import simwork  # noqa: E402
from common import parse_seeds  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="inclusive seed range, e.g. 0-31")
    args = parser.parse_args(argv)
    recorded = simwork.load_expected()
    for name, spec in simwork.SIM_SPECS.items():
        per_seed = recorded.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            run = simwork.SimRun(spec, seed)
            cluster, _ = run.build()
            run.replay(cluster)
            outcome = simwork.outcome_of(cluster, len(run.trace))
            stretch = outcome.latency_metrics()["stretch"]
            per_seed[str(seed)] = repr(stretch)
            print(f"{name} seed {seed}: stretch {stretch!r}", flush=True)
    simwork.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1,
                                                sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
