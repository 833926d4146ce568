"""Benchmark entry point: one workload (or all of them) per invocation.

    python3 perfbench/run.py --workload sim_ucb_p32 --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` makes a separate traced pass and prints the per-layer
metrics. Every run checks the program's outputs; a failed check makes
the run count as failed and the exit code non-zero. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, NOT_MEASURED, RunResult  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SIM_WORKLOADS = ("sim_ucb_p32", "sim_adl_drift_p8")
LIVE_WORKLOADS = ("live_ucb_open", "live_ucb_http")
WORKLOADS = SIM_WORKLOADS + LIVE_WORKLOADS


def import_program() -> None:
    """Put the program's sources on the path, or exit 2 without them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    # Child processes (slaves, ``repro serve``) import the same sources.
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "")
                          .split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    if name in SIM_WORKLOADS:
        import simwork
        fn = simwork.run_traced if trace else simwork.run_untraced
    else:
        import livework
        fn = livework.run_traced if trace else livework.run_untraced
    return fn(name, seed, seconds)


def emit(result: RunResult, trace: bool) -> dict:
    """Print the human table; return the JSON record for the run."""
    units = PER_LAYER if trace else END_TO_END
    print(f"== {result.workload} ({'per-layer' if trace else 'end-to-end'})")
    record = {}
    for name, unit in units.items():
        value = result.metrics.get(name, NOT_MEASURED)
        value = float(value)
        record[name] = {"value": value, "unit": unit}
        shown = "n/a" if value == NOT_MEASURED else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    for note in result.notes:
        print(f"  # {note}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed + len(result.problems),
            "metrics": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        t0 = time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"  # run took {time.perf_counter() - t0:.1f}s")
        records.append(emit(result, bool(args.trace)))
    if len(records) == 1:
        final = records[0]
    else:
        final = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, records)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, separators=(",", ":")), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
