"""Steadiness report: run one workload repeatedly and judge each
end-to-end metric's spread against its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload sim_ucb_p32 --seeds 1-10 \\
        --out first.json
    python3 perfbench/steady.py --workload sim_ucb_p32 --seeds 1-10 \\
        --compare first.json

Each run is a fresh ``run.py`` process with its own seed, as a
regression check makes it. For every metric the report prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. A metric whose
spread exceeds its bound is named UNRESOLVED: a change of that size could
not be told from noise. ``--compare``
also checks that each median is not worse than the earlier set's by more
than the bound (an A/A comparison when both sets ran the same code).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import parse_seeds  # noqa: E402


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed (rc={proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: output check failed:\n{proc.stdout}")
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of it."""
    if metric["better"] == "lower":
        return (after - before) / abs(before)
    return (before - after) / abs(before)


def report(bench: dict, values: Dict[str, List[float]],
           earlier: Dict[str, List[float]]) -> List[str]:
    """Print the table; return the names of failing metrics."""
    failing = []
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = spread(values[name])
        if s["spread"] <= bound / 3:
            verdict = "steady"
        elif s["spread"] <= bound:
            verdict = "within bound"
        else:
            verdict = "UNRESOLVED"
            failing.append(name)
        if name in earlier:
            before = statistics.median(earlier[name])
            drift = worse_by(metric, before, s["median"])
            verdict += f"; worse than earlier by {drift:+.3%}"
            if drift > bound:
                verdict += " WORSE THAN BOUND"
                failing.append(name)
        print(f"{name:<24} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['spread']:>8.3%} {bound:>6.3f}  "
              f"{verdict}")
    return failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="inclusive seed range, one run per seed")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring window (default: run_seconds)")
    parser.add_argument("--out", type=Path,
                        help="save the per-run values as JSON")
    parser.add_argument("--compare", type=Path,
                        help="values saved by an earlier --out")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]

    values: Dict[str, List[float]] = {m["name"]: []
                                      for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        result = one_run(bench, args.workload, seed, seconds)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")
    earlier = (json.loads(args.compare.read_text()) if args.compare
               else {})
    failing = report(bench, values, earlier)
    if failing:
        print("unresolved or worse: " + ", ".join(failing))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
