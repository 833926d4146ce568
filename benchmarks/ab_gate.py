"""Paired perf gate: a change tree against its base tree on perfbench's
simulator workloads.

    python3 benchmarks/ab_gate.py BASE_TREE CHANGE_TREE

Both trees are byte-compiled alike first, so neither side pays for
compiling its imports. Then each simulator workload runs ``PAIRS``
base/change pairs of ``perfbench/run.py --seed 1 --seconds 5``, and the
side that goes first flips from pair to pair. The figure is the CPU
seconds (user + system) of each perfbench process. ``--seconds`` fixes
the number of replays, so both sides do the same work. Pairs taken
back to back cancel host drift, so the figure needs no yardstick
scaling.

The gate fails when a change-side run exits non-zero or reports
``correct: false``. It also fails when the change's median exceeds the
base's by more than the ``host_req_per_s`` bound of ``BENCHMARK.json``
*and* the change loses more than half of the pairs. Exit code 1 on
failure, 2 on bad arguments.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

WORKLOADS = ("sim_ucb_p32", "sim_adl_drift_p8")
PAIRS = 7
SEED = 1
SECONDS = 5
#: The end-to-end metric whose ``BENCHMARK.json`` bound the gate applies.
BOUND_METRIC = "host_req_per_s"


def verdict(base: Sequence[float], change: Sequence[float],
            change_ok: Sequence[bool], bound: float) -> Tuple[bool, str]:
    """Decide one workload from its paired figures (lower is better).

    ``base[i]`` and ``change[i]`` are pair ``i``; ``change_ok[i]`` says
    whether the change-side run exited 0 with ``correct: true``.
    Returns ``(passed, reason)``.
    """
    failed = sum(not ok for ok in change_ok)
    if failed:
        return False, f"{failed} change-side run(s) failed"
    ratio = statistics.median(change) / statistics.median(base)
    lost = sum(c > b for b, c in zip(base, change))
    summary = (f"median ratio {ratio:.3f} (bound {1 + bound:.2f}), "
               f"lost {lost}/{len(base)} pairs")
    if ratio > 1 + bound and 2 * lost > len(base):
        return False, "slower: " + summary
    return True, summary


def byte_compile(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=tree, check=True)


def run_once(tree: Path, workload: str) -> Tuple[float, bool]:
    """One perfbench run: (CPU seconds of the process, passed)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = ((after.ru_utime - before.ru_utime)
             + (after.ru_stime - before.ru_stime))
    try:
        correct = json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        correct = False
    if proc.returncode != 0 or not correct:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return cpu_s, proc.returncode == 0 and correct


def gate_workload(base_tree: Path, change_tree: Path, workload: str,
                  bound: float) -> bool:
    base: List[float] = []
    change: List[float] = []
    change_ok: List[bool] = []
    print(f"== {workload}: CPU seconds per run, {PAIRS} pairs")
    print(f"  {'pair':>4} {'first':>6} {'base':>8} {'change':>8} "
          f"{'ratio':>7}")
    for i in range(PAIRS):
        change_first = i % 2 == 1
        sides = [("base", base_tree), ("change", change_tree)]
        runs = {side: run_once(tree, workload)
                for side, tree in (sides[::-1] if change_first else sides)}
        (b, b_ok), (c, c_ok) = runs["base"], runs["change"]
        base.append(b)
        change.append(c)
        change_ok.append(c_ok)
        flags = "" if c_ok else "  change run FAILED"
        flags += "" if b_ok else "  base run failed"
        print(f"  {i + 1:>4} {'change' if change_first else 'base':>6} "
              f"{b:>8.3f} {c:>8.3f} {c / b:>7.3f}"
              f"{'  lost' if c > b else ''}{flags}")
    passed, reason = verdict(base, change, change_ok, bound)
    print(f"  medians base {statistics.median(base):.3f} s, change "
          f"{statistics.median(change):.3f} s: {reason}")
    print(f"  {'PASS' if passed else 'FAIL'}")
    return passed


def read_bound(tree: Path) -> float:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    (bound,) = [m["bound"] for m in spec["end_to_end"]
                if m["name"] == BOUND_METRIC]
    return float(bound)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_tree, change_tree = (Path(a).resolve() for a in argv)
    bound = read_bound(change_tree)
    for tree in (base_tree, change_tree):
        byte_compile(tree)
    results = [gate_workload(base_tree, change_tree, w, bound)
               for w in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
