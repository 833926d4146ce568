"""Paired perf gate: a change tree against its base tree on perfbench's
simulator workloads and the live boot.

    python3 benchmarks/ab_gate.py BASE_TREE CHANGE_TREE

Both trees are byte-compiled alike first, so neither side pays for
compiling its imports. Then each gated workload runs base/change pairs
of ``perfbench/run.py --seed 1``, and the side that goes first flips
from pair to pair. Pairs taken back to back cancel host drift, so no
figure needs yardstick scaling.

- The simulator workloads run 7 pairs of ``--seconds 5``. The figure is
  the CPU seconds (user + system) of each perfbench process.
  ``--seconds`` fixes the number of replays, so both sides do the same
  work. The bound is ``host_req_per_s``'s.
- ``live_ucb_open`` runs 5 pairs of ``--seconds 2``. The figure is the
  ``setup_s`` the run reports, the fastest of its cluster boots. The
  bound is ``setup_s``'s.

The gate fails when a change-side run exits non-zero or reports
``correct: false``. It also fails when the change's median figure
exceeds the base's by more than the workload's bound in
``BENCHMARK.json`` *and* the change loses more than half of the pairs.
Exit code 1 on failure, 2 on bad arguments.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Sequence, Tuple

SEED = 1
#: The figure of a run that is its process's CPU seconds.
CPU_S = "cpu_s"


class Gate(NamedTuple):
    """One gated workload: how it runs and what it is judged on."""

    workload: str
    pairs: int
    seconds: float
    #: ``CPU_S``, or an end-to-end metric of the run's JSON record.
    figure: str
    #: The end-to-end metric whose ``BENCHMARK.json`` bound applies.
    bound_metric: str


GATES = (
    Gate("sim_ucb_p32", 7, 5, CPU_S, "host_req_per_s"),
    Gate("sim_adl_drift_p8", 7, 5, CPU_S, "host_req_per_s"),
    Gate("live_ucb_open", 5, 2, "setup_s", "setup_s"),
)


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
    # A base run that reported no figure drops its pair.
    pairs = [(b, c) for b, c in zip(base, change) if not math.isnan(b)]
    if not pairs:
        return False, "no base run reported a figure"
    ratio = (statistics.median(c for _, c in pairs)
             / statistics.median(b for b, _ in pairs))
    lost = sum(c > b for b, c in pairs)
    summary = (f"median ratio {ratio:.3f} (bound {1 + bound:.2f}), "
               f"lost {lost}/{len(pairs)} pairs")
    if ratio > 1 + bound and 2 * lost > len(pairs):
        return False, "slower: " + summary
    return True, summary


def byte_compile(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=tree, check=True)


def read_run(stdout: str, figure: str, cpu_s: float) -> Tuple[float, bool]:
    """A run's figure and whether it reported ``correct: true``, from
    perfbench's stdout, whose last line is the run's JSON record.  The
    figure is NaN when the record or the metric is missing."""
    try:
        record = json.loads(stdout.splitlines()[-1])
        correct = record["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        return math.nan, False
    if figure == CPU_S:
        return cpu_s, correct
    try:
        return float(record["metrics"][figure]["value"]), correct
    except (KeyError, TypeError, ValueError):
        return math.nan, False


def run_once(tree: Path, gate: Gate) -> Tuple[float, bool]:
    """One perfbench run: (its figure, passed)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", gate.workload,
         "--seed", str(SEED), "--seconds", str(gate.seconds)],
        cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = ((after.ru_utime - before.ru_utime)
             + (after.ru_stime - before.ru_stime))
    value, correct = read_run(proc.stdout, gate.figure, cpu_s)
    if proc.returncode != 0 or not correct:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return value, proc.returncode == 0 and correct


def gate_workload(base_tree: Path, change_tree: Path, gate: Gate,
                  bound: float) -> bool:
    base: List[float] = []
    change: List[float] = []
    change_ok: List[bool] = []
    unit = "CPU seconds" if gate.figure == CPU_S else gate.figure
    print(f"== {gate.workload}: {unit} per run, {gate.pairs} pairs")
    print(f"  {'pair':>4} {'first':>6} {'base':>8} {'change':>8} "
          f"{'ratio':>7}")
    for i in range(gate.pairs):
        change_first = i % 2 == 1
        sides = [("base", base_tree), ("change", change_tree)]
        runs = {side: run_once(tree, gate)
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
    print(f"  medians base {statistics.median(base):.3f}, change "
          f"{statistics.median(change):.3f}: {reason}")
    print(f"  {'PASS' if passed else 'FAIL'}")
    return passed


def read_bound(tree: Path, metric: str) -> float:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    (bound,) = [m["bound"] for m in spec["end_to_end"]
                if m["name"] == metric]
    return float(bound)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_tree, change_tree = (Path(a).resolve() for a in argv)
    for tree in (base_tree, change_tree):
        byte_compile(tree)
    results = [gate_workload(base_tree, change_tree, gate,
                             read_bound(change_tree, gate.bound_metric))
               for gate in GATES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
