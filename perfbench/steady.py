"""Steadiness check: two sets of runs per workload, spreads against bounds.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json it makes two sets of ten runs of
``run_seconds`` each, every run on its own seed (1, 2, 3, ... in order).
For every end-to-end metric it reports, per set, the median and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
spread must stay within the metric's bound, and the second set's median
must not be worse than the first's by more than the bound.  The share of
failed operations must be identical in every run.  Then two traced runs
on seed 1 must repeat every work counter exactly; each reports its
tracing overhead (traced rounds minus the untraced rounds it alternates
with).  Exits 1 if any of this fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETS = 2
RUNS = 10
TRACED_RUNS = 2
COUNTERS = ("expm.batch_matvecs", "expm.batch_column_matvecs", "expm.workspace_max",
            "expm.single_calls", "states.basis_size_sum", "cli.bytes_out",
            "squeeze.scan_pairs")


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    overhead = None
    for line in proc.stderr.splitlines():
        if line.startswith("tracing overhead "):
            overhead = line
    return result, overhead


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def check_workload(workload, seed):
    """Two sets of untraced runs from ``seed`` on; True if steady."""
    ok = True
    sets, shares = [], set()
    for _ in range(SETS):
        runs = []
        for _ in range(RUNS):
            result, _ = run_once(workload, seed, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false")
                ok = False
            shares.add(Fraction(result["failed"], result["attempted"]))
            runs.append(result["metrics"])
            seed += 1
        sets.append(runs)
    print(f"\n{workload}: {RUNS} runs x {SETS} sets, "
          f"failed share {sorted(str(s) for s in shares)}")
    if len(shares) != 1:
        print("  the share of failed operations differs between runs")
        ok = False
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [spread([r[name]["value"] for r in runs]) for runs in sets]
        (m1, _), (m2, _) = stats
        worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
        flags = []
        if any(s > bound for _, s in stats):
            flags.append("SPREAD ABOVE BOUND")
        elif any(s > bound / 3 for _, s in stats):
            flags.append("spread above bound/3")
        if worse > bound:
            flags.append("MEDIAN SHIFT ABOVE BOUND")
        ok = ok and not any(f.isupper() for f in flags)
        row = "  ".join(f"median {m:.6g} spread {s:.3f}" for m, s in stats)
        print(f"  {name:<18} bound {bound:<5} {row}  second worse by {worse:+.3f}  "
              f"{' '.join(flags)}")
        for k, runs in enumerate(sets):
            print(f"    set {k + 1}: " + " ".join(f"{r[name]['value']:.5g}" for r in runs))

    traced = []
    for _ in range(TRACED_RUNS):
        result, overhead = run_once(workload, 1, 1)
        traced.append(result)
        print(f"  {overhead}")
    for name in COUNTERS:
        values = {r["metrics"][name]["value"] for r in traced}
        ok = ok and len(values) == 1
        status = "repeats" if len(values) == 1 else "DIFFERS"
        print(f"  counter {name:<26} {status} {sorted(values)}")
    return ok, seed


def main() -> int:
    ok, seed = True, 1
    for workload in SPEC["workloads"]:
        steady, seed = check_workload(workload["name"], seed)
        ok = ok and steady
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
