"""Reference figures for the README, measured once rather than per run.

    python3 perfbench/figures.py

Prints the cost the tracer adds to one call, the traced split of one
201 x 201 Wigner grid on [-6, 6]^2 into its first-column displacement,
its 200 x-steps and the rest of the walk (the weighted reductions), for
two states, and the wall time of ``nbs verify`` run in-process.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py
os.environ["OMP_NUM_THREADS"] = "1"

import nbstates  # noqa: E402
import nbstates.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def grid_split(eta, m):
    state = nbstates.nbs(nbstates.NBSParams(eta, m))
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        nbstates.grid_evaluate(state, nbstates.GridSpec.square(6.0), "W")
        total = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    walk = next(i for i, s in enumerate(tracer.spans) if s[0] == "phasespace.grid_walk")
    steps = [s for s in tracer.spans if s[0] == "expm.batch" and s[3] == walk]
    first, rest = steps[0], steps[1:]
    first_s = first[2] - first[1]
    rest_s = sum(s[2] - s[1] for s in rest)
    walk_s = tracer.spans[walk][2] - tracer.spans[walk][1]
    print(f"eta={eta} m={m}: n_max {state.n_max}, workspace {first[4][2]}, "
          f"grid {total:.2f} s")
    print(f"  first column: {first[4][0]} matvecs, {first_s:.2f} s ({first_s / total:.0%})")
    print(f"  {len(rest)} x-steps: {sum(s[4][0] for s in rest)} matvecs "
          f"({rest[0][4][0]} each), {rest_s:.2f} s ({rest_s / total:.0%})")
    print(f"  rest of the walk: {walk_s - first_s - rest_s:.3f} s")


def span_cost(calls=100_000, repeats=5):
    """Cost of one traced call beyond the call itself, in microseconds."""
    def noop():
        return None

    tracer = Tracer()

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
            tracer.spans.clear()
        return min(times) / calls

    cost = best(tracer._wrap(noop, "noop", None)) - best(noop)
    print(f"tracing cost per span: {1e6 * cost:.2f} us")


def main():
    print(f"nproc {os.cpu_count()}")
    span_cost()
    for eta, m in ((0.9, 1), (0.3, 1)):
        grid_split(eta, m)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        t0 = time.perf_counter()
        code = nbstates.cli.main(["verify", "-o", os.path.join(tmp, "verify.txt")])
        print(f"nbs verify: exit {code}, {time.perf_counter() - t0:.1f} s in-process")


if __name__ == "__main__":
    main()
