"""Run one benchmark workload against the package in ../src.

    python3 perfbench/run.py --workload wigner-grids --seed 1 --seconds 30 --trace 0

The workload's fixed list of operations runs in rounds, one operation
in flight (a closed loop with one client), until the next round would
end after ``--seconds``.  Set-up (the package import, input generation
and one warm-up call of each operation kind) is made five times, spread
over the run: the first import is the run's own, the other four are
timed in fresh interpreters.  Every operation of the first round is
checked against the independent references; later rounds must reproduce
its outputs exactly.  The last line of standard output is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced rounds, which alternate
with untraced ones (spans are also written to
``.perfbench/spans-<workload>-<seed>.tsv``, and the tracing overhead to
standard error).  Exits 2 without a result when the package source is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
# times the package import in a fresh interpreter, as run.py times its own
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import nbstates.cli; print(time.perf_counter() - t)")


def _fingerprint(obj, h=None):
    """Hash of a result's full content, for comparing rounds bit for bit."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _fingerprint(item, h)
        h.update(b")")
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj}".encode())
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        _fingerprint([getattr(obj, f) for f in obj.__dataclass_fields__], h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def run_rounds(ops, seconds, between, tracer=None):
    """Run whole rounds of ``ops`` until the next one would pass ``seconds``.

    ``between(elapsed)`` runs after every round; its time does not count
    towards ``seconds``.  With a tracer, the first round is untraced (the
    first round of a process runs slow), then traced and untraced rounds
    alternate, ending on an untraced one, so that both kinds see the same
    drift of the machine's speed.
    """
    rounds = []  # (start, end, traced, [(seconds, fingerprint)...])
    first = None
    clock = time.perf_counter
    t_start = clock()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        r_start = clock()
        samples = []
        outputs = []
        for op in ops:
            op.prepare()
            t0 = clock()
            raw = op.run()
            dt = clock() - t0
            result = op.collect(raw)
            samples.append((dt, _fingerprint(result)))
            if first is None:
                outputs.append(result)
        r_end = clock()
        if traced:
            tracer.uninstall()
        rounds.append((r_start, r_end, traced, samples))
        if first is None:
            first = outputs
        t0 = clock()
        between(r_end - t_start)
        t_start += clock() - t0
        done = r_end - t_start + (r_end - r_start) > seconds
        if done and (tracer is None or (not traced and len(rounds) >= 3)):
            return rounds, first


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nbstates" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread: on a small shared machine a second BLAS thread that
    # finds its core busy stalls every matrix product it takes part in.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

    t0 = time.perf_counter()
    import nbstates.cli  # noqa: F401  (numpy and the whole package)
    imports = [time.perf_counter() - t0]

    import workloads
    from tracer import Tracer

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []

        def set_up():
            t0 = time.perf_counter()
            built = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            for op in built.warmups:
                op.prepare()
                op.collect(op.run())
            setups.append(time.perf_counter() - t0)
            return built

        def import_once():
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                                   capture_output=True, text=True, timeout=60, check=True)
            imports.append(float(probe.stdout))

        def between(elapsed):
            # The set-up repeats are spread over the run, so that a slow
            # spell of the machine weighs on set-up as on the rounds.
            due = len(setups) * args.seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and elapsed >= due:
                import_once()
                set_up()

        wl = set_up()
        tracer = Tracer() if args.trace else None
        try:
            rounds, first = run_rounds(wl.ops, args.seconds, between, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setups) < SETUP_REPEATS:
            import_once()
            set_up()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # checks, after the measured part so they add nothing to peak RSS
        correct = True
        failed_ops = 0
        self_test = workloads.ref.self_test()
        for msg in self_test:
            print(f"reference self-test: {msg}", file=sys.stderr)
            correct = False
        for k, (op, result) in enumerate(zip(wl.ops, first)):
            verdict = op.check(result)
            if verdict.failed:
                failed_ops += 1
                print(f"failed: {op.label}: {verdict.failed}", file=sys.stderr)
            for msg in verdict.problems:
                print(f"incorrect: {op.label}: {msg}", file=sys.stderr)
                correct = False
            prints = {r[3][k][1] for r in rounds}
            if len(prints) > 1:
                print(f"incorrect: {op.label}: output changed between rounds", file=sys.stderr)
                correct = False
        attempted = len(wl.ops) * len(rounds)
        failed = failed_ops * len(rounds)

        round_times = [sum(dt for dt, _ in r[3]) for r in rounds]
        op_ms = [1e3 * dt for r in rounds for dt, _ in r[3]]
        point_time = sum(r[3][k][0] for r in rounds for k, op in enumerate(wl.ops) if op.points)
        points = len(rounds) * sum(op.points for op in wl.ops)
        print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(wl.ops)} "
              f"operations, round median {statistics.median(round_times):.4f} s "
              f"(traced {bool(args.trace)})", file=sys.stderr)

        if tracer is None:
            values = {
                "setup_s": statistics.median(imports) + statistics.median(setups),
                "wall_s": statistics.median(round_times),
                "op_p50_ms": quantile(op_ms, 50),
                "op_p90_ms": quantile(op_ms, 90),
                "grid_points_per_s": points / point_time,
                "peak_rss_mib": peak_rss_mib,
            }
            reported = SPEC["end_to_end"]
        else:
            per_round = tracer.layer_metrics([(r[0], r[1]) for r in rounds if r[2]])
            values = {}
            reported = SPEC["per_layer"]
            for metric in reported:
                name = metric["name"]
                series = [acc[name] for acc in per_round]
                if metric["unit"] in ("count", "B"):
                    if len(set(series)) > 1:
                        print(f"work counter {name} differs between rounds: {series}",
                              file=sys.stderr)
                    values[name] = int(series[0])
                else:
                    values[name] = statistics.median(series)
            values["cli.bytes_out"] = sum(
                len(r.output) for r in first
                if isinstance(r, workloads.CliResult) and r.output is not None)
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write(spans)
            # each traced round is paired with the untraced round after it,
            # so a slow spell of the machine that spans both cancels
            diffs = [t - u for t, u in zip(round_times[1::2], round_times[2::2])]
            plain = statistics.median(round_times[2::2])
            over = statistics.median(diffs)
            print(f"tracing overhead {over:+.6f} s ({over / plain:+.2%} of the untraced "
                  f"round, {plain:.6f} s), median of {len(diffs)} paired differences "
                  f"from {min(diffs):+.6f} to {max(diffs):+.6f} s, "
                  f"{len(tracer.spans) // len(diffs)} spans per traced round; "
                  f"spans in {spans}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
