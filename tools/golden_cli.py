"""Compare the bytes of the `nbs` command line between two source trees.

Usage: python tools/golden_cli.py OLD_SRC NEW_SRC

Runs each golden command below, `nbs verify` last, as
`python -m nbstates ...` from each tree (PYTHONPATH and the working
directory set to it, OPENBLAS_NUM_THREADS=1), one command at a time,
and prints per command whether stdout, stderr and the exit code are
identical.  For each stream that differs it prints the first differing
line from each tree, cut to 200 characters; for a stdout whose differing
fields all parse as floats, also the largest absolute and relative
deviation between them.  Exits 0 only if every command matches.
Standard library only.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from itertools import zip_longest

GOLDEN = (
    "stats --eta 0.8 --m 3",
    "stats --eta 0.3 --m 1 --format csv",
    "squeeze-scan --m 7",
    "squeeze-scan --m 7 --format json",
    "squeeze-scan --m 31",
    "squeeze-scan --m 0 --eta-step 0.01",
    # verify's m range: rows on every basis from m + 32 up to the 16384 cap
    "squeeze-scan --m 40 --format json",
    "qfunc --eta 0.5 --m 2",
    "qfunc --eta 0.5 --m 2 --format json",
    "wigner --eta 0.3 --m 1",
    "wigner --eta 0.1 --m 5 --nx 81 --ny 81",
    "wigner --eta 0.9 --m 1 --format json",
    "sdist --eta 0.5 --m 1 --s -0.5",
    "evolve --chi-t 2.0 --m 2 --steps 9",
    "evolve --chi-t 2.0 --scheme parametric --format json",
    "evolve --chi-t 50 --steps 2",
    # exponentials that end inside their first 16-term block (K = 12 and 15)
    "evolve --chi-t 0.02 --steps 3",
    # the intensity scheme at verify's m = 0, through the JSON writer
    "evolve --chi-t 1.3 --m 0 --steps 4 --format json",
    "stats --eta 0.5 --m 3000",
    "stats --eta 0.5 --m 1500 --tail-eps 1e-9",
    # G(1) = 1 exactly, where the closed form's power rounds to 1 + 6.7e-13
    "stats --eta 0.9 --m 3000",
    "qfunc --eta 0.5 --m 1 --range 1e6 --nx 3 --ny 3",
    # the CSV writer's rarer layouts: a 3-digit exponent, |x| below 1e-270, |x| >= 1e17
    "wigner --eta 0.5 --m 1 --x-min=-1e-300 --x-max=1e-300 --y-min=-1e-200 --y-max=1e-200"
    " --nx 3 --ny 3",
    "wigner --eta 0.5 --m 1 --x-min=-1e17 --x-max=1e17 --nx 3 --ny 3",
    # the same windows through the JSON writer
    "wigner --eta 0.5 --m 1 --x-min=-1e-300 --x-max=1e-300 --y-min=-1e-200 --y-max=1e-200"
    " --nx 3 --ny 3 --format json",
    "wigner --eta 0.5 --m 1 --x-min=-1e17 --x-max=1e17 --nx 3 --ny 3 --format json",
    # the numeric Mandel Q at the benchmark's smallest eta and largest m, at a
    # loose tail target, and at an eta whose k = 2 basis just fits the cap
    "stats --eta 0.05 --m 24",
    "stats --eta 0.3 --m 1 --tail-eps 1e-6",
    "stats --eta 0.01 --m 1",
    # the S kernel cut past its Gaussian reach at the benchmark's largest
    # basis, and kept whole where its band edge is not negligible
    "sdist --eta 0.1 --m 5 --s -0.9 --nx 11 --ny 11",
    "sdist --eta 0.5 --m 1 --s -0.001 --nx 21 --ny 21",
    # the longest Hermite recursion: a state on the 4096-cap basis
    "wigner --eta 0.01 --m 0 --nx 3 --ny 3",
    # a grid through the config file, the -o writer and the command table
    "wigner --eta 0.5 --m 1 --nx 5 --ny 5 --config /dev/null -o /dev/stdout",
    # one-line refusals: an m past the float range, and a grid of 2^55 columns
    # (2^58 bytes, past any address space), which numpy refuses before allocating
    "stats --eta 0.5 --m 1" + "0" * 160,
    "wigner --eta 0.5 --m 1 --nx 36028797018963968 --ny 2",
    "verify",
)


def run(src: str, command: str) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of `nbs <command>` run from the tree at src."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "nbstates", *command.split()],
                          cwd=src, env=env, capture_output=True, timeout=600)
    return proc.stdout, proc.stderr, proc.returncode


def first_difference(old: bytes | int, new: bytes | int) -> tuple[str, str]:
    """The first line where two outputs (or the two exit codes) differ, from each."""
    if isinstance(old, int):
        return str(old), str(new)
    pairs = zip_longest(old.decode(errors="replace").splitlines(),
                        new.decode(errors="replace").splitlines(), fillvalue="<no line>")
    for a, b in pairs:
        if a != b:
            return a[:200], b[:200]
    return ("<same lines, other line endings>",) * 2


def float_deviation(old: bytes, new: bytes) -> tuple[float, float] | None:
    """Largest absolute and relative change over the fields that differ.

    Fields are split at whitespace, commas, colons and brackets, so JSON
    and CSV both work.  None unless both outputs have as many fields and
    every differing pair parses as floats.
    """
    a, b = (re.split(r"[\s,:\[\]{}]+", out.decode(errors="replace").strip())
            for out in (old, new))
    if len(a) != len(b):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return None
        change = abs(fy - fx)
        worst_abs = max(worst_abs, change)
        worst_rel = max(worst_rel, change / abs(fx) if fx else math.inf)
    return worst_abs, worst_rel


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(d, "nbstates")) for d in argv):
        print("usage: golden_cli.py OLD_SRC NEW_SRC (each a directory holding nbstates/)",
              file=sys.stderr)
        return 2
    old, new = argv
    differ = 0
    for command in GOLDEN:
        parts = zip(("stdout", "stderr", "exit code"), run(old, command), run(new, command))
        changed = [(name, a, b) for name, a, b in parts if a != b]
        differ += bool(changed)
        verdict = "differ: " + ", ".join(c[0] for c in changed) if changed else "identical"
        print(f"nbs {command}: {verdict}")
        for name, a, b in changed:
            first_old, first_new = first_difference(a, b)
            print(f"    {name} old: {first_old}\n    {name} new: {first_new}")
            deviation = float_deviation(a, b) if name == "stdout" else None
            if deviation:
                print(f"    stdout deviation: max abs {deviation[0]:.3g}, "
                      f"max rel {deviation[1]:.3g}")
    print(f"{len(GOLDEN) - differ} of {len(GOLDEN)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
