"""The benchmark's workloads: inputs made from a seed, operations, checks.

Every workload is a fixed list of operations (``Op``).  The seed moves
each input inside a band that keeps the amount of work fixed: eta stays
inside one plateau of the package's basis-size schedule, so the basis,
the grid workspace and every work counter repeat for every seed, while
the amplitudes, the ordering parameters and the sampled check points
change.  Points and parameters for the single-state calls are drawn
stratified, so their mix of sizes is nearly the same for every seed.

Each operation's result is checked against ``reference`` (which uses
none of the package's engines) or against properties that any correct
result has.  A check returns a ``Verdict``: ``failed`` names a result
outside its stated bound (a traceback, a non-finite value printed with
exit 0, a tail bound that is not an upper bound); ``problems`` name
results that finished but disagree with the references.  A named error
(TruncationError, ConvergenceError or ValueError from a library call;
exit 1 or 2 without a traceback from the CLI) is a success for the
domain-edge operations and a problem for any other operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from typing import Callable

import numpy as np

import nbstates
import nbstates.cli

import reference as ref

TAIL_EPS = 1e-12  # the package's default basis tolerance
NAMED_ERRORS = (nbstates.TruncationError, nbstates.ConvergenceError, ValueError)


@dataclasses.dataclass
class Verdict:
    failed: str | None = None
    problems: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Op:
    """One operation: ``run`` is timed; ``collect`` and ``check`` are not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    points: int = 0  # phase-space points the operation evaluates
    collect: Callable[[object], object] = lambda raw: raw
    prepare: Callable[[], None] = lambda: None


@dataclasses.dataclass
class Workload:
    ops: list
    warmups: list


@dataclasses.dataclass
class CliResult:
    code: int | None
    error: BaseException | None
    stderr: str
    output: bytes | None = None


# ----------------------------------------------------------------- helpers

def _close(got, want, tol, what, problems):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, reference {want!r}")


def _unchecked(result):
    return Verdict()  # warm-up calls only prime caches; run.py never checks them


def _stratified(rng, n, lo, hi):
    """n values in [lo, hi], one uniform draw per equal stratum, shuffled."""
    v = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return rng.permutation(v)


def _cli_op(label, argv, out_path, check_output, edge=False, points=0):
    def prepare():
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = nbstates.cli.main(argv + ["-o", out_path])
            except Exception as exc:  # a traceback in a real process
                return CliResult(None, exc, err.getvalue())
        return CliResult(code, None, err.getvalue())

    def collect(r):
        if r.code == 0 and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                r.output = fh.read()
            r.stderr = ""  # only warnings, which Python prints once per process
        return r

    def check(r):
        if r.error is not None:
            return Verdict(f"traceback {type(r.error).__name__}: {r.error}")
        if r.code in (1, 2) and r.stderr.strip() and "Traceback" not in r.stderr:
            if edge:
                return Verdict()
            return Verdict(problems=[f"exit {r.code}: {r.stderr.strip()}"])
        if r.code != 0:
            return Verdict(f"exit {r.code} with stderr {r.stderr!r}")
        if r.output is None:
            return Verdict("exit 0 without output")
        return check_output(r.output.decode("utf-8"))

    return Op(label, run, check, points, collect, prepare)


def _lib_op(label, name, args, check_value, edge=False, points=0):
    # looked up at call time, so that a tracer installed later sees the call
    def run():
        try:
            return ("ok", getattr(nbstates, name)(*args))
        except Exception as exc:
            return ("raised", exc)

    def check(r):
        status, value = r
        if status == "ok":
            return check_value(value)
        if isinstance(value, NAMED_ERRORS):
            if edge:
                return Verdict()
            return Verdict(problems=[f"{type(value).__name__}: {value}"])
        return Verdict(f"unnamed error {type(value).__name__}: {value}")

    return Op(label, run, check, points)


# ------------------------------------------------------------------ grids

def _parse_grid(text, fmt):
    if fmt == "json":
        payload = json.loads(text)
        head = [payload[k] for k in ("x_min", "x_max", "y_min", "y_max", "nx", "ny")]
        return head, np.array(payload["values"], dtype=float), payload["riemann_sum"]
    lines = text.splitlines()
    head = [float(v) for v in lines[0].lstrip("#").split(",")]
    values = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    return head, values, None


def _window_holds(eta, m, half_width, n):
    # the reference law keeps 1e-9 of its mass beyond (R - 3)^2 photons and
    # the grid is fine enough for a Riemann sum to reach 1e-4
    n_in = int((half_width - 3.0) ** 2)
    return n >= 121 and ref.nbs_tail(eta, m, n_in) < 1e-9


def _grid_check(kind, eta, m, half_width, n, s, fmt, nodes):
    """Checks for one square grid written by qfunc, wigner or sdist."""
    scale = 1.0 / math.pi if kind == "Q" else 2.0 / (math.pi * (1.0 - s))
    # truncating the state at tail mass eps moves any value by at most this
    tol = scale * (2.0 * math.sqrt(TAIL_EPS) + TAIL_EPS) + 1e-9

    def check(text):
        head, v, riemann = _parse_grid(text, fmt)
        if not np.all(np.isfinite(v)):
            return Verdict(f"{np.count_nonzero(~np.isfinite(v))} non-finite values with exit 0")
        problems = []
        if head != [-half_width, half_width, -half_width, half_width, n, n]:
            problems.append(f"header {head}")
        if v.shape != (n, n):
            return Verdict(problems=problems + [f"shape {v.shape}"])
        if kind == "Q" and not (v.min() >= 0.0 and v.max() <= scale * (1 + 1e-12)):
            problems.append(f"Q outside [0, 1/pi]: [{v.min()}, {v.max()}]")
        if kind != "Q" and np.abs(v).max() > scale * (1 + 1e-12):
            problems.append(f"|{kind}| max {np.abs(v).max()} above {scale}")
        mirror = float(np.abs(v - v[::-1, :]).max())
        if mirror > 1e-9:
            problems.append(f"y-mirror asymmetry {mirror:.3e}")
        h = 2.0 * half_width / (n - 1)
        total = float(v.sum()) * h * h
        if riemann is not None:
            _close(riemann, total, 1e-12, "riemann_sum field", problems)
        if _window_holds(eta, m, half_width, n):
            _close(total, 1.0, 1e-4, "window integral", problems)
        c = ref.nbs_amplitudes(eta, m, ref.basis_for(eta, m))
        xs = np.linspace(-half_width, half_width, n)
        peak = np.unravel_index(int(np.argmax(np.abs(v))), v.shape)
        for j, i in list(nodes) + [peak]:
            want = ref.distribution(c, xs[i], xs[j], -1.0 if kind == "Q" else s)
            _close(v[j, i], want, tol, f"{kind} at ({xs[i]:.4g}, {xs[j]:.4g})", problems)
        return Verdict(problems=problems)

    return check


def _grid_op(rng, out_path, command, eta_band, m, half_width, n, fmt="csv", s_band=None):
    eta = float(rng.uniform(*eta_band))
    argv = [command, "--eta", repr(eta), "--m", str(m), "--range", repr(float(half_width)),
            "--nx", str(n), "--ny", str(n), "--format", fmt]
    s = 0.0
    if s_band is not None:
        s = float(rng.uniform(*s_band))
        argv += ["--s", repr(s)]
    kind = {"qfunc": "Q", "wigner": "W", "sdist": "S"}[command]
    nodes = [tuple(rng.integers(0, n, 2)) for _ in range(3)]
    label = f"{command} eta={eta:.4f} m={m} R={half_width} {n}x{n} {fmt}" + (
        f" s={s:.3f}" if s_band else "")
    check = _grid_check(kind, eta, m, half_width, n, s, fmt, nodes)
    return _cli_op(label, argv, out_path, check, points=n * n)


# Each eta band lies inside one plateau of the basis-size schedule; the
# basis it gives is noted after it.  One 201 x 201 grid on the default
# window carries most of the x-step work; the small grids carry the
# first-column displacement of every basis size, where the work grows
# with the basis and the window rather than with the point count.
_WIGNER_GRIDS = (
    ("wigner", (0.85, 0.95), 1, 6, 201, None),        # 33, default window
    ("wigner", (0.08, 0.12), 5, 6, 11, None),         # 592
    ("sdist", (0.08, 0.12), 5, 6, 11, (-0.9, -0.1)),  # 592
    ("wigner", (0.50, 0.60), 3, 9, 21, None),         # 70, the wider window
    ("wigner", (0.45, 0.55), 1, 6, 21, None),         # 66
    ("wigner", (0.25, 0.35), 1, 6, 21, None),         # 132
    ("wigner", (0.75, 0.85), 4, 6, 21, None),         # 36
    ("wigner", (0.15, 0.20), 2, 6, 15, None),         # 272
    ("sdist", (0.85, 0.95), 1, 6, 21, (-0.9, -0.1)),  # 33
    ("sdist", (0.45, 0.55), 1, 6, 21, (-0.9, -0.1)),  # 66
    ("sdist", (0.75, 0.85), 4, 6, 21, (-0.9, -0.1)),  # 36
    ("sdist", (0.50, 0.60), 3, 6, 21, (-0.9, -0.1)),  # 70
    ("sdist", (0.25, 0.35), 1, 6, 21, (-0.9, -0.1)),  # 132
    ("sdist", (0.15, 0.20), 2, 6, 15, (-0.9, -0.1)),  # 272
    ("sdist", (0.15, 0.20), 3, 6, 11, (-0.9, -0.1)),  # 280
)


def wigner_grids(seed, workdir):
    rng = np.random.default_rng(seed)
    out = os.path.join(workdir, "grid.out")
    ops = [_grid_op(rng, out, cmd, eta, m, r, n, s_band=s)
           for cmd, eta, m, r, n, s in _WIGNER_GRIDS]
    warm = np.random.default_rng(0)
    warmups = [_grid_op(warm, out, "wigner", (0.85, 0.95), 1, 6, 11),
               _grid_op(warm, out, "sdist", (0.85, 0.95), 1, 6, 11, s_band=(-0.5, -0.5))]
    return Workload(ops, warmups)


# ----------------------------------------------------------- husimi-scan

_Q_GRIDS = (
    ("qfunc", (0.25, 0.35), 1, 6, 201, "csv"),   # 132
    ("qfunc", (0.85, 0.95), 1, 6, 201, "json"),  # 33
    ("qfunc", (0.45, 0.55), 3, 6, 151, "csv"),   # 70
    ("qfunc", (0.75, 0.85), 4, 6, 101, "json"),  # 36
    ("qfunc", (0.08, 0.12), 5, 9, 121, "csv"),   # 592, wider window
    ("qfunc", (0.15, 0.20), 2, 6, 81, "json"),   # 272
)


def _scan_check(m, step, fmt, sample_rows):
    def check(text):
        if fmt == "json":
            payload = json.loads(text)
            cols = [np.array(payload[k], dtype=float)
                    for k in ("eta", "mean_a", "mean_a2", "var_x", "var_y")]
        else:
            rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
            cols = list(np.array(rows, dtype=float).T)
        eta, a1, a2, vx, vy = cols
        if not all(np.all(np.isfinite(col)) for col in cols):
            return Verdict("non-finite scan values with exit 0")
        problems = []
        want_rows = len(np.arange(0.01, 0.999 + step / 2, step))
        if not (abs(eta[0] - 0.01) < 1e-12 and eta[-1] <= 0.999 + 1e-12
                and len(eta) in (want_rows - 1, want_rows)):
            problems.append(f"eta grid {eta[0]}..{eta[-1]} ({len(eta)} rows)")
        worst = float(np.min(vx * vy))
        if worst < 1.0 / 16.0 - 1e-12:
            problems.append(f"var_x var_y = {worst} below 1/16")
        mean_n = (m + 1) / eta - 1.0
        gap = np.abs(vx + vy - (0.5 + mean_n - a1 * a1)) / np.maximum(1.0, mean_n)
        if gap.max() > 1e-9:
            problems.append(f"var_x + var_y misses 1/2 + <N> - <a>^2 by {gap.max():.3e}")
        squeezed = bool(vx.min() < 0.25)
        if squeezed != (m >= 7):
            problems.append(f"m={m}: min var_x {vx.min()} (x-squeezing expected iff m >= 7)")
        for k in sample_rows:
            k = min(k, len(eta) - 1)
            c = ref.nbs_amplitudes(eta[k], m, ref.basis_for(eta[k], m))
            r1, r2 = ref.field_moments(c)
            _close(a1[k], r1, 1e-8 * max(1.0, abs(r1)), f"<a> at eta={eta[k]}", problems)
            _close(a2[k], r2, 1e-8 * max(1.0, abs(r2)), f"<a^2> at eta={eta[k]}", problems)
        return Verdict(problems=problems)

    return check


def _stats_check(eta, m):
    def check(text):
        r = json.loads(text)
        problems = []
        mean = ref.nbs_mean(eta, m)
        var = ref.nbs_variance(eta, m)
        if r["eta"] != eta or r["m"] != m:
            problems.append(f"echoed parameters {r['eta']}, {r['m']}")
        _close(r["mean"], mean, 1e-12 * max(1.0, mean), "mean", problems)
        f2 = var + mean * mean - mean
        _close(r["second_factorial_moment"], f2, 1e-10 * max(1.0, f2), "<N(N-1)>", problems)
        if not r["degenerate_vacuum"]:
            q = (var - mean) / mean
            _close(r["mandel_q"], q, 1e-10 * max(1.0, abs(q)), "Mandel Q", problems)
            _close(r["mandel_q_numeric"], q, 1e-8, "numeric Mandel Q", problems)
        _close(r["sub_poissonian_threshold"], m + 1 - math.sqrt(m * (m + 1.0)), 1e-10,
               "sub-Poissonian threshold", problems)
        p = ref.nbs_amplitudes(eta, m, ref.basis_for(eta, m)) ** 2
        n = np.arange(len(p))
        for lam, got in r["generating_function"].items():
            want = float(np.sum(p * float(lam) ** n))
            _close(got, want, 1e-10, f"G({lam})", problems)
        return Verdict(problems=problems)

    return check


def husimi_scan(seed, workdir):
    rng = np.random.default_rng(seed)
    out = os.path.join(workdir, "scan.out")
    ops = [_grid_op(rng, out, *spec) for spec in _Q_GRIDS]
    for m in range(1, 11):
        step = float(rng.uniform(0.98e-3, 1.02e-3))
        fmt = "json" if m % 2 == 0 else "csv"
        rows = [int(k) for k in rng.integers(0, 960, 4)]
        argv = ["squeeze-scan", "--m", str(m), "--eta-step", repr(step), "--format", fmt]
        ops.append(_cli_op(f"squeeze-scan m={m} step={step:.6g} {fmt}", argv, out,
                           _scan_check(m, step, fmt, rows)))
    for eta, m in zip(_stratified(rng, 9, 0.05, 0.99), rng.permutation(np.arange(0, 27, 3))):
        eta, m = float(eta), int(m)
        argv = ["stats", "--eta", repr(eta), "--m", str(m)]
        ops.append(_cli_op(f"stats eta={eta:.4f} m={m}", argv, out, _stats_check(eta, m)))
    warmups = [
        _cli_op("warm qfunc", ["qfunc", "--eta", "0.9", "--m", "1"], out, _unchecked),
        _cli_op("warm qfunc json", ["qfunc", "--eta", "0.9", "--m", "1", "--format", "json"],
                out, _unchecked),
        _cli_op("warm scan", ["squeeze-scan", "--m", "1", "--eta-step", "0.1"], out, _unchecked),
        _cli_op("warm stats", ["stats", "--eta", "0.5", "--m", "1"], out, _unchecked),
    ]
    return Workload(ops, warmups)


# -------------------------------------------------------- state-pointwise

def _tail_contract(v, eta, m):
    """The tail bound of a single-mode state must bound the lost mass."""
    p = np.abs(v.amplitudes) ** 2
    if not np.all(np.isfinite(p)):
        return "non-finite amplitudes"
    if p.sum() + v.tail_bound < 1.0 - TAIL_EPS:
        return f"sum p + tail_bound = {p.sum() + v.tail_bound:.6g} below 1 - tail_eps"
    lost = ref.nbs_tail(eta, m, v.n_max)
    if v.tail_bound < lost * (1.0 - 1e-6):
        return f"tail_bound {v.tail_bound:.3e} below the mass above n_max, {lost:.3e}"
    return None


def _fidelity(a, b):
    top = min(len(a), len(b))
    return float(abs(np.vdot(a[:top], b[:top])) ** 2)


def _nbs_check(eta, m):
    def check(v):
        failed = _tail_contract(v, eta, m)
        if failed:
            return Verdict(failed)
        problems = []
        want = ref.nbs_amplitudes(eta, m, v.n_max)
        dev = float(np.abs(v.amplitudes - want).max())
        if dev > 1e-12:
            problems.append(f"amplitudes deviate {dev:.3e}")
        return Verdict(problems=problems)

    return check


def _family_check(eta, m, contract=True):
    """A state that should equal nbs(eta, m) on its basis.

    With ``contract`` the tail bound must also bound the mass the basis
    leaves out; without it (states the package renormalises on the
    truncated basis) the reference is renormalised the same way.
    """
    def check(v):
        if contract:
            failed = _tail_contract(v, eta, m)
            if failed:
                return Verdict(failed)
        elif not np.all(np.isfinite(v.amplitudes)):
            return Verdict("non-finite amplitudes")
        want = ref.nbs_amplitudes(eta, m, v.n_max if not contract else ref.basis_for(eta, m))
        f = _fidelity(v.amplitudes, want / np.linalg.norm(want))
        return Verdict(problems=[] if f >= 1 - 1e-10 else [f"fidelity {f!r}"])

    return check


def _report_check(eta, m):
    def check(r):
        payload = {
            "eta": r.eta, "m": r.m, "mean": r.f1, "second_factorial_moment": r.f2,
            "mandel_q": r.mandel_q_closed, "mandel_q_numeric": r.mandel_q_numeric,
            "sub_poissonian_threshold": r.sub_poissonian_threshold,
            "degenerate_vacuum": r.degenerate_vacuum,
            "generating_function": {str(k): v for k, v in r.generating_function_values.items()},
        }
        return _stats_check(eta, m)(json.dumps(payload))

    return check


def _finite_table(text):
    rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
    if not np.all(np.isfinite(np.array(rows, dtype=float))):
        return Verdict("non-finite values with exit 0")
    return Verdict()


def _residual_check(r):
    if not math.isfinite(r):
        return Verdict(f"residual {r}")
    return Verdict(problems=[] if r <= 1e-8 else [f"residual {r:.3e} above 1e-8"])


def _pair_check(eta, offset, contract=False):
    """A pair-basis state that should be the two-mode NB(eta, offset) state,
    renormalised on its basis; with ``contract`` its tail bound must also
    bound the mass above pair index n_max (signal photons offset + n_max)."""
    def check(v):
        if not np.all(np.isfinite(v.amplitudes)):
            return Verdict("non-finite amplitudes")
        if contract:
            kept = float(np.sum(np.abs(v.amplitudes) ** 2))
            if kept + v.tail_bound < 1.0 - TAIL_EPS:
                return Verdict(f"sum p + tail_bound = {kept + v.tail_bound:.6g} "
                               "below 1 - tail_eps")
            lost = ref.nbs_tail(eta, offset, offset + v.n_max)
            if v.tail_bound < lost * (1.0 - 1e-6):
                return Verdict(f"tail_bound {v.tail_bound:.3e} below the mass above "
                               f"n_max, {lost:.3e}")
        if v.offset_m != offset:
            return Verdict(problems=[f"offset {v.offset_m}, expected {offset}"])
        want = ref.nbs_amplitudes(eta, offset, offset + v.n_max)[offset:]
        f = _fidelity(v.amplitudes, want / np.linalg.norm(want))
        return Verdict(problems=[] if f >= 1 - 1e-10 else [f"fidelity {f!r}"])

    return check


def _passage_check(eta, n_max, g_t, m, contract=False):
    pair = _pair_check(eta, m, contract)
    n = np.arange(n_max + 1, dtype=float)
    rising = np.ones_like(n)
    for j in range(m):
        rising *= n + j + 1
    norm2 = float(np.sum(eta * (1 - eta) ** n * rising))

    def check(result):
        ground, excited = result
        verdict = pair(ground)
        if verdict.failed is None:
            _close(excited, 1.0 / (1.0 + g_t * g_t * norm2), 1e-10, "excited weight",
                   verdict.problems)
        return verdict

    return check


def _point_check(eta, m, n_max, x, y, s):
    bound = 1.0 / math.pi if s == -1.0 else 2.0 / (math.pi * (1.0 - s))

    def check(value):
        state_ref = ref.nbs_amplitudes(eta, m, n_max)
        if not math.isfinite(value):
            return Verdict(f"value {value}")
        problems = []
        if abs(value) > bound * (1 + 1e-12):
            problems.append(f"|value| {value} above {bound}")
        want = ref.distribution(state_ref, x, y, s)
        _close(value, want, 1e-9, f"s={s} at ({x:.4g}, {y:.4g})", problems)
        return Verdict(problems=problems)

    return check


_POINT_STATES = ((0.9, 0), (0.8, 1), (0.5, 1), (0.7, 3), (0.5, 2), (0.3, 1), (0.85, 5),
                 (0.6, 4))


def state_pointwise(seed, workdir):
    rng = np.random.default_rng(seed)
    out = os.path.join(workdir, "point.out")
    ops = []

    for eta, m in zip(_stratified(rng, 45, 0.05, 1.0), rng.permutation(45) % 30):
        eta, m = float(eta), int(m)
        ops.append(_lib_op(f"nbs({eta:.4f}, {m})", "nbs",
                           (nbstates.NBSParams(eta, m),), _nbs_check(eta, m)))
    for eta, m in zip(_stratified(rng, 20, 0.05, 0.99), rng.permutation(20)):
        eta, m = float(eta), int(m)
        ops.append(_lib_op(f"stats_report({eta:.4f}, {m})", "stats_report",
                           (eta, m), _report_check(eta, m)))
    for eta, m in zip(_stratified(rng, 20, 0.2, 0.95), rng.permutation(20) % 10):
        eta, m = float(eta), int(m)
        ops.append(_lib_op(f"excited_geometric({eta:.4f}, {m})", "excited_geometric",
                           (eta, m), _family_check(eta, m, contract=False)))
    for xi, m in zip(_stratified(rng, 20, 0.1, 1.5), rng.permutation(20) % 10):
        xi, m = float(xi), int(m)
        eta = 1.0 / math.cosh(xi) ** 2
        ops.append(_lib_op(f"su11_displace({xi:.4f}, {m})", "su11_displace",
                           (xi, m), _family_check(eta, m)))
    for name in ("ladder_residual", "nonlinear_eigen_residual"):
        for eta, m in zip(_stratified(rng, 15, 0.1, 0.95), rng.permutation(15)):
            eta, m = float(eta), int(m)
            ops.append(_lib_op(f"{name}({eta:.4f}, {m})", name, (eta, m),
                               _residual_check))
    for chi_t, m in zip(_stratified(rng, 15, 0.1, 1.5), rng.permutation(15) % 5):
        chi_t, m = float(chi_t), int(m)
        eta = 1.0 / math.cosh(chi_t) ** 2
        ops.append(_lib_op(f"evolve_intensity_dependent({chi_t:.4f}, {m})",
                           "evolve_intensity_dependent",
                           (nbstates.EvolutionSpec(chi_t, m),), _family_check(eta, m)))
    for chi_t in _stratified(rng, 15, 0.1, 1.5):
        chi_t = float(chi_t)
        eta = 1.0 / math.cosh(chi_t) ** 2
        ops.append(_lib_op(f"evolve_parametric({chi_t:.4f})", "evolve_parametric",
                           (chi_t,), _pair_check(eta, 0)))
    for eta, g_t, m in zip(_stratified(rng, 15, 0.3, 0.9), _stratified(rng, 15, 0.01, 0.1),
                           rng.permutation(15) % 5 + 1):
        eta, g_t, m = float(eta), float(g_t), int(m)
        pair = nbstates.two_mode_geometric(eta)
        ops.append(_lib_op(f"atom_passage({eta:.4f}, {g_t:.4f}, {m})", "atom_passage",
                           (pair, g_t, m), _passage_check(eta, pair.n_max, g_t, m)))

    states = [nbstates.nbs(nbstates.NBSParams(eta, m)) for eta, m in _POINT_STATES]
    for name, s_band in (("wigner", None), ("s_distribution", (-0.9, -0.1)),
                         ("q_function", None)):
        radii = 3.0 * np.sqrt(_stratified(rng, 40, 0.0, 1.0))
        for k, r in enumerate(radii):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            x, y = float(r * math.cos(angle)), float(r * math.sin(angle))
            point = nbstates.PhaseSpacePoint(x, y)
            i = k % len(states)
            args = (states[i], point)
            s = {"wigner": 0.0, "q_function": -1.0}.get(name)
            if s_band is not None:
                s = float(rng.uniform(*s_band))
                args += (s,)
            ops.append(_lib_op(f"{name}({_POINT_STATES[i]}, {x:.4f}{y:+.4f}i)", name, args,
                               _point_check(*_POINT_STATES[i], states[i].n_max, x, y, s),
                               points=1))

    # Domain-edge operations with fixed inputs (see README: known faults).
    for m in (1500, 3000):
        ops.append(_lib_op(f"nbs(0.5, {m})", "nbs", (nbstates.NBSParams(0.5, m),),
                           _nbs_check(0.5, m), edge=True))
    ops.append(_cli_op("stats --eta 0.5 --m 3000", ["stats", "--eta", "0.5", "--m", "3000"],
                       out, _stats_check(0.5, 3000), edge=True))
    ops.append(_cli_op("evolve --chi-t 50 --steps 2",
                       ["evolve", "--chi-t", "50", "--steps", "2"], out,
                       _finite_table, edge=True))
    ops.append(_cli_op("qfunc --range 1e6 3x3",
                       ["qfunc", "--eta", "0.5", "--m", "1", "--range", "1e6", "--nx", "3",
                        "--ny", "3"], out, _grid_check("Q", 0.5, 1, 1e6, 3, -1.0, "csv", []),
                       edge=True, points=9))
    # The tail bounds of excited_geometric and atom_passage fall short of
    # the mass their basis leaves out for every m >= 1, so the seeded calls
    # above check amplitudes only and these two fixed calls check the bound.
    ops.append(_lib_op("excited_geometric(0.7022, 7)", "excited_geometric", (0.7022, 7),
                       _family_check(0.7022, 7)))
    pair = nbstates.two_mode_geometric(0.3666)
    ops.append(_lib_op("atom_passage(two_mode_geometric(0.3666), 0.05, 4)", "atom_passage",
                       (pair, 0.05, 4), _passage_check(0.3666, pair.n_max, 0.05, 4, True)))

    v = nbstates.nbs(nbstates.NBSParams(0.5, 1))
    p = nbstates.PhaseSpacePoint(0.3, -0.2)
    pair = nbstates.two_mode_geometric(0.5)
    warm_calls = (
        ("nbs", (nbstates.NBSParams(0.5, 1),)), ("stats_report", (0.5, 1)),
        ("excited_geometric", (0.5, 1)), ("su11_displace", (0.5, 1)),
        ("ladder_residual", (0.5, 1)), ("nonlinear_eigen_residual", (0.5, 1)),
        ("evolve_intensity_dependent", (nbstates.EvolutionSpec(0.5, 1),)),
        ("evolve_parametric", (0.5,)), ("atom_passage", (pair, 0.05, 1)),
        ("wigner", (v, p)), ("s_distribution", (v, p, -0.5)), ("q_function", (v, p)),
    )
    warmups = [_lib_op("warm", fn, args, _unchecked) for fn, args in warm_calls]
    warmups.append(_cli_op("warm stats", ["stats", "--eta", "0.5", "--m", "1"], out, _unchecked))
    return Workload(ops, warmups)


WORKLOADS = {
    "wigner-grids": wigner_grids,
    "husimi-scan": husimi_scan,
    "state-pointwise": state_pointwise,
}
