"""Command-line front end: machine-readable reports and distribution grids.

Subcommands
    stats         closed-form and numeric photon statistics for one state
    squeeze-scan  quadrature-variance table over the eta grid for one m
    qfunc         Husimi grid for one state
    wigner        Wigner grid for one state
    sdist         s-ordered distribution grid for one state
    evolve        fidelity-vs-interaction-time series for a generation scheme
    verify        run the built-in acceptance checks, one line per check

Exit codes: 0 success, 1 invalid arguments or config, 2 numerical failure
(truncation).  Output is deterministic: identical configuration produces
bit-identical bytes.

Option precedence: command-line flag, then config-file entry, then the
NBS_TAIL_EPS environment variable (tail_eps only), then built-in defaults.
Config files hold one `key = value` per line; `#` starts a comment.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, make_dataclass

import numpy as np

from ._csv import csv_text
from .dynamics import EvolutionSpec, evolve_intensity_dependent, evolve_parametric, fidelity
from .fock import DOMAINS, TruncationError, TruncationPolicy
from .phasespace import GridSpec, grid_evaluate
from .squeeze import SCAN_POLICY, default_eta_grid, squeezing_scan
from .states import NBSParams, nbs, two_mode_geometric
from .stats import stats_report
from .su11 import sech_squared
from .verify import run_all

__all__ = ["CliError", "RunConfig", "main", "parse_config", "read_grid_csv", "run"]


class CliError(ValueError):
    """Invalid arguments, config-file contents, or environment values."""


@dataclass(frozen=True)
class _Option:
    """One option of the subcommands, declared once for every source.

    ``key`` is the config-file key and the argparse dest; the flag is
    ``--`` plus the key with '-' for '_'.  A value from any source that
    fails ``check``, a (predicate, requirement) pair, is rejected as
    "<flag without dashes> must <requirement>, got <value>"; ``choices``
    makes that check.  ``field`` names the RunConfig field: "" for the
    key itself, None for an option that only shapes others.
    """

    key: str
    kind: type
    default: object = None
    help: str | None = None
    check: tuple | None = None
    choices: tuple | None = None
    metavar: str | None = None
    aliases: tuple = ()
    field: str | None = ""

    def __post_init__(self):
        if self.field == "":
            object.__setattr__(self, "field", self.key)
        if self.choices is not None:
            need = "be " + " or ".join(map(repr, self.choices))
            object.__setattr__(self, "check", (self.choices.__contains__, need))

    @property
    def name(self) -> str:
        return self.key.replace("_", "-")

    @property
    def flag(self) -> str:
        return "--" + self.name


_FINITE = (math.isfinite, "be finite")

# Values are checked in this order; RunConfig fields follow it too.
_OPTIONS = {opt.key: opt for opt in (
    _Option("eta", float, help="success parameter, 0 < eta <= 1", check=DOMAINS["eta"]),
    _Option("m", int, help="conditioned photon count, m >= 0", check=DOMAINS["m"]),
    _Option("chi_t", float, help="largest dimensionless interaction time, > 0",
            check=(lambda v: math.isfinite(v) and v > 0.0, "be a finite positive time")),
    _Option("scheme", str, "intensity", "evolution scheme (default intensity)",
            choices=("intensity", "parametric")),
    _Option("steps", int, 9, "number of time samples (default 9)",
            (lambda v: v >= 2, "be >= 2")),
    _Option("s", float, help="ordering parameter in [-1, 0]", check=DOMAINS["s"]),
    _Option("x_min", float, -6.0, check=_FINITE),
    _Option("x_max", float, 6.0, check=_FINITE),
    _Option("y_min", float, -6.0, check=_FINITE),
    _Option("y_max", float, 6.0, check=_FINITE),
    _Option("nx", int, 201, "grid columns (default 201)", DOMAINS["nx"]),
    _Option("ny", int, 201, "grid rows (default 201)", DOMAINS["ny"]),
    _Option("range", float, help="shortcut for the square window [-R, R] x [-R, R]",
            check=(lambda v: math.isfinite(v) and v >= 0.0,
                   "be a finite non-negative half-width"),
            field=None),
    _Option("eta_step", float, 1e-3, "eta grid step (default 1e-3)",
            (lambda v: 1e-6 <= v <= 0.1, "lie in [1e-6, 0.1]")),
    _Option("tail_eps", float, TruncationPolicy.tail_eps,
            f"basis truncation tolerance (default {TruncationPolicy.tail_eps:g})",
            (lambda v: 0.0 < v <= 1e-6, "lie in (0, 1e-6]"), metavar="EPS"),
    _Option("format", str, "csv", "output format (default csv; stats defaults to json)",
            choices=("csv", "json"), field="fmt"),
    _Option("output", str, help="write to FILE instead of stdout", metavar="FILE",
            aliases=("-o",)),
)}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str)] + [
        (opt.field, opt.kind, dataclasses.field(default=opt.default))
        for opt in _OPTIONS.values() if opt.field
    ],
    frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "A subcommand and the resolved value of each of its options."},
)

_STATE = ("eta", "m")
_GRID = ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "range")
_COMMON = ("config", "tail_eps", "format", "output")

# command: (summary, its options in --help order, the options it requires).
# An (option, help) pair gives an option another help text in one command.
_COMMANDS = {
    "stats": ("photon statistics report for one (eta, m)", _STATE + _COMMON, _STATE),
    "squeeze-scan": ("quadrature variances over the eta grid",
                     _COMMON + ("m", "eta_step"), ("m",)),
    "qfunc": ("Husimi distribution grid", _STATE + _GRID + _COMMON, _STATE),
    "wigner": ("Wigner distribution grid", _STATE + _GRID + _COMMON, _STATE),
    "sdist": ("s-ordered distribution grid", _STATE + _GRID + _COMMON + ("s",),
              _STATE + ("s",)),
    "evolve": ("fidelity of the evolved state vs interaction time",
               _COMMON + ("chi_t", "scheme",
                          ("m", "initial number state for the intensity scheme (default 0)"),
                          "steps"),
               ("chi_t",)),
    "verify": ("run the acceptance checks and report PASS/FAIL", _COMMON, ()),
}


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for numerical failure; bad arguments are 1,
    # not argparse's default 2, and, like every refusal, one stderr line
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree of every subcommand, built once per process.

    It is a constant of the module and ``parse_args`` leaves it unchanged,
    so repeated in-process calls of ``main`` share it; a one-shot ``nbs``
    process still builds it once.
    """
    parser = _Parser(
        prog="nbs",
        description="Negative binomial states: statistics, squeezing, "
        "phase-space grids, and generation dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (summary, keys, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for key in keys:
            key, help_text = key if isinstance(key, tuple) else (key, None)
            if key == "config":
                cmd.add_argument("--config", metavar="FILE", help="key=value config file")
                continue
            opt = _OPTIONS[key]
            cmd.add_argument(opt.flag, *opt.aliases, type=opt.kind, choices=opt.choices,
                             metavar=opt.metavar, help=help_text or opt.help)
    return parser


def _convert(opt: _Option, raw: str, source: str):
    try:
        return opt.kind(raw)
    except ValueError:
        raise CliError(
            f"{source}: cannot parse {opt.key!r} value {raw!r} as {opt.kind.__name__}"
        ) from None


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path!r}: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _convert(_OPTIONS[key], raw.strip(), f"{path}:{lineno}")
    return out


def _resolve(cmd: str, given: dict) -> dict:
    """Fill defaults under the given values, check them, apply --range."""
    cfg = {key: given.get(key, opt.default) for key, opt in _OPTIONS.items()}
    for key in _COMMANDS[cmd][2]:
        if cfg[key] is None:
            raise CliError(f"{cmd} requires {_OPTIONS[key].flag}")
    for key, opt in _OPTIONS.items():
        value = cfg[key]
        if value is not None and opt.check is not None and not opt.check[0](value):
            raise CliError(f"{opt.name} must {opt.check[1]}, got {value}")
    if cmd == "evolve" and cfg["scheme"] == "parametric" and cfg["m"] is not None:
        raise CliError("the parametric scheme is seeded by vacuum; --m does not apply")
    r = cfg["range"]
    if r is not None:
        cfg.update(x_min=-r, x_max=r, y_min=-r, y_max=r)
    try:
        GridSpec(*(cfg[key] for key in _GRID[:-1]))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return cfg


def parse_config(argv) -> RunConfig:
    """Merge flags, config file, environment, and defaults into a RunConfig."""
    ns = _build_parser().parse_args(list(argv))
    given = {}
    env = os.environ.get("NBS_TAIL_EPS")
    if env is not None:
        given["tail_eps"] = _convert(_OPTIONS["tail_eps"], env, "environment NBS_TAIL_EPS")
    if ns.config is not None:
        given.update(_read_config_file(ns.config))
    given.update((k, v) for k, v in vars(ns).items() if k in _OPTIONS and v is not None)
    if ns.command == "stats":
        given.setdefault("format", "json")
    cfg = _resolve(ns.command, given)
    return RunConfig(
        command=ns.command,
        **{opt.field: cfg[key] for key, opt in _OPTIONS.items() if opt.field},
    )


def _json_array(values: np.ndarray, depth: int) -> str:
    """indent=2 JSON of a float array whose opening bracket sits at ``depth``.

    json's C encoder writes each row's numbers; only the layout that
    indent=2 gives is added here.
    """
    inner = "\n" + "  " * (depth + 1)
    if values.ndim == 1:
        items = json.dumps(values.tolist())[1:-1].split(", ")
    else:
        items = [_json_array(row, depth + 1) for row in values]
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_text(payload: dict, arrays: dict) -> str:
    """json.dumps(payload | arrays, indent=2, sort_keys=True) plus a newline.

    The float arrays in ``arrays`` (nonempty, 1-D or 2-D) are written by
    ``_json_array`` and spliced in where a placeholder string stands.
    """
    holders = {key: "\0" + key for key in arrays}
    text = json.dumps({**payload, **holders}, indent=2, sort_keys=True)
    for key, values in arrays.items():
        text = text.replace(json.dumps(holders[key]), _json_array(values, 1), 1)
    return text + "\n"


def _table_text(payload: dict, columns: dict, fmt: str) -> str:
    """Named float columns of one length, as JSON or as CSV.

    JSON puts the columns beside ``payload``; CSV writes a "# key=value ..."
    line for a nonempty ``payload``, a "# name,..." header and the rows.
    """
    if fmt == "json":
        return _json_text(payload, columns)
    lines = ["# " + " ".join(f"{k}={v}" for k, v in payload.items())] if payload else []
    head = "\n".join(lines + ["# " + ",".join(columns)]) + "\n"
    return csv_text(np.column_stack(list(columns.values())), head)


def _grid_text(grid, fmt: str) -> str:
    if fmt == "json":
        payload = {k: v for k, v in vars(grid).items() if k != "values"}
        return _json_text(payload, {"values": grid.values})
    window = [[grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx, grid.ny]]
    return csv_text(grid.values, "# " + csv_text(window))


def read_grid_csv(text: str) -> tuple[GridSpec, np.ndarray]:
    """Parse a grid written by this CLI back into its window and values."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing grid header row")
    head = lines[0].lstrip("#").strip().split(",")
    if len(head) != 6:
        raise ValueError(f"grid header must hold six fields, got {lines[0]!r}")
    x_min, x_max, y_min, y_max = (float(v) for v in head[:4])
    nx, ny = int(head[4]), int(head[5])
    values = np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float
    )
    if values.shape != (ny, nx):
        raise ValueError(
            f"grid body shape {values.shape} does not match header ({ny}, {nx})"
        )
    return GridSpec(x_min, x_max, y_min, y_max, nx, ny), values


def _stats_text(config: RunConfig) -> str:
    report = stats_report(
        config.eta, config.m, TruncationPolicy(tail_eps=config.tail_eps)
    )
    row = {
        "eta": report.eta,
        "m": report.m,
        "mean": report.f1,
        "second_factorial_moment": report.f2,
        "mandel_q": report.mandel_q_closed,
        "mandel_q_numeric": report.mandel_q_numeric,
        "sub_poissonian_threshold": report.sub_poissonian_threshold,
    }
    if config.fmt == "csv":
        return _table_text({}, {key: [value] for key, value in row.items()}, "csv")
    # the generating-function object is no table: the report stays json.dumps
    payload = {
        **row,
        "degenerate_vacuum": report.degenerate_vacuum,
        "generating_function": {
            "%g" % lam: val
            for lam, val in sorted(report.generating_function_values.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _squeeze_text(config: RunConfig) -> str:
    etas = default_eta_grid(step=config.eta_step)
    # small-eta rows need the roomier scan cap, not the general default
    policy = dataclasses.replace(SCAN_POLICY, tail_eps=config.tail_eps)
    scan = squeezing_scan([config.m], etas, policy)
    columns = {"eta": scan.eta_values, "mean_a": scan.mean_a[0],
               "mean_a2": scan.mean_a2[0], "var_x": scan.var_x[0], "var_y": scan.var_y[0]}
    return _table_text({"m": config.m}, columns, config.fmt)


def _grid_command_text(config: RunConfig) -> str:
    policy = TruncationPolicy(tail_eps=config.tail_eps)
    state = nbs(NBSParams(config.eta, config.m), policy)
    spec = GridSpec(
        config.x_min, config.x_max, config.y_min, config.y_max,
        config.nx, config.ny,
    )
    kind = {"qfunc": "Q", "wigner": "W", "sdist": "S"}[config.command]
    grid = grid_evaluate(state, spec, kind, config.s)
    return _grid_text(grid, config.fmt)


def _evolve_text(config: RunConfig) -> str:
    policy = TruncationPolicy(tail_eps=config.tail_eps)
    m = config.m if config.m is not None else 0
    times = np.linspace(0.0, config.chi_t, config.steps)
    rows = []
    for chi_t in times:
        chi_t = float(chi_t)
        eta_target = sech_squared(chi_t)
        if config.scheme == "intensity":
            v = evolve_intensity_dependent(EvolutionSpec(chi_t, m=m, policy=policy))
            target = nbs(NBSParams(eta_target, m), policy)
        else:
            v = evolve_parametric(chi_t, policy)
            target = two_mode_geometric(eta_target, policy)
        rows.append(
            (chi_t, fidelity(v, target), float(np.linalg.norm(v.amplitudes)))
        )
    payload = {"scheme": config.scheme}
    if config.scheme == "intensity":
        payload["m"] = m
    columns = dict(zip(("chi_t", "fidelity", "norm"), np.array(rows).T))
    return _table_text(payload, columns, config.fmt)


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    try:
        if config.command == "verify":
            lines = []
            code = run_all(write=lines.append)
            text = "\n".join(lines) + "\n"
        else:
            code = 0
            text = {
                "stats": _stats_text,
                "squeeze-scan": _squeeze_text,
                "qfunc": _grid_command_text,
                "wigner": _grid_command_text,
                "sdist": _grid_command_text,
                "evolve": _evolve_text,
            }[config.command](config)
    except TruncationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if config.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"error: cannot write {config.output!r}: {reason}", file=sys.stderr)
        return 1
    return code


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)
