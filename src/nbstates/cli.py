"""Command-line front end: machine-readable reports and distribution grids.

Subcommands
    stats         closed-form and numeric photon statistics for one state
    squeeze-scan  quadrature-variance table over the eta grid for one m
    qfunc         Husimi grid for one state
    wigner        Wigner grid for one state
    sdist         s-ordered distribution grid for one state
    evolve        fidelity-vs-interaction-time series for a generation scheme
    verify        built-in acceptance checks, one line each; reads only --config, -o

Exit codes: 0 success, 1 invalid arguments or config, or a grid too large
to allocate, 2 numerical failure (truncation).  Output is deterministic:
identical configuration produces bit-identical bytes.

Option precedence: command-line flag, then config-file entry, then the
NBS_TAIL_EPS environment variable (tail_eps only), then built-in defaults.
Config files hold one `key = value` per line; `#` starts a comment.  A
command converts and checks only the options it reads, also where a flag
overrides them; every command refuses a line without '=' or an unknown key.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, make_dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._text import csv_text, json_text
from .dynamics import fidelity_series
from .fock import DOMAINS, TruncationError, TruncationPolicy
from .phasespace import GridSpec, grid_evaluate
from .squeeze import SCAN_POLICY, default_eta_grid, squeezing_scan
from .states import NBSParams, nbs
from .stats import stats_report
from .verify import run_all

__all__ = ["CliError", "RunConfig", "main", "parse_config", "read_grid_csv", "run"]


class CliError(ValueError):
    """Invalid arguments, config-file contents, or environment values."""


@dataclass(frozen=True)
class _Option:
    """One option of the subcommands, declared once for every source.

    ``key`` is the config-file key, the argparse dest and the RunConfig
    field; the flag is ``--`` plus the key with '-' for '_'.  A value from
    any source that fails ``check``, a (predicate, requirement) pair, is
    rejected as "<flag without dashes> must <requirement>, got <value>";
    ``choices`` makes that check.
    """

    key: str
    kind: type
    default: object = None
    help: str | None = None
    check: tuple | None = None
    choices: tuple | None = None
    metavar: str | None = None
    aliases: tuple = ()

    def __post_init__(self):
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
                   "be a finite non-negative half-width")),
    _Option("eta_step", float, 1e-3, "eta grid step (default 1e-3)", DOMAINS["eta_step"]),
    _Option("tail_eps", float, TruncationPolicy.tail_eps,
            f"basis truncation tolerance (default {TruncationPolicy.tail_eps:g})",
            (lambda v: 0.0 < v <= 1e-6, "lie in (0, 1e-6]"), metavar="EPS"),
    _Option("format", str, "csv", "output format (default csv; stats defaults to json)",
            choices=("csv", "json")),
    _Option("output", str, help="write to FILE instead of stdout", metavar="FILE",
            aliases=("-o",)),
)}
_FLAGS = {**_OPTIONS,  # and --config, a flag of the command rows but no option
          "config": _Option("config", str, help="key=value config file", metavar="FILE")}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str)] + [
        (key, opt.kind, dataclasses.field(default=opt.default))
        for key, opt in _OPTIONS.items()
    ],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "A subcommand, the resolved value of each of its options, and the grid "
                   "window (spec) and truncation policy built from them once.",
        "spec": functools.cached_property(
            lambda c: GridSpec(c.x_min, c.x_max, c.y_min, c.y_max, c.nx, c.ny)),
        "policy": functools.cached_property(lambda c: TruncationPolicy(tail_eps=c.tail_eps)),
    },
)


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
    for command, row in _COMMANDS.items():
        cmd = sub.add_parser(command, help=row.summary)
        for key in row.keys:
            opt = _FLAGS[key]
            cmd.add_argument(opt.flag, *opt.aliases, type=opt.kind, choices=opt.choices,
                             metavar=opt.metavar, help=row.helps.get(key, opt.help))
    return parser


def _convert(opt: _Option, raw: str, source: str):
    try:
        return opt.kind(raw)
    except ValueError:
        raise CliError(f"{source}: cannot parse {opt.key!r} value {raw!r} as "
                       f"{opt.kind.__name__}") from None


def _read_config_file(path: str) -> list:
    """The (key, text, "<path>:<line>") entries; bad lines are refused here."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path!r}: {exc}") from None
    out = []
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
        out.append((key, raw.strip(), f"{path}:{lineno}"))
    return out


def _resolve(cmd: str, texts: list, flags: dict) -> RunConfig:
    """Convert every (key, text, source) entry of an option the command reads,
    check them and the typed flags; the other options keep their defaults."""
    row = _COMMANDS[cmd]
    given = {key: _convert(_OPTIONS[key], raw, source)
             for key, raw, source in texts if key in row.keys}
    given.update(flags)
    cfg = {**{key: opt.default for key, opt in _OPTIONS.items()}, **row.defaults, **given}
    for key in row.required:
        if cfg[key] is None:
            raise CliError(f"{cmd} requires {_OPTIONS[key].flag}")
    for key, opt in _OPTIONS.items():  # the defaults pass their checks
        if key in given and opt.check is not None and not opt.check[0](given[key]):
            raise CliError(f"{opt.name} must {opt.check[1]}, got {given[key]}")
    if cmd == "evolve" and cfg["scheme"] == "parametric" and "m" in given:
        raise CliError("the parametric scheme is seeded by vacuum; --m does not apply")
    r = cfg["range"]
    if r is not None:
        cfg.update(x_min=-r, x_max=r, y_min=-r, y_max=r)
    config = RunConfig(command=cmd, **cfg)
    if "nx" in row.keys:
        try:
            config.spec  # built here once, and checked
        except ValueError as exc:
            raise CliError(str(exc)) from None
    return config


def parse_config(argv) -> RunConfig:
    """Merge flags, config file, environment, and defaults into a RunConfig."""
    ns = _build_parser().parse_args(list(argv))
    env = os.environ.get("NBS_TAIL_EPS")
    texts = [] if env is None else [("tail_eps", env, "environment NBS_TAIL_EPS")]
    if ns.config is not None:
        texts += _read_config_file(ns.config)
    flags = {k: v for k, v in vars(ns).items() if k in _OPTIONS and v is not None}
    return _resolve(ns.command, texts, flags)


def _table_text(payload: dict, columns: dict, fmt: str) -> str:
    """Named float columns of one length, as JSON or as CSV.

    JSON puts the columns beside ``payload``; CSV writes a "# key=value ..."
    line for a nonempty ``payload``, a "# name,..." header and the rows.
    """
    if fmt == "json":
        return json_text(payload, columns)
    lines = ["# " + " ".join(f"{k}={v}" for k, v in payload.items())] if payload else []
    head = "\n".join(lines + ["# " + ",".join(columns)]) + "\n"
    return csv_text(np.column_stack(list(columns.values())), head)


def _grid_text(grid, fmt: str) -> str:
    window = asdict(grid.spec)
    if fmt == "json":
        return json_text({**window, "riemann_sum": grid.riemann_sum}, {"values": grid.values})
    return csv_text(grid.values, "# " + csv_text([list(window.values())]))


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


def _stats_text(config: RunConfig) -> tuple[str, int]:
    report = stats_report(config.eta, config.m, config.policy)
    row = {
        "eta": report.eta,
        "m": report.m,
        "mean": report.f1,
        "second_factorial_moment": report.f2,
        "mandel_q": report.mandel_q_closed,
        "mandel_q_numeric": report.mandel_q_numeric,
        "sub_poissonian_threshold": report.sub_poissonian_threshold,
    }
    if config.format == "csv":
        return _table_text({}, {key: [value] for key, value in row.items()}, "csv"), 0
    # the generating-function object is no table: the report stays json.dumps
    payload = {
        **row,
        "degenerate_vacuum": report.degenerate_vacuum,
        "generating_function": {
            "%g" % lam: val
            for lam, val in sorted(report.generating_function_values.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0


def _squeeze_text(config: RunConfig) -> tuple[str, int]:
    etas = default_eta_grid(step=config.eta_step)
    # small-eta rows need the roomier scan cap, not the general default
    policy = dataclasses.replace(SCAN_POLICY, tail_eps=config.tail_eps)
    scan = squeezing_scan([config.m], etas, policy)
    columns = {"eta": scan.eta_values, "mean_a": scan.mean_a[0],
               "mean_a2": scan.mean_a2[0], "var_x": scan.var_x[0], "var_y": scan.var_y[0]}
    return _table_text({"m": config.m}, columns, config.format), 0


def _grid_command_text(config: RunConfig, kind: str) -> tuple[str, int]:
    state = nbs(NBSParams(config.eta, config.m), config.policy)
    return _grid_text(grid_evaluate(state, config.spec, kind, config.s), config.format), 0


def _evolve_text(config: RunConfig) -> tuple[str, int]:
    chi_ts = np.linspace(0.0, config.chi_t, config.steps)
    series = fidelity_series(chi_ts, config.m, config.scheme, config.policy)
    payload = {"scheme": config.scheme}
    if config.scheme == "intensity":
        payload["m"] = config.m
    columns = dict(zip(("chi_t", "fidelity", "norm"), (chi_ts, *series)))
    return _table_text(payload, columns, config.format), 0


def _verify_text(config: RunConfig) -> tuple[str, int]:
    lines = []
    code = run_all(write=lines.append)
    return "\n".join(lines) + "\n", code


class _Command(NamedTuple):
    """A subcommand: the flags it takes in --help order, the options it
    requires, its handler, returning (text, exit code), and the defaults
    and help texts it changes."""

    summary: str
    keys: tuple
    required: tuple
    handler: Callable[[RunConfig], tuple[str, int]]
    defaults: dict = {}
    helps: dict = {}


_STATE = ("eta", "m")
_GRID = ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "range")
_COMMON = ("config", "tail_eps", "format", "output")

_COMMANDS = {
    "stats": _Command("photon statistics report for one (eta, m)", _STATE + _COMMON, _STATE,
                      _stats_text, defaults={"format": "json"}),
    "squeeze-scan": _Command("quadrature variances over the eta grid",
                             _COMMON + ("m", "eta_step"), ("m",), _squeeze_text),
    "qfunc": _Command("Husimi distribution grid", _STATE + _GRID + _COMMON, _STATE,
                      functools.partial(_grid_command_text, kind="Q")),
    "wigner": _Command("Wigner distribution grid", _STATE + _GRID + _COMMON, _STATE,
                       functools.partial(_grid_command_text, kind="W")),
    "sdist": _Command("s-ordered distribution grid", _STATE + _GRID + _COMMON + ("s",),
                      _STATE + ("s",), functools.partial(_grid_command_text, kind="S")),
    "evolve": _Command("fidelity of the evolved state vs interaction time",
                       _COMMON + ("chi_t", "scheme", "m", "steps"), ("chi_t",), _evolve_text,
                       defaults={"m": 0}, helps={"m": "initial number state for the "
                                                 "intensity scheme (default 0)"}),
    "verify": _Command("run the acceptance checks and report PASS/FAIL",
                       ("config", "output"), (), _verify_text),
}


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    try:
        text, code = _COMMANDS[config.command].handler(config)
    except TruncationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:  # such as a grid numpy cannot allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
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
