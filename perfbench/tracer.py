"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces selected functions with recording wrappers.
The package imports functions by name, so every module attribute bound
to a wrapped function is replaced, not only the defining one: the grid
walk looks up ``phasespace.expm_apply_skew_batch``, the single-vector
path ``_expm.expm_apply_skew_batch``.  Spans (name, start, end, parent,
info) stay in memory until ``write``.  Self time is a span's duration
minus that of its direct children.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import defaultdict


def _batch_info(args, kwargs, result):
    up, V, s, j_terms = args
    steps = s * j_terms
    # one Taylor step reads w twice and writes the term; scaling the term
    # and adding it to the accumulator touch five more vector-sized arrays;
    # both bands are read once.  Caches and temporaries are not counted.
    traffic = 9 * V.nbytes + 2 * up.astype(complex, copy=False).nbytes
    # the workspace is counted as its top photon number, one less than rows
    return (steps, steps * V.shape[1], V.shape[0] - 1, steps * traffic)


# (module, function, span name, info taken from (args, kwargs, result)).
# Spans without a metric of their own (grid_evaluate, default_eta_grid,
# two_mode_geometric, fidelity) are there so that cli.self_ms leaves out
# every library call the CLI makes.
TARGETS = (
    ("nbstates._expm", "expm_apply_skew_batch", "expm.batch", _batch_info),
    ("nbstates._expm", "expm_apply_skew", "expm.single", None),
    ("nbstates.phasespace", "_grid_walk", "phasespace.grid_walk",
     lambda a, k, r: a[2]),
    ("nbstates.phasespace", "_grid_q", "phasespace.grid_q", None),
    ("nbstates.phasespace", "grid_evaluate", "phasespace.grid_evaluate", None),
    ("nbstates.phasespace", "wigner", "phasespace.point", None),
    ("nbstates.phasespace", "s_distribution", "phasespace.point", None),
    ("nbstates.phasespace", "q_function", "phasespace.point", None),
    ("nbstates.cli", "main", "cli.main", None),
    ("nbstates.squeeze", "squeezing_scan", "squeeze.scan",
     lambda a, k, r: r.var_x.size),
    ("nbstates.squeeze", "default_eta_grid", "squeeze.eta_grid", None),
    ("nbstates.states", "nbs", "states.nbs", lambda a, k, r: r.n_max + 1),
    ("nbstates.states", "two_mode_geometric", "states.two_mode", None),
    ("nbstates.fock", "tail_mass_nbs", "fock.tail_mass", None),
    ("nbstates.stats", "stats_report", "stats.report", None),
    ("nbstates.su11", "su11_displace", "su11.displace", None),
    ("nbstates.su11", "ladder_residual", "su11.residual", None),
    ("nbstates.su11", "nonlinear_eigen_residual", "su11.residual", None),
    ("nbstates.dynamics", "evolve_intensity_dependent", "dynamics.evolve", None),
    ("nbstates.dynamics", "evolve_parametric", "dynamics.evolve", None),
    ("nbstates.dynamics", "fidelity", "dynamics.fidelity", None),
)


_NEEDS_INFO = {t[2] for t in TARGETS if t[3] is not None}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nbstates" or n.startswith("nbstates.")]
        for mod_name, attr, name, info in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tinfo\n")
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{info!r}\n")

    def layer_metrics(self, rounds) -> list[dict]:
        """Per-layer totals for each (start, end) interval in ``rounds``.

        A span belongs to the interval in which it starts.
        """
        spans = self.spans
        starts = [r[0] for r in rounds]
        child_time = defaultdict(float)
        for name, t0, t1, parent, info in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        per_round = [defaultdict(float, {"expm.workspace_max": 0}) for _ in rounds]
        for i, (name, t0, t1, parent, info) in enumerate(spans):
            k = bisect.bisect_right(starts, t0) - 1
            if k < 0 or t0 >= rounds[k][1]:
                continue
            if info is None and name in _NEEDS_INFO:
                continue  # the call raised; it computed nothing to count
            acc = per_round[k]
            dur = t1 - t0
            self_time = dur - child_time[i]
            if name == "expm.batch":
                if parent >= 0 and spans[parent][0] == "expm.single":
                    continue  # the inner step of a single-vector call
                steps, column_steps, rows, traffic = info
                acc["expm.batch_s"] += dur
                acc["expm.batch_matvecs"] += steps
                acc["expm.batch_column_matvecs"] += column_steps
                acc["expm.workspace_max"] = max(acc["expm.workspace_max"], rows)
                acc["expm.bytes_computed"] += traffic
            elif name == "expm.single":
                acc["expm.single_s"] += dur
                acc["expm.single_calls"] += 1
            elif name == "phasespace.grid_walk":
                key = "phasespace.grid_W_s" if info == 0.0 else "phasespace.grid_S_s"
                acc[key] += self_time
            elif name == "phasespace.grid_q":
                acc["phasespace.grid_Q_s"] += self_time
            elif name == "phasespace.point":
                acc["phasespace.point_ms"] += 1e3 * dur
            elif name == "cli.main":
                acc["cli.self_ms"] += 1e3 * self_time
            elif name == "squeeze.scan":
                acc["squeeze.scan_s"] += dur
                acc["squeeze.scan_pairs"] += info
            elif name == "states.nbs":
                acc["states.nbs_ms"] += 1e3 * dur
                acc["states.basis_size_sum"] += info
            elif name == "fock.tail_mass":
                acc["fock.tail_mass_ms"] += 1e3 * dur
            elif name == "stats.report":
                acc["stats.report_ms"] += 1e3 * dur
            elif name == "su11.displace":
                acc["su11.displace_ms"] += 1e3 * dur
            elif name == "su11.residual":
                acc["su11.residual_ms"] += 1e3 * dur
            elif name == "dynamics.evolve":
                acc["dynamics.evolve_ms"] += 1e3 * dur
        return per_round
