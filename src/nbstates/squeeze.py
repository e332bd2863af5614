"""Quadrature variances and squeezing-region scans.

Quadratures are X = (a + a†)/2 and Y = (a - a†)/(2i); the vacuum value
of both variances is 1/4 and anything below that counts as squeezing.
For the negative binomial family all field moments are real, so the
variances reduce to

    var_x = 1/4 + (<N> + <a^2> - 2<a>^2) / 2
    var_y = 1/4 + (<N> - <a^2>) / 2

One kernel, ``_moments``, sums the moments and variances over the last
axis of an amplitude array: one state's amplitudes, or a block of rows.
The scan gives every (eta, m) row the basis ``choose_n_max`` picks for
that eta alone, and builds the rows that share a basis together through
``states.nbs_amplitudes``, so a thousand-point grid per m costs
milliseconds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncationPolicy, check_domain, tail_mass_nbs
from .states import basis_schedule, choose_n_max, nbs_amplitudes
from .stats import find_sign_change

__all__ = [
    "SCAN_POLICY",
    "SqueezeScan",
    "VarianceSample",
    "field_moments",
    "quadrature_variances",
    "refine_region_edge",
    "squeezing_scan",
    "variances_at",
    "x_squeezing_onset",
    "y_squeezing_cutoff",
]

# Small eta pushes the photon distribution far out (mean (m+1)/eta), so
# scans get a higher basis cap than single-state work.
SCAN_POLICY = TruncationPolicy(n_hard_cap=16384)

_HEISENBERG_SLACK = 1e-12

# the scan builds at most this many amplitude cells (2 MiB) at a time
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class VarianceSample:
    """One scanned point; construction enforces the uncertainty bound."""

    eta: float
    m: int
    mean_a: float
    mean_a2: float
    var_x: float
    var_y: float

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_y > 0.0):
            raise ValueError(
                f"variances must be positive, got ({self.var_x}, {self.var_y})"
            )
        if self.var_x * self.var_y < 1.0 / 16.0 - _HEISENBERG_SLACK:
            raise ValueError(
                f"uncertainty product {self.var_x * self.var_y} below 1/16"
            )


def _moments(c: np.ndarray):
    """<a>, <a^2>, var_x and var_y of the amplitudes c along the last axis.

    <a> = sum sqrt(n+1) c_n* c_{n+1} and the matching <a^2>, each over
    the squared norm, which must not be 0; complex for complex c, whose
    variances use their real parts.
    """
    n = np.arange(c.shape[-1], dtype=float)
    cc = np.conj(c) if np.iscomplexobj(c) else c

    def weighted(k, w):
        # sum_n w_n c_n* c_{n+k}, a row in one pass with no temporaries;
        # einsum's three-operand loop sums a row in the same order whatever
        # rows surround it (its two-operand loop does not, past 8192 terms)
        return np.einsum("...j,...j,j->...", cc[..., : len(w)], c[..., k:], w)

    nrm2 = weighted(0, np.ones_like(n)).real
    if np.any(nrm2 == 0.0):
        raise ValueError("field moments need a nonzero state, got squared norm 0")
    mean_n = weighted(0, n).real / nrm2
    mean_a = weighted(1, np.sqrt(n[1:])) / nrm2
    mean_a2 = weighted(2, np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))) / nrm2
    var_x = 0.25 + (mean_n + mean_a2.real - 2.0 * mean_a.real**2) / 2.0
    var_y = 0.25 + (mean_n - mean_a2.real) / 2.0
    return mean_a, mean_a2, var_x, var_y


def field_moments(state: FockVector) -> tuple[complex, complex]:
    """Raw sums <a> = sum sqrt(n+1) c_n* c_{n+1} and the matching <a^2>.

    Returned as complex; every state family in this package yields real
    values, and quadrature_variances enforces that.
    """
    a1, a2, _, _ = _moments(state.amplitudes)
    return complex(a1), complex(a2)


def quadrature_variances(state: FockVector) -> tuple[float, float]:
    """(var_x, var_y) from the number and field moments of the state."""
    a1, a2, var_x, var_y = _moments(state.amplitudes)
    if abs(a1.imag) > 1e-10 or abs(a2.imag) > 1e-10:
        raise ValueError(
            f"field moments have imaginary parts ({a1.imag}, {a2.imag}); "
            "quadrature variances here assume real moments"
        )
    return float(var_x), float(var_y)


@dataclass(frozen=True, eq=False)
class SqueezeScan:
    """Variance tables over (m, eta); rows follow m_values, columns eta."""

    m_values: tuple
    eta_values: np.ndarray
    mean_a: np.ndarray
    mean_a2: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray

    def samples(self):
        for i, m in enumerate(self.m_values):
            for j, eta in enumerate(self.eta_values):
                yield VarianceSample(
                    float(eta),
                    int(m),
                    float(self.mean_a[i, j]),
                    float(self.mean_a2[i, j]),
                    float(self.var_x[i, j]),
                    float(self.var_y[i, j]),
                )

    def min_var_x(self) -> np.ndarray:
        return self.var_x.min(axis=1)

    def min_var_y(self) -> np.ndarray:
        return self.var_y.min(axis=1)


def squeezing_scan(
    m_values, eta_values, policy: TruncationPolicy | None = None
) -> SqueezeScan:
    """Variance scan over every (m, eta) pair, eta_values in any order.

    Each row is ``variances_at(eta, m, policy)`` bit for bit: its basis is
    the one ``choose_n_max`` picks for its own eta, so no row depends on
    its neighbours.  The price is accuracy: a row keeps a tail just below
    policy.tail_eps, where a basis shared with smaller etas would leave a
    far smaller one.  At the default 1e-12, <a> and <a^2> stay within
    1e-10 relative of the untruncated family, and the variances within
    1e-10 max(1, <N>).
    """
    policy = policy or SCAN_POLICY
    etas = np.asarray(eta_values, dtype=float)
    if etas.ndim != 1 or len(etas) == 0:
        raise ValueError("eta_values must be a nonempty 1-d sequence")
    outside = etas[~((etas > 0.0) & (etas <= 1.0))]
    if outside.size:
        check_domain(eta=float(outside[0]))
    m_values = tuple(m_values)
    for m in m_values:
        check_domain(m=m)
    m_values = tuple(int(m) for m in m_values)
    order = np.argsort(etas, kind="stable")
    shape = (len(m_values), len(etas))
    out = {k: np.empty(shape) for k in ("mean_a", "mean_a2", "var_x", "var_y")}
    ascending = etas[order]
    for i, m in enumerate(m_values):
        # the smallest eta needs the largest basis (or meets the cap first)
        top, _ = choose_n_max(float(ascending[0]), m, policy)
        hi = len(etas)
        for n_max in basis_schedule(m, top):
            # the tail falls as eta grows, so the rows that basis n_max serves
            # first are those from the first eta where its tail meets tail_eps
            lo = 0 if n_max == top else bisect_left(
                range(hi), True, 1,
                key=lambda j: tail_mass_nbs(float(ascending[j]), m, n_max) < policy.tail_eps)
            rows = max(1, _CHUNK_CELLS // (n_max + 1))
            for start in range(lo, hi, rows):
                idx = order[start : min(start + rows, hi)]
                values = _moments(nbs_amplitudes(etas[idx], m, n_max))
                for table, column in zip(out.values(), values):
                    table[i, idx] = column
            hi = lo
    return SqueezeScan(m_values, etas, **out)


def variances_at(
    eta: float, m: int, policy: TruncationPolicy | None = None
) -> VarianceSample:
    """Single-point sample through the same path as the scan."""
    policy = policy or SCAN_POLICY
    values = _moments(nbs_amplitudes(np.array([eta]), m, choose_n_max(eta, m, policy)[0]))
    return VarianceSample(eta, m, *(float(v[0]) for v in values))


def default_eta_grid(lo: float = 0.01, hi: float = 0.999, step: float = 1e-3):
    vals = np.arange(lo, hi + step / 2, step)
    # coarse steps can overshoot hi by nearly step/2; never exceed it
    return vals[vals <= hi + 1e-12 * max(1.0, abs(hi))]


def x_squeezing_onset(scan: SqueezeScan) -> int | None:
    """Smallest scanned m whose x-variance dips below 1/4, else None."""
    mins = scan.min_var_x()
    for m, v in zip(scan.m_values, mins):
        if v < 0.25:
            return m
    return None


def y_squeezing_cutoff(scan: SqueezeScan) -> int | None:
    """Smallest scanned m with no y-variance below 1/4 anywhere, else None."""
    mins = scan.min_var_y()
    for m, v in zip(scan.m_values, mins):
        if v >= 0.25:
            return m
    return None


def refine_region_edge(
    m: int,
    kind: str,
    eta_lo: float,
    eta_hi: float,
    xtol: float = 1e-6,
    policy: TruncationPolicy | None = None,
) -> float:
    """Bisect the eta where var_<kind> crosses 1/4 inside [eta_lo, eta_hi]."""
    if kind not in ("x", "y"):
        raise ValueError(f"kind must be 'x' or 'y', got {kind!r}")
    policy = policy or SCAN_POLICY

    def f(eta):
        s = variances_at(eta, m, policy)
        return (s.var_x if kind == "x" else s.var_y) - 0.25

    try:
        return find_sign_change(f, eta_lo, eta_hi, xtol)
    except ValueError as exc:
        raise ValueError(f"var_{kind} crossing of 1/4: {exc}") from None
