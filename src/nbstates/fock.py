"""Truncated single-mode Fock-space vectors and operators.

States are dense float64 (real) or complex128 amplitude arrays over
photon numbers 0..n_max, with an explicit ``tail_bound`` tracking how
much probability mass the truncation may have discarded.  Every
operation returns a new vector; nothing here mutates shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

import numpy as np

__all__ = [
    "ConvergenceError",
    "DOMAINS",
    "FockVector",
    "TruncationError",
    "TruncationPolicy",
    "apply_annihilation",
    "apply_creation",
    "apply_diag",
    "check_domain",
    "norm",
    "tail_mass_nbs",
]


# each parameter's domain: a predicate and the requirement an error names;
# operator.index takes Python and numpy integers and raises TypeError for
# 2.0 or 1.5, which fails the check as any value of the wrong type does
DOMAINS = {
    "eta": (lambda v: 0.0 < v <= 1.0, "be in (0, 1]"),
    "chi_t": (lambda v: math.isfinite(v) and v >= 0.0, "be a finite nonnegative real"),
    "s": (lambda v: -1.0 <= v <= 0.0, "lie in [-1, 0]"),
    "lam": (math.isfinite, "be finite"),
    **dict.fromkeys(("m", "offset_m", "n_max"),
                    (lambda v: index(v) >= 0, "be a nonnegative integer")),
    **dict.fromkeys(("nx", "ny"), (lambda v: index(v) >= 2, "be an integer >= 2")),
    "m_photon": (lambda v: index(v) >= 1, "be a positive integer"),
}


def check_domain(**values) -> None:
    """Raise ValueError naming the first of ``values`` outside its ``DOMAINS`` entry."""
    for name, value in values.items():
        ok, need = DOMAINS[name]
        try:
            inside = ok(value)
        except TypeError:
            inside = False
        if not inside:
            raise ValueError(f"{name} must {need}, got {value}")


class TruncationError(RuntimeError):
    """Raised when no truncation within the policy cap meets the target."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative series fails to reach its tolerance.

    Nothing in the package raises it now; it stays exported because
    perfbench/workloads.py counts it among the named errors.
    """


@dataclass(frozen=True)
class TruncationPolicy:
    """How large a basis to use and when to stop growing it.

    tail_eps is the acceptable probability mass above n_max; n_hard_cap
    is the absolute ceiling on basis size.
    """

    tail_eps: float = 1e-12
    n_hard_cap: int = 4096

    def __post_init__(self):
        if not 0.0 < self.tail_eps < 1.0:
            raise ValueError(f"tail_eps must be in (0, 1), got {self.tail_eps}")
        if self.n_hard_cap < 1:
            raise ValueError(f"n_hard_cap must be >= 1, got {self.n_hard_cap}")


@dataclass(frozen=True, eq=False)
class FockVector:
    """Amplitudes c_n for n = 0..n_max plus a truncation-mass bound.

    Real input is stored as float64 and complex input as complex128; an
    array that already has its dtype is kept, not copied, and made read-only.
    """

    amplitudes: np.ndarray
    n_max: int
    tail_bound: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        amps = amps.astype(np.result_type(amps, float), copy=False)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        check_domain(n_max=self.n_max)
        if amps.ndim != 1 or len(amps) != self.n_max + 1:
            raise ValueError(
                f"amplitudes length {amps.shape} does not match n_max={self.n_max}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0):
            raise ValueError(f"tail_bound must be finite and nonnegative, got {self.tail_bound}")

    @classmethod
    def from_amplitudes(cls, amplitudes, tail_bound: float = 0.0) -> "FockVector":
        return cls(amplitudes, len(amplitudes) - 1, tail_bound)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def norm(v: FockVector) -> float:
    return float(np.linalg.norm(v.amplitudes))


def _top_loss(v: FockVector) -> float:
    # uniform upper-bound rule for mass pushed past (or hidden above) n_max
    return float((v.n_max + 1) * abs(v.amplitudes[v.n_max]) ** 2)


def apply_annihilation(v: FockVector) -> FockVector:
    """Lowering operator: (a v)_n = sqrt(n+1) v_{n+1}."""
    n = np.arange(1, v.n_max + 1)
    out = np.zeros_like(v.amplitudes)
    out[:-1] = np.sqrt(n) * v.amplitudes[1:]
    return FockVector(out, v.n_max, v.tail_bound + _top_loss(v))


def apply_creation(v: FockVector) -> FockVector:
    """Raising operator: (a† v)_n = sqrt(n) v_{n-1}.

    The amplitude shifted past n_max is dropped; its squared magnitude
    (already scaled by n_max+1) is added to tail_bound.
    """
    n = np.arange(1, v.n_max + 1)
    out = np.zeros_like(v.amplitudes)
    out[1:] = np.sqrt(n) * v.amplitudes[:-1]
    return FockVector(out, v.n_max, v.tail_bound + _top_loss(v))


def apply_diag(v: FockVector, f) -> FockVector:
    """Diagonal operator: (f(N) v)_n = f(n) v_n.

    f takes the index array 0..n_max and is evaluated with floating-point
    warnings off.  It may be non-finite off the support of v; it must be
    finite wherever v has nonzero amplitude.
    """
    with np.errstate(all="ignore"):
        vals = np.asarray(f(np.arange(v.n_max + 1)), dtype=float)
    on_support = np.abs(v.amplitudes) > 0
    bad = ~np.isfinite(vals) & on_support
    if bad.any():
        n_bad = int(np.argmax(bad))
        raise ValueError(f"diagonal function non-finite at n={n_bad} on support")
    vals = np.where(np.isfinite(vals), vals, 0.0)
    return FockVector(vals * v.amplitudes, v.n_max, v.tail_bound)


def tail_mass_nbs(eta: float, m: int, n_max: int) -> float:
    """Probability mass of the negative binomial distribution above n_max.

    N > n_max exactly when the first n0 = n_max + 1 trials hold at most m
    successes: the mass is sum_{j <= J} C(n0, j) eta^j (1-eta)^(n0-j),
    J = min(m, n0), summed from the logarithms n0 log1p(-eta) + cumsum of
    log((n0-j+1)/j) + log eta - log1p(-eta).  With u = 2^-53 and
    b = log n0 - log eta - log1p(-eta), the rounding of the start, steps,
    partial sums, exp and final sum stays within a factor e^delta,
    delta = u (4 |n0 log1p(-eta)| + J (J + 5) (b + 1) + J + 9), and within
    2^-1074 per term below the normal range.  Raised by both and capped at
    1, the sum is an upper bound within a relative delta (< 2e-9, m <= 500).
    """
    check_domain(eta=eta, m=m, n_max=n_max)
    if eta == 1.0:
        return 0.0 if n_max >= m else 1.0
    n0 = n_max + 1
    jmax = min(m, n0)
    j = np.arange(1.0, jmax + 1.0)
    log_q = math.log1p(-eta)
    start = n0 * log_q
    steps = np.log((n0 - j + 1.0) / j) + (math.log(eta) - log_q)
    total = float(np.exp(start + np.concatenate(([0.0], np.cumsum(steps)))).sum())
    b = math.log(n0) - math.log(eta) - log_q
    delta = 2.0**-53 * (4.0 * abs(start) + jmax * (jmax + 5.0) * (b + 1.0) + jmax + 9.0)
    return min(1.0, total * math.exp(delta) + (jmax + 2) * math.ulp(0.0))
