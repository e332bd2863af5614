"""Constructors for the negative binomial state family and its relatives.

All constructors produce nonnegative real amplitudes (positive square
roots), so equal-state assertions elsewhere compare |overlap|^2 and the
phase convention is unobservable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncationError, TruncationPolicy, check_domain, tail_mass_nbs

__all__ = [
    "NBSParams",
    "PairBasisVector",
    "excited_geometric",
    "geometric_state",
    "nbs",
    "number_state",
    "two_mode_geometric",
    "two_mode_nbs",
]

# For checks that weigh the hidden tail by a growing power of n (<N^2>
# in stats_report, the n^m of an m-photon addition) or compare a truncated
# exponential with its exact form, the mass just below policy.tail_eps is
# not small enough; one or two extra doublings of n_max buy fourteen digits.
SHARPEN_FACTOR = 1e-14
SHARPEN_FLOOR = 1e-30


@dataclass(frozen=True)
class NBSParams:
    """Success probability eta in (0, 1] and nonnegative count m."""

    eta: float
    m: int

    def __post_init__(self):
        check_domain(eta=self.eta, m=self.m)


@dataclass(frozen=True, eq=False)
class PairBasisVector:
    """Two-mode state on the span of |offset_m + n, n> for n = 0..n_max.

    eta is that of the two-mode NB(eta, offset_m) family the state belongs
    to, where its constructor knows it, and None otherwise.
    """

    amplitudes: np.ndarray
    offset_m: int
    n_max: int
    tail_bound: float = 0.0
    eta: float | None = None

    def __post_init__(self):
        # amplitudes, n_max and tail_bound are checked as a FockVector's
        FockVector.__post_init__(self)
        check_domain(offset_m=self.offset_m)
        if self.eta is not None:
            check_domain(eta=self.eta)

    probabilities = FockVector.probabilities


def sharpened(policy: TruncationPolicy) -> TruncationPolicy:
    """Internal-use policy with a much tighter tail target, same cap."""
    eps = max(policy.tail_eps * SHARPEN_FACTOR, SHARPEN_FLOOR)
    return TruncationPolicy(tail_eps=eps, n_hard_cap=policy.n_hard_cap)


def basis_schedule(m: int, top: int):
    """The basis sizes tried for NB(eta, m): m + 32, doubled while below top, then top."""
    n = m + 32
    while n < top:
        yield n
        n *= 2
    yield top


def choose_n_max(eta: float, m: int, policy: TruncationPolicy) -> tuple[int, float]:
    """Smallest basis from ``basis_schedule`` meeting the tail target.

    Returns (n_max, tail_mass_nbs there), the first below policy.tail_eps.
    Raises TruncationError at the hard cap, reporting the tail mass achieved.
    """
    for n in basis_schedule(m, policy.n_hard_cap):
        tail = tail_mass_nbs(eta, m, n)
        if tail < policy.tail_eps:
            return n, tail
    raise TruncationError(
        f"n_hard_cap={policy.n_hard_cap} too small for eta={eta}, "
        f"m={m}: achieved tail mass {tail:.3e} >= {policy.tail_eps}"
    )


def nbs_amplitudes(eta, m: int, n_max: int) -> np.ndarray:
    """Raw coefficient array c_n = [C(n,m) eta^(m+1) (1-eta)^(n-m)]^(1/2).

    Built by the stable ratio recursion
    c_{n+1}/c_n = sqrt((n+1)/(n+1-m)) * sqrt(1-eta),
    which never forms a large binomial coefficient.  A row whose first
    amplitude eta^((m+1)/2) lies below the normal range is built from the
    cumulative sum of the log ratios instead: there the first amplitude
    has lost digits, or is 0 while the ratio product overflows.  eta is a
    float, or a 1-D array with one row of coefficients per value.
    """
    if n_max < m:
        raise ValueError(f"need n_max >= m, got n_max={n_max}, m={m}")
    c = np.zeros(np.shape(eta) + (n_max + 1,))
    # Python pow for a float eta, numpy pow for an array: the two can
    # differ in the last bit, and each caller keeps its own
    c[..., m] = eta ** ((m + 1) / 2)
    if n_max > m:
        n = np.arange(m, n_max, dtype=float)
        step = np.sqrt(1.0 - np.asarray(eta))[..., None]
        ratios = np.sqrt((n + 1.0) / (n + 1.0 - m)) * step
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(ratios, axis=-1, out=c[..., m + 1 :])
            c[..., m + 1 :] *= c[..., m, None]
        low = c[..., m, None] < np.finfo(float).tiny
        if low.any():
            with np.errstate(divide="ignore"):  # the ratios of an eta = 1 row are 0
                start = (m + 1) / 2 * np.log(eta)[..., None]
                logs = np.cumsum(np.log(ratios), axis=-1) + start
            rows = np.exp(np.concatenate((start, logs), axis=-1))
            c[..., m:] = np.where(low, rows, c[..., m:])
    return c


def nbs(params: NBSParams, policy: TruncationPolicy | None = None) -> FockVector:
    """Negative binomial state with photon distribution NB(eta, m).

    Amplitudes are the analytic coefficients (not renormalized); the
    missing mass above n_max is recorded in tail_bound and is below
    policy.tail_eps by construction.
    """
    policy = policy or TruncationPolicy()
    n_max, tail = choose_n_max(params.eta, params.m, policy)
    return FockVector(nbs_amplitudes(params.eta, params.m, n_max), n_max, tail)


def geometric_state(eta: float, policy: TruncationPolicy | None = None) -> FockVector:
    """Geometric (coherent-phase) state; identical to nbs with m = 0."""
    return nbs(NBSParams(eta, 0), policy)


def excited_geometric(
    eta: float, m: int, policy: TruncationPolicy | None = None
) -> FockVector:
    """m-fold photon-added geometric state, normalized numerically.

    Built literally on the basis of nbs(eta, m), in the log domain so that
    neither the geometric amplitudes underflow nor the creation product
    overflows: the log-amplitudes of the geometric state, then m raisings,
    each a shift up by one that adds log(n)/2 and drops the top entry.
    Truncating there is exact, so the result is nbs(eta, m) renormalized
    on its basis, and tail_bound is the NB(eta, m) mass above it.
    """
    policy = policy or TruncationPolicy()
    check_domain(m=m)
    n_max, tail = choose_n_max(eta, m, policy)
    if eta < 1.0:
        logs = 0.5 * math.log(eta) + 0.5 * math.log1p(-eta) * np.arange(n_max + 1.0)
    else:  # the geometric state at eta = 1 is |0>
        logs = np.where(np.arange(n_max + 1) == 0, 0.0, -np.inf)
    half_log_n = 0.5 * np.log(np.arange(1.0, n_max + 1))
    for _ in range(m):
        logs[1:] = logs[:-1] + half_log_n
        logs[0] = -np.inf
    amps = np.exp(logs - logs.max())
    return FockVector(amps / np.linalg.norm(amps), n_max, tail)


def number_state(m: int, n_max: int) -> FockVector:
    """Basis ket |m> on a basis of size n_max + 1."""
    check_domain(m=m)
    if m > n_max:
        raise ValueError(f"need 0 <= m <= n_max, got m={m}, n_max={n_max}")
    c = np.zeros(n_max + 1)
    c[m] = 1.0
    return FockVector(c, n_max)


def two_mode_geometric(
    eta: float, policy: TruncationPolicy | None = None
) -> PairBasisVector:
    """Two-mode state with geometric amplitudes on the diagonal |n, n>."""
    return two_mode_nbs(eta, 0, policy)


def two_mode_nbs(
    eta: float, m: int, policy: TruncationPolicy | None = None
) -> PairBasisVector:
    """Two-mode negative binomial state on the pair basis |m + n, n>.

    The pair amplitudes are the single-mode coefficients reindexed by
    n -> m + n, so the signal-mode photon distribution coincides with the
    single-mode distribution.
    """
    v = nbs(NBSParams(eta, m), policy)
    amps = v.amplitudes[m:]
    return PairBasisVector(amps, m, v.n_max - m, v.tail_bound, eta)
