"""Constructors for the negative binomial state family and its relatives.

All constructors produce nonnegative real amplitudes (positive square
roots), so equal-state assertions elsewhere compare |overlap|^2 and the
phase convention is unobservable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockVector,
    TruncationError,
    TruncationPolicy,
    apply_creation,
    check_domain,
    normalized,
    tail_mass_nbs,
)

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

# Residual and fidelity checks at the 1e-10 scale need the boundary
# amplitude (~sqrt of the tail mass) pushed far below the caller-visible
# tolerance; one or two extra doublings of n_max buy fourteen digits.
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


def choose_n_max(eta: float, m: int, policy: TruncationPolicy) -> tuple[int, float]:
    """Smallest basis from the doubling schedule meeting the tail target.

    Starts at m + 32 and doubles until tail_mass_nbs drops below
    policy.tail_eps; returns (n_max, that tail mass).  Raises
    TruncationError at the hard cap, reporting the tail mass achieved.
    """
    n = m + 32
    while True:
        n = min(n, policy.n_hard_cap)
        tail = tail_mass_nbs(eta, m, n)
        if tail < policy.tail_eps:
            return n, tail
        if n >= policy.n_hard_cap:
            raise TruncationError(
                f"n_hard_cap={policy.n_hard_cap} too small for eta={eta}, "
                f"m={m}: achieved tail mass {tail:.3e} >= {policy.tail_eps}"
            )
        n *= 2


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
            c[..., m + 1 :] = c[..., m, None] * np.cumprod(ratios, axis=-1)
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

    Built literally: the geometric amplitudes on the basis sized for
    nbs(eta, m) on a sharpened policy, then m raising-operator
    applications, each followed by normalization so the growing product
    stays finite.  Equals nbs(eta, m) up to truncation error, far below the
    1e-10 fidelity budget.  Geometric amplitudes below the normal range
    have lost their digits and are cut; tail_bound is at least the
    NB(eta, m) mass above the basis or the cut, and a cut that leaves more
    than policy.tail_eps raises TruncationError.
    """
    policy = policy or TruncationPolicy()
    check_domain(m=m)
    n_max, tail = choose_n_max(eta, m, sharpened(policy))
    g = nbs_amplitudes(eta, 0, n_max)
    kept = int(np.count_nonzero(g >= np.finfo(float).tiny))
    g[kept:] = 0.0
    if m + kept <= n_max:
        tail = tail_mass_nbs(eta, m, m + kept - 1)
        if tail >= policy.tail_eps:
            raise TruncationError(
                f"geometric amplitudes underflow past n={kept - 1} for eta={eta}: "
                f"NB(eta, m={m}) mass {tail:.3e} above n={m + kept - 1} is lost"
            )
    v = normalized(FockVector(g, n_max))
    for _ in range(m):
        v = normalized(apply_creation(v))
    return FockVector(v.amplitudes, n_max, max(v.tail_bound, tail))


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
