"""Constructors for the negative binomial state family and its relatives.

All constructors produce nonnegative real amplitudes (positive square
roots), so equal-state assertions elsewhere compare |overlap|^2 and the
phase convention is unobservable.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

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


@dataclass(frozen=True)
class NBSParams:
    """Success probability eta in (0, 1] and nonnegative count m."""

    eta: float
    m: int

    def __post_init__(self):
        check_domain(eta=self.eta, m=self.m)


@dataclass(frozen=True, eq=False)
class PairBasisVector(FockVector):
    """Two-mode state on the span of |offset_m + n, n> for n = 0..n_max.

    A FockVector over the pair index n, plus offset_m and the eta of the
    two-mode NB(eta, offset_m) family the state belongs to, where its
    constructor knows it, and None otherwise.  eta is keyword-only.
    """

    offset_m: int
    _: KW_ONLY
    eta: float | None = None

    def __post_init__(self):
        super().__post_init__()
        check_domain(offset_m=self.offset_m)
        if self.eta is not None:
            check_domain(eta=self.eta)


def basis_schedule(m: int, top: int):
    """The basis sizes tried for NB(eta, m): m + 32, doubled while below top, then top."""
    n = m + 32
    while n < top:
        yield n
        n *= 2
    yield top


def choose_n_max(eta: float, m: int, policy: TruncationPolicy, k: int = 0) -> tuple[int, float]:
    """Smallest basis from ``basis_schedule`` hiding less than policy.tail_eps.

    What it hides is the share of E[(N+1)...(N+k)] that N > n_max carries,
    the NB(eta, m) mass above n_max at k = 0.  As (n+1) C(n, m) =
    (m+1) C(n+1, m+1), weighting NB(eta, m) by (n+1)...(n+k) gives
    (m+1)...(m+k)/eta^k times NB(eta, m+k) moved down by k, so that share
    is tail_mass_nbs(eta, m + k, n_max + k).  Returns n_max and the
    NB(eta, m) mass above it; raises TruncationError at the hard cap.
    """
    for n in basis_schedule(m, policy.n_hard_cap):
        hidden = tail_mass_nbs(eta, m + k, n + k)
        if hidden < policy.tail_eps:
            return n, hidden if k == 0 else tail_mass_nbs(eta, m, n)
    what = f"hidden share of E[(N+1)...(N+{k})]" if k else "tail mass"
    raise TruncationError(
        f"n_hard_cap={policy.n_hard_cap} too small for eta={eta}, "
        f"m={m}: achieved {what} {hidden:.3e} >= {policy.tail_eps}"
    )


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """np.cumsum along the last axis plus each step's rounding error, found by TwoSum."""
    s = np.cumsum(x, axis=-1)  # left to right: s_j = fl(s_{j-1} + x_j)
    prev = np.concatenate((np.zeros_like(s[..., :1]), s[..., :-1]), axis=-1)
    back = s - prev
    return s + np.cumsum((prev - (s - back)) + (x - back), axis=-1)


def nbs_amplitudes(eta, m: int, n_max: int) -> np.ndarray:
    """Raw coefficient array c_n = [C(n,m) eta^(m+1) (1-eta)^(n-m)]^(1/2).

    Built by the stable ratio recursion c_{n+1}/c_n = sqrt((n+1)/(n+1-m))
    sqrt(1-eta), which never forms a large binomial coefficient.  A row
    whose first amplitude eta^((m+1)/2) is below the normal range (it has
    lost digits, or is 0 while the ratio product overflows) sums the logs
    (m+1)/2 log eta and log((n+1)/(n+1-m))/2 + log1p(-eta)/2 per step in a
    compensated cumsum, as the partial sums pass 1000 at large m: sum c_n^2
    + tail is then within 2e-13 of 1 at NB(0.5, 3000) and NB(0.3, 2000) in
    double precision, where a plain cumsum drifts 1e-11.  eta is a float,
    or a 1-D array with one row of coefficients per value.
    """
    if n_max < m:
        raise ValueError(f"need n_max >= m, got n_max={n_max}, m={m}")
    c = np.zeros(np.shape(eta) + (n_max + 1,))
    # Python pow for a float eta, numpy pow for an array: the two can
    # differ in the last bit, and each caller keeps its own
    c[..., m] = eta ** ((m + 1) / 2)
    if n_max > m:
        n = np.arange(m, n_max, dtype=float)
        growth = (n + 1.0) / (n + 1.0 - m)
        ratios = np.sqrt(growth) * np.sqrt(1.0 - np.asarray(eta))[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(ratios, axis=-1, out=c[..., m + 1 :])
            c[..., m + 1 :] *= c[..., m, None]
        low = c[..., m, None] < np.finfo(float).tiny
        if low.any():
            with np.errstate(divide="ignore", invalid="ignore"):  # eta = 1 rows, dropped
                start = (m + 1) / 2 * np.log(eta)[..., None]
                steps = 0.5 * (np.log(growth) + np.log1p(-np.asarray(eta))[..., None])
                logs = _compensated_cumsum(np.concatenate((start, steps), axis=-1))
            c[..., m:] = np.where(low, np.exp(logs), c[..., m:])
    return c


def nbs(params: NBSParams, policy: TruncationPolicy | None = None) -> FockVector:
    """Negative binomial state with photon distribution NB(eta, m).

    Amplitudes are the analytic coefficients (not renormalized); the
    missing mass above n_max is recorded in tail_bound and is below
    policy.tail_eps by construction.
    """
    policy = policy or TruncationPolicy()
    n_max, tail = choose_n_max(params.eta, params.m, policy)
    return FockVector(nbs_amplitudes(params.eta, params.m, n_max), tail_bound=tail)


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
    return FockVector(amps / np.linalg.norm(amps), tail_bound=tail)


def number_state(m: int, n_max: int) -> FockVector:
    """Basis ket |m> on a basis of size n_max + 1."""
    check_domain(m=m, n_max=n_max)
    if m > n_max:
        raise ValueError(f"need 0 <= m <= n_max, got m={m}, n_max={n_max}")
    c = np.zeros(n_max + 1)
    c[m] = 1.0
    return FockVector(c)


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
    return PairBasisVector(amps, m, tail_bound=v.tail_bound, eta=eta)
