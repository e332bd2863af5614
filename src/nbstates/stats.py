"""Closed-form photon statistics with brute-force cross-checks.

Every closed form here is paired somewhere in the test suite with a
direct sum over the numeric photon distribution; the StatsReport type
carries both values so disagreement is visible, not silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncationError, TruncationPolicy, check_domain, float_range
from .states import choose_n_max, nbs_amplitudes

__all__ = [
    "StatsReport",
    "factorial_moments",
    "find_sign_change",
    "generating_function",
    "mandel_q",
    "mandel_q_numeric",
    "stats_report",
    "sub_poissonian_threshold",
]

DEFAULT_LAMBDAS = (0.0, 0.3, 0.5, 0.9, 1.0)


def generating_function(lam: float, eta: float, m: int) -> float:
    """Probability generating function value G(lam) = sum_n P(n) lam^n.

    Closed form lam^m * (eta / (1 + lam*eta - lam))^(m+1); the base must
    stay positive, which fails once lam*(1-eta) >= 1.
    """
    check_domain(lam=lam, eta=eta, m=m)
    if lam == 1.0:  # the sum of a distribution, not the rounded power
        return 1.0
    base = 1.0 + lam * eta - lam
    if base <= 0.0:
        raise ValueError(
            f"generating function pole: lam*(1-eta) >= 1 at lam={lam}, eta={eta}"
        )
    with float_range(m):
        return lam**m * (eta / base) ** (m + 1)


def factorial_moments(eta: float, m: int) -> tuple[float, float]:
    """First two factorial moments <N> and <N(N-1)> of NB(eta, m).

    Below eta ~ 1e-154, or above m ~ 1e154, <N(N-1)> ~ (m + 2)(m + 1) / eta^2
    passes the float range; no finite basis holds such a state, and
    TruncationError says so.
    """
    check_domain(eta=eta, m=m)
    with float_range(m):
        f1 = (m + 1) / eta - 1.0
        eta2 = eta**2
        f2 = (m + 2) * (m + 1) / eta2 - 4 * (m + 1) / eta + 2.0 if eta2 else math.inf
    if not math.isfinite(f2):
        raise TruncationError(f"<N(N-1)> of NB(eta={eta}, m={m}) overflows a float")
    return f1, f2


def mandel_q(eta: float, m: int) -> float:
    """Closed-form Mandel Q; negative means sub-Poissonian statistics.

    The (eta=1, m=0) point is the vacuum where Q is undefined; it is
    reported as 0.0 and flagged by stats_report.  Past m = 2^53, where
    -2(m+1) eta and m + 1 cancel to the float spacing of m, the numerator
    is taken as (m+1)(1 - 2 eta) + eta^2.
    """
    check_domain(eta=eta, m=m)
    if eta == 1.0 and m == 0:
        return 0.0
    with float_range(m):
        if m > 2**53:
            top = (m + 1) * (1.0 - 2.0 * eta) + eta**2
        else:
            top = eta**2 - 2 * (m + 1) * eta + m + 1
        return top / (eta * (m + 1 - eta))


def mandel_q_numeric(state: FockVector) -> float:
    """(<N^2> - <N>^2 - <N>) / <N> summed over the photon distribution."""
    p = state.probabilities()
    n = np.arange(state.n_max + 1, dtype=float)
    mean = float(np.sum(n * p))
    if mean <= 0.0:
        raise ValueError("Mandel Q undefined for a state with <N> = 0")
    second = float(np.sum(n * n * p))
    return (second - mean * mean - mean) / mean


def sub_poissonian_threshold(m: int) -> float:
    """Threshold success probability above which NB(eta, m) is sub-Poissonian.

    Algebraically m + 1 - sqrt(m(m+1)); evaluated in the rational form
    (m+1) / (m + 1 + sqrt(m(m+1))) which loses no significance at large m.
    Past m ~ 1e154, where m(m+1) overflows, sqrt(m(m+1)) is m + 1/2 in floats.
    """
    check_domain(m=m)
    with float_range(m):
        root = math.sqrt(m * (m + 1.0)) if m < 1e154 else m + 0.5
        return (m + 1) / (m + 1 + root)


@dataclass(frozen=True)
class StatsReport:
    """Closed-form and numeric photon statistics for one (eta, m)."""

    eta: float
    m: int
    generating_function_values: dict
    f1: float
    f2: float
    mandel_q_closed: float
    mandel_q_numeric: float
    sub_poissonian_threshold: float
    degenerate_vacuum: bool = False


def stats_report(eta: float, m: int, policy: TruncationPolicy | None = None) -> StatsReport:
    """Assemble the full statistics report for one parameter point.

    The generating function is taken at each of ``DEFAULT_LAMBDAS``.  The
    numeric Mandel Q uses NB(eta, m) on ``choose_n_max(..., k=2)``, which
    hides under tail_eps of E[(N+1)(N+2)].  With M, S the sums of n p_n and
    n^2 p_n there and T1, T2 the parts of <N>, <N^2> above it, Q_num - Q =
    T1 (1 + S/(M <N>)) - T2/<N>: the larger of two nonnegative terms bounds
    it.  T2 < tail_eps (m+1)(m+2)/eta^2, and the missing <N> term is at most
    f = (2 <N> + Q + 1)/(n_max + 1) times the other (T2 >= (n_max + 1) T1,
    S/M ~ <N> + Q + 1): |Q_num - Q| <~ max(1, f) tail_eps (m+1)(m+2)/(eta^2 <N>).
    Rounding, mostly the ratio recursion's drift, adds up to 2^-52 <N>^2.
    """
    policy = policy or TruncationPolicy()
    f1, f2 = factorial_moments(eta, m)
    q_closed = mandel_q(eta, m)
    degenerate = eta == 1.0 and m == 0
    if degenerate:
        q_numeric = 0.0
    else:
        n_max, tail = choose_n_max(eta, m, policy, k=2)
        q_numeric = mandel_q_numeric(FockVector(nbs_amplitudes(eta, m, n_max), tail_bound=tail))
    g_values = {lam: generating_function(lam, eta, m) for lam in DEFAULT_LAMBDAS}
    return StatsReport(
        eta=eta,
        m=m,
        generating_function_values=g_values,
        f1=f1,
        f2=f2,
        mandel_q_closed=q_closed,
        mandel_q_numeric=q_numeric,
        sub_poissonian_threshold=sub_poissonian_threshold(m),
        degenerate_vacuum=degenerate,
    )


def find_sign_change(f, lo: float, hi: float, xtol: float) -> float:
    """Bisect a bracketed sign change of f to within xtol.

    Requires f(lo) and f(hi) to have opposite (nonzero) signs.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change bracketed on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
