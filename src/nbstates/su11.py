"""SU(1,1) ladder algebra realized on photon-number amplitudes.

For a fixed integer m >= 0 the operators

    K+ = sqrt(N - m) a†,   K- = a sqrt(N - m),   K0 = N - (m - 1)/2

close the su(1,1) algebra on the subspace spanned by |n> with n >= m,
with Bargmann index k = (m + 1)/2.  The negative binomial state is the
orbit of |m> under exp(xi (K+ - K-)).
"""

from __future__ import annotations

import math

import numpy as np

from ._expm import boundary_mass, expm_apply_skew
from .fock import (
    FockVector,
    TruncationError,
    TruncationPolicy,
    apply_annihilation,
    apply_creation,
    apply_diag,
    check_domain,
)
from .states import NBSParams, choose_n_max, nbs

__all__ = [
    "k_minus",
    "k_plus",
    "k_zero",
    "ladder_residual",
    "nonlinear_eigen_residual",
    "sech_squared",
    "su11_displace",
]


def sech_squared(xi: float) -> float:
    """eta = sech(xi)^2 = (2 e^-|xi| / (1 + e^-2|xi|))^2, reached from |m> by xi.

    Unlike 1 - tanh(xi)^2, which cancels to 0 from xi ~ 19 on, this keeps
    full relative precision until the value underflows (|xi| past ~372);
    there it raises TruncationError, since no finite basis holds the state.
    """
    check_domain(xi=xi)
    e = math.exp(-abs(xi))
    eta = (2.0 * e / (1.0 + e * e)) ** 2
    if eta == 0.0:
        raise TruncationError(
            f"eta = sech^2({xi}) underflows to 0: no finite basis holds the state"
        )
    return eta


def _check_subspace(v: FockVector, m: int) -> None:
    check_domain(m=m)
    if m > 0 and np.any(v.amplitudes[:m] != 0):
        n_bad = int(np.argmax(np.abs(v.amplitudes[:m]) > 0))
        raise ValueError(
            f"vector has amplitude at n={n_bad} below the m={m} subspace"
        )


def k_plus(v: FockVector, m: int) -> FockVector:
    """K+ v = sqrt(N - m) a† v; requires support on n >= m."""
    _check_subspace(v, m)
    w = apply_creation(v)
    return apply_diag(w, lambda n: np.sqrt(n - m))


def k_minus(v: FockVector, m: int) -> FockVector:
    """K- v = a sqrt(N - m) v; requires support on n >= m."""
    _check_subspace(v, m)
    w = apply_diag(v, lambda n: np.sqrt(np.maximum(n - m, 0)))
    return apply_annihilation(w)


def k_zero(v: FockVector, m: int) -> FockVector:
    """K0 v = (N - (m - 1)/2) v."""
    check_domain(m=m)
    return apply_diag(v, lambda n: n - (m - 1) / 2)


def _raising_band(m: int, n_max: int) -> np.ndarray:
    # band[n] multiplies |n> -> |n+1>: sqrt((n+1)(n+1-m)), zero below the subspace
    n = np.arange(n_max, dtype=float)
    return np.sqrt((n + 1.0) * np.maximum(n + 1.0 - m, 0.0))


def ladder_residual(
    eta: float, m: int, policy: TruncationPolicy | None = None
) -> float:
    """Norm of (N - sqrt(1-eta) K+ - m) applied to the state nbs(eta, m).

    The truncated K+ drops the row past n_max, so every row it keeps holds
    the identity exactly and the basis of nbs suffices.
    """
    v = nbs(NBSParams(eta, m), policy)
    lhs = apply_diag(v, lambda n: n)
    kp = k_plus(v, m)
    r = lhs.amplitudes - math.sqrt(1.0 - eta) * kp.amplitudes - m * v.amplitudes
    return float(np.linalg.norm(r))


def su11_displace(
    xi: float, m: int, policy: TruncationPolicy | None = None
) -> FockVector:
    """exp(xi (K+ - K-)) |m>, computed by the banded exponential.

    Equals nbs(sech(xi)^2, m) analytically; the basis is sized for
    that target state.  Boundary amplitude buildup beyond the policy's
    tail budget raises TruncationError.
    """
    policy = policy or TruncationPolicy()
    check_domain(m=m)
    out, bound, _ = orbit(xi, m, policy, f"xi={xi}")
    return FockVector(out, tail_bound=bound)


def orbit(xi: float, m: int, policy: TruncationPolicy, what: str):
    """(exp(xi (K+ - K-)) |m>, its truncation bound, eta = sech^2 xi).

    The basis is sized for nbs(eta, m); the bound is the ``boundary_mass``
    (checked against the policy's tail_eps, naming ``what``) plus the
    NB(eta, m) tail above the basis.  At m = 0 the band is n + 1, that of
    the two-mode squeezer on the pair basis |n, n>.
    """
    eta = sech_squared(xi)
    n_max, tail = choose_n_max(eta, m, policy)
    v0 = np.zeros(n_max + 1)
    v0[m] = 1.0
    out = expm_apply_skew(xi * _raising_band(m, n_max), v0)
    bound = boundary_mass(out, policy.tail_eps, what)
    return out, tail + bound, eta


def nonlinear_eigen_residual(
    eta: float, m: int, policy: TruncationPolicy | None = None
) -> float:
    """Norm of (f(N) a - sqrt(1-eta)) on nbs(eta, m), f(n) = sqrt(n+1-m)/(n+1).

    The nonlinear lowering operator f(N) a has the negative binomial state
    as an eigenvector with eigenvalue sqrt(1-eta); this returns the
    numerical residual of that statement over rows 0..n_max-1, where the
    truncated f(N) a is exact.  Row n_max would need c_{n_max+1}, which
    belongs to the state's tail_bound.
    """
    v = nbs(NBSParams(eta, m), policy)
    w = apply_annihilation(v)
    w = apply_diag(w, lambda n: np.sqrt(np.maximum(n + 1 - m, 0)) / (n + 1))
    r = w.amplitudes - math.sqrt(1.0 - eta) * v.amplitudes
    return float(np.linalg.norm(r[:-1]))
