"""Exponentials of banded generators applied to vectors.

The generators used across this package are tridiagonal-skew
(G[n+1,n] = up[n], G[n,n+1] = -conj(up[n])) or pure raising/lowering
bands.  exp(G) v is computed by scaling plus a truncated Taylor series
per substep; the series length comes from the a-priori remainder bound
theta^(J+1)/(J+1)! for theta = ||G/s||_1, so the error is controlled
without ever forming a matrix.  Skew generators keep the norm exact.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import ConvergenceError, TruncationError, tail_mass_nbs

__all__ = [
    "apply_series",
    "boundary_mass",
    "expm_apply_skew",
    "expm_apply_skew_bounded",
    "expm_apply_skew_batch",
    "skew_norm1",
    "taylor_terms",
]


def taylor_terms(theta: float, tol: float) -> int:
    """Smallest J with theta^(J+1) / (J+1)! below tol."""
    if theta <= 0.0:
        return 1
    j = 0
    log_term = math.log(theta)  # log of theta^(j+1)/(j+1)! at j=0
    log_tol = math.log(tol)
    while log_term >= log_tol:
        j += 1
        log_term += math.log(theta) - math.log(j + 1)
        if j > 4096:
            raise ConvergenceError(f"Taylor bound will not reach {tol} at theta={theta}")
    return max(j, 1)


def skew_norm1(up: np.ndarray) -> float:
    """1-norm of the skew generator with sub-diagonal band ``up``."""
    a = np.abs(np.asarray(up))
    col = a.copy()
    col[1:] += a[:-1]
    return float(col.max(initial=0.0))


def _skew_matvec(up, upc, w):
    out = np.empty_like(w)
    out[1:] = up * w[:-1]
    out[0] = 0.0
    out[:-1] -= upc * w[1:]
    return out


def expm_apply_skew(up: np.ndarray, v: np.ndarray, tol: float = 1e-13,
                    theta_max: float = 12.0) -> np.ndarray:
    """exp(G) v for the skew banded generator defined by ``up``.

    Substep count s = ceil(||G||_1 / theta_max); each substep runs the
    Taylor series of exp(G/s) to the a-priori J for tol/s.
    """
    up = np.asarray(up, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nrm = skew_norm1(up)
    s = max(1, int(math.ceil(nrm / theta_max)))
    j_terms = taylor_terms(nrm / s, tol / s)
    return expm_apply_skew_batch(up[:, None], v[:, None], s, j_terms)[:, 0]


def boundary_mass(out: np.ndarray, tail_eps: float, what: str) -> float:
    """Mass in the top two amplitudes of a truncated skew exponential's result.

    A truncated skew exponential is unitary, so mass that should leave the
    basis piles up at its top instead.  Past 1e4 * tail_eps this raises
    TruncationError naming ``what``.
    """
    boundary = float(np.sum(np.abs(out[-2:]) ** 2))
    if boundary > 1e4 * tail_eps:
        raise TruncationError(
            f"truncation too small for {what}: boundary mass {boundary:.3e}"
        )
    return boundary


def expm_apply_skew_bounded(up: np.ndarray, v: np.ndarray, eta: float, m: int,
                            tail_eps: float, what: str) -> tuple[np.ndarray, float]:
    """exp(G) v on a basis sized for NB(eta, m), with its truncation bound.

    The bound is the ``boundary_mass`` (checked against tail_eps) plus the
    NB(eta, m) tail above the basis.
    """
    out = expm_apply_skew(up, v)
    boundary = boundary_mass(out, tail_eps, what)
    return out, tail_mass_nbs(eta, m, len(out) - 1) + boundary


def expm_apply_skew_batch(up: np.ndarray, V: np.ndarray, s: int,
                          j_terms: int) -> np.ndarray:
    """Batched exp(G_b) applied to column b of V, for per-column bands.

    up has shape (N, B) or (N, 1) broadcast against V of shape (N+1, B).
    """
    invs = 1.0 / s
    upc = np.conj(up)
    for _ in range(s):
        term = V
        acc = V.copy()
        for j in range(1, j_terms + 1):
            term = _skew_matvec(up, upc, term)
            term *= invs / j
            acc += term
        V = acc
    return V


def apply_series(apply_op, v: np.ndarray, tol: float = 1e-14,
                 max_terms: int = 100000) -> np.ndarray:
    """exp(A) v by the plain Taylor series with adaptive stopping.

    apply_op computes A w for a vector w.  Intended for raising or
    lowering bands whose term norms decay geometrically; stops once a
    term falls below tol relative to the accumulated result.
    """
    acc = v.astype(complex).copy()
    term = acc.copy()
    scale = float(np.linalg.norm(acc))
    for j in range(1, max_terms + 1):
        term = apply_op(term) / j
        t_norm = float(np.linalg.norm(term))
        if t_norm == 0.0:
            return acc
        acc += term
        scale = max(scale, float(np.linalg.norm(acc)))
        if t_norm <= tol * scale:
            # one-step lookahead guards against a coincidental small term
            nxt = apply_op(term) / (j + 1)
            acc += nxt
            if float(np.linalg.norm(nxt)) <= tol * scale:
                return acc
            term = nxt
    raise ConvergenceError(f"series did not converge within {max_terms} terms")
