"""Exponentials of banded generators applied to vectors.

The generators used across this package are tridiagonal-skew
(G[n+1,n] = up[n], G[n,n+1] = -conj(up[n])) or pure raising/lowering
bands.  For a skew G, exp(G) v is the Chebyshev-Bessel expansion
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984))

    exp(G) v = J_0(rho) W_0 + 2 sum_{k>=1} J_k(rho) W_k,
    W_0 = v,  W_1 = G v / rho,  W_{k+1} = (2/rho) G W_k + W_{k-1},

with rho = ||G||_1, which bounds the spectral radius.  W_k is
i^k T_k(G / (i rho)) v, so ||W_k|| <= ||v|| for the normal G, and
|J_k(rho)| <= (rho/2)^k / k! bounds the dropped terms a priori, without
ever forming a matrix.  That takes about 1.36 rho matvecs where scaled
Taylor substeps take about 3.5 rho (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)).  The J_k come from Miller's backward
recurrence, and real G and v stay in real arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import TruncationError

__all__ = [
    "bessel_j",
    "boundary_mass",
    "chebyshev_terms",
    "expm_apply_skew",
    "expm_apply_skew_batch",
    "skew_norm1",
]

# Miller's recurrence starts where (rho/2)^k / k! has fallen below this,
# far below any J_k the expansion keeps
_BESSEL_START_EPS = 1e-40
# and rescales its values to 1 before a step would take them past this
_RESCALE = 1e250


def chebyshev_terms(rho: float, tol: float) -> int:
    """Smallest K with 2 sum_{k>K} (rho/2)^k / k! below tol (0 at rho = 0)."""
    if rho <= 0.0:
        return 0
    # log(rho) - log 2, since rho / 2 underflows for the smallest subnormal
    log_half, log_tol = math.log(rho) - math.log(2.0), math.log(0.5 * tol)
    # past k = e rho/2 each term is at most 1/e of the one before
    n = int(math.e * 0.5 * rho) + 16
    while n * log_half - math.lgamma(n + 1.0) > log_tol - 40.0:
        n *= 2
    k = np.arange(n + 1.0)
    log_terms = k * log_half - np.cumsum(np.log(np.maximum(k, 1.0)))
    # log_tails[j] = log sum_{k >= j} (rho/2)^k / k!
    log_tails = np.logaddexp.accumulate(log_terms[::-1])[::-1]
    return int(np.argmax(log_tails[1:] < log_tol))


def bessel_j(rho: float, k_top: int) -> np.ndarray:
    """J_0(rho), ..., J_k_top(rho) by Miller's backward recurrence.

    J_{k-1} = (2k/rho) J_k - J_{k+1} runs down from a start past k_top
    where J is below 1e-40.  Before a step would take the values past
    1e250 they are divided by the current one, so nothing overflows for
    any rho with 2/rho finite.  The result is normalised by
    J_0 + 2 sum_k J_2k = 1.
    """
    top = max(k_top, chebyshev_terms(rho, _BESSEL_START_EPS)) + 1
    f = np.zeros(top + 1)
    two_over_rho = 2.0 / rho
    above, here = 0.0, 1.0
    f[top] = here
    for k in range(top, 0, -1):
        gain = k * two_over_rho
        if abs(here) * gain > _RESCALE:
            f[k:] /= abs(here)
            above /= abs(here)
            here = math.copysign(1.0, here)
        above, here = here, gain * here - above
        f[k - 1] = here
    f /= f[0] + 2.0 * f[2::2].sum()
    return f[: k_top + 1]


def expm_apply_skew(up: np.ndarray, v: np.ndarray, tol: float = 1e-15) -> np.ndarray:
    """exp(G) v for the skew banded G of ``up``, in the dtype of up and v.

    Real up and v, as every generator and state here has, stay in real
    arithmetic.  The Chebyshev-Bessel expansion stops at K =
    chebyshev_terms(rho, tol): the dropped terms sum to at most
    2 sum_{k>K} (rho/2)^k / k! ||v|| < tol ||v||, because |J_k(rho)| <=
    (rho/2)^k / k! and ||W_k|| <= ||v|| for the normal G.  |J_K(rho)| comes
    close to that bound, so the realised error sits near tol; the default
    keeps it at rounding level for two to four terms more.  K = 0 (rho = 0
    among them) returns v, since then 1 - J_0(rho) <= rho^2/4 is below tol.
    """
    rho = skew_norm1(up)
    out = np.array(v, dtype=np.result_type(up, v, float))
    k_top = chebyshev_terms(rho, tol)
    if k_top == 0:
        return out
    coeffs = 2.0 * bessel_j(rho, k_top)
    band = (2.0 / rho) * up
    band_c = np.conj(band)
    prev, cur = np.zeros_like(out), out.copy()
    tmp = np.empty(len(band), dtype=out.dtype)
    out *= 0.5 * coeffs[0]
    for k in range(1, k_top + 1):
        # W_k = (2/rho) G W_{k-1} + W_{k-2}, written over W_{k-2}; W_1 is
        # half of (2/rho) G W_0
        np.multiply(band, cur[:-1], out=tmp)
        prev[1:] += tmp
        np.multiply(band_c, cur[1:], out=tmp)
        prev[:-1] -= tmp
        if k == 1:
            prev *= 0.5
        prev, cur = cur, prev
        out += coeffs[k] * cur
    return out


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


def expm_apply_skew_batch(up: np.ndarray, V: np.ndarray, s: int,
                          j_terms: int) -> np.ndarray:
    """Batched exp(G_b) applied to column b of V, for per-column bands.

    up has shape (N, B) or (N, 1) broadcast against V of shape (N+1, B).
    The package no longer calls this Taylor-substep loop; it keeps its
    name because perfbench/tracer.py wraps it by name.
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

