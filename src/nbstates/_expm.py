"""Exponentials of banded generators applied to vectors.

The generators used across this package are tridiagonal-skew
(G[n+1,n] = up[n], G[n,n+1] = -conj(up[n])) or pure raising/lowering
bands.  For a skew G, exp(G) v is the Chebyshev-Bessel expansion
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984))

    exp(G) v = J_0(rho) W_0 + 2 sum_{k>=1} J_k(rho) W_k,
    W_0 = v,  W_1 = G v / rho,  W_{k+1} = (2/rho) G W_k + W_{k-1},

with rho = ||G||_1, which bounds the spectral radius.  W_k is
i^k T_k(G / (i rho)) v, so ||W_k|| <= ||v|| for the normal G, and
stopping at K drops at most 2 sum_{k>K} |J_k(rho)| ||v||, without ever
forming a matrix.  One pass of Miller's backward recurrence gives
J_0..J_top, past the order where |J_k(rho)| <= (rho/2)^k / k! falls
below 1e-40, and K is the smallest count whose tail
(2 sum_{K<k<=top} |J_k| + 1e-40) ||v|| is below tol ||v||.  That takes
about rho + 11 rho^(1/3) matvecs where scaled Taylor substeps take
about 3.5 rho (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
Real G and v stay in real arithmetic.

The terms are formed in blocks of 16, as rows of one zero-padded
18 x (len(v) + 2) array that also carries the block's two predecessors:
each W_k takes four in-place array operations, and each block adds
sum_k 2 J_k W_k to the result as one matrix-vector product.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import TruncationError

__all__ = [
    "bessel_j",
    "boundary_mass",
    "chebyshev_coefficients",
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
# Chebyshev terms that expm_apply_skew forms before adding them to its sum
_BLOCK = 16


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


def bessel_j(rho: float, top: int) -> np.ndarray:
    """J_0(rho), ..., J_top(rho) by Miller's backward recurrence.

    J_{k-1} = (2k/rho) J_k - J_{k+1} runs down from J_top = 1, J_{top+1}
    = 0, so top must lie past the order at which J falls below 1e-40, as
    chebyshev_terms(rho, 1e-40) + 1 does.  Before a step would take the
    values past 1e250 they are divided by the current one, so nothing
    overflows for any rho with 2/rho finite.  The result is normalised by
    J_0 + 2 sum_k J_2k = 1.
    """
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
    return f


def chebyshev_coefficients(rho: float, tol: float) -> np.ndarray:
    """J_0(rho), ..., J_K(rho), K the realised term count for tol.

    One ``bessel_j`` pass gives J_0..J_top, top = chebyshev_terms(rho,
    1e-40) + 1, and K is the smallest count with 2 sum_{K<k<=top} |J_k|
    + 1e-40 below tol (top if none is).  The 1e-40 bounds 2 sum_{k>top} |J_k|,
    since |J_k(rho)| <= (rho/2)^k / k!.  The computed J stand for the
    true ones: past k = rho they decay as the minimal solution of the
    recurrence, which the backward recurrence keeps to a small relative
    error.  Up to rounding K is at most chebyshev_terms(rho, tol), whose
    bound exceeds every |J_k|, and past rho of a few units it is smaller:
    24,892 against 33,430 at rho = 24,573.
    """
    j = bessel_j(rho, chebyshev_terms(rho, _BESSEL_START_EPS) + 1)
    # tail[k] = 2 sum_{k<i<=top} |J_i| + 1e-40, the bound on the terms after k
    tail = 2.0 * np.cumsum(np.abs(j[:0:-1]))[::-1] + _BESSEL_START_EPS
    met = np.flatnonzero(tail < tol)
    k_top = int(met[0]) if met.size else len(j) - 1
    return j[: k_top + 1]


def expm_apply_skew(up: np.ndarray, v: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """exp(G) v for the skew banded G of ``up``, in the dtype of up and v.

    Real up and v, as every generator and state here has, stay in real
    arithmetic.  The Chebyshev-Bessel expansion stops at the K of
    ``chebyshev_coefficients``: the dropped terms sum to at most
    (2 sum_{K<k<=top} |J_k(rho)| + 1e-40) ||v|| < tol ||v||, because
    ||W_k|| <= ||v|| for the normal G.  The bound is on the computed J,
    so the realised error sits near tol; the default keeps it at rounding
    level.  Where 2 sum_{k>=1} (rho/2)^k / k! is below tol (rho = 0 and
    the subnormal bands on which 2/rho overflows among them) K is 0 and
    this returns v, since then 1 - J_0(rho) <= rho^2/4 is below tol too.

    The terms run in blocks of _BLOCK = 16 rows of an 18 x (len(v) + 2)
    array whose first two rows carry W_{k-2} and W_{k-1} and whose zero edge
    columns stand for the neighbours past the basis.  With the band padded
    as below = [0, (2/rho) up] and above = [conj((2/rho) up), 0], each
    W_k is four in-place operations on row views: below * W_{k-1}[:-2]
    into its row, above * W_{k-1}[2:] into a scratch vector, their
    difference, and + W_{k-2}.  Each block adds 2 J_k W_k for its rows to
    the result as one product of the coefficient row and the block, then
    carries its last two rows to the top.  Only the order of the sum
    differs from adding each term as it is formed.
    """
    rho = skew_norm1(up)
    out = np.array(v, dtype=np.result_type(up, v, float))
    if rho < 1.0 and 2.0 * math.expm1(0.5 * rho) < tol:
        return out
    coeffs = (2.0 * chebyshev_coefficients(rho, tol)).astype(out.dtype)
    n = len(out)
    # (2/rho) G w = below * w[i-1] - above * w[i+1], both bands padded with
    # a zero where w has no neighbour
    below, above = np.zeros(n, dtype=out.dtype), np.zeros(n, dtype=out.dtype)
    below[1:] = (2.0 / rho) * up
    above[:-1] = np.conj(below[1:])
    # rows 0 and 1 carry W_{k-2} and W_{k-1} (W_0 in row 1 at the start),
    # rows 2.. hold the block's terms
    block = np.zeros((_BLOCK + 2, n + 2), dtype=out.dtype)
    block[1, 1:-1] = out
    out *= 0.5 * coeffs[0]
    mid, lo, hi = list(block[:, 1:-1]), list(block[:, :-2]), list(block[:, 2:])
    # row j of a block takes below * W_{k-1}[i-1] - above * W_{k-1}[i+1] + W_{k-2}
    steps = list(zip(mid[2:], lo[1:-1], hi[1:-1], mid[:-2]))
    scratch = np.empty(n, dtype=out.dtype)
    multiply, subtract, add = np.multiply, np.subtract, np.add
    # W_1 is half of (2/rho) G W_0, so the first block starts at its second row
    w_1, w_lo, w_hi, _ = steps[0]
    multiply(below, w_lo, out=w_1)
    multiply(above, w_hi, out=scratch)
    subtract(w_1, scratch, out=w_1)
    w_1 *= 0.5
    first = 1
    k_top = len(coeffs) - 1
    for k in range(1, k_top + 1, _BLOCK):
        b = min(_BLOCK, k_top + 1 - k)
        for row, w_lo, w_hi, w_back in steps[first:b]:
            multiply(below, w_lo, out=row)
            multiply(above, w_hi, out=scratch)
            subtract(row, scratch, out=row)
            add(row, w_back, out=row)
        first = 0
        out += coeffs[k:k + b] @ block[2:b + 2, 1:-1]
        block[:2] = block[b:b + 2]
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

