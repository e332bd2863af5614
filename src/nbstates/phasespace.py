"""Q function, Wigner function, and s-parametrized quasiprobabilities.

Single points are built from displaced-number overlaps
q_k(beta) = |<k| D(-beta) |psi>|^2:

    F(beta; s) = (2/pi) sum_k (-1)^k (1+s)^k / (1-s)^(k+1) q_k

with s = -1 the Q function and s = 0 the Wigner function.  The q_k are
computed by applying the displacement exp(-beta a† + beta* a) to the
state with the banded-exponential engine, which is uniformly stable in
beta and basis size (three-term recurrences for the overlaps are not:
they amplify roundoff catastrophically whenever |beta|^2 is small
compared to the photon cutoff).

Grids take another route.  W and S grids evaluate the wave function
psi(q) = sum_n c_n phi_n(q) once, on one q-lattice, and sum the Fourier
integral of conj psi(q+u) psi(q-u) by the trapezoid rule, which
converges exponentially on this integrand; S adds a Gaussian along u
and one smoothing kernel along the lattice of centres.  Points beyond
the state's support get 0 within a stated bound, so the work does not
grow with the window.  Q grids take the same wave function on one
lattice and sum the windowed-Fourier integral <beta|psi> against the
coherent state's Gaussian as one matrix product per grid, so Q >= 0 by
construction.  The pointwise functions stay the independent oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._expm import boundary_mass, expm_apply_skew
from .fock import (ConvergenceError, FockVector, TruncationError, TruncationPolicy,
                   check_domain)
from .states import NBSParams

__all__ = [
    "GridSpec",
    "PhaseSpaceGrid",
    "PhaseSpacePoint",
    "displaced_number_state",
    "displacement_matrix_element",
    "grid_evaluate",
    "q_function",
    "q_function_closed",
    "s_distribution",
    "wigner",
]

_TWO_OVER_PI = 2.0 / math.pi
_SERIES_TOL = 1e-10
_SQRT2 = math.sqrt(2.0)
# a priori bound on each error term of the grid engines (_grid_walk, _grid_q)
_GRID_EPS = 1e-16
# grid engine blocks hold at most this many products (2 MiB complex)
_BLOCK_ITEMS = 1 << 17
# the Hermite recursion divides its values down by this when they pass it
_RESCALE = 1e150
_LOG_RESCALE = math.log(_RESCALE)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PhaseSpacePoint:
    """One phase-space coordinate beta = x + iy."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    @property
    def beta(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, beta: complex) -> "PhaseSpacePoint":
        return cls(beta.real, beta.imag)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation window with uniform spacing."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 201
    ny: int = 201

    def __post_init__(self):
        for v in (self.x_min, self.x_max, self.y_min, self.y_max):
            if not math.isfinite(v):
                raise ValueError("grid bounds must be finite")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("grid bounds must satisfy max >= min")
        check_domain(nx=self.nx, ny=self.ny)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    @classmethod
    def square(cls, half_width: float, nx: int = 201, ny: int = 201) -> "GridSpec":
        r = float(half_width)
        return cls(-r, r, -r, r, nx, ny)


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """values[j, i] is the distribution at (xs()[i], ys()[j])."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray
    riemann_sum: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.ny, self.nx):
            raise ValueError(
                f"values shape {vals.shape} does not match (ny, nx)="
                f"({self.ny}, {self.nx})"
            )

    xs, ys = GridSpec.xs, GridSpec.ys


def displacement_matrix_element(n: int, k: int, beta: complex) -> complex:
    """<n| exp(beta a† - beta* a) |k> by the terminating descending sum.

    The finite sum runs over j = 0..min(n,k) with argument -1/|beta|^2;
    the prefactor is kept in the log domain.  beta = 0 returns the exact
    Kronecker delta.  Intended for moderate min(n, k); the distribution
    engines never call this.
    """
    check_domain(n=n, k=k)
    beta = complex(beta)
    if beta == 0:
        return 1.0 + 0.0j if n == k else 0.0 + 0.0j
    x = abs(beta) ** 2
    total = 0.0
    term = 1.0
    for j in range(min(n, k) + 1):
        total += term
        term *= -(n - j) * (k - j) / ((j + 1) * x)
    log_mag = (
        -0.5 * x
        + 0.5 * (n + k) * math.log(x)
        - 0.5 * (math.lgamma(n + 1) + math.lgamma(k + 1))
    )
    theta = cmath.phase(beta)
    phase = (-1.0) ** k * cmath.exp(1j * (n - k) * theta)
    return math.exp(log_mag) * total * phase


def _displaced(amps, beta: complex, rows: int = 0) -> np.ndarray:
    """exp(beta a† - beta* a) applied to ``amps`` on a workspace of >= rows + 1 rows.

    With N the top index of amps and x = |beta|^2, the workspace spans the
    shift N + x plus eight times the larger of sqrt(x + N + 1) and the
    photon-number spread sqrt(x (2N + 1)) of D(beta)|N>.  The spread comes
    from N, not from the mean photon number: D(beta) acts on each |n>
    alone, so a small weight on a high |n> still reaches that far.
    Raises TruncationError when its top two amplitudes hold more than
    ``boundary_mass`` allows at the default basis tolerance.
    """
    n_top = len(amps) - 1
    x = abs(beta) ** 2
    spread = max(math.sqrt(x + n_top + 1.0), math.sqrt(x * (2.0 * n_top + 1.0)))
    w = max(rows, math.ceil(n_top + x + 8.0 * spread + 40.0))
    v = np.zeros(w + 1, dtype=complex)
    v[: n_top + 1] = amps
    phi = expm_apply_skew(beta * np.sqrt(np.arange(1.0, w + 1.0)), v, tol=1e-13)
    boundary_mass(phi, TruncationPolicy().tail_eps, "the displaced state")
    return phi


def _point_value(state: FockVector, p: PhaseSpacePoint, s: float) -> float:
    """(2/pi) sum_k w_k q_k(beta), w_k = (-u)^k / (1-s), u = (1+s)/(1-s).

    The one body of ``wigner`` and ``s_distribution``; neither calls the
    other.  The sum runs over the whole displaced workspace.  The check
    after it covers a norm-deficient input: 1 - sum_k q_k is the mass the
    input lacks (the truncated exponential is unitary), times the weight
    envelope u |w_K| at the last k = K; past 1e-10 this raises
    ConvergenceError.  The workspace edge is guarded by ``_displaced``.
    """
    beta = p.beta
    # exact limit at beta = 0: the displaced-number overlaps collapse to |c_k|^2
    q = np.abs(_displaced(state.amplitudes, -beta) if beta else state.amplitudes) ** 2
    u = (1.0 + s) / (1.0 - s)
    weights = np.cumprod(np.concatenate(([1.0 / (1.0 - s)], np.full(len(q) - 1, -u))))
    bound = _TWO_OVER_PI * abs(weights[-1]) * u * max(0.0, 1.0 - float(q.sum()))
    if bound >= _SERIES_TOL:
        raise ConvergenceError(f"series tail bound {bound:.3e} still above "
                               f"{_SERIES_TOL} after {len(q)} terms")
    return _TWO_OVER_PI * float(weights @ q)


def wigner(state: FockVector, p: PhaseSpacePoint) -> float:
    """(2/pi) sum_k (-1)^k q_k(beta) over the displaced workspace.

    Raises ConvergenceError if the state's norm deficit may move it by
    1e-10, and TruncationError if the displaced state reaches the
    workspace edge.
    """
    return _point_value(state, p, 0.0)


def s_distribution(state: FockVector, p: PhaseSpacePoint, s: float) -> float:
    """Quasiprobability at ordering parameter s in [-1, 0], summed as in ``wigner``."""
    check_domain(s=s)
    return _point_value(state, p, s)


def _overlap_log(c: np.ndarray, beta: complex) -> complex:
    """<beta|state>, every coefficient built in the log domain.

    For |beta|^2 past ~1400, where e^{-|beta|^2/2} underflows and the
    product conj(beta)^n / sqrt(n!) overflows.
    """
    n = np.arange(len(c))
    half_log_fact = 0.5 * np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    r = np.abs(beta)
    log_mag = n * np.log(r) - half_log_fact - 0.5 * r * r
    return complex(np.exp(log_mag - 1j * np.angle(beta) * n) @ c)


def q_function(state: FockVector, p: PhaseSpacePoint) -> float:
    """(1/pi) |<beta|state>|^2 via the coherent-state coefficient sum."""
    beta = p.beta
    c = state.amplitudes
    n = state.n_max
    # conj coherent coefficients e^{-x/2} conj(beta)^n / sqrt(n!), prefolded
    # so every partial product is a true coefficient
    coef = np.empty(n + 1, dtype=complex)
    coef[0] = math.exp(-0.5 * abs(beta) ** 2)
    if n >= 1:
        steps = np.conj(beta) / np.sqrt(np.arange(1.0, n + 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            coef[1:] = coef[0] * np.cumprod(steps)
    # the prefactor has underflowed, or a partial product overflowed: once
    # infinite, the product stays infinite (or NaN) up to its last entry
    if coef[0].real < _TINY or not np.isfinite(coef[-1]):
        ov = _overlap_log(c, beta)
    else:
        ov = np.sum(coef * c)
    return float(abs(ov) ** 2 / math.pi)


def q_function_closed(params: NBSParams, p: PhaseSpacePoint) -> float:
    """Closed-form Q of the negative binomial state.

    (1/pi) eta^(m+1) e^{-x} x^m / m! * |sum_j (conj(beta) sqrt(1-eta))^j
    / sqrt(j!)|^2 with x = |beta|^2.
    """
    eta, m = params.eta, params.m
    beta = p.beta
    x = abs(beta) ** 2
    if x == 0.0:
        return eta / math.pi if m == 0 else 0.0
    w = np.conj(beta) * math.sqrt(1.0 - eta)
    total = 0.0j
    term = 1.0 + 0.0j
    scale = 1.0
    j = 0
    while True:
        total += term
        scale = max(scale, abs(total))
        j += 1
        term *= w / math.sqrt(j)
        if j > abs(w) ** 2 + 8 and abs(term) < 1e-20 * scale:
            break
        if j > 100000:
            raise ConvergenceError("closed-form overlap sum did not terminate")
    log_pref = (
        (m + 1) * math.log(eta)
        - x
        + (m * math.log(x) if m > 0 else 0.0)
        - math.lgamma(m + 1)
    )
    return float(math.exp(log_pref) * abs(total) ** 2 / math.pi)


def displaced_number_state(beta: complex, k: int, n_max: int) -> FockVector:
    """D(beta)|k> truncated to n_max, with the lost mass in tail_bound."""
    check_domain(k=k)
    if k > n_max:
        raise ValueError(f"need k <= n_max, got k={k}, n_max={n_max}")
    v = np.zeros(k + 1)
    v[k] = 1.0
    amps = _displaced(v, complex(beta), n_max)[: n_max + 1]
    leak = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    if leak > 1e-8:
        raise TruncationError(
            f"displaced number state loses norm {leak:.3e} past n_max={n_max}"
        )
    return FockVector(amps, n_max, leak)


def _grid_start(state: FockVector, spec: GridSpec, margin: float):
    """The zero grid, and None or (c, rho_W, sqrt2 xs, sqrt2 ys, cols, rows).

    c runs to the last nonzero amplitude (real when none has an imaginary
    part); cols and rows index the points within rho_W + margin of 0.
    """
    out = np.zeros((spec.ny, spec.nx))
    c = state.amplitudes
    occupied = np.flatnonzero(c)
    if occupied.size == 0:
        return out, None
    c = c[: occupied[-1] + 1]
    c = c if np.any(c.imag) else c.real
    rho_w = _support_extent(len(c) - 1)
    qx, qy = _SQRT2 * spec.xs(), _SQRT2 * spec.ys()
    cols = np.flatnonzero(np.abs(qx) <= rho_w + margin)
    rows = np.flatnonzero(np.abs(qy) <= rho_w + margin)
    if cols.size == 0 or rows.size == 0:
        return out, None
    return out, (c, rho_w, qx, qy, cols, rows)


def _grid_q(state: FockVector, spec: GridSpec) -> np.ndarray:
    """Q over the grid by windowed-Fourier (Gabor) quadrature.

    With q0 = sqrt2 x, p0 = sqrt2 y and psi(q) = sum_n c_n phi_n(q)
    evaluated once on one q-lattice q_l = l h,

        Q(x, y) = pi^{-3/2} |h sum_l e^{-(q_l - q0)^2/2} psi(q_l) e^{-i p0 q_l}|^2,

    the trapezoid rule for (1/pi) |<beta|psi>|^2 written as the integral
    of psi against the coherent state's wave function.  The sum is one
    (columns x lattice) window matrix times one (lattice x rows) Fourier
    matrix (a cosine and a sine product for real c), so Q >= 0 by
    construction.

    Lattice: h = 2 pi / (rho_W + sqrt2 |y|max + R), with N the top
    occupied photon number, rho_W the ``_support_extent`` of N and
    R = sqrt(2 ln(1/eps)) the reach of the window, e^{-R^2/2} = eps =
    _GRID_EPS; the lattice spans |q| <= rho_W + h.

    Error bound (a priori, before rounding).  By Poisson summation the
    lattice sum equals the integral plus images at p0 shifted by
    multiples of 2 pi / h, i.e. the overlaps with coherent states at
    |p| >= rho_W + R.  psi in p is again in the span of phi_0..phi_N, so
    an image meets e^{-R^2/2} on |p| <= rho_W and the Mehler tail
    T(rho_W) of ``_log_hermite_tail`` beyond (Cauchy-Schwarz on each
    part): together under ~eps in Q.  Dropping psi past rho_W + h moves
    the sum by at most sqrt(pi^{1/2} + h) sqrt(2 T(rho_W)) (Cauchy-Schwarz
    on the lattice; sum_n phi_n^2 falls beyond the turning point), so Q
    by under (8/pi) sqrt(T(rho_W)) <= eps.  The support clip - points
    with |sqrt2 x| or |sqrt2 y| > rho_W + R, which get 0 - drops values
    below the same bounds.  The lattice never grows with the window.
    """
    reach = math.sqrt(-2.0 * math.log(_GRID_EPS))
    out, start = _grid_start(state, spec, reach)
    if start is None:
        return out
    c, rho_w, q0, p0, cols, rows = start

    h = 2.0 * math.pi / (rho_w + float(np.abs(p0[rows]).max()) + reach)
    j_top = math.floor((rho_w + h) / h)
    nodes = h * np.arange(-j_top, j_top + 1)
    # h pi^{-3/4} folded into psi, so Q is the squared magnitude of the sum
    psi = (h * math.pi ** -0.75) * _wave_function(c, nodes)
    phase = np.outer(nodes, p0[rows])
    if c.dtype == complex:
        fourier = (np.exp(-1j * phase),)
    else:
        fourier = (np.cos(phase), np.sin(phase))
    block = max(1, _BLOCK_ITEMS // len(nodes))
    for lo in range(0, cols.size, block):
        part = cols[lo:lo + block]
        window = np.exp(-0.5 * (q0[part, None] - nodes[None, :]) ** 2) * psi
        q = sum(np.abs(window @ f) ** 2 for f in fourier)
        out[np.ix_(rows, part)] = q.T
    return out


def _log_hermite_tail(n_top: int, rho: float) -> float:
    """log of a bound on the integral over t >= rho of sum_{n<=n_top} phi_n(t)^2.

    Mehler's formula sum_n phi_n(t)^2 s^n = exp(-t^2 (1-s)/(1+s)) /
    sqrt(pi (1-s^2)) bounds the partial sum by s^-n_top times the right
    side for every s in (0, 1); s is the minimiser of the exponent (the
    smaller root of n_top s^2 - 2 (rho^2 - n_top) s + n_top = 0) and the
    Gaussian tail integral is bounded by exp(-a rho^2) / (2 a rho).
    Returns inf inside the turning point sqrt(2 n_top + 1).
    """
    r2 = rho * rho
    if n_top == 0:
        s, log_s_pow = 0.0, 0.0
    elif r2 <= 2.0 * n_top:
        return math.inf
    else:
        s = n_top / ((r2 - n_top) + math.sqrt(r2 * (r2 - 2.0 * n_top)))
        log_s_pow = -n_top * math.log(s)
    a = (1.0 - s) / (1.0 + s)
    return (log_s_pow - 0.5 * math.log(math.pi * (1.0 - s * s)) - a * r2
            - math.log(2.0 * a * rho))


def _support_extent(n_top: int) -> float:
    """Smallest rho (on a 1/16 grid) with (8/pi) sqrt(T(rho)) <= _GRID_EPS.

    T is the tail bound of ``_log_hermite_tail``; past rho every wave
    function of the span {|0>..|n_top>} and its Wigner function are
    below the engine's error budget (see ``_grid_walk``).
    """
    target = 2.0 * math.log(math.pi * _GRID_EPS / 8.0)
    rho = math.sqrt(2.0 * n_top + 1.0)
    while _log_hermite_tail(n_top, rho) > target:
        rho += 0.0625
    return rho


def _wave_function(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """psi(q) = sum_n c_n phi_n(q) by the normalised Hermite recursion.

    Each point carries a log scale: phi_n = f_n exp(log_scale), with f
    divided down whenever it passes 1e150, so phi_0 = pi^-1/4 e^{-q^2/2}
    never underflows and high orders never overflow.  One step grows
    max(|f|, |f_prev|) by at most sqrt2 |q| + 1, so checking every
    eighth step keeps both below 1e150 (sqrt2 |q| + 1)^8, far from
    overflow for any lattice here (|q| < 200 at the 4096 basis cap).
    """
    log_scale = -0.5 * q * q - 0.25 * math.log(math.pi)
    f_prev = np.zeros_like(q)
    f = np.ones_like(q)
    acc = c[0] * f
    for n in range(len(c) - 1):
        f_next = math.sqrt(2.0 / (n + 1)) * q * f
        f_next -= math.sqrt(n / (n + 1.0)) * f_prev
        f_prev, f = f, f_next
        acc += c[n + 1] * f
        if n % 8 == 7:
            big = np.maximum(np.abs(f), np.abs(f_prev)) > _RESCALE
            if big.any():
                f[big] /= _RESCALE
                f_prev[big] /= _RESCALE
                acc[big] /= _RESCALE
                log_scale[big] += _LOG_RESCALE
    mag = np.abs(acc)
    nz = mag > 0.0
    out = np.zeros_like(acc)
    out[nz] = acc[nz] / mag[nz] * np.exp(np.log(mag[nz]) + log_scale[nz])
    return out


def _grid_walk(state: FockVector, spec: GridSpec, s: float) -> np.ndarray:
    """W (s = 0) or S (-1 <= s < 0) over the grid by Fourier quadrature.

    With q = sqrt2 x and psi(q) = sum_n c_n phi_n(q) evaluated once on
    one q-lattice of step h,

        W(x, y) = (2/pi) h sum_l conj psi(q + lh) psi(q - lh) e^{2i sqrt2 y lh},

    the trapezoid rule for (2/pi) int conj psi(q+u) psi(q-u) e^{2i sqrt2 y u} du.
    S with t = -s is W smoothed by a Gaussian of variance t/4 along x
    and y: along y it multiplies the integrand by e^{-t u^2}, along x
    (on the lattice of centres) it is one real kernel kappa, the inverse
    DFT of e^{-t k^2 / 4}.  kappa is exact for every t and is the exact
    delta at t = 0, where only the grid's own columns are computed.

    Lattice: h = sqrt2 dx / k with k = ceil(sqrt2 dx / h_max), so every
    column centre is a node.  Columns closer than h_max fall into
    classes ``stride`` columns apart, each on a lattice of step
    stride sqrt2 dx (past nx columns, one lattice per column), so h
    stays in (h_max / 2, h_max] however narrow the window.  Let N be
    the top occupied photon number, rho_W the ``_support_extent`` of N
    and rho = rho_W + sqrt(t ln(4 / (pi eps))), eps = _GRID_EPS.
    h_max = pi / (rho + sqrt2 |y|max), i.e. 2 pi over the bandwidth
    2 sqrt(2N+1) + 2 sqrt2 |y|max plus twice the margin
    rho - sqrt(2N+1); for t > 0 also h_max <= pi / (2 rho_W), the band
    of the centre sequence.  psi is kept on |q| <= rho_W + h.

    Error bound (a priori, before rounding).  By Poisson summation the
    lattice sum equals the exact value plus images at y shifted by
    multiples of pi / (sqrt2 h), all beyond rho; for a state in the span
    of |0>..|N>, |W| <= (4/pi) sqrt(T(sqrt2 |beta|)) with T the Mehler
    tail bound of ``_log_hermite_tail`` (Cauchy-Schwarz on the Wigner
    integral, plus rotation covariance), and |S| <= that bound beyond
    rho_W plus (2/pi) e^{-2 d^2 / t} at distance d past rho_W / sqrt2.
    So the images add at most ~2 eps, dropping psi past rho_W + h at
    most (8/pi) sqrt(T(rho_W)) <= eps, and the support clip - points
    with |sqrt2 x| or |sqrt2 y| > rho, which get 0 - at most eps.
    Each term is bounded by eps = 1e-16 (times sum |kappa| for S), and
    the lattice never grows with the window: it spans |q| <= rho only.
    """
    t = -float(s)
    margin = math.sqrt(t * math.log(4.0 / (math.pi * _GRID_EPS)))
    out, start = _grid_start(state, spec, margin)
    if start is None:
        return out
    c, rho_w, qx, qy, cols, rows = start
    rho = rho_w + margin

    h_max = math.pi / (rho + float(np.abs(qy[rows]).max()))
    if t > 0.0:
        h_max = min(h_max, math.pi / (2.0 * rho_w))
    step_x = _SQRT2 * (spec.x_max - spec.x_min) / (spec.nx - 1)
    if step_x >= h_max:
        h, stride = step_x / math.ceil(step_x / h_max), 1
    elif step_x > 0.0:
        # columns closer than h_max: those ``stride`` apart share a lattice,
        # and past nx columns each column has a lattice of its own
        stride = min(int(h_max // step_x), spec.nx)
        h = stride * step_x if stride < spec.nx else h_max
    else:
        h, stride = h_max, 1

    # from any centre, offsets l h up to n_off h reach past psi's support
    n_off = int((rho_w + h) / h) + 1
    lh = h * np.arange(n_off + 1)
    weight = (4.0 / math.pi) * h * np.exp(-t * lh * lh)
    weight[0] *= 0.5
    phase = 2.0 * np.outer(lh, qy[rows])
    cos_w = weight[:, None] * np.cos(phase)
    sin_w = weight[:, None] * np.sin(phase) if c.dtype == complex else None
    for r in np.unique(cols % stride):
        part = cols[cols % stride == r]
        values = _lattice_sums(c, qx[part], h, rho, rho_w + h, t, cos_w, sin_w)
        out[np.ix_(rows, part)] = values.T
    return out


def _lattice_sums(c, centres, h, rho, reach, t, cos_w, sin_w) -> np.ndarray:
    """The grid engine's values at ``centres``, all nodes of one q-lattice.

    The lattice has step h and spans |q| <= rho; psi is kept on
    |q| <= reach.  cos_w and sin_w (None for real c) hold the weighted
    Fourier factors of offsets 0..n_off for each grid row.
    """
    # nodes q_a + j h, j_lo <= j <= j_hi, anchored on the centre nearest 0
    q_a = float(centres[np.argmin(np.abs(centres))])
    j_lo = -math.floor((rho + q_a) / h)
    j_hi = math.floor((rho - q_a) / h)
    nodes = q_a + h * np.arange(j_lo, j_hi + 1)
    at = np.rint((centres - q_a) / h).astype(int) - j_lo

    inside = np.flatnonzero(np.abs(nodes) <= reach)
    psi = np.zeros(len(nodes), dtype=c.dtype)
    psi[inside] = _wave_function(c, nodes[inside])

    # kappa on a period twice the lattice, so no wrap reaches a centre
    period = 2 * len(nodes)
    k_q = 2.0 * math.pi * np.fft.rfftfreq(period, h)
    kappa = np.fft.irfft(np.expm1(-0.25 * t * k_q * k_q), period)
    kappa[0] += 1.0
    kern = kappa[(at[:, None] - inside[None, :]) % period]
    used = np.flatnonzero(kern.any(axis=0))
    sources = inside[used]

    n_off = cos_w.shape[0] - 1
    pad = np.zeros(n_off, psi.dtype)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, psi, pad]), n_off + 1
    )
    g = np.empty((len(sources), cos_w.shape[1]))
    block = max(1, _BLOCK_ITEMS // (n_off + 1))
    for lo in range(0, len(sources), block):
        src = sources[lo:lo + block]
        # f[b, l] = conj psi(c_b + l h) psi(c_b - l h)
        f = np.conj(windows[src + n_off]) * windows[src][:, ::-1]
        if sin_w is None:
            g[lo:lo + block] = f @ cos_w
        else:
            g[lo:lo + block] = f.real @ cos_w - f.imag @ sin_w
    return kern[:, used] @ g


def grid_evaluate(
    state: FockVector, spec: GridSpec, kind: str, s: float | None = None
) -> PhaseSpaceGrid:
    """Evaluate Q, W, or S(s) over the grid; includes the window integral.

    kind is one of "Q", "W", "S"; kind "S" requires s in [-1, 0].
    riemann_sum is the plain Riemann integral over the window (zero for
    degenerate windows).
    """
    if kind == "Q":
        values = _grid_q(state, spec)
    elif kind == "W":
        values = _grid_walk(state, spec, 0.0)
    elif kind == "S":
        if s is None:
            raise ValueError("kind 'S' requires the ordering parameter s")
        check_domain(s=s)
        values = _grid_walk(state, spec, float(s))
    else:
        raise ValueError(f"unknown grid kind {kind!r}; expected Q, W, or S")
    dx = (spec.x_max - spec.x_min) / (spec.nx - 1)
    dy = (spec.y_max - spec.y_min) / (spec.ny - 1)
    riemann = float(values.sum() * dx * dy)
    return PhaseSpaceGrid(**asdict(spec), values=values, riemann_sum=riemann)
