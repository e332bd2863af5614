"""Q function, Wigner function, and s-parametrized quasiprobabilities.

The s-ordered family F(beta; s), s = -1 the Q function and s = 0 the
Wigner function, in the convention where every member integrates to 1
over dx dy, beta = x + iy.

W and S have one engine, for grids and single points alike.  It
evaluates the wave function psi(q) = sum_n c_n phi_n(q) once, on one
q-lattice, and sums the Fourier integral of conj psi(q+u) psi(q-u) by
the trapezoid rule, which converges exponentially on this integrand;
S adds a Gaussian along u and one smoothing kernel along the lattice of
centres.  A single point is the engine at one centre.  Points beyond
the state's support get 0 within a stated absolute bound, so the work
grows neither with the window nor with |beta|.

Q grids take the same wave function on one lattice and sum the
windowed-Fourier integral <beta|psi> against the coherent state's
Gaussian as one matrix product per grid, so Q >= 0 by construction; a
single Q point is the coherent overlap summed in the log domain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .fock import FockVector, TruncationError, check_domain
from .states import NBSParams

__all__ = [
    "GridSpec",
    "PhaseSpaceGrid",
    "PhaseSpacePoint",
    "grid_evaluate",
    "q_function",
    "q_function_closed",
    "s_distribution",
    "wigner",
]

_SQRT2 = math.sqrt(2.0)
# a priori bound on each error term of the grid engines (_grid_walk, _grid_q)
_GRID_EPS = 1e-16
# grid engine blocks hold at most this many products (2 MiB complex), built
# in slabs of at most _SLAB_ITEMS, so that their temporaries stay small
_BLOCK_ITEMS = 1 << 17
_SLAB_ITEMS = 1 << 13
# the Hermite recursion divides its values down by this when they pass it
_RESCALE = 1e150
_LOG_RESCALE = math.log(_RESCALE)


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
        window = f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"grid bounds must satisfy max >= min, got {window}")
        check_domain(nx=self.nx, ny=self.ny)
        # an infinite span makes the cell area inf or nan as well
        cell = ((self.x_max - self.x_min) / (self.nx - 1)
                * ((self.y_max - self.y_min) / (self.ny - 1)))
        if not math.isfinite(cell):
            raise ValueError(f"grid spans and cell area must be finite, got {window} "
                             f"on {self.nx} x {self.ny} points")

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


def wigner(state: FockVector, p: PhaseSpacePoint) -> float:
    """W at one point: the grid engine ``_grid_walk`` at the one centre p.

    Its bound is absolute, 1e-16 per error term, not relative: far
    outside the state's support a value is tiny but may have the wrong sign.
    """
    centre = (np.array([p.x]), np.array([p.y]), 0.0)
    return float(_grid_walk(state, centre, 0.0)[0, 0])


def s_distribution(state: FockVector, p: PhaseSpacePoint, s: float) -> float:
    """Quasiprobability at ordering parameter s in [-1, 0], at one centre as in ``wigner``."""
    check_domain(s=s)
    centre = (np.array([p.x]), np.array([p.y]), 0.0)
    return float(_grid_walk(state, centre, float(s))[0, 0])


def _overlap(c: np.ndarray, beta: complex) -> complex:
    """<beta|psi> = sum_n e^{-|beta|^2/2} conj(beta)^n / sqrt(n!) c_n, from the logs.

    beta = 0 gives c_0 exactly.  Where |beta|^2 leaves the float range every
    coefficient is exp(-inf) = 0, exact to the float range, since
    |<beta|psi>|^2 <= ||c||^2 P(Poisson(|beta|^2) <= len(c) - 1).
    """
    if beta == 0:
        return complex(c[0])
    n = np.arange(len(c))
    r = abs(beta)
    # -r^2/2 plus small steps log r - log(i)/2, rounding as a ratio product would
    steps = np.concatenate(([-0.5 * r * r], math.log(r) - 0.5 * np.log(n[1:])))
    return complex(np.exp(np.cumsum(steps) - 1j * cmath.phase(beta) * n) @ c)


def q_function(state: FockVector, p: PhaseSpacePoint) -> float:
    """(1/pi) |<beta|state>|^2 via the coherent-state coefficient sum ``_overlap``."""
    return abs(_overlap(state.amplitudes, p.beta)) ** 2 / math.pi


def q_function_closed(params: NBSParams, p: PhaseSpacePoint) -> float:
    """Closed-form Q of the negative binomial state.

    <beta|NB> = e^{-x/2} conj(beta)^m eta^((m+1)/2) / sqrt(m!) sum_j w^j / sqrt(j!),
    x = |beta|^2, w = conj(beta) sqrt(1-eta), so Q = (1/pi) e^P |S|^2 with
    P = (m+1) log eta - eta x + m log x - log m! and S the ``_overlap`` of unit
    amplitudes at conj(w): terms of moduli sqrt(p_j), p_j = Poisson(y = |w|^2).
    |S|^2 <= 2 + 2 pi sqrt(y) (Cauchy-Schwarz), so Q is 0.0 once
    P + log(2/pi + 2 sqrt(y)) < log 2^-1075.  Else S stops at J = ceil(y + t),
    t^2 = 4 L (y + t/3), L = log(2 (1 + sqrt(y)) / 1e-20): by the ratio test and
    Bernstein's Poisson tail the dropped terms sum to under 1e-20, and Q
    (pi Q <= 1) moves by under 1e-20.  A J past 2^20 raises TruncationError.
    """
    eta, m = params.eta, params.m
    r = abs(p.beta)
    if r == 0.0:
        return eta / math.pi if m == 0 else 0.0
    log_pref = ((m + 1) * math.log(eta) - eta * r * r + 2 * m * math.log(r)
                - math.lgamma(m + 1))
    root_y = r * math.sqrt(1.0 - eta)
    if log_pref + math.log(2.0 / math.pi + 2.0 * root_y) < -1075 * math.log(2.0):
        return 0.0
    y, big_l = root_y * root_y, math.log(2e20 * (1.0 + root_y))
    j_top = math.ceil(y + 2.0 * big_l / 3.0 + 2.0 * math.sqrt(big_l * (big_l / 9.0 + y)))
    if j_top > 1 << 20:
        raise TruncationError(f"closed-form Q needs {j_top} terms at |beta| = {r:.6g}")
    s = _overlap(np.ones(j_top + 1), p.beta * math.sqrt(1.0 - eta))
    return math.exp(log_pref) * abs(s) ** 2 / math.pi


def _grid_start(state: FockVector, xs: np.ndarray, ys: np.ndarray, margin: float):
    """The zero (ys, xs) grid, and None or (c, rho_W, sqrt2 xs, sqrt2 ys, cols, rows).

    c runs to the last nonzero amplitude, in the state's dtype: a real state
    takes the engines' real path, a complex one the complex path; cols and
    rows index the points within rho_W + margin of 0.
    """
    out = np.zeros((len(ys), len(xs)))
    c = state.amplitudes
    occupied = np.flatnonzero(c)
    if occupied.size == 0:
        return out, None
    c = c[: occupied[-1] + 1]
    rho_w = _support_extent(len(c) - 1)
    qx, qy = _SQRT2 * xs, _SQRT2 * ys
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
    out, start = _grid_start(state, spec.xs(), spec.ys(), reach)
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


def _grid_walk(state: FockVector, window: tuple, s: float) -> np.ndarray:
    """W (s = 0) or S (-1 <= s < 0) over a window by Fourier quadrature.

    window is (xs, ys, step): the column centres, the row values and the
    column step in q = sqrt2 x (0 for one column or a degenerate window).

    With q = sqrt2 x and psi(q) = sum_n c_n phi_n(q) evaluated once on
    one q-lattice of step h,

        W(x, y) = (2/pi) h sum_l conj psi(q + lh) psi(q - lh) e^{2i sqrt2 y lh},

    the trapezoid rule for (2/pi) int conj psi(q+u) psi(q-u) e^{2i sqrt2 y u} du.
    S with t = -s is W smoothed by a Gaussian of variance t/4 along x
    and y: along y it multiplies the integrand by e^{-t u^2}, along x
    (on the lattice of centres) it is one real kernel kappa, the inverse
    DFT of e^{-t k^2 / 4}.  kappa is exact for every t and is the exact
    delta at t = 0, where only the grid's own columns are computed.

    Lattice: h = step / k with k = ceil(step / h_max), so every column
    centre is a node.  Columns closer than h_max fall into classes
    ``stride`` columns apart, each on a lattice of step stride * step
    (past len(xs) columns, one lattice per column), so h stays in
    (h_max / 2, h_max] however narrow the window; step 0 takes h_max.
    Let N be the top occupied photon number, rho_W the
    ``_support_extent`` of N and rho = rho_W + sqrt(t ln(4 / (pi eps))),
    eps = _GRID_EPS.
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
    the lattice never grows with the window or with |beta|: it spans
    |q| <= rho only.
    """
    t = -float(s)
    margin = math.sqrt(t * math.log(4.0 / (math.pi * _GRID_EPS)))
    xs, ys, step_x = window
    out, start = _grid_start(state, xs, ys, margin)
    if start is None:
        return out
    c, rho_w, qx, qy, cols, rows = start
    rho = rho_w + margin

    h_max = math.pi / (rho + float(np.abs(qy[rows]).max()))
    if t > 0.0:
        h_max = min(h_max, math.pi / (2.0 * rho_w))
    if step_x >= h_max:
        h, stride = step_x / math.ceil(step_x / h_max), 1
    elif step_x > 0.0:
        # columns closer than h_max: those ``stride`` apart share a lattice,
        # and past len(xs) columns each column has a lattice of its own
        stride = min(int(h_max // step_x), len(xs))
        h = stride * step_x if stride < len(xs) else h_max
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
    # cols is one run of adjacent columns, so each class is a slice of it
    for r in range(min(stride, cols.size)):
        part = cols[r::stride]
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
    slab = max(1, _SLAB_ITEMS // (n_off + 1))
    for lo in range(0, len(sources), block):
        src = sources[lo:lo + block]
        # f[b, l] = conj psi(c_b + l h) psi(c_b - l h), built a slab of rows at a time
        f = np.empty((len(src), n_off + 1), psi.dtype)
        for a in range(0, len(src), slab):
            part = src[a:a + slab]
            f[a:a + slab] = np.conj(windows[part + n_off]) * windows[part][:, ::-1]
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
    elif kind in ("W", "S"):
        if kind == "W":
            s = 0.0
        elif s is None:
            raise ValueError("kind 'S' requires the ordering parameter s")
        check_domain(s=s)
        step = _SQRT2 * (spec.x_max - spec.x_min) / (spec.nx - 1)
        values = _grid_walk(state, (spec.xs(), spec.ys(), step), float(s))
    else:
        raise ValueError(f"unknown grid kind {kind!r}; expected Q, W, or S")
    dx = (spec.x_max - spec.x_min) / (spec.nx - 1)
    dy = (spec.y_max - spec.y_min) / (spec.ny - 1)
    riemann = float(values.sum() * dx * dy)
    return PhaseSpaceGrid(**asdict(spec), values=values, riemann_sum=riemann)
