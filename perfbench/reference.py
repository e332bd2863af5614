"""Reference computations made without any of the package's engines.

Amplitudes, tails and moments come from ``scipy.stats.nbinom`` shifted by
m.  Wigner values come from the Fourier integral of the wave function
psi(q) = sum_n c_n phi_n(q), with the Hermite functions phi_n evaluated
by a rescaled forward recursion; s-ordered values from the same wave
function, smoothed by a Gaussian and written as a bilinear form
psi^T M psi on a lattice; Husimi values from the coherent-state overlap
summed in the log domain.  ``self_test`` checks each of them against
closed forms, so a wrong reference cannot pass a wrong program.

Phase-space conventions follow the package: beta = x + iy,
q = (a + a^dagger)/sqrt(2) = sqrt(2) x, and every distribution
integrates to 1 over dx dy.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_PI_4 = 0.25 * math.log(math.pi)
_RESCALE = 1e150
_LOG_RESCALE = math.log(_RESCALE)


def _nbinom():
    # imported on first use, so that a process which only imports this
    # module carries no scipy in its memory
    from scipy.stats import nbinom

    return nbinom


def nbs_amplitudes(eta: float, m: int, n_max: int) -> np.ndarray:
    """c_n = sqrt(P(n)) for n = 0..n_max, P the negative binomial law."""
    n = np.arange(n_max + 1)
    return np.sqrt(_nbinom().pmf(n - m, m + 1, eta))


def nbs_tail(eta: float, m: int, n_max: int) -> float:
    """Probability mass above n_max."""
    return float(_nbinom().sf(n_max - m, m + 1, eta))


def nbs_mean(eta: float, m: int) -> float:
    return float(_nbinom().mean(m + 1, eta)) + m


def nbs_variance(eta: float, m: int) -> float:
    return float(_nbinom().var(m + 1, eta))


def basis_for(eta: float, m: int, tail: float = 1e-18) -> int:
    """A basis top above which the reference law holds less than ``tail``."""
    return max(m + 8, int(_nbinom().isf(tail, m + 1, eta)) + m + 8)


def field_moments(c: np.ndarray) -> tuple[float, float]:
    """<a> and <a^2> of real normalised amplitudes c."""
    n = np.arange(len(c), dtype=float)
    a1 = float(np.sum(np.sqrt(n[1:]) * c[:-1] * c[1:]))
    a2 = float(np.sum(np.sqrt(n[1:-1] * n[2:]) * c[:-2] * c[2:]))
    return a1, a2


def wave_function(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """psi(q) = sum_n c_n phi_n(q) for real c.

    The recursion carries a per-point log scale, so phi_0 = e^{-q^2/2}
    never underflows and large-n values never overflow.
    """
    q = np.asarray(q, dtype=float)
    log_scale = -0.5 * q * q - _LOG_PI_4
    f_prev = np.zeros_like(q)
    f = np.ones_like(q)
    acc = c[0] * f
    for n in range(len(c) - 1):
        f_next = math.sqrt(2.0 / (n + 1)) * q * f - math.sqrt(n / (n + 1.0)) * f_prev
        f_prev, f = f, f_next
        acc += c[n + 1] * f
        big = np.abs(f) > _RESCALE
        if big.any():
            f[big] /= _RESCALE
            f_prev[big] /= _RESCALE
            acc[big] /= _RESCALE
            log_scale[big] += _LOG_RESCALE
    out = np.zeros_like(q)
    nz = acc != 0.0
    out[nz] = np.sign(acc[nz]) * np.exp(np.log(np.abs(acc[nz])) + log_scale[nz])
    return out


def _q_extent(c: np.ndarray) -> float:
    # psi is below e^{-32} past the largest turning point plus eight
    return math.sqrt(2.0 * (len(c) - 1) + 1.0) + 8.0


def wigner(c: np.ndarray, x: float, y: float, refine: float = 1.0) -> float:
    """(2/pi) int psi(sqrt2 x + u) psi(sqrt2 x - u) cos(2 sqrt2 y u) du."""
    band = 2.0 * math.sqrt(2.0 * len(c) + 1.0) + 2.0 * math.sqrt(2.0) * abs(y)
    h = 2.0 * math.pi / (1.5 * band + 20.0) / refine
    u_top = _q_extent(c) + math.sqrt(2.0) * abs(x)
    u = np.arange(0.0, u_top + h, h)
    q0 = math.sqrt(2.0) * x
    f = wave_function(c, q0 + u) * wave_function(c, q0 - u)
    f *= np.cos(2.0 * math.sqrt(2.0) * y * u)
    # even integrand: the half-line trapezoid counts u = 0 once
    total = 2.0 * h * (np.sum(f) - 0.5 * f[0])
    return 2.0 / math.pi * float(total)


def s_ordered(c: np.ndarray, x: float, y: float, s: float,
              refine: float = 1.0) -> float:
    """Gaussian-smoothed Wigner function for s in [-1, 0).

    S = W convolved with exp(-2|beta - gamma|^2/|s|) 2/(pi|s|); in the
    variables a, b of psi(a) psi(b) this is one real bilinear form.
    """
    if not -1.0 <= s < 0.0:
        raise ValueError(f"s must lie in [-1, 0), got {s}")
    t = -s
    band = math.sqrt(2.0 * len(c) + 1.0) + math.sqrt(2.0) * abs(y) + 6.0 / math.sqrt(t)
    h = math.pi / band / refine
    top = _q_extent(c)
    a = np.arange(-top, top + h, h)
    psi = wave_function(c, a)
    keep = np.abs(psi) > 1e-300
    a, psi = a[keep], psi[keep]
    pref = h * h / (math.pi * math.sqrt(2.0)) / math.sqrt(math.pi * t / 2.0)
    centre = 2.0 * math.sqrt(2.0) * x
    total = 0.0
    for lo in range(0, len(a), 256):
        ai = a[lo:lo + 256, None]
        d = ai - a[None, :]
        ssum = ai + a[None, :] - centre
        kern = np.exp(-ssum * ssum / (4.0 * t) - t * d * d / 4.0)
        kern *= np.cos(math.sqrt(2.0) * y * d)
        total += float(psi[lo:lo + 256] @ (kern @ psi))
    return pref * total


def husimi(c: np.ndarray, x: float, y: float) -> float:
    """(1/pi) |<beta|psi>|^2 with the overlap terms built in the log domain."""
    from scipy.special import gammaln

    r2 = x * x + y * y
    n = np.arange(len(c))
    if r2 == 0.0:
        return float(c[0] ** 2 / math.pi)
    nz = c != 0.0
    log_mag = (np.log(np.abs(c[nz])) + n[nz] * 0.5 * math.log(r2)
               - 0.5 * gammaln(n[nz] + 1.0) - 0.5 * r2)
    phase = -n[nz] * math.atan2(y, x)
    amp = np.sign(c[nz]) * np.exp(log_mag)
    re = float(np.sum(amp * np.cos(phase)))
    im = float(np.sum(amp * np.sin(phase)))
    return (re * re + im * im) / math.pi


def distribution(c: np.ndarray, x: float, y: float, s: float) -> float:
    """The s-ordered distribution for any s in [-1, 0]."""
    if s == 0.0:
        return wigner(c, x, y)
    if s == -1.0:
        return husimi(c, x, y)
    return s_ordered(c, x, y, s)


def self_test() -> list[str]:
    """Check every reference against closed forms; returns the failures."""
    bad = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            bad.append(f"{name}: got {got!r}, closed form {want!r}")

    vac = np.array([1.0])
    one = np.array([0.0, 1.0])
    for x, y in ((0.0, 0.0), (0.4, -0.3), (1.1, 0.7)):
        r2 = x * x + y * y
        expect(f"vacuum W({x},{y})", wigner(vac, x, y),
               2.0 / math.pi * math.exp(-2.0 * r2), 1e-13)
        expect(f"vacuum Q({x},{y})", husimi(vac, x, y),
               math.exp(-r2) / math.pi, 1e-14)
        for s in (-0.3, -0.8, -1.0):
            expect(f"vacuum S({x},{y};{s})", s_ordered(vac, x, y, s),
                   2.0 / (math.pi * (1.0 - s)) * math.exp(-2.0 * r2 / (1.0 - s)),
                   1e-12)
    expect("|1> W(0)", wigner(one, 0.0, 0.0), -2.0 / math.pi, 1e-13)
    s = -0.5
    expect("|1> S(0)", s_ordered(one, 0.0, 0.0, s),
           2.0 / (math.pi * (1.0 - s)) * (1.0 + s) / (s - 1.0), 1e-12)
    for eta, m in ((0.9, 1), (0.3, 2), (0.05, 7)):
        n_max = basis_for(eta, m)
        c = nbs_amplitudes(eta, m, n_max)
        p = c * c
        mean = float(np.sum(np.arange(n_max + 1) * p))
        expect(f"mean({eta},{m})", mean, (m + 1) / eta - 1.0, 1e-9 * (m + 1) / eta)
        expect(f"norm({eta},{m})", float(p.sum()) + nbs_tail(eta, m, n_max), 1.0, 1e-12)
    # a large state: the s -> -1 bilinear form must meet the overlap sum,
    # and a finer lattice must not move either quadrature
    c = nbs_amplitudes(0.1, 5, basis_for(0.1, 5))
    x, y = 2.3, -1.7
    expect("Q vs S(-1) at n_max %d" % (len(c) - 1), s_ordered(c, x, y, -1.0),
           husimi(c, x, y), 1e-12)
    expect("W lattice refinement", wigner(c, x, y), wigner(c, x, y, refine=1.7), 1e-12)
    expect("S lattice refinement", s_ordered(c, x, y, -0.2),
           s_ordered(c, x, y, -0.2, refine=1.7), 1e-12)
    return bad


if __name__ == "__main__":
    failures = self_test()
    print("\n".join(failures) or "reference self-test passed")
    raise SystemExit(1 if failures else 0)
