import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import jv

from nbstates.dynamics import fidelity
from nbstates.fock import (
    FockVector,
    TruncationError,
    TruncationPolicy,
    norm,
)
from nbstates.states import NBSParams, nbs, number_state
from nbstates.su11 import (
    k_minus,
    k_plus,
    k_zero,
    ladder_residual,
    nonlinear_eigen_residual,
    sech_squared,
    su11_displace,
)
from nbstates._expm import (
    bessel_j,
    chebyshev_terms,
    expm_apply_skew,
    skew_norm1,
)


def interior_vector(m, n_max, seed):
    rng = np.random.default_rng(seed)
    amps = np.zeros(n_max + 1, dtype=complex)
    k = n_max - 3 - m + 1
    amps[m : n_max - 2] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    amps /= np.linalg.norm(amps)
    return FockVector(amps, n_max)


class TestAlgebraAction:
    def test_plus_on_lowest(self):
        # sqrt((m+1) * 1) |m+1> from |m>
        for m in [0, 1, 2, 5]:
            v = k_plus(number_state(m, 12), m)
            expect = np.zeros(13)
            expect[m + 1] = math.sqrt(m + 1)
            np.testing.assert_allclose(v.amplitudes, expect, atol=1e-15)

    def test_minus_annihilates_lowest(self):
        for m in [0, 1, 3, 6]:
            v = k_minus(number_state(m, 12), m)
            assert norm(v) == 0.0

    def test_minus_plus_gives_twice_bargmann(self):
        # K- K+ |m> = 2k |m> with k = (m+1)/2
        for m in [0, 1, 2, 4]:
            v = number_state(m, 12)
            w = k_minus(k_plus(v, m), m)
            np.testing.assert_allclose(
                w.amplitudes, (m + 1) * v.amplitudes, atol=1e-13
            )

    def test_zero_eigenvalues(self):
        m = 3
        for n in [3, 5, 9]:
            v = number_state(n, 12)
            w = k_zero(v, m)
            np.testing.assert_allclose(
                w.amplitudes, (n - (m - 1) / 2) * v.amplitudes, atol=1e-15
            )

    def test_repeated_raising_closed_form(self):
        # K+^n |m> = sqrt(n! (m+n)! / m!) |m+n>
        m, n = 2, 4
        v = number_state(m, 16)
        for _ in range(n):
            v = k_plus(v, m)
        expect = math.sqrt(
            math.factorial(n) * math.factorial(m + n) / math.factorial(m)
        )
        assert abs(v.amplitudes[m + n] - expect) < 1e-12 * expect
        off = np.delete(v.amplitudes, m + n)
        assert np.max(np.abs(off)) == 0.0

    def test_subspace_guard(self):
        v = number_state(1, 8)
        with pytest.raises(ValueError):
            k_plus(v, 3)
        with pytest.raises(ValueError):
            k_minus(v, 2)

    def test_generators_on_the_lowest_weight(self):
        v = number_state(2, 10)
        assert norm(k_minus(v, 2)) == 0.0
        for op in (k_plus, k_minus, k_zero):
            with pytest.raises(ValueError, match="m must be a nonnegative integer, got -1"):
                op(v, -1)


class TestCommutators:
    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_zero_plus(self, m, seed):
        v = interior_vector(m, 48, seed)
        lhs = (
            k_zero(k_plus(v, m), m).amplitudes
            - k_plus(k_zero(v, m), m).amplitudes
        )
        rhs = k_plus(v, m).amplitudes
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(rhs), 1.0)

    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_zero_minus(self, m, seed):
        v = interior_vector(m, 48, seed)
        lhs = (
            k_zero(k_minus(v, m), m).amplitudes
            - k_minus(k_zero(v, m), m).amplitudes
        )
        rhs = -k_minus(v, m).amplitudes
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(rhs), 1.0)

    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_minus_plus(self, m, seed):
        v = interior_vector(m, 48, seed)
        lhs = (
            k_minus(k_plus(v, m), m).amplitudes
            - k_plus(k_minus(v, m), m).amplitudes
        )
        rhs = 2.0 * k_zero(v, m).amplitudes
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


class TestLadderResidual:
    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    def test_eigen_relation(self, eta, m):
        assert ladder_residual(eta, m) < 1e-10

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("m", [0, 2, 4, 6])
    def test_nonlinear_lowering(self, eta, m):
        assert nonlinear_eigen_residual(eta, m) < 1e-8

    def test_residuals_on_the_basis_of_nbs(self):
        # NB(0.05, 100) needs the whole default 4096 cap, so the residuals
        # must ask for no larger basis than nbs.  The ladder residual is
        # absolute on N v, of norm <N> ~ 2000: rounding alone gives 3e-13
        assert nbs(NBSParams(0.05, 100)).n_max == 4096
        assert ladder_residual(0.05, 100) <= 1e-12
        assert nonlinear_eigen_residual(0.05, 100) <= 1e-13


class TestDisplace:
    def test_zero_argument_is_number_state(self):
        v = su11_displace(0.0, 3)
        assert abs(abs(v.amplitudes[3]) - 1.0) < 1e-14
        assert norm(v) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "xi,m", [(0.8, 0), (0.8, 1), (0.8, 3), (1.5, 2)]
    )
    def test_matches_nbs(self, xi, m):
        eta = 1.0 - math.tanh(xi) ** 2
        v = su11_displace(xi, m)
        target = nbs(NBSParams(eta, m))
        assert fidelity(v, target) > 1.0 - 1e-10

    @pytest.mark.parametrize("m,eta", [(0, 0.2), (3, 0.5), (6, 0.8)])
    def test_matches_nbs_from_eta(self, m, eta):
        xi = math.atanh(math.sqrt(1.0 - eta))
        v = su11_displace(xi, m)
        target = nbs(NBSParams(eta, m))
        assert fidelity(v, target) > 1.0 - 1e-10

    def test_norm_preserved_at_large_argument(self):
        v = su11_displace(3.0, 0)
        assert abs(norm(v) - 1.0) < 1e-12

    def test_lowest_component_prefactor(self):
        # <m|result> = sech(xi)^(m+1)
        xi, m = 0.9, 4
        v = su11_displace(xi, m)
        expect = (1.0 / math.cosh(xi)) ** (m + 1)
        assert abs(v.amplitudes[m].real - expect) < 1e-12
        assert np.max(np.abs(v.amplitudes[:m])) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            su11_displace(math.inf, 0)
        with pytest.raises(ValueError):
            su11_displace(1.0, -2)


class TestDisentangle:
    # exp(g K+) (1-g^2)^K0 exp(-g K-) |m>, g = tanh(alpha), is term by term
    # nbs(sech^2 alpha, m): K- |m> = 0, and K+^k |m> / k! = sqrt(C(m+k, k)) |m+k>
    @staticmethod
    def residual(alpha, m):
        pol = TruncationPolicy(tail_eps=1e-26)
        lhs = su11_displace(alpha, m, pol)
        rhs = nbs(NBSParams(sech_squared(alpha), m), pol)
        assert lhs.n_max == rhs.n_max
        return float(np.linalg.norm(lhs.amplitudes - rhs.amplitudes))

    def test_small_argument(self):
        assert self.residual(0.5, 0) < 1e-10

    def test_moderate_argument(self):
        assert self.residual(1.0, 3) < 1e-8

    @pytest.mark.parametrize("alpha,m", [(0.3, 1), (0.7, 2)])
    def test_grid(self, alpha, m):
        assert self.residual(alpha, m) < 1e-9


class TestExpmCore:
    def test_against_dense_expm(self):
        rng = np.random.default_rng(11)
        n = 40
        up = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v /= np.linalg.norm(v)
        g = np.zeros((n + 1, n + 1), dtype=complex)
        for i in range(n):
            g[i + 1, i] = up[i]
            g[i, i + 1] = -np.conj(up[i])
        expect = expm(g) @ v
        got = expm_apply_skew(up, v)
        assert np.linalg.norm(got - expect) < 1e-12

    @pytest.mark.parametrize("rho", [1e-3, 0.5, 5.0, 50.0, 500.0, 24573.0])
    def test_bessel_values_against_scipy(self, rho):
        k_top = chebyshev_terms(rho, 1e-13)
        got = bessel_j(rho, k_top)
        expect = jv(np.arange(k_top + 1), rho)
        # the backward recurrence crosses ~rho oscillating orders
        assert np.max(np.abs(got - expect)) < (2e-14 if rho <= 500 else 3e-13)

    @pytest.mark.parametrize("rho", [1e-6, 0.5, 5.0, 50.0, 500.0])
    @pytest.mark.parametrize("tol", [1e-15, 1e-13, 1e-8])
    def test_term_count_is_the_smallest_meeting_its_bound(self, rho, tol):
        def tail(k_top):
            # 2 sum_{k > k_top} (rho/2)^k / k!, summed to 60 digits past it
            with mpmath.workdps(40):
                half = mpmath.mpf(rho) / 2
                term = half ** (k_top + 1) / mpmath.factorial(k_top + 1)
                total, k = mpmath.mpf(0), k_top + 1
                while term > total * mpmath.mpf(10) ** -60:
                    total += term
                    k += 1
                    term *= half / k
                return 2 * total

        k_top = chebyshev_terms(rho, tol)
        assert tail(k_top) < tol
        assert tail(k_top - 1) >= tol

    def test_term_count_at_zero_norm(self):
        assert chebyshev_terms(0.0, 1e-13) == 0

    @staticmethod
    def _band(n, rho, complex_band, seed):
        rng = np.random.default_rng(seed)
        up = rng.standard_normal(n)
        v = rng.standard_normal(n + 1)
        if complex_band:
            up = up + 1j * rng.standard_normal(n)
            v = v + 1j * rng.standard_normal(n + 1)
        up *= rho / skew_norm1(up)
        g = np.diag(up, -1) - np.diag(np.conj(up), 1)
        return up, v / np.linalg.norm(v), g

    @pytest.mark.parametrize("complex_band", [False, True])
    @pytest.mark.parametrize("n,rho", [(20, 1e-6), (40, 3.0), (60, 300.0)])
    def test_bands_against_dense_expm(self, complex_band, n, rho):
        up, v, g = self._band(n, rho, complex_band, seed=n)
        assert skew_norm1(up) == pytest.approx(rho)
        got = expm_apply_skew(up, v)
        assert got.dtype == (complex if complex_band else np.float64)
        assert np.linalg.norm(got - expm(g) @ v) < 1e-12

    @pytest.mark.parametrize("scale", [0.0, 1e-310, 5e-324])
    def test_negligible_band_returns_the_vector(self, scale):
        # on subnormal bands 2/rho overflows and rho/2 underflows; K = 0 needs
        # neither
        v = np.array([0.6, 0.0, 0.8j])
        got = expm_apply_skew(np.full(2, scale), v)
        assert np.array_equal(got, v)
        assert got is not v

    def test_bessel_values_at_tiny_argument(self):
        got = bessel_j(1e-300, 2)
        assert np.array_equal(got, [1.0, 5e-301, 0.0])

    def test_real_input_stays_real(self):
        up, v, _ = self._band(50, 40.0, False, seed=3)
        got = expm_apply_skew(up, v)
        assert got.dtype == np.float64
        # the complex path agrees to rounding on the same real input
        as_complex = expm_apply_skew(up.astype(complex), v.astype(complex))
        assert as_complex.dtype == complex
        assert np.abs(as_complex - got).max() < 1e-13

    def test_large_displacement_matches_the_family(self):
        # the Taylor-substep propagator deviated by 1.503e-9 here, on n_max 4096
        v = su11_displace(3.0, 0)
        target = nbs(NBSParams(sech_squared(3.0), 0))
        assert v.n_max == target.n_max
        assert np.linalg.norm(v.amplitudes - target.amplitudes) < 1.51e-9

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 200),
        rho=st.floats(0.0, 500.0),
        complex_band=st.booleans(),
        tol=st.sampled_from([1e-15, 1e-13, 1e-10, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_bands_within_tol(self, n, rho, complex_band, tol, seed):
        up, v, g = self._band(n, rho, complex_band, seed)
        got = expm_apply_skew(up, v, tol)
        # the reference, exp(G) from the eigenvectors of the Hermitian iG,
        # rounds at about rho * eps on its own; scipy's scaling-and-squaring
        # expm does not (2.5e-12 on the 2 x 2 band of norm 251)
        lam, vecs = np.linalg.eigh(1j * g)
        want = vecs @ (np.exp(-1j * lam) * (vecs.conj().T @ v))
        slack = tol + 1e-14 * max(rho, 1.0)
        assert np.linalg.norm(got - want) < slack
        assert abs(np.linalg.norm(got) - 1.0) < slack


class TestSechSquared:
    @pytest.mark.parametrize("xi", [0.0, 0.3, -1.2, 5.0])
    def test_matches_one_minus_tanh_squared(self, xi):
        assert sech_squared(xi) == pytest.approx(1.0 - math.tanh(xi) ** 2, rel=1e-13)

    @pytest.mark.parametrize("xi", [19.5, 50.0, 300.0])
    def test_keeps_precision_where_tanh_cancels(self, xi):
        # 1 - tanh^2 is exactly 0 here; sech^2 = 4 e^{-2 xi} to double precision
        assert sech_squared(xi) == pytest.approx(4.0 * math.exp(-2.0 * xi), rel=1e-14)

    def test_underflow_raises(self):
        with pytest.raises(TruncationError, match="underflows"):
            sech_squared(1000.0)
