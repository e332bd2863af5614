import math

import numpy as np
import pytest
from mpmath import mp

from nbstates.fock import FockVector
from nbstates.states import NBSParams, choose_n_max, nbs, nbs_amplitudes, number_state
from nbstates.squeeze import (
    SCAN_POLICY,
    VarianceSample,
    default_eta_grid,
    field_moments,
    nbs_field_moments_series,
    quadrature_variances,
    refine_region_edge,
    squeezing_scan,
    variances_at,
    x_squeezing_onset,
    y_squeezing_cutoff,
)


def mp_variances(eta, m, dps=40, tol="1e-36"):
    """Independent high-precision variances via exact term sums."""
    with mp.workdps(dps):
        e = mp.mpf(eta)
        q = 1 - e
        tol = mp.mpf(tol)

        def prob(n):
            return mp.binomial(n, m) * e ** (m + 1) * q ** (n - m)

        s0 = s1 = s2 = sa = sa2 = mp.mpf(0)
        n = m
        while True:
            p = prob(n)
            s0 += p
            s1 += n * p
            s2 += n * n * p
            sa += mp.sqrt((n + 1) * prob(n) * prob(n + 1))
            sa2 += mp.sqrt((n + 1) * (n + 2) * prob(n) * prob(n + 2))
            if n > m + 8 and n * e > m + 1 and p < tol * s0:
                break
            n += 1
        mean_n = s1 / s0
        a1 = sa / s0
        a2 = sa2 / s0
        vx = mp.mpf(1) / 4 + (mean_n + a2 - 2 * a1 * a1) / 2
        vy = mp.mpf(1) / 4 + (mean_n - a2) / 2
        return float(vx), float(vy)


class TestMoments:
    def test_number_state_moments_vanish(self):
        a1, a2 = field_moments(number_state(4, 20))
        assert a1 == 0 and a2 == 0

    def test_number_state_variances(self):
        for m in [0, 1, 5]:
            vx, vy = quadrature_variances(number_state(m, 20))
            assert vx == pytest.approx((2 * m + 1) / 4, abs=1e-14)
            assert vy == pytest.approx((2 * m + 1) / 4, abs=1e-14)

    def test_number_state_limit_of_family(self):
        vx, vy = quadrature_variances(nbs(NBSParams(1.0, 5)))
        assert vx == pytest.approx(11 / 4, abs=1e-12)
        assert vy == pytest.approx(11 / 4, abs=1e-12)

    def test_near_vacuum_moments_small(self):
        a1, a2 = field_moments(nbs(NBSParams(0.999999, 0)))
        assert abs(a1) < 2e-3 and abs(a2) < 2e-6

    def test_complex_moment_rejected(self):
        v = FockVector(np.array([1.0, 1.0j]) / math.sqrt(2), 1)
        with pytest.raises(ValueError, match="imaginary"):
            quadrature_variances(v)

    @pytest.mark.parametrize("moments", [field_moments, quadrature_variances])
    def test_zero_vector_rejected(self, moments):
        with pytest.raises(ValueError, match="squared norm 0"):
            moments(FockVector(np.zeros(3), 2))

    @pytest.mark.parametrize("m", [0, 1, 4, 7, 10])
    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_two_routes_agree(self, m, eta):
        a1, a2 = field_moments(nbs(NBSParams(eta, m), SCAN_POLICY))
        b1, b2 = nbs_field_moments_series(eta, m)
        assert abs(a1.real - b1) < 1e-8
        assert abs(a2.real - b2) < 1e-8

    def test_series_at_eta_one(self):
        assert nbs_field_moments_series(1.0, 3) == (0.0, 0.0)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            nbs_field_moments_series(0.0, 1)
        with pytest.raises(ValueError):
            nbs_field_moments_series(0.5, -1)


class TestVarianceSample:
    def test_uncertainty_enforced(self):
        with pytest.raises(ValueError, match="1/16"):
            VarianceSample(0.5, 0, 0.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError, match="positive"):
            VarianceSample(0.5, 0, 0.0, 0.0, -0.25, 0.25)

    def test_valid_sample(self):
        s = VarianceSample(0.5, 0, 0.1, 0.05, 0.3, 0.26)
        assert s.var_x * s.var_y >= 1 / 16 - 1e-12


class TestScan:
    def test_eta_one_column_is_number_state(self):
        scan = squeezing_scan([0, 2, 5], [0.4, 1.0])
        for i, m in enumerate([0, 2, 5]):
            assert scan.var_x[i, 1] == pytest.approx((2 * m + 1) / 4, abs=1e-12)
            assert scan.var_y[i, 1] == pytest.approx((2 * m + 1) / 4, abs=1e-12)

    def test_heisenberg_everywhere(self):
        scan = squeezing_scan(range(0, 9), np.arange(0.05, 1.0001, 0.05))
        assert np.all(scan.var_x * scan.var_y >= 1 / 16 - 1e-12)
        assert np.all(scan.var_x > 0) and np.all(scan.var_y > 0)

    def test_matches_state_route(self):
        scan = squeezing_scan([3], [0.35])
        vx, vy = quadrature_variances(nbs(NBSParams(0.35, 3), SCAN_POLICY))
        assert scan.var_x[0, 0] == pytest.approx(vx, abs=1e-12)
        assert scan.var_y[0, 0] == pytest.approx(vy, abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 7, 31])
    @pytest.mark.parametrize("eta", [0.013, 0.35, 0.6, 0.999])
    def test_point_equals_the_state_route_on_the_scan_basis(self, m, eta):
        # one kernel serves both routes; a FockVector holds complex
        # amplitudes, whose sums round apart from the real block's, by
        # about an ulp of the moments (mean photon number (m + 1) / eta)
        n_max = choose_n_max(eta, m, SCAN_POLICY)
        state = FockVector(nbs_amplitudes(np.array([eta]), m, n_max)[0], n_max)
        s = variances_at(eta, m)
        vx, vy = quadrature_variances(state)
        a1, a2 = field_moments(state)
        got = (s.var_x, s.var_y, s.mean_a, s.mean_a2)
        assert got == pytest.approx((vx, vy, a1.real, a2.real), rel=0, abs=1e-14 * (m + 1) / eta)

    def test_m_values_may_be_an_iterator(self):
        scan = squeezing_scan((m for m in [2, 0]), [0.5])
        assert scan.m_values == (2, 0)

    def test_samples_iterator(self):
        scan = squeezing_scan([1], [0.3, 0.7])
        got = list(scan.samples())
        assert len(got) == 2
        assert got[0].m == 1 and got[0].eta == 0.3

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            squeezing_scan([1], [])
        with pytest.raises(ValueError):
            squeezing_scan([1], [0.0, 0.5])
        with pytest.raises(ValueError):
            squeezing_scan([-1], [0.5])

    def test_unsorted_eta_handled(self):
        scan = squeezing_scan([2], [0.9, 0.2, 0.5])
        direct = [variances_at(e, 2).var_x for e in [0.9, 0.2, 0.5]]
        np.testing.assert_allclose(scan.var_x[0], direct, atol=1e-13)


class TestCriticalValues:
    """The x-quadrature squeezing onset and the claimed y cutoff.

    Measured behavior at grid step 1e-3 over eta in [0.01, 0.999]:
    x squeezing appears first at m = 7; y squeezing persists for every
    m up to 40, i.e. no y cutoff exists in that range (the minimum over
    eta keeps falling as m grows, reached near the small-eta edge).
    """

    def test_x_onset_at_seven(self):
        grid = default_eta_grid()
        scan = squeezing_scan(range(1, 11), grid)
        assert x_squeezing_onset(scan) == 7
        mins = scan.min_var_x()
        for i, m in enumerate(scan.m_values):
            if m <= 6:
                assert mins[i] >= 0.25
            else:
                assert mins[i] < 0.25

    def test_x_region_edge_refines(self):
        edge = refine_region_edge(7, "x", 0.4, 0.593)
        s_in = variances_at(edge + 1e-4, 7)
        s_out = variances_at(edge - 1e-4, 7)
        assert (s_in.var_x - 0.25) * (s_out.var_x - 0.25) < 0

    def test_y_squeezing_persists_past_claimed_cutoff(self):
        grid = default_eta_grid()
        scan = squeezing_scan([20, 31, 32, 36, 40], grid)
        assert np.all(scan.min_var_y() < 0.25)
        assert y_squeezing_cutoff(scan) is None
        # deeper minimum as m grows, no sign of a cutoff
        assert np.all(np.diff(scan.min_var_y()) < 0)

    @pytest.mark.parametrize(
        "eta,m", [(0.3, 32), (0.2, 40), (0.5, 7), (0.593, 7)]
    )
    def test_high_precision_oracle(self, eta, m):
        s = variances_at(eta, m)
        vx, vy = mp_variances(eta, m)
        assert s.var_x == pytest.approx(vx, abs=1e-10)
        assert s.var_y == pytest.approx(vy, abs=1e-10)

    def test_oracle_confirms_y_squeezing_at_claimed_cutoff(self):
        _, vy = mp_variances(0.3, 32)
        assert vy < 0.25


class TestRefinement:
    def test_no_crossing_raises(self):
        with pytest.raises(ValueError, match="crossing"):
            refine_region_edge(1, "x", 0.3, 0.7)

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            refine_region_edge(7, "z", 0.4, 0.6)
