import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from nbstates.fock import FockVector, check_domain
from nbstates.states import NBSParams, choose_n_max, nbs, nbs_amplitudes, number_state
from nbstates.squeeze import (
    SCAN_POLICY,
    VarianceSample,
    default_eta_grid,
    field_moments,
    quadrature_variances,
    refine_region_edge,
    squeezing_scan,
    variances_at,
    x_squeezing_onset,
    y_squeezing_cutoff,
)


def _nbs_field_moments_series(eta: float, m: int) -> tuple[float, float]:
    """<a> and <a^2> for nbs(eta, m) by direct binomial-sum evaluation.

    Independent of the amplitude-array route: exact integer binomials,
    term-by-term, with a geometric stopping rule.  Intended as an oracle
    for m <= a few tens and eta >= 0.01.
    """
    check_domain(eta=eta, m=m)
    if eta == 1.0:
        return 0.0, 0.0
    q = 1.0 - eta
    pref = eta ** (m + 1)

    def term_a(n):
        return math.sqrt(
            (n + 1.0) * math.comb(n, m) * math.comb(n + 1, m)
        ) * q ** (n - m)

    def term_a2(n):
        return math.sqrt(
            (n + 1.0) * (n + 2.0) * math.comb(n, m) * math.comb(n + 2, m)
        ) * q ** (n - m)

    def summed(term):
        acc = 0.0
        n = m
        while True:
            t = term(n)
            acc += t
            # past the distribution peak the ratio settles near q < 1
            if n > m + 8 and n * eta > m + 1 and t < 1e-18 * acc:
                return acc
            n += 1
            if n - m > 10_000_000:
                raise RuntimeError("series failed to terminate")

    return pref * math.sqrt(q) * summed(term_a), pref * q * summed(term_a2)


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
        v = FockVector(np.array([1.0, 1.0j]) / math.sqrt(2))
        with pytest.raises(ValueError, match="imaginary"):
            quadrature_variances(v)

    @pytest.mark.parametrize("moments", [field_moments, quadrature_variances])
    def test_zero_vector_rejected(self, moments):
        with pytest.raises(ValueError, match="squared norm 0"):
            moments(FockVector(np.zeros(3)))

    @pytest.mark.parametrize("m", [0, 1, 4, 7, 10])
    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_two_routes_agree(self, m, eta):
        a1, a2 = field_moments(nbs(NBSParams(eta, m), SCAN_POLICY))
        b1, b2 = _nbs_field_moments_series(eta, m)
        assert abs(a1.real - b1) < 1e-8
        assert abs(a2.real - b2) < 1e-8

    @pytest.mark.parametrize("eta,m", [(0.01, 40), (0.3, 1), (0.9, 7)])
    def test_scan_sums_match_plain_sums(self, eta, m, reference):
        # the scan's one-pass contractions against numpy's plain sums on the
        # same amplitudes: L terms of one sign round apart by under L ulps
        n_max, _ = choose_n_max(eta, m, SCAN_POLICY)
        c = nbs_amplitudes(np.array([eta]), m, n_max)[0]
        want = reference.field_moments(c / np.sqrt(np.sum(c * c)))
        s = variances_at(eta, m)
        tol = 4 * (n_max + 1) * np.finfo(float).eps
        assert (s.mean_a, s.mean_a2) == pytest.approx(want, rel=tol, abs=0)

    def test_series_at_eta_one(self):
        assert _nbs_field_moments_series(1.0, 3) == (0.0, 0.0)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            _nbs_field_moments_series(0.0, 1)
        with pytest.raises(ValueError):
            _nbs_field_moments_series(0.5, -1)


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

    def test_large_m_is_finite(self):
        # eta^((m+1)/2) underflows at m = 3000, eta = 0.5
        scan = squeezing_scan([3000], [0.5, 1.0])
        vx, vy = quadrature_variances(nbs(NBSParams(0.5, 3000), SCAN_POLICY))
        assert (scan.var_x[0, 0], scan.var_y[0, 0]) == pytest.approx((vx, vy), rel=1e-10)
        assert scan.var_x[0, 1] == scan.var_y[0, 1] == pytest.approx(6001 / 4, rel=1e-12)
        s = variances_at(0.5, 3000)
        assert (s.var_x, s.var_y) == pytest.approx((vx, vy), rel=1e-10)

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
        n_max, _ = choose_n_max(eta, m, SCAN_POLICY)
        state = FockVector(nbs_amplitudes(np.array([eta]), m, n_max)[0])
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

    @pytest.mark.parametrize("m", [1, 10, 40])
    def test_rows_are_single_points_in_any_order(self, m):
        # each row sits on its own eta's basis, so it equals the single-point
        # route bit for bit, and no neighbour can move it
        grid = default_eta_grid()
        scan = squeezing_scan([m], grid)
        for j in range(0, len(grid), 7):
            s = variances_at(float(grid[j]), m)
            got = (scan.mean_a[0, j], scan.mean_a2[0, j], scan.var_x[0, j], scan.var_y[0, j])
            assert got == (s.mean_a, s.mean_a2, s.var_x, s.var_y), grid[j]
        perm = np.random.default_rng(m).permutation(len(grid))
        shuffled = squeezing_scan([m], grid[perm])
        for name in ("mean_a", "mean_a2", "var_x", "var_y"):
            assert np.array_equal(getattr(shuffled, name), getattr(scan, name)[:, perm]), name

    @pytest.mark.parametrize("m", [0, 1, 5, 10, 40])
    def test_rows_cut_at_their_own_tail_match_the_untruncated_family(self, m, reference):
        # a row's basis leaves a tail just under SCAN_POLICY.tail_eps; the
        # smallest etas, the mid-range rows where a small basis barely meets
        # it (the worst, 7.5e-11 for <a^2> at m = 0), and a few large etas
        grid = default_eta_grid()
        etas = np.concatenate((grid[grid <= 0.08 + 1e-12], np.arange(0.5, 0.755, 0.01),
                               [0.9, 0.999]))
        scan = squeezing_scan([m], etas)
        for j, eta in enumerate(etas):
            eta = float(eta)
            c = reference.nbs_amplitudes(eta, m, reference.basis_for(eta, m))
            r1, r2 = reference.field_moments(c)
            scale = 1e-10 * max(1.0, reference.nbs_mean(eta, m))
            assert scan.mean_a[0, j] == pytest.approx(r1, rel=1e-10, abs=0), eta
            assert scan.mean_a2[0, j] == pytest.approx(r2, rel=1e-10, abs=0), eta
            # var_y is <N> - <a^2> and far smaller than either at small eta,
            # so the variances are held to the scale of <N>
            vx = 0.25 + (reference.nbs_mean(eta, m) + r2 - 2.0 * r1 * r1) / 2.0
            vy = 0.25 + (reference.nbs_mean(eta, m) - r2) / 2.0
            assert scan.var_x[0, j] == pytest.approx(vx, rel=0, abs=scale), eta
            assert scan.var_y[0, j] == pytest.approx(vy, rel=0, abs=scale), eta

    @pytest.mark.parametrize("fine,mib", [(False, 4), (True, 6)])
    def test_memory_stays_in_chunks(self, fine, mib):
        # the default grid's runs are short; 400 etas in [0.01, 0.02] share
        # bases of 2,688 and 5,376, 61 MiB in one piece, so only chunks of
        # 2 MiB (two arrays of that size alive at once) keep them small
        grid = np.linspace(0.01, 0.02, 400) if fine else default_eta_grid()
        squeezing_scan([10], grid[:3])  # first-call imports and caches
        tracemalloc.start()
        try:
            squeezing_scan([10], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


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
