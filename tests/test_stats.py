import math
from fractions import Fraction

import numpy as np
import pytest

from nbstates.fock import TruncationError, TruncationPolicy
from nbstates.phasespace import PhaseSpacePoint, q_function_closed
from nbstates.states import NBSParams, choose_n_max, geometric_state, nbs, number_state
from nbstates.stats import (
    factorial_moments,
    find_sign_change,
    generating_function,
    mandel_q,
    mandel_q_numeric,
    stats_report,
    sub_poissonian_threshold,
)


class TestGeneratingFunction:
    def test_normalization_at_one(self):
        for eta, m in [(0.3, 0), (0.5, 2), (0.9, 7), (1.0, 4)]:
            assert generating_function(1.0, eta, m) == 1.0

    @pytest.mark.parametrize("m", [1, 24, 3000, 10**13, 10**16])
    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.3, 0.9])
    def test_exactly_one_where_the_power_amplifies_rounding(self, eta, m):
        # the closed form gives 1 + 6.7e-13 at (0.9, 3000) and 9.21 at (0.9, 1e16)
        assert generating_function(1.0, eta, m) == 1.0

    def test_value_m0(self):
        assert generating_function(0.5, 0.5, 0) == pytest.approx(2 / 3)

    def test_ground_probability(self):
        for eta in (0.3, 0.8):
            assert generating_function(0.0, eta, 0) == pytest.approx(eta)

    def test_pole_raises(self):
        with pytest.raises(ValueError, match="pole"):
            generating_function(2.0, 0.5, 1)

    def test_derivatives_match_factorial_moments(self):
        eta, m = 0.4, 3
        f1, f2 = factorial_moments(eta, m)
        h = 1e-5
        g = lambda lam: generating_function(lam, eta, m)
        d1 = (g(1 + h) - g(1 - h)) / (2 * h)
        d2 = (g(1 + h) - 2 * g(1.0) + g(1 - h)) / h**2
        assert d1 == pytest.approx(f1, abs=1e-5)
        assert d2 == pytest.approx(f2, abs=1e-3)


class TestFactorialMoments:
    def test_known_point(self):
        f1, f2 = factorial_moments(0.5, 1)
        assert f1 == pytest.approx(3.0)
        assert f2 == pytest.approx(10.0)

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_eta_one_reduces_to_number_state(self, m):
        f1, f2 = factorial_moments(1.0, m)
        assert f1 == pytest.approx(m)
        assert f2 == pytest.approx(m * (m - 1))

    @pytest.mark.parametrize("eta", [1e-170, 1e-160, 5e-324])
    def test_second_moment_past_the_float_range_raises(self, eta):
        # <N(N-1)> passes the float range, and eta**2 underflows to 0 below
        # eta ~ 1.5e-162
        with pytest.raises(TruncationError, match="overflows a float"):
            factorial_moments(eta, 0)

    def test_first_moment_vs_distribution(self):
        eta, m = 0.35, 2
        v = nbs(NBSParams(eta, m), TruncationPolicy(tail_eps=1e-26))
        mean = float(np.sum(np.arange(v.n_max + 1) * v.probabilities()))
        assert mean == pytest.approx(factorial_moments(eta, m)[0], abs=1e-8)


class TestMandelQ:
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_number_state_limit(self, m):
        assert mandel_q(1.0, m) == pytest.approx(-1.0)

    def test_geometric_super_poissonian(self):
        # m = 0 gives Q = (1-eta)/eta, always positive below eta = 1
        assert mandel_q(0.5, 0) == pytest.approx(1.0)

    def test_known_negative_value(self):
        assert mandel_q(0.8, 3) == pytest.approx(-0.6875)

    def test_degenerate_vacuum_flagged(self):
        assert mandel_q(1.0, 0) == 0.0
        rep = stats_report(1.0, 0)
        assert rep.degenerate_vacuum

    def test_numeric_geometric(self):
        v = geometric_state(0.5, TruncationPolicy(tail_eps=1e-26))
        assert mandel_q_numeric(v) == pytest.approx(1.0, abs=1e-8)

    def test_numeric_number_state(self):
        assert mandel_q_numeric(number_state(4, 8)) == pytest.approx(-1.0)

    def test_numeric_matches_closed(self):
        v = nbs(NBSParams(0.8, 3), TruncationPolicy(tail_eps=1e-26))
        assert mandel_q_numeric(v) == pytest.approx(-0.6875, abs=1e-8)

    def test_vacuum_raises(self):
        with pytest.raises(ValueError):
            mandel_q_numeric(number_state(0, 4))

    @pytest.mark.parametrize("m", [2**53 + 1, 10**16, 10**20, 10**160],
                             ids=["2^53+1", "1e16", "1e20", "1e160"])
    @pytest.mark.parametrize("eta", [0.5, 0.3])
    def test_past_two_to_the_53_against_exact(self, eta, m):
        # at eta = 0.5 the exact Q is 1/(2m + 1) > 0, which cancelled to
        # -2.2e-16 at m = 2^53 + 1
        e = Fraction(eta)
        want = (e**2 - 2 * (m + 1) * e + m + 1) / (e * (m + 1 - e))
        assert abs(mandel_q(eta, m) - float(want)) < 1e-12 * float(want)

    def test_closed_vs_numeric_grid(self):
        pol = TruncationPolicy(tail_eps=1e-26)
        for eta in np.arange(0.1, 0.95, 0.1):
            for m in range(11):
                v = nbs(NBSParams(float(eta), m), pol)
                assert mandel_q_numeric(v) == pytest.approx(
                    mandel_q(float(eta), m), abs=1e-8
                )


class TestThreshold:
    def test_m0(self):
        assert sub_poissonian_threshold(0) == 1.0

    def test_m1(self):
        assert sub_poissonian_threshold(1) == pytest.approx(2 - math.sqrt(2), rel=1e-14, abs=0)

    def test_m3(self):
        assert sub_poissonian_threshold(3) == pytest.approx(4 - math.sqrt(12), rel=1e-12, abs=0)

    def test_monotone_decreasing(self):
        vals = [sub_poissonian_threshold(m) for m in range(1, 51)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", [10**153, 10**154, 10**160, 10**300])
    def test_one_half_where_m_squared_overflows(self, m):
        assert sub_poissonian_threshold(m) == pytest.approx(0.5, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_sign_change_brackets_threshold(self, m):
        thr = sub_poissonian_threshold(m)
        assert mandel_q(thr - 0.01, m) > 0
        assert mandel_q(thr + 0.01, m) < 0

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_numeric_sign_change_location(self, m):
        # bisect the numeric Mandel Q and compare with the closed form
        pol = TruncationPolicy(tail_eps=1e-26)

        def q_of_eta(eta):
            return mandel_q_numeric(nbs(NBSParams(eta, m), pol))

        thr = sub_poissonian_threshold(m)
        found = find_sign_change(q_of_eta, thr - 0.05, thr + 0.05, 1e-5)
        assert found == pytest.approx(thr, abs=1e-4)


def stated_q_bound(eta, m, tail_eps, n_max):
    """The bound stats_report states for |Q_num - Q| on the basis n_max."""
    mean = (m + 1) / eta - 1
    f = (2 * mean + mandel_q(eta, m) + 1) / (n_max + 1)
    return max(1.0, f) * tail_eps * (m + 1) * (m + 2) / (eta**2 * mean) + 2.0**-52 * mean**2


class TestReport:
    @pytest.mark.parametrize("tail_eps", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("m", [0, 1, 3, 7, 24, 100, 500])
    def test_numeric_q_within_the_stated_bound(self, tail_eps, m):
        pol = TruncationPolicy(tail_eps=tail_eps, n_hard_cap=1 << 16)
        for eta in np.linspace(0.02, 0.99, 98):
            eta = float(eta)
            rep = stats_report(eta, m, pol)
            n_max, _ = choose_n_max(eta, m, pol, k=2)
            error = abs(rep.mandel_q_numeric - rep.mandel_q_closed)
            assert error <= stated_q_bound(eta, m, tail_eps, n_max), eta

    def test_builds_at_small_eta(self):
        # the basis hiding 1e-12 of <(N+1)(N+2)> fits the default cap
        rep = stats_report(0.01, 1)
        error = abs(rep.mandel_q_numeric - rep.mandel_q_closed)
        assert error <= stated_q_bound(0.01, 1, 1e-12, 4096)

    def test_fields_consistent(self):
        rep = stats_report(0.8, 3)
        assert rep.mandel_q_closed == pytest.approx(-0.6875)
        assert abs(rep.mandel_q_closed - rep.mandel_q_numeric) <= 1e-8
        assert rep.sub_poissonian_threshold == pytest.approx(4 - math.sqrt(12))
        assert rep.generating_function_values[1.0] == pytest.approx(1.0)


class TestFindSignChange:
    def test_simple_root(self):
        r = find_sign_change(lambda x: x - 0.3, 0.0, 1.0, 1e-9)
        assert r == pytest.approx(0.3, abs=1e-8)

    def test_no_bracket_raises(self):
        with pytest.raises(ValueError, match="sign change"):
            find_sign_change(lambda x: 1.0, 0.0, 1.0, 1e-6)


_CLOSED_FORMS = {
    "factorial_moments": lambda m: factorial_moments(0.5, m),
    "generating_function": lambda m: generating_function(0.5, 0.5, m),
    "mandel_q": lambda m: mandel_q(0.5, m),
    "sub_poissonian_threshold": sub_poissonian_threshold,
    "q_function_closed": lambda m: q_function_closed(NBSParams(0.5, m),
                                                     PhaseSpacePoint(1.0, 0.0)),
}


@pytest.mark.parametrize("exponent", [160, 310, 400])
@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_closed_forms_past_the_float_range(name, exponent):
    # a finite value, or TruncationError naming m; never OverflowError
    try:
        value = _CLOSED_FORMS[name](10**exponent)
    except TruncationError as exc:
        assert f"m ~ 10^{exponent}.00" in str(exc)
    else:
        assert exponent < 309 and np.all(np.isfinite(value))
