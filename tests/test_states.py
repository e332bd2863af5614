import math

import numpy as np
import pytest

from nbstates.dynamics import fidelity
from nbstates.fock import FockVector, TruncationError, TruncationPolicy, tail_mass_nbs
from nbstates.states import (
    NBSParams,
    PairBasisVector,
    basis_schedule,
    choose_n_max,
    excited_geometric,
    geometric_state,
    nbs,
    nbs_amplitudes,
    number_state,
    two_mode_geometric,
    two_mode_nbs,
)
from nbstates.su11 import sech_squared


def padded(v, top):
    return np.pad(v.amplitudes, (0, top - v.n_max))


class TestParams:
    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.0001])
    def test_eta_range(self, eta):
        with pytest.raises(ValueError):
            NBSParams(eta, 1)

    def test_m_nonnegative(self):
        with pytest.raises(ValueError):
            NBSParams(0.5, -1)


class TestNBS:
    def test_eta_one_is_number_state(self):
        v = nbs(NBSParams(1.0, 3))
        assert v.amplitudes[3] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1
        assert v.tail_bound == 0.0

    def test_coefficients_m0(self):
        v = nbs(NBSParams(0.5, 0))
        assert v.amplitudes[0].real == pytest.approx(math.sqrt(0.5))
        assert v.amplitudes[1].real == pytest.approx(0.5)
        assert v.amplitudes[2].real == pytest.approx(0.35355339, abs=1e-8)

    def test_coefficients_m1(self):
        v = nbs(NBSParams(0.5, 1))
        assert v.amplitudes[0] == 0.0
        assert v.amplitudes[1].real == pytest.approx(0.5)
        # C(2,1) = 2 makes the next coefficient 0.5 as well
        assert v.amplitudes[2].real == pytest.approx(0.5)

    def test_matches_direct_formula(self):
        eta, m = 0.37, 4
        c = nbs_amplitudes(eta, m, 40)
        n = np.arange(m, 41)
        direct = np.sqrt(
            [math.comb(k, m) * eta ** (m + 1) * (1 - eta) ** (k - m) for k in n]
        )
        np.testing.assert_allclose(c[m:], direct, rtol=1e-12)

    def test_basis_below_m_rejected(self):
        with pytest.raises(ValueError, match="n_max=1, m=3"):
            nbs_amplitudes(0.5, 3, 1)

    @pytest.mark.parametrize("m", [0, 1, 7, 31])
    def test_array_eta_rows_match_scalar_calls(self, m):
        etas = [0.013, 0.2, 0.5, 0.77, 0.999, 1.0]
        n_max, _ = choose_n_max(0.013, m, TruncationPolicy(n_hard_cap=16384))
        rows = nbs_amplitudes(np.array(etas), m, n_max)
        assert rows.shape == (len(etas), n_max + 1)
        for eta, row in zip(etas, rows):
            np.testing.assert_allclose(row, nbs_amplitudes(eta, m, n_max), rtol=1e-15, atol=0)

    def test_normalized_within_policy(self):
        pol = TruncationPolicy()
        v = nbs(NBSParams(0.23, 5), pol)
        assert abs(np.sum(v.probabilities()) - 1) <= pol.tail_eps

    def test_mean_photon_number(self):
        # <N> = (m+1)/eta - 1
        for eta, m in [(0.5, 0), (0.3, 2), (0.8, 7)]:
            v = nbs(NBSParams(eta, m))
            mean = float(np.sum(np.arange(v.n_max + 1) * v.probabilities()))
            assert mean == pytest.approx((m + 1) / eta - 1, abs=1e-8)

    def test_distribution_vs_generating_function(self):
        from nbstates.stats import generating_function

        for lam in (0.3, 0.9):
            for eta, m in [(0.5, 0), (0.4, 3)]:
                v = nbs(NBSParams(eta, m))
                p = v.probabilities()
                series = float(np.sum(p * lam ** np.arange(v.n_max + 1)))
                assert series == pytest.approx(
                    generating_function(lam, eta, m), abs=1e-10
                )

    def test_cap_failure_reports_tail(self):
        pol = TruncationPolicy(tail_eps=1e-12, n_hard_cap=16)
        with pytest.raises(TruncationError, match="achieved tail"):
            nbs(NBSParams(0.05, 3), pol)

    def test_basis_below_the_mode_is_not_accepted(self):
        # the doubling schedule starts below the mode of NB(0.5, 1500), near
        # 3000, where the terms underflow: such a basis must report tail 1
        v = nbs(NBSParams(0.5, 1500))
        assert v.n_max == 4096
        assert np.sum(v.probabilities()) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(TruncationError, match="achieved tail mass 1.000e"):
            nbs(NBSParams(0.5, 3000))

    def test_choose_n_max_doubles_from_start(self):
        pol = TruncationPolicy()
        n, _ = choose_n_max(0.5, 1, pol)
        assert n >= 33 and n <= pol.n_hard_cap
        assert n == 66  # one doubling of the m + 32 start

    @pytest.mark.parametrize(
        "m,top,schedule",
        [(1, 300, [33, 66, 132, 264, 300]), (1, 264, [33, 66, 132, 264]), (40, 50, [50])],
    )
    def test_basis_schedule(self, m, top, schedule):
        assert list(basis_schedule(m, top)) == schedule

    @pytest.mark.parametrize(
        "eta,m,n_max",
        [(0.9, 1, 33), (0.3, 1, 132), (0.1, 5, 592), (sech_squared(3.0), 0, 4096)],
    )
    def test_basis_sizes_of_the_default_policy(self, eta, m, n_max):
        n, tail = choose_n_max(eta, m, TruncationPolicy())
        assert (n, tail) == (n_max, tail_mass_nbs(eta, m, n_max))
        assert tail < 1e-12
        v = nbs(NBSParams(eta, m))
        assert (v.n_max, v.tail_bound) == (n, tail)

    @pytest.mark.parametrize(
        "eta,m,n_max", [(0.3, 1, 132), (0.1, 5, 592), (0.05, 24, 1792), (0.01, 1, 4096)]
    )
    def test_basis_hiding_a_share_of_the_second_rising_moment(self, eta, m, n_max):
        # k = 2 tests the share of E[(N+1)(N+2)] above the basis, and still
        # returns the NB(eta, m) mass there
        pol = TruncationPolicy()
        assert choose_n_max(eta, m, pol, k=2) == (n_max, tail_mass_nbs(eta, m, n_max))
        sizes = list(basis_schedule(m, pol.n_hard_cap))
        before = sizes[sizes.index(n_max) - 1]
        assert tail_mass_nbs(eta, m + 2, n_max + 2) < 1e-12 <= tail_mass_nbs(eta, m + 2, before + 2)

    def test_cap_failure_names_the_hidden_moment(self):
        with pytest.raises(
            TruncationError,
            match=r"m=3000: achieved hidden share of E\[\(N\+1\)\.\.\.\(N\+2\)\] 1\.000e\+00 >= 1e-12$",
        ):
            choose_n_max(0.5, 3000, TruncationPolicy(), k=2)

    @pytest.mark.parametrize("eta,m", [(0.5, 3000), (0.3, 2000)])
    def test_log_path_brackets_the_unit_mass(self, eta, m):
        # the first amplitude is below the normal range, so the whole row
        # comes from the compensated sum of logarithms
        assert eta ** ((m + 1) / 2) < np.finfo(float).tiny
        v = nbs(NBSParams(eta, m), TruncationPolicy(n_hard_cap=16384))
        assert abs(v.probabilities().sum() + v.tail_bound - 1.0) < 1e-12

    @pytest.mark.parametrize("eta,m", [(0.5, 3000), (0.1, 700)])
    def test_large_m_amplitudes_are_finite(self, eta, m):
        # eta^((m+1)/2) underflows here while the ratio product overflows
        nbinom = pytest.importorskip("scipy.stats").nbinom
        v = nbs(NBSParams(eta, m), TruncationPolicy(n_hard_cap=16384))
        want = np.exp(0.5 * nbinom.logpmf(np.arange(-m, v.n_max + 1 - m), m + 1, eta))
        np.testing.assert_allclose(v.amplitudes.real, want, rtol=0, atol=1e-10)
        assert abs(v.probabilities().sum() + v.tail_bound - 1.0) < 1e-10

    def test_rows_below_the_normal_range_leave_the_others_alone(self):
        etas = [0.5, 0.9, 1.0]
        rows = nbs_amplitudes(np.array(etas), 3000, 12128)
        assert np.isfinite(rows).all()
        for eta, row in zip(etas, rows):
            np.testing.assert_allclose(row, nbs_amplitudes(eta, 3000, 12128), rtol=1e-15, atol=0)


class TestRaisingIdentities:
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    def test_creation_raises_family_index(self, eta, m):
        # a† |eta,m> = sqrt((m+1)/eta) |eta,m+1> componentwise
        from nbstates.fock import apply_creation

        lo = nbs(NBSParams(eta, m), TruncationPolicy(tail_eps=1e-20))
        hi = nbs(NBSParams(eta, m + 1), TruncationPolicy(tail_eps=1e-20))
        raised = apply_creation(lo)
        top = max(hi.n_max, raised.n_max)
        scale = math.sqrt((m + 1) / eta)
        err = np.max(np.abs(padded(raised, top) - scale * padded(hi, top)))
        assert err <= 1e-10

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_diagonal_raising_route(self, eta, m):
        # sqrt(N-m) |eta,m> = sqrt((1-eta)/eta) sqrt(m+1) |eta,m+1>
        from nbstates.fock import apply_diag

        lo = nbs(NBSParams(eta, m), TruncationPolicy(tail_eps=1e-20))
        hi = nbs(NBSParams(eta, m + 1), TruncationPolicy(tail_eps=1e-20))
        out = apply_diag(lo, lambda n: np.sqrt(np.maximum(n - m, 0)))
        top = max(hi.n_max, out.n_max)
        scale = math.sqrt((1 - eta) / eta) * math.sqrt(m + 1)
        err = np.max(np.abs(padded(out, top) - scale * padded(hi, top)))
        assert err <= 1e-10


class TestGeometric:
    def test_eta_one_vacuum(self):
        v = geometric_state(1.0)
        assert v.amplitudes[0] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1

    def test_distribution(self):
        v = geometric_state(0.5)
        p = v.probabilities()
        assert p[0] == pytest.approx(0.5)
        assert p[1] == pytest.approx(0.25)

    def test_equals_nbs_m0_exactly(self):
        a = geometric_state(0.37)
        b = nbs(NBSParams(0.37, 0))
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


class TestExcitedGeometric:
    def test_zero_additions(self):
        a = excited_geometric(0.5, 0)
        b = geometric_state(0.5)
        assert fidelity(a, b) >= 1 - 1e-12

    def test_matches_nbs(self):
        a = excited_geometric(0.5, 3)
        b = nbs(NBSParams(0.5, 3))
        assert fidelity(a, b) >= 1 - 1e-10

    @pytest.mark.parametrize("eta,m", [(0.7022, 7), (0.3, 1), (0.9, 4)])
    def test_tail_bound_covers_the_mass_above_n_max(self, eta, m):
        from scipy.stats import nbinom

        v = excited_geometric(eta, m)
        lost = nbinom.sf(v.n_max - m, m + 1, eta)
        assert lost > 0.0
        assert v.tail_bound >= lost * (1.0 - 1e-12)

    @pytest.mark.parametrize("m", [40, 60, 150, 300])
    def test_matches_nbs_at_large_m(self, m):
        # the geometric state's own basis is too small for these m, and past
        # m ~ 250 an unscaled creation product overflows
        a = excited_geometric(0.5, m)
        assert np.isfinite(a.amplitudes).all()
        assert fidelity(a, nbs(NBSParams(0.5, m))) >= 1 - 1e-12

    def test_builds_where_the_geometric_amplitudes_underflow(self):
        # sqrt(eta) (1-eta)^(n/2) underflows past n ~ 2043 at eta = 0.5, far
        # inside the support of NB(0.5, 3000); the log-domain build does not
        pol = TruncationPolicy(n_hard_cap=16384)
        a = excited_geometric(0.5, 3000, pol)
        b = nbs(NBSParams(0.5, 3000), pol)
        assert np.isfinite(a.amplitudes).all()
        assert (a.n_max, a.tail_bound) == (b.n_max, b.tail_bound)
        # nbs's own amplitudes carry a squared norm of 1 + 3.6e-12 here
        assert fidelity(a, b) / np.sum(b.probabilities()) >= 1 - 1e-12

    @pytest.mark.parametrize(
        "eta,m", [(1.0, 0), (1.0, 5), (0.5, 0), (0.2, 9), (0.7, 40), (0.5, 300), (0.9, 300)]
    )
    def test_shares_the_basis_of_nbs(self, eta, m):
        a = excited_geometric(eta, m)
        b = nbs(NBSParams(eta, m))
        assert (a.n_max, a.tail_bound) == (b.n_max, b.tail_bound)

    def test_eta_one_number_state(self):
        a = excited_geometric(1.0, 2)
        assert abs(a.amplitudes[2]) == pytest.approx(1.0)

    def test_normalization_prefactor(self):
        # the numeric norm of a†^m |eta>_g must equal sqrt(m!) / eta^(m/2)
        from nbstates.fock import apply_creation, norm

        eta, m = 0.5, 3
        v = geometric_state(eta, TruncationPolicy(tail_eps=1e-26))
        for _ in range(m):
            v = apply_creation(v)
        assert norm(v) == pytest.approx(
            math.sqrt(math.factorial(m)) / eta ** (m / 2), rel=1e-10
        )


class TestNumberState:
    def test_vacuum(self):
        v = number_state(0, 5)
        assert v.amplitudes[0] == 1.0

    def test_mean(self):
        v = number_state(5, 9)
        mean = float(np.sum(np.arange(10) * v.probabilities()))
        assert mean == 5.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            number_state(6, 5)

    def test_nbs_limit(self):
        # fidelity with |m> is eta^(m+1), so the 0.999 bound holds at m=0
        v = nbs(NBSParams(0.999, 0))
        assert fidelity(v, number_state(0, 0)) >= 0.999 - 1e-15
        # and convergence holds for higher m as eta walks toward 1
        fids = [
            fidelity(nbs(NBSParams(e, 4)), number_state(4, 200))
            for e in (0.9, 0.99, 0.999)
        ]
        assert fids[0] < fids[1] < fids[2]
        assert fids[2] == pytest.approx(0.999**5, rel=1e-10)


class TestTwoMode:
    def test_geometric_eta_one(self):
        v = two_mode_geometric(1.0)
        assert v.amplitudes[0] == 1.0 and v.offset_m == 0

    def test_geometric_matches_single_mode(self):
        tm = two_mode_geometric(0.5)
        sm = geometric_state(0.5)
        np.testing.assert_array_equal(tm.amplitudes, sm.amplitudes)
        assert tm.amplitudes[1].real == pytest.approx(0.5)

    def test_nbs_m0_reduces_to_geometric(self):
        a = two_mode_nbs(0.6, 0)
        b = two_mode_geometric(0.6)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert a.offset_m == 0

    def test_signal_marginal_matches_single_mode(self):
        eta, m = 0.5, 2
        tm = two_mode_nbs(eta, m)
        sm = nbs(NBSParams(eta, m))
        # pair index n holds |m+n, n>: signal marginal P(m+n) = |c_n|^2
        np.testing.assert_allclose(
            tm.probabilities(), sm.probabilities()[m:], rtol=1e-12
        )
        assert tm.offset_m == m

    def test_eta_one_peaked(self):
        v = two_mode_nbs(1.0, 2)
        assert v.amplitudes[0] == 1.0  # the ket |2, 0>
        assert v.offset_m == 2

    def test_constructors_name_their_family(self):
        assert two_mode_geometric(0.4).eta == 0.4
        assert two_mode_nbs(0.7, 3).eta == 0.7

    def test_pair_vector_is_a_fock_vector(self):
        v = two_mode_nbs(0.5, 2)
        assert isinstance(v, FockVector)
        # inherited from FockVector, not declared or copied in the class body
        own = vars(PairBasisVector).keys()
        assert not {"amplitudes", "tail_bound", "n_max", "probabilities"} & own
        assert v.n_max == len(v.amplitudes) - 1
        np.testing.assert_array_equal(v.probabilities(), v.amplitudes**2)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.5, math.nan])
    def test_family_eta_validated(self, eta):
        with pytest.raises(ValueError, match="eta must be in"):
            PairBasisVector(np.ones(3), 0, eta=eta)
