import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbstates.dynamics import (
    EvolutionSpec,
    atom_passage,
    evolve_intensity_dependent,
    evolve_parametric,
    fidelity,
)
from nbstates.fock import (
    FockVector,
    TruncationPolicy,
    apply_annihilation,
    apply_creation,
    apply_diag,
    check_domain,
    tail_mass_nbs,
)
from nbstates.phasespace import GridSpec
from nbstates.squeeze import default_eta_grid, squeezing_scan
from nbstates.states import (
    NBSParams,
    PairBasisVector,
    excited_geometric,
    nbs,
    number_state,
    two_mode_geometric,
    two_mode_nbs,
)
from nbstates.stats import (
    factorial_moments,
    generating_function,
    mandel_q,
    stats_report,
    sub_poissonian_threshold,
)
from nbstates.su11 import sech_squared, su11_displace


# (function, arguments, the ValueError's message) for each checked entry point
_OUTSIDE = [
    (stats_report, (0.0, 1), "eta must be in (0, 1], got 0.0"),
    (mandel_q, (0.0, 1), "eta must be in (0, 1], got 0.0"),
    (factorial_moments, (-0.5, 1), "eta must be in (0, 1], got -0.5"),
    (generating_function, (0.5, 0.5, -1), "m must be a nonnegative integer, got -1"),
    (generating_function, (math.nan, 0.5, 1), "lam must be finite, got nan"),
    (generating_function, (math.inf, 0.5, 1), "lam must be finite, got inf"),
    (tail_mass_nbs, (0.5, 1.5, 10), "m must be a nonnegative integer, got 1.5"),
    (tail_mass_nbs, (0.5, 0, 2.5), "n_max must be a nonnegative integer, got 2.5"),
    (tail_mass_nbs, (0.5, 0, -1), "n_max must be a nonnegative integer, got -1"),
    (sub_poissonian_threshold, (1.5,), "m must be a nonnegative integer, got 1.5"),
    (squeezing_scan, ([1.5], [0.5]), "m must be a nonnegative integer, got 1.5"),
    (squeezing_scan, ([1], [0.5, 1.5]), "eta must be in (0, 1], got 1.5"),
    (excited_geometric, (0.5, 1.5), "m must be a nonnegative integer, got 1.5"),
    (number_state, (1.5, 4), "m must be a nonnegative integer, got 1.5"),
    (number_state, (1, 2.5), "n_max must be a nonnegative integer, got 2.5"),
    (NBSParams, (0.5, 2.0), "m must be a nonnegative integer, got 2.0"),
    (GridSpec, (-1.0, 1.0, -1.0, 1.0, 2.5), "nx must be an integer >= 2, got 2.5"),
    (EvolutionSpec, (math.nan,), "chi_t must be a finite nonnegative real, got nan"),
    (atom_passage, (two_mode_geometric(0.5), 0.05, 1.0), "m_photon must be a positive integer, got 1.0"),
    (atom_passage, (two_mode_geometric(0.5), 0.2, 1), "g_t must satisfy 0 < g_t <= 0.1, got 0.2"),
    (sech_squared, (math.nan,), "xi must be finite, got nan"),
    (su11_displace, (math.inf, 1), "xi must be finite, got inf"),
    (TruncationPolicy, (1e-12, 100.5), "n_hard_cap must be a positive integer, got 100.5"),
    (TruncationPolicy, (1.5,), "tail_eps must be in (0, 1), got 1.5"),
    (default_eta_grid, (0.0,), "eta_step must lie in [1e-6, 0.1], got 0.0"),
    (default_eta_grid, (-0.1,), "eta_step must lie in [1e-6, 0.1], got -0.1"),
    (default_eta_grid, (math.nan,), "eta_step must lie in [1e-6, 0.1], got nan"),
]


class _TypeName:
    """Shows as the name of its object's type."""

    def __init__(self, obj):
        self.name = type(obj).__name__

    def __repr__(self):
        return self.name


def _case_id(fn, args):
    """The call as written, with a state argument shown by its type name.

    A state's repr holds every amplitude, so an id built from it would run
    to ~1,300 characters and change with the dataclass's fields.
    """
    shown = tuple(_TypeName(a) if isinstance(a, PairBasisVector) else a for a in args)
    return f"{fn.__name__}{shown}"


class TestCheckDomain:
    """Every (eta, m) entry point raises ValueError naming the bad value."""

    @pytest.mark.parametrize(
        "fn,args,needle", _OUTSIDE, ids=[_case_id(fn, args) for fn, args, _ in _OUTSIDE]
    )
    def test_outside_the_domain(self, fn, args, needle):
        with pytest.raises(ValueError, match=re.escape(needle)):
            fn(*args)

    def test_numpy_integers_pass(self):
        m = np.int64(3)
        assert NBSParams(0.5, m).m == 3
        assert number_state(m, 4).amplitudes[3] == 1.0
        assert tail_mass_nbs(0.5, np.int32(2), 40) == tail_mass_nbs(0.5, 2, 40)
        assert tail_mass_nbs(0.5, 2, np.int64(40)) == tail_mass_nbs(0.5, 2, 40)
        assert sub_poissonian_threshold(m) == sub_poissonian_threshold(3)
        assert squeezing_scan([m], [0.5]).m_values == (3,)
        assert GridSpec(-1.0, 1.0, -1.0, 1.0, np.int64(3), np.int16(2)).nx == 3

    def test_non_numbers_are_value_errors(self):
        with pytest.raises(ValueError, match="eta must be in"):
            check_domain(eta="0.5")
        with pytest.raises(ValueError, match="m must be a nonnegative integer, got None"):
            check_domain(m=None)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(tail_eps=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(tail_eps=1.5)
    with pytest.raises(ValueError):
        TruncationPolicy(n_hard_cap=0)


def test_fock_vector_shape_checks():
    with pytest.raises(ValueError):
        FockVector(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        FockVector(np.zeros(4), tail_bound=-1e-3)


class TestFockVectorValidation:
    def test_empty_amplitudes_are_refused(self):
        with pytest.raises(ValueError, match="n_max must be a nonnegative integer, got -1"):
            FockVector([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_amplitudes_are_refused(self, bad):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            FockVector([1.0, bad])
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            PairBasisVector(np.array([1.0, bad]), 0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_tail_bound_is_refused(self, bound):
        with pytest.raises(ValueError, match="tail_bound must be finite and nonnegative"):
            FockVector([1.0], tail_bound=bound)


class TestDtypeContract:
    def test_real_and_integer_input_is_float64_and_complex_stays_complex(self):
        assert FockVector([1, 0]).amplitudes.dtype == np.float64
        assert FockVector(np.ones(2, np.float32)).amplitudes.dtype == np.float64
        assert FockVector([1j, 0]).amplitudes.dtype == np.complex128

    def test_input_of_the_kept_dtype_is_not_copied(self):
        for amps in (np.zeros(3), np.zeros(3, complex)):
            assert FockVector(amps).amplitudes is amps

    def test_every_state_family_is_real(self):
        pair = two_mode_geometric(0.5)
        states = [
            nbs(NBSParams(0.5, 1)),
            excited_geometric(0.5, 2),
            su11_displace(0.5, 1),
            evolve_intensity_dependent(EvolutionSpec(0.7, m=2)),
            evolve_parametric(0.5),
            two_mode_nbs(0.4, 3),
            atom_passage(pair, 0.05, 2)[0],
        ]
        assert [v.amplitudes.dtype for v in states] == [np.float64] * len(states)


def test_amplitudes_read_only():
    v = number_state(1, 4)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 1.0


class TestLadders:
    def test_annihilate_vacuum(self):
        out = apply_annihilation(number_state(0, 4))
        assert np.all(out.amplitudes == 0)

    def test_annihilate_number_state(self):
        out = apply_annihilation(number_state(3, 6))
        expect = np.zeros(7)
        expect[2] = math.sqrt(3)
        np.testing.assert_allclose(out.amplitudes, expect)

    def test_annihilate_twice(self):
        out = apply_annihilation(apply_annihilation(number_state(2, 5)))
        assert out.amplitudes[0] == pytest.approx(math.sqrt(2) * math.sqrt(1))

    def test_create_number_state(self):
        # raising |2> gives sqrt(3) |3>
        out = apply_creation(number_state(2, 6))
        assert out.amplitudes[3] == pytest.approx(math.sqrt(3))
        assert np.count_nonzero(out.amplitudes) == 1

    def test_create_vacuum(self):
        out = apply_creation(number_state(0, 3))
        assert out.amplitudes[1] == pytest.approx(1.0)

    def test_number_operator_on_one(self):
        out = apply_creation(apply_annihilation(number_state(1, 4)))
        np.testing.assert_allclose(out.amplitudes, number_state(1, 4).amplitudes)

    def test_creation_drop_accounted(self):
        v = number_state(3, 3)
        out = apply_creation(v)
        assert np.all(out.amplitudes == 0)
        assert out.tail_bound == pytest.approx(4.0)  # (n_max+1)*|c_top|^2

    def test_tail_bound_monotone(self):
        v = nbs(NBSParams(0.5, 1))
        for op in (apply_creation, apply_annihilation):
            w = op(v)
            assert w.tail_bound >= v.tail_bound

    def test_commutator_is_identity_on_interior(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        amps[-2:] = 0.0  # keep support away from the boundary
        v = FockVector(amps)
        lhs = apply_annihilation(apply_creation(v))
        rhs = apply_creation(apply_annihilation(v))
        diff = lhs.amplitudes - rhs.amplitudes - v.amplitudes
        assert np.max(np.abs(diff)) <= 1e-14 * np.max(np.abs(v.amplitudes))


class TestApplyDiag:
    def test_identity(self):
        v = nbs(NBSParams(0.7, 2))
        out = apply_diag(v, lambda n: 1.0)
        np.testing.assert_array_equal(out.amplitudes, v.amplitudes)

    def test_number_eigenvalue(self):
        out = apply_diag(number_state(5, 8), lambda n: n)
        assert out.amplitudes[5] == pytest.approx(5.0)

    def test_shifted_sqrt(self):
        out = apply_diag(number_state(5, 8), lambda n: np.sqrt(n - 2))
        assert out.amplitudes[5] == pytest.approx(math.sqrt(3))

    def test_non_finite_off_support_ok(self):
        # sqrt(n-2) is undefined below n=2 but |5> has no amplitude there
        out = apply_diag(number_state(5, 8), lambda n: np.sqrt(n - 2))
        assert np.isfinite(out.amplitudes).all()

    def test_non_finite_on_support_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            apply_diag(number_state(1, 4), lambda n: np.sqrt(n - 2))


class TestTailMass:
    def test_point_mass_at_eta_one(self):
        assert tail_mass_nbs(1.0, 3, 3) == 0.0

    def test_geometric_tail_small(self):
        assert tail_mass_nbs(0.5, 1, 200) < 1e-12

    def test_m0_complement_of_ground(self):
        # For m=0, P(0) = eta, so mass above n_max=0 is 1 - eta
        assert tail_mass_nbs(0.5, 0, 0) == pytest.approx(0.5, abs=1e-14)

    def test_matches_brute_force(self):
        eta, m, n_max = 0.35, 4, 60
        n = np.arange(m, 4000)
        logp = (
            np.array([math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1) for k in n])
            + (m + 1) * math.log(eta)
            + (n - m) * math.log1p(-eta)
        )
        p = np.exp(logp)
        brute = p[n > n_max].sum()
        est = tail_mass_nbs(eta, m, n_max)
        assert est >= brute - 1e-15
        assert est == pytest.approx(brute, rel=1e-10, abs=0)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            tail_mass_nbs(0.0, 1, 10)
        with pytest.raises(ValueError):
            tail_mass_nbs(1.2, 1, 10)

    def test_all_mass_above_small_cutoff(self):
        assert tail_mass_nbs(0.9, 5, 2) == 1.0

    @settings(max_examples=80)
    @given(
        eta=st.one_of(st.floats(1e-3, 1.0), st.just(1.0)),
        m=st.integers(0, 500),
        n_max=st.integers(0, 20_000),
    )
    @example(eta=0.3, m=500, n_max=120)  # n_max < m, mass below 1
    @example(eta=1.0, m=7, n_max=6)
    @example(eta=0.5, m=0, n_max=1050)  # the mass is subnormal
    @example(eta=1 - 2.0**-40, m=500, n_max=20_000)
    def test_upper_bound_of_the_binomial_sum(self, eta, m, n_max):
        # P(N > n_max) = P(at most m successes in n_max + 1 trials)
        n0, e = n_max + 1, mpmath.mpf(eta)
        with mpmath.workdps(40):
            want = mpmath.fsum(
                mpmath.binomial(n0, j) * e**j * (1 - e) ** (n0 - j) for j in range(min(m, n0) + 1)
            )
        got = mpmath.mpf(tail_mass_nbs(eta, m, n_max))
        # below the normal range a double holds each term only to 2^-1074
        floor = (min(m, n0) + 2) * math.ulp(0.0)
        assert want <= got <= want * (1 + 1e-8) + floor


    @staticmethod
    def _delta(eta, m, n_max):
        # the docstring's relative rounding bound
        n0, log_q = n_max + 1, math.log1p(-eta)
        j, b = min(m, n0), math.log(n0) - math.log(eta) - log_q
        return 2.0**-53 * (4.0 * abs(n0 * log_q) + j * (j + 5.0) * (b + 1.0) + j + 9.0)

    @settings(max_examples=80)
    @given(
        eta=st.floats(1e-3, 1.0, exclude_max=True),
        m=st.sampled_from([0, 1, 7, 31, 32, 33, 34, 40]),
        n_max=st.integers(0, 3000),
    )
    def test_loop_and_numpy_sums_agree(self, eta, m, n_max):
        # m on both sides of the switch, each sum forced through both paths
        import nbstates.fock as fock

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "_LOOP_TERMS", 10**9)
            loop = tail_mass_nbs(eta, m, n_max)
            patch.setattr(fock, "_LOOP_TERMS", -1)
            vectorised = tail_mass_nbs(eta, m, n_max)
        floor = (min(m, n_max + 1) + 2) * math.ulp(0.0)
        assert abs(loop - vectorised) <= 2 * self._delta(eta, m, n_max) * loop + floor

    @pytest.mark.parametrize("eta, m, n_max", [
        (0.3, 4, 10), (0.05, 31, 400), (0.9, 32, 40), (0.5, 0, 1050),
    ])
    def test_loop_is_an_upper_bound(self, eta, m, n_max):
        import nbstates.fock as fock

        assert min(m, n_max + 1) <= fock._LOOP_TERMS
        n0, e = n_max + 1, mpmath.mpf(eta)
        with mpmath.workdps(40):
            want = mpmath.fsum(
                mpmath.binomial(n0, j) * e**j * (1 - e) ** (n0 - j) for j in range(min(m, n0) + 1)
            )
        got = tail_mass_nbs(eta, m, n_max)
        floor = (min(m, n0) + 2) * math.ulp(0.0)
        assert want <= got <= want * mpmath.exp(2 * self._delta(eta, m, n_max)) + floor

    @settings(max_examples=60)
    @given(
        k=st.integers(0, 3),
        eta=st.floats(0.05, 0.95),
        m=st.integers(0, 40),
        above=st.integers(0, 3000),
    )
    def test_shifted_tail_is_the_hidden_share_of_a_rising_moment(self, k, eta, m, above):
        # E[(N+1)...(N+k); N > n] of NB(eta, m), summed term by term from
        # N = n + 1, over its whole value (m+1)...(m+k)/eta^k.  The term
        # ratio r_N = (1-eta)(N+k+1)/(N+1-m) does not grow with N, so once
        # r_N < 1 the terms left after the next one t sum to at most
        # t/(1 - r_N), and the sum stops when that is below 1e-20 of it
        n, e = m + above, mpmath.mpf(eta)
        with mpmath.workdps(30):
            term = (mpmath.rf(n + 2, k) * mpmath.binomial(n + 1, m)
                    * e ** (m + 1) * (1 - e) ** (n + 1 - m))
            hidden, big_n = mpmath.mpf(0), n + 1
            while True:
                hidden += term
                ratio = (1 - e) * (big_n + k + 1) / (big_n + 1 - m)
                term *= ratio
                big_n += 1
                if ratio < 1 and term / (1 - ratio) < 1e-20 * hidden:
                    break
            want = hidden * e**k / mpmath.rf(m + 1, k)
        got = mpmath.mpf(tail_mass_nbs(eta, m + k, n + k))
        floor = (m + k + 2) * math.ulp(0.0)
        assert want <= got <= want * (1 + 1e-10) + floor


class TestRaisingOverlapChain:
    @pytest.mark.parametrize("m", [0, 2, 5])
    @pytest.mark.parametrize("n_up", [1, 2, 3])
    def test_repeated_creation_overlap(self, m, n_up):
        # <eta,m+n| a†^n |eta,m> = sqrt((m+n)! / (m! eta^n))
        eta = 0.6
        pol = TruncationPolicy(tail_eps=1e-26)
        lo = nbs(NBSParams(eta, m), pol)
        hi = nbs(NBSParams(eta, m + n_up), pol)
        v = lo
        for _ in range(n_up):
            v = apply_creation(v)
        # both are nonnegative, so the overlap is the root of the fidelity
        got = math.sqrt(fidelity(hi, v))
        expect = math.sqrt(
            math.factorial(m + n_up) / (math.factorial(m) * eta**n_up)
        )
        assert got == pytest.approx(expect, rel=1e-9)
