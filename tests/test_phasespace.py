import cmath
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from nbstates._expm import boundary_mass
from nbstates.fock import FockVector, TruncationError
from nbstates.states import NBSParams, nbs, number_state
from nbstates.phasespace import (
    _GRID_EPS,
    _LOG_RESCALE,
    GridSpec,
    _hermite_table,
    _overlap,
    _support_extent,
    _wave_function,
    PhaseSpaceGrid,
    PhaseSpacePoint,
    grid_evaluate,
    q_function,
    q_function_closed,
    s_distribution,
    wigner,
)

P = PhaseSpacePoint


@functools.lru_cache(maxsize=64)
def dense_displacement(beta, size):
    a = np.diag(np.sqrt(np.arange(1.0, size + 1)), k=1)
    return expm(beta * a.conj().T - np.conj(beta) * a)


class TestPoint:
    def test_beta(self):
        p = P(1.5, -2.0)
        assert p.beta == 1.5 - 2.0j
        assert P.from_complex(0.5 + 0.25j) == P(0.5, 0.25)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            P(math.inf, 0.0)


class TestQFunction:
    def test_vacuum_center(self):
        assert q_function(number_state(0, 10), P(0, 0)) == pytest.approx(
            1 / math.pi, abs=1e-14
        )

    def test_number_state_form(self):
        # at eta = 1 the family is |5> and Q = e^{-x} x^5 / (pi 5!)
        v = nbs(NBSParams(1.0, 5))
        for beta in [0.8, 1.5 + 0.5j, 2.5j]:
            x = abs(beta) ** 2
            expect = math.exp(-x) * x**5 / (math.pi * 120)
            assert q_function(v, P.from_complex(beta)) == pytest.approx(
                expect, rel=1e-12, abs=0
            )

    def test_zero_at_origin_for_positive_m(self):
        for m in [1, 3]:
            assert q_function(nbs(NBSParams(0.4, m)), P(0, 0)) == 0.0

    def test_closed_form_matches_generic(self):
        for eta, m in [(0.3, 1), (0.5, 2), (0.8, 0)]:
            params = NBSParams(eta, m)
            state = nbs(params)
            for xv in np.linspace(-2.5, 2.5, 7):
                for yv in np.linspace(-2.5, 2.5, 7):
                    p = P(xv, yv)
                    assert abs(
                        q_function(state, p) - q_function_closed(params, p)
                    ) < 1e-10

    @settings(max_examples=60)
    @given(
        eta=st.floats(0.05, 1.0),
        m=st.integers(0, 30),
        r=st.floats(0.0, 45.0),
        angle=st.floats(-math.pi, math.pi),
    )
    @example(eta=0.5, m=1, r=40.0, angle=0.0)
    @example(eta=0.1, m=5, r=40.0, angle=0.0)
    def test_closed_form_matches_generic_over_the_domain(self, eta, m, r, angle):
        # the closed form gave NaN at (0.5, 1) and did not terminate at (0.1, 5)
        params = NBSParams(eta, m)
        state = nbs(params)
        p = P.from_complex(cmath.rect(r, angle))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generic, closed = q_function(state, p), q_function_closed(params, p)
        assert 0.0 <= generic <= 1.0 / math.pi
        assert 0.0 <= closed <= 1.0 / math.pi
        # the truncated state moves <beta|psi> by at most sqrt(tail)
        t = state.tail_bound
        assert abs(generic - closed) <= (2.0 * math.sqrt(t) + t) / math.pi + 1e-14

    @pytest.mark.parametrize("r", [1e3, 1e155, 1e200, 1e300])
    def test_far_points_are_zero(self, r):
        for params in (NBSParams(0.5, 1), NBSParams(0.1, 5)):
            state = nbs(params)
            for p in (P(r, 0.0), P(0.0, -r)):
                assert q_function(state, p) == 0.0
                assert q_function_closed(params, p) == 0.0

    @pytest.mark.parametrize("m", [0, 1])
    def test_points_whose_modulus_overflows_are_zero(self, m):
        # |beta| = inf here; the closed form raised OverflowError
        p = P(1e308, -1e308)
        for params in (NBSParams(0.5, m), NBSParams(1.0, m)):
            assert q_function(nbs(params), p) == 0.0
            assert q_function_closed(params, p) == 0.0

    def test_closed_form_past_its_length_limit_raises(self):
        # the window around j ~ |beta|^2 would hold 3.0e6 terms here; it is
        # refused before any array
        with pytest.raises(TruncationError, match="closed-form Q needs 30"):
            q_function_closed(NBSParams(1e-12, 0), P(1e5, 0.0))

    @pytest.mark.parametrize("m,beta", [(1, 2000.0), (0, 2000.0), (0, 700.0 + 0.3j)])
    def test_closed_form_far_points_against_mpmath(self, m, beta):
        # at |beta| = 2000 the whole series would need 4.0e6 terms; its window
        # holds 5.9e4, and the mpmath sum runs over a wider one
        mpmath = pytest.importorskip("mpmath")
        eta = 1e-4
        with mpmath.workdps(40):
            b = mpmath.mpc(beta.real, beta.imag)
            y = abs(b) ** 2 * (1 - mpmath.mpf(eta))
            lo = max(0, int(y - 14 * mpmath.sqrt(y)))
            term = mpmath.exp((lo * mpmath.log(y) - y - mpmath.loggamma(lo + 1)) / 2)
            step = mpmath.sqrt(y) * mpmath.expj(-mpmath.arg(b))
            total = mpmath.mpc(0)
            for j in range(lo, int(y + 14 * mpmath.sqrt(y))):
                total += term
                term *= step / mpmath.sqrt(j + 1)
            log_pref = ((m + 1) * mpmath.log(eta) - eta * abs(b) ** 2
                        + 2 * m * mpmath.log(abs(b)) - mpmath.loggamma(m + 1))
            want = float(mpmath.exp(log_pref) * abs(total) ** 2 / mpmath.pi)
        got = q_function_closed(NBSParams(eta, m), P.from_complex(beta))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_closed_form_window_matches_the_full_series(self):
        # at |beta| = 700 the whole series (5.3e5 terms) still fits: the
        # window agrees with it to the full series' own rounding, ~2e-9 here
        eta, r = 1e-4, 700.0
        y = r * r * (1 - eta)
        j_top = math.ceil(y + 20.0 * math.sqrt(y))
        s = _overlap(np.ones(j_top + 1), r * math.sqrt(1 - eta))
        full = math.exp(math.log(eta) - eta * r * r) * abs(s) ** 2 / math.pi
        assert q_function_closed(NBSParams(eta, 0), P(r, 0.0)) == pytest.approx(
            full, rel=1e-8, abs=0.0)

    def test_closed_form_origin(self):
        assert q_function_closed(NBSParams(0.7, 0), P(0, 0)) == pytest.approx(
            0.7 / math.pi, abs=1e-15
        )
        assert q_function_closed(NBSParams(0.7, 2), P(0, 0)) == 0.0


class TestWigner:
    def test_vacuum_gaussian(self):
        v = number_state(0, 10)
        for beta in [0.0, 0.5, 1.2 - 0.7j, 2.0 + 2.0j]:
            expect = (2 / math.pi) * math.exp(-2 * abs(beta) ** 2)
            got = wigner(v, P.from_complex(beta))
            assert abs(got - expect) < 1e-8

    def test_single_photon_origin(self):
        got = wigner(number_state(1, 10), P(0, 0))
        assert abs(got - (-2 / math.pi)) < 1e-8

    def test_family_limit_matches_number_state(self):
        v1 = nbs(NBSParams(1.0, 1))
        v2 = number_state(1, v1.n_max)
        for beta in [0.3, 0.9 + 0.4j, 1.5j]:
            p = P.from_complex(beta)
            assert abs(wigner(v1, p) - wigner(v2, p)) < 1e-12

    def test_far_corner_of_a_large_basis(self, reference):
        # n_max 592 at -6-6i: the point and the grid corner sit on different lattices
        state = nbs(NBSParams(0.1, 5))
        g = grid_evaluate(state, GridSpec.square(6.0, 3, 3), "W")
        want = reference.distribution(state.amplitudes.real, -6.0, -6.0, 0.0)
        assert abs(wigner(state, P(-6.0, -6.0)) - want) < 1e-9
        assert abs(g.values[0, 0] - want) < 1e-9

    @pytest.mark.parametrize("r", [1e2, 1e4, 1e6])
    def test_far_points_are_zero(self, r):
        # a displaced-state workspace of |beta|^2 rows took 4.7 s at 1e2 and
        # gave 5.3e-16, and could not be allocated at 1e4 (770 MiB) or 1e6
        state = nbs(NBSParams(0.5, 1))
        for p in (P(r, 0.0), P(0.0, -r), P(-0.6 * r, 0.8 * r)):
            assert abs(wigner(state, p)) <= 1e-16
            assert abs(s_distribution(state, p, -0.5)) <= 1e-16

    def test_workspace_reaches_a_light_high_component(self):
        # 1e-7 of the mass on |100>: the wave function reaches as far as the
        # top index 100 does, not as far as <N> = 1e-5 suggests; the cross
        # term with |0> is below 1e-35
        mpmath = pytest.importorskip("mpmath")
        amps = np.zeros(101)
        amps[0], amps[100] = math.sqrt(1.0 - 1e-7), math.sqrt(1e-7)
        with mpmath.workdps(40):
            x = mpmath.mpf(100)
            exact = 2 / mpmath.pi * mpmath.exp(-2 * x) * (
                1 - mpmath.mpf(1e-7) + mpmath.mpf(1e-7) * mpmath.laguerre(100, 0, 4 * x))
        got = wigner(FockVector(amps), P(10.0, 0.0))
        assert abs(got - float(exact)) < 1e-10

    def test_boundary_mass_is_a_truncation_error(self):
        # a unitary exponential on too small a basis piles mass at its top
        out = np.zeros(50, dtype=complex)
        out[-2:] = math.sqrt(0.5 * 1.01e-8)
        with pytest.raises(TruncationError, match="boundary mass 1.010e-08"):
            boundary_mass(out, 1e-12, "the displaced state")
        out[-2:] = math.sqrt(0.5 * 0.99e-8)
        assert boundary_mass(out, 1e-12, "the displaced state") < 1e-8

    @pytest.mark.parametrize("n,beta", [(100, 10.0), (300, 6.0)])
    def test_workspace_covers_the_photon_number_spread(self, n, beta):
        # D(beta)|n> spreads by sqrt(2n+1)|beta| in photon number: ~142 and
        # ~147 here; the quadrature needs no displaced workspace at all
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.mpf(beta) ** 2
            # W of |n> at beta: (2/pi) (-1)^n e^{-2x} L_n(4x), x = |beta|^2
            exact = 2 / mpmath.pi * (-1) ** n * mpmath.exp(-2 * x)
            exact *= mpmath.laguerre(n, 0, 4 * x)
        assert abs(wigner(number_state(n, n), P(beta, 0.0)) - float(exact)) < 1e-10


class TestSDistribution:
    @pytest.mark.parametrize("eta,m", [(0.5, 0), (0.3, 1), (0.5, 2)])
    @pytest.mark.parametrize("beta", [0.0, 0.7, 1.1 - 0.6j])
    def test_endpoint_reductions(self, eta, m, beta):
        state = nbs(NBSParams(eta, m))
        p = P.from_complex(beta)
        assert abs(s_distribution(state, p, -1.0) - q_function(state, p)) < 1e-10
        assert abs(s_distribution(state, p, 0.0) - wigner(state, p)) < 1e-10

    def test_interpolates_at_origin(self):
        v = number_state(0, 10)
        mid = s_distribution(v, P(0, 0), -0.5)
        assert 1 / math.pi < mid < 2 / math.pi

    def test_range_validated(self):
        v = number_state(0, 10)
        with pytest.raises(ValueError, match="s must"):
            s_distribution(v, P(0, 0), 0.5)
        with pytest.raises(ValueError, match="s must"):
            s_distribution(v, P(0, 0), -1.5)


class TestGrids:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 1, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, math.nan, 0.0, 1.0, 5, 5)

    @pytest.mark.parametrize(
        "bounds", [(-1e308, 1e308, -1.0, 1.0), (-1e300, 1e300, -1e300, 1e300)]
    )
    def test_spans_and_cell_area_must_be_finite(self, bounds):
        # linspace gave [nan, inf, 1e308] on the first, riemann_sum -inf on the second
        with pytest.raises(ValueError, match="cell area must be finite"):
            GridSpec(*bounds, 3, 3)
        assert GridSpec.square(1e6, 3, 3).nx == 3

    def test_square_helper(self):
        s = GridSpec.square(4.0, 11, 11)
        assert (s.x_min, s.x_max, s.y_min, s.y_max) == (-4.0, 4.0, -4.0, 4.0)

    def test_grid_carries_its_spec(self):
        spec = GridSpec(-1.0, 2.0, -0.5, 0.5, 4, 3)
        assert grid_evaluate(number_state(1, 4), spec, "W").spec == spec
        with pytest.raises(ValueError, match=re.escape("(ny, nx)=(3, 4)")):
            PhaseSpaceGrid(spec, np.zeros((4, 3)), 0.0)

    def test_vacuum_q_normalizes(self):
        g = grid_evaluate(number_state(0, 10), GridSpec.square(6.0), "Q")
        assert abs(g.riemann_sum - 1.0) < 1e-6

    def test_vacuum_wigner_walk_against_analytic(self):
        spec = GridSpec.square(6.0, 201, 201)
        g = grid_evaluate(number_state(0, 8), spec, "W")
        xs, ys = g.spec.xs(), g.spec.ys()
        r2 = xs[None, :] ** 2 + ys[:, None] ** 2
        expect = (2 / math.pi) * np.exp(-2 * r2)
        assert np.max(np.abs(g.values - expect)) < 1e-12
        assert abs(g.riemann_sum - 1.0) < 1e-6

    def test_walk_matches_pointwise_engine(self, reference):
        state = nbs(NBSParams(0.4, 2))
        spec = GridSpec(-2.0, 2.0, -1.5, 1.5, 21, 15)
        g = grid_evaluate(state, spec, "W")
        nodes = [(0, 0), (10, 7), (20, 14), (5, 3), (17, 11)]
        for got, want in _pointwise(reference, state, g, 0.0, nodes):
            assert abs(got - want) < 1e-9

    def test_wigner_bounded(self):
        g = grid_evaluate(nbs(NBSParams(0.3, 1)), GridSpec.square(4.0, 61, 61), "W")
        assert np.max(np.abs(g.values)) <= 2 / math.pi + 1e-12

    def test_negative_region_present(self):
        g = grid_evaluate(nbs(NBSParams(0.3, 1)), GridSpec.square(4.0, 61, 61), "W")
        assert g.values.min() < 0

    def test_q_grid_nonnegative_and_compressed(self):
        g = grid_evaluate(nbs(NBSParams(0.2, 5)), GridSpec.square(6.0, 61, 61), "Q")
        assert np.min(g.values) >= 0
        xs, ys = g.spec.xs(), g.spec.ys()
        mass = g.values.sum()
        mx2 = (g.values * xs[None, :] ** 2).sum() / mass
        my2 = (g.values * ys[:, None] ** 2).sum() / mass
        # squeezed along y: second moment in x exceeds the one in y
        assert mx2 > my2

    def test_s_grid_between_q_and_w(self):
        state = number_state(0, 8)
        spec = GridSpec(0.0, 0.0, 0.0, 0.0, 2, 2)
        q = grid_evaluate(state, spec, "Q").values[0, 0]
        w = grid_evaluate(state, spec, "W").values[0, 0]
        s = grid_evaluate(state, spec, "S", s=-0.5).values[0, 0]
        assert q < s < w

    def test_degenerate_window(self):
        spec = GridSpec(0.0, 0.0, 0.0, 0.0, 3, 3)
        g = grid_evaluate(number_state(1, 10), spec, "W")
        np.testing.assert_allclose(g.values, -2 / math.pi, atol=1e-12)
        assert g.riemann_sum == 0.0

    def test_kind_validation(self):
        v = number_state(0, 5)
        spec = GridSpec.square(1.0, 3, 3)
        with pytest.raises(ValueError, match="kind"):
            grid_evaluate(v, spec, "P")
        with pytest.raises(ValueError, match="requires"):
            grid_evaluate(v, spec, "S")
        with pytest.raises(ValueError, match="s must"):
            grid_evaluate(v, spec, "S", s=0.25)

    def test_values_shape_and_readonly(self):
        spec = GridSpec(-1.0, 1.0, -0.5, 0.5, 7, 5)
        g = grid_evaluate(number_state(0, 5), spec, "Q")
        assert g.values.shape == (5, 7)
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0


def _closed_s(k, xs, ys, s):
    """S(beta; s) of |0> (k = 0) or |1> (k = 1) on the grid's nodes."""
    a = 1.0 - s
    r2 = xs[None, :] ** 2 + ys[:, None] ** 2
    gauss = 2.0 / (math.pi * a) * np.exp(-2.0 * r2 / a)
    return gauss if k == 0 else gauss * (4.0 * r2 / a**2 - (1.0 + s) / a)


def _dense_value(c, beta, s):
    """(2/pi) sum_k (-u)^k / (1-s) |<k|D(-beta) psi>|^2, u = (1+s)/(1-s),

    with D(-beta) the dense scipy exponential on a basis 60 past psi's.
    """
    size = len(c) + 60
    q = np.abs(dense_displacement(-beta, size)[:, :len(c)] @ c) ** 2
    u = (1.0 + s) / (1.0 - s)
    return 2.0 / math.pi * float(q @ (-u) ** np.arange(size + 1)) / (1.0 - s)


def _pointwise(reference, state, grid, s, nodes):
    """(grid value, independent value) at each (i, j) of nodes.

    Real amplitudes take perfbench/reference.py, complex ones the dense
    displaced-overlap sum; neither shares code with the grid engine.
    """
    xs, ys = grid.spec.xs(), grid.spec.ys()
    c = state.amplitudes
    for i, j in nodes:
        if np.any(c.imag):
            want = _dense_value(c, complex(xs[i], ys[j]), s)
        else:
            want = reference.distribution(c.real, xs[i], ys[j], s)
        yield grid.values[j, i], want


class TestRealAndComplexPaths:
    @pytest.mark.parametrize("eta,m", [(0.5, 1), (0.8, 0), (0.1, 5)])
    def test_complex_copy_matches_the_real_state(self, eta, m):
        state = nbs(NBSParams(eta, m))
        assert state.amplitudes.dtype == np.float64
        twin = FockVector(state.amplitudes.astype(complex), tail_bound=state.tail_bound)
        # the complex path shares every lattice and cut-off with the real one,
        # so the two differ by rounding alone, inside the 4 eps that the
        # engines' error terms of 1e-16 each add up to
        bound = 4 * _GRID_EPS
        spec = GridSpec.square(5.0, 41, 37)
        for kind, s in (("W", None), ("S", -0.5), ("Q", None)):
            got = grid_evaluate(twin, spec, kind, s).values
            assert np.abs(got - grid_evaluate(state, spec, kind, s).values).max() <= bound
        for p in (P(0.3, -0.7), P(1.2, 0.4), P(0.0, 0.0)):
            assert abs(wigner(twin, p) - wigner(state, p)) <= bound
            assert abs(s_distribution(twin, p, -0.3) - s_distribution(state, p, -0.3)) <= bound
            assert abs(q_function(twin, p) - q_function(state, p)) <= bound


class TestFourierGridEngine:
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("s", [0.0, -1e-9, -0.02, -0.5])
    def test_number_state_closed_forms(self, k, s):
        spec = GridSpec(-3.0, 2.5, -2.0, 3.0, 23, 17)
        kind = "W" if s == 0.0 else "S"
        g = grid_evaluate(number_state(k, 8), spec, kind, s)
        assert np.max(np.abs(g.values - _closed_s(k, g.spec.xs(), g.spec.ys(), s))) < 1e-14

    @pytest.mark.parametrize(
        "state,spec",
        [
            (nbs(NBSParams(0.3, 2)), GridSpec(-3.0, 4.0, -2.0, 5.0, 31, 23)),
            # psi reaches |q| ~ 45, where the Hermite recursion must rescale
            (number_state(1000, 1000), GridSpec(28.0, 34.0, -3.0, 3.0, 7, 5)),
        ],
    )
    def test_s_at_minus_one_is_the_q_grid(self, state, spec):
        q = grid_evaluate(state, spec, "Q").values
        s = grid_evaluate(state, spec, "S", s=-1.0).values
        assert np.max(np.abs(q - s)) < 1e-13

    def test_large_basis_against_pointwise(self, reference):
        state = nbs(NBSParams(0.1, 5))
        assert state.n_max == 592
        spec = GridSpec.square(6.0, 11, 11)
        for kind, s in (("W", 0.0), ("S", -0.4)):
            g = grid_evaluate(state, spec, kind, s)
            nodes = [(0, 0), (5, 5), (3, 8), (10, 2)]
            for got, want in _pointwise(reference, state, g, s, nodes):
                assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("n_top", [0, 1, 33, 592, 4096])
    def test_cached_support_extent_is_the_computed_one(self, n_top):
        assert _support_extent(n_top) == _support_extent.__wrapped__(n_top)

    def test_hermite_tables_are_prefixes_of_larger_ones(self):
        # so the table size a call picks never moves a bit of psi
        alpha, d = _hermite_table(1 << 13)
        small_alpha, small_d = _hermite_table(64)
        assert np.array_equal(alpha[:63], small_alpha) and np.array_equal(d[:64], small_d)
        assert alpha.max() == math.sqrt(2.0)

    @pytest.mark.parametrize("n_top,count", [(0, 41), (1, 41), (15, 41), (16, 41), (17, 41),
                                             (592, 41), (4095, 9)])
    def test_wave_function_against_mpmath(self, n_top, count):
        # the recursion runs in blocks of 16 steps: 15, 16 and 17 end inside,
        # at and past the first; at 592 and 4095 the outer nodes pass the
        # 1e150 rescale before the last block.  The amplitudes, with random
        # phases, are those of the geometric state whose basis ends at n_top
        # (tail e^-40), as the engines see them
        mpmath = pytest.importorskip("mpmath")
        eta = 40.0 / (n_top + 40.0)
        theta = np.random.default_rng(n_top).uniform(-math.pi, math.pi, n_top + 1)
        amp = np.sqrt(eta * (1.0 - eta) ** np.arange(n_top + 1)) * np.exp(1j * theta)
        c = np.array([amp.real, amp.imag])
        rho = _support_extent(n_top)
        q = np.linspace(-1.0, 1.0, count) * (rho + math.pi / rho)
        want, peak = np.zeros((2, count)), 0
        with mpmath.workdps(40):
            a = [mpmath.sqrt(mpmath.mpf(2) / (n + 1)) for n in range(n_top)]
            b = [mpmath.sqrt(mpmath.mpf(n) / (n + 1)) for n in range(n_top)]
            for i, x in enumerate(q):
                x = mpmath.mpf(x)
                # phi_n e^{x^2/2} is the recursion's value without its log scale
                grow = mpmath.exp(x * x / 2)
                phi_prev, phi = 0, mpmath.pi ** mpmath.mpf(-0.25) / grow
                acc = [c[0, 0] * phi, c[1, 0] * phi]
                for n in range(n_top):
                    phi_prev, phi = phi, a[n] * x * phi - b[n] * phi_prev
                    acc[0] += c[0, n + 1] * phi
                    acc[1] += c[1, n + 1] * phi
                    if n == n_top - 17:  # phi_{n_top-16}, the last before the last block
                        peak = max(peak, abs(phi) * grow)
                want[:, i] = [float(v) for v in acc]
        if n_top >= 592:
            assert peak > math.exp(_LOG_RESCALE)
        assert np.max(np.abs(_wave_function(c[0], q) - want[0])) <= 1e-14
        psi = _wave_function(amp, q)
        assert np.max(np.abs(psi.real - want[0])) <= 1e-14
        assert np.max(np.abs(psi.imag - want[1])) <= 1e-14

    @pytest.mark.parametrize("eta,m", [(0.1, 5), (0.5, 1)])
    @pytest.mark.parametrize("s", [-0.9, -0.5, -1e-3])
    def test_windowed_s_kernel_against_reference(self, eta, m, s, reference):
        # at s = -0.9 and -0.5 the x-smoothing kernel is cut past its
        # Gaussian reach, at s = -1e-3 its band edge is not negligible and
        # the full kernel stays; the engine's budget is a few 1e-16 and the
        # reference rounds at ~1e-15 on these states
        state = nbs(NBSParams(eta, m))
        g = grid_evaluate(state, GridSpec.square(6.0, 11, 11), "S", s)
        nodes = [(5, 5), (3, 8)]
        for (got, want), (i, j) in zip(_pointwise(reference, state, g, s, nodes), nodes):
            assert abs(got - want) < 1e-13
            assert abs(s_distribution(state, P(g.spec.xs()[i], g.spec.ys()[j]), s) - want) < 1e-13

    @pytest.mark.parametrize("s", [0.0, -1e-9, -0.3, -1.0])
    def test_complex_amplitudes_against_pointwise(self, s, reference):
        state = FockVector(dense_displacement(1 + 0.5j, 40)[:, 2])
        spec = GridSpec(-2.5, 3.0, -1.0, 2.2, 9, 6)
        g = grid_evaluate(state, spec, "W" if s == 0.0 else "S", s)
        nodes = [(i, j) for i in range(9) for j in range(6)]
        for got, want in _pointwise(reference, state, g, s, nodes):
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(-1.0, 2.0, 0.5, 0.5, 2, 3),   # dy = 0
            GridSpec(0.7, 0.7, -1.0, 2.0, 4, 2),   # dx = 0
            GridSpec(-0.4, 2.9, -2.6, 0.3, 2, 7),  # nx = 2, off-centre
        ],
    )
    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_uneven_windows_against_pointwise(self, spec, s, reference):
        state = nbs(NBSParams(0.3, 2))
        g = grid_evaluate(state, spec, "W" if s == 0.0 else "S", s)
        assert g.values.shape == (spec.ny, spec.nx)
        nodes = [(i, j) for i in range(spec.nx) for j in range(spec.ny)]
        for got, want in _pointwise(reference, state, g, s, nodes):
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(-0.5, 0.5, -0.2, 0.3, 41, 6),          # columns share 5 lattices
            GridSpec(0.3, 0.3 + 1e-6, -1e-6, 1e-6, 7, 3),  # a lattice per column
        ],
    )
    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_narrow_windows_against_pointwise(self, spec, s, reference):
        state = nbs(NBSParams(0.3, 2))
        g = grid_evaluate(state, spec, "W" if s == 0.0 else "S", s)
        nodes = [(0, 0), (spec.nx // 2, 1), (spec.nx - 1, spec.ny - 1), (3, 2)]
        for got, want in _pointwise(reference, state, g, s, nodes):
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("s", [-0.02, -0.1])
    def test_x_smoothing_on_a_single_row(self, s, reference):
        # one row at y = 0 leaves the lattice step to the x-smoothing band
        state = number_state(60, 60)
        g = grid_evaluate(state, GridSpec(-3.0, 2.0, 0.0, 0.0, 6, 2), "S", s)
        for got, want in _pointwise(reference, state, g, s, [(i, 0) for i in range(6)]):
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_wide_window_is_clipped_to_the_support(self, s, reference):
        state = nbs(NBSParams(0.5, 1))
        g = grid_evaluate(state, GridSpec.square(1e6, 3, 3), "W" if s == 0.0 else "S", s)
        assert np.all(np.isfinite(g.values))
        assert np.count_nonzero(g.values) == 1
        (got, want), = _pointwise(reference, state, g, s, [(1, 1)])
        assert abs(got - want) < 1e-9


class TestQGridFarRows:
    def test_far_row_takes_the_log_domain(self):
        # e^{-|beta|^2/2} underflows at |beta|^2 = 1500 and the coefficient
        # product overflows, yet Q of |1500> there is ~3e-3
        n = 1500
        beta = math.sqrt(n)
        spec = GridSpec(beta, beta, 0.0, 0.0, 2, 2)
        g = grid_evaluate(number_state(n, n), spec, "Q")
        log_q = -n + n * math.log(n) - math.lgamma(n + 1) - math.log(math.pi)
        np.testing.assert_allclose(g.values, math.exp(log_q), rtol=1e-9)
        assert q_function(number_state(n, n), P(beta, 0.0)) == pytest.approx(
            math.exp(log_q), rel=1e-9
        )

    def test_huge_window_is_finite(self):
        state = nbs(NBSParams(0.5, 1))
        g = grid_evaluate(state, GridSpec.square(1e6, 3, 3), "Q")
        assert np.all(np.isfinite(g.values))
        assert abs(g.values[1, 1] - q_function(state, P(0.0, 0.0))) <= 1e-15


def _q_mp(c, x, y):
    """(1/pi) |<beta|psi>|^2 as a 30-digit coherent-coefficient sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b = mpmath.mpc(x, -y)
        term = mpmath.exp(-(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2) / 2)
        total = mpmath.mpc(0)
        for n, cn in enumerate(c):
            if n:
                term = term * b / mpmath.sqrt(n)
            total += term * mpmath.mpc(complex(cn))
        return float(abs(total) ** 2 / mpmath.pi)


def _q_grid_against(state, spec, want, nodes=None):
    """The Q grid is nonnegative and within 1e-15 of want(x, y) at nodes."""
    g = grid_evaluate(state, spec, "Q")
    assert g.values.min() >= 0.0
    xs, ys = g.spec.xs(), g.spec.ys()
    if nodes is None:
        nodes = [(i, j) for i in range(spec.nx) for j in range(spec.ny)]
    for i, j in nodes:
        assert abs(g.values[j, i] - want(xs[i], ys[j])) <= 1e-15


class TestGaborQGrid:
    @pytest.mark.parametrize("n", [0, 1, 7, 60])
    def test_number_state_closed_forms(self, n):
        mpmath = pytest.importorskip("mpmath")

        def closed(x, y):
            # e^{-r2} r2^n / (pi n!), at 30 digits: the double-precision
            # form loses ~n log(r2) ulps
            with mpmath.workdps(30):
                r2 = mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2
                return float(mpmath.exp(-r2) * r2**n / (mpmath.pi * mpmath.factorial(n)))

        _q_grid_against(number_state(n, n + 5), GridSpec(-3.0, 8.5, -2.0, 3.0, 23, 17),
                        closed)

    @pytest.mark.parametrize("eta,m,half_width", [(0.3, 1, 6.0), (0.1, 5, 9.0)])
    def test_large_bases_against_mpmath(self, eta, m, half_width):
        state = nbs(NBSParams(eta, m))
        assert state.n_max in (132, 592)
        rng = np.random.default_rng(5)
        nodes = [tuple(rng.integers(0, 41, 2)) for _ in range(8)] + [(20, 20), (0, 0)]
        _q_grid_against(state, GridSpec.square(half_width, 41, 41),
                        lambda x, y: _q_mp(state.amplitudes, x, y), nodes)

    def test_complex_amplitudes(self):
        state = FockVector(dense_displacement(1 + 0.5j, 40)[:, 2])
        _q_grid_against(state, GridSpec(-2.5, 3.0, -1.0, 2.2, 9, 6),
                        lambda x, y: _q_mp(state.amplitudes, x, y))

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(-1.0, 2.0, 0.5, 0.5, 2, 3),            # dy = 0
            GridSpec(0.7, 0.7, -1.0, 2.0, 4, 2),            # dx = 0
            GridSpec(-0.4, 2.9, -2.6, 0.3, 2, 7),           # nx = 2, off-centre
            GridSpec(-0.5, 0.5, -0.2, 0.3, 41, 6),          # narrow
            GridSpec(0.3, 0.3 + 1e-6, -1e-6, 1e-6, 7, 3),  # narrower
        ],
    )
    def test_uneven_windows_against_pointwise(self, spec):
        state = nbs(NBSParams(0.3, 2))
        _q_grid_against(state, spec, lambda x, y: q_function(state, P(x, y)))
