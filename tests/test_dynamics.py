import math

import numpy as np
import pytest

from nbstates._expm import expm_apply_skew
from nbstates.fock import TruncationPolicy, norm, tail_mass_nbs
from nbstates.states import (
    NBSParams,
    PairBasisVector,
    nbs,
    number_state,
    two_mode_geometric,
    two_mode_nbs,
)
from nbstates.su11 import _raising_band, sech_squared
from nbstates.dynamics import (
    EvolutionSpec,
    atom_passage,
    evolve_intensity_dependent,
    evolve_parametric,
    fidelity,
    fidelity_series,
)

HALF = math.atanh(math.sqrt(0.5))  # chi_t landing on eta = 0.5


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionSpec(-0.1)
        with pytest.raises(ValueError):
            EvolutionSpec(math.nan)
        with pytest.raises(ValueError):
            EvolutionSpec(1.0, m=-1)

    def test_defaults(self):
        s = EvolutionSpec(0.5)
        assert s.m == 0 and s.policy.tail_eps == 1e-12


class TestIntensityDependent:
    def test_zero_time_identity(self):
        v = evolve_intensity_dependent(EvolutionSpec(0.0, m=3))
        assert abs(v.amplitudes[3]) == pytest.approx(1.0, abs=1e-14)

    def test_half_transmission_target(self):
        v = evolve_intensity_dependent(EvolutionSpec(HALF, m=2))
        assert fidelity(v, nbs(NBSParams(0.5, 2))) > 1 - 1e-10

    @pytest.mark.parametrize("chi_t", np.linspace(0.25, 2.0, 8))
    def test_fidelity_flat_in_time(self, chi_t):
        m = 1
        v = evolve_intensity_dependent(EvolutionSpec(float(chi_t), m=m))
        eta = 1.0 - math.tanh(chi_t) ** 2
        assert fidelity(v, nbs(NBSParams(eta, m))) > 1 - 1e-10

    @pytest.mark.parametrize("chi_t", [0.5, 1.0, 2.0])
    def test_unitary_norm(self, chi_t):
        v = evolve_intensity_dependent(EvolutionSpec(chi_t, m=2))
        assert abs(norm(v) - 1.0) < 1e-10

    def test_composition_group_property(self):
        m, t1, t2 = 1, 0.4, 0.9
        direct = evolve_intensity_dependent(EvolutionSpec(t1 + t2, m=m))
        stage1 = evolve_intensity_dependent(EvolutionSpec(t1, m=m))
        staged = np.pad(stage1.amplitudes, (0, direct.n_max - stage1.n_max))
        band = t2 * _raising_band(m, direct.n_max)
        resumed = expm_apply_skew(band, staged)
        ov = np.vdot(direct.amplitudes, resumed)
        assert abs(ov) ** 2 > 1 - 1e-10


class TestParametric:
    def test_zero_time_identity(self):
        v = evolve_parametric(0.0)
        assert v.amplitudes[0] == pytest.approx(1.0, abs=1e-14)
        assert v.offset_m == 0

    def test_half_transmission_target(self):
        v = evolve_parametric(HALF)
        assert fidelity(v, two_mode_geometric(0.5)) > 1 - 1e-10

    def test_pair_mean(self):
        chi_t = 0.8
        v = evolve_parametric(chi_t)
        eta = 1.0 - math.tanh(chi_t) ** 2
        p = v.probabilities()
        mean = float(np.sum(np.arange(len(p)) * p) / np.sum(p))
        assert mean == pytest.approx(1.0 / eta - 1.0, abs=1e-9)

    @pytest.mark.parametrize("chi_t", [0.5, 1.2, 2.0])
    def test_unitary_norm(self, chi_t):
        v = evolve_parametric(chi_t)
        assert abs(float(np.linalg.norm(v.amplitudes)) - 1.0) < 1e-10

    def test_scheme_equivalence_at_m_zero(self):
        for chi_t in [0.3, 0.9, 1.6]:
            single = evolve_intensity_dependent(EvolutionSpec(chi_t, m=0))
            pair = evolve_parametric(chi_t)
            top = min(single.n_max, pair.n_max)
            diff = np.abs(
                single.amplitudes[: top + 1] - pair.amplitudes[: top + 1]
            )
            assert np.max(diff) < 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_parametric(-0.5)


class TestAtomPassage:
    def test_single_addition_gives_family_member(self):
        base = two_mode_geometric(0.5)
        ground, w = atom_passage(base, 0.05, 1)
        assert ground.offset_m == 1
        assert fidelity(ground, two_mode_nbs(0.5, 1)) > 1 - 1e-10
        assert 0 < w <= 1

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_repeated_addition(self, m):
        # repeated addition amplifies the hidden tail by (n+1)...(n+m),
        # so the base state needs headroom below the fidelity budget
        base = two_mode_geometric(0.4, TruncationPolicy(tail_eps=1e-26))
        ground, _ = atom_passage(base, 0.02, m)
        assert fidelity(ground, two_mode_nbs(0.4, m)) > 1 - 1e-10

    def test_excited_weight_perturbative(self):
        base = two_mode_geometric(0.5)
        for g_t in [0.01, 0.05, 0.1]:
            ground, w = atom_passage(base, g_t, 1)
            # 1 - w = g^2 |a1† psi|^2 / (1 + g^2 |a1† psi|^2)
            p = base.probabilities()
            gain = float(np.sum((np.arange(len(p)) + 1) * p))
            expect = g_t**2 * gain / (1 + g_t**2 * gain)
            assert abs((1 - w) - expect) < 1e-12
            assert 1 - w < 2 * g_t**2 * gain

    def test_gate_enforced(self):
        base = two_mode_geometric(0.5)
        with pytest.raises(ValueError):
            atom_passage(base, 0.2, 1)
        with pytest.raises(ValueError):
            atom_passage(base, 0.0, 1)
        with pytest.raises(ValueError):
            atom_passage(base, 0.05, 0)

    @pytest.mark.parametrize("eta,m", [(0.3666, 4), (0.5, 1), (0.8, 3)])
    def test_tail_bound_covers_the_mass_above_n_max(self, eta, m):
        betainc = pytest.importorskip("scipy.special").betainc
        base = two_mode_geometric(eta)
        ground, _ = atom_passage(base, 0.05, m)
        # two-mode NB(eta, m): P(more than n_max failures before m + 1
        # successes) = I_{1-eta}(n_max + 1, m + 1)
        lost = betainc(base.n_max + 1, m + 1, 1.0 - eta)
        assert ground.tail_bound == pytest.approx(lost, rel=1e-12, abs=0)
        assert ground.eta == eta

    def test_tail_bound_follows_the_family_through_repeats(self):
        once, _ = atom_passage(evolve_parametric(0.6), 0.05, 2)
        twice, _ = atom_passage(once, 0.05, 3)
        eta = 1.0 / math.cosh(0.6) ** 2
        assert twice.offset_m == 5 and twice.eta == pytest.approx(eta, rel=1e-15)
        assert twice.tail_bound == tail_mass_nbs(twice.eta, 5, 5 + twice.n_max)

    def test_state_of_no_family_gets_the_trivial_bound(self):
        base = two_mode_geometric(0.5)
        plain = PairBasisVector(base.amplitudes, 0, tail_bound=base.tail_bound)
        ground, _ = atom_passage(plain, 0.05, 2)
        assert plain.eta is None and ground.tail_bound == 1.0
        assert np.array_equal(ground.amplitudes, atom_passage(base, 0.05, 2)[0].amplitudes)

    def test_norm_of_branch(self):
        ground, _ = atom_passage(two_mode_geometric(0.3), 0.1, 2)
        assert float(np.linalg.norm(ground.amplitudes)) == pytest.approx(
            1.0, abs=1e-13
        )

    @pytest.mark.parametrize("m_photon", [120, 170, 400])
    def test_long_products_against_the_log_domain_branch(self, m_photon):
        # prod_j sqrt(n + j + 1) passes the float range at 170 on this basis;
        # the reference takes it as lgamma(n + m_photon + 1) - lgamma(n + 1)
        base = two_mode_geometric(0.5)
        ground, weight = atom_passage(base, 0.05, m_photon)
        n = np.arange(base.n_max + 1)
        logs = np.log(base.amplitudes) + 0.5 * np.array(
            [math.lgamma(k + m_photon + 1) - math.lgamma(k + 1) for k in n])
        ref = np.exp(logs - logs.max())
        log_norm2 = math.log(ref @ ref) + 2 * logs.max()
        ref /= np.linalg.norm(ref)
        assert abs(np.vdot(ground.amplitudes, ref)) ** 2 > 1 - 1e-12
        # 1 / (1 + g_t^2 |branch|^2): 2.7e-228 at 120, below the float range after
        expected = math.exp(-np.logaddexp(0.0, 2 * math.log(0.05) + log_norm2))
        assert weight == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestFidelity:
    def test_self_is_one(self):
        v = nbs(NBSParams(0.5, 1))
        assert fidelity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(number_state(0, 5), number_state(1, 5)) == 0.0

    def test_between_family_members(self):
        f = fidelity(nbs(NBSParams(0.5, 1)), nbs(NBSParams(0.6, 1)))
        assert 0 < f < 1

    def test_pair_offset_mismatch(self):
        with pytest.raises(ValueError, match="offset"):
            fidelity(two_mode_nbs(0.5, 1), two_mode_nbs(0.5, 2))

    def test_mixed_representations_rejected(self):
        with pytest.raises(TypeError):
            fidelity(nbs(NBSParams(0.5, 1)), two_mode_geometric(0.5))
        with pytest.raises(TypeError):
            fidelity(two_mode_geometric(0.5), nbs(NBSParams(0.5, 1)))
        with pytest.raises(TypeError):
            fidelity(np.ones(2), np.ones(2))

    def test_pair_basis_padding(self):
        a = two_mode_geometric(0.5)
        b = two_mode_geometric(0.5, None)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


class TestFidelitySeries:
    CHI_TS = [0.0, 0.3, 1.3, 2.0]

    @pytest.mark.parametrize("policy", [None, TruncationPolicy(tail_eps=1e-13)])
    @pytest.mark.parametrize("m", [0, 2])
    def test_intensity_matches_the_per_sample_calls(self, m, policy):
        fid, nrm = fidelity_series(self.CHI_TS, m, "intensity", policy)
        for k, chi_t in enumerate(self.CHI_TS):
            spec = EvolutionSpec(chi_t, m) if policy is None else EvolutionSpec(chi_t, m, policy)
            v = evolve_intensity_dependent(spec)
            target = nbs(NBSParams(sech_squared(chi_t), m), policy)
            assert fid[k] == fidelity(v, target) and nrm[k] == norm(v)

    @pytest.mark.parametrize("policy", [None, TruncationPolicy(tail_eps=1e-13)])
    def test_parametric_matches_the_per_sample_calls(self, policy):
        fid, nrm = fidelity_series(self.CHI_TS, scheme="parametric", policy=policy)
        for k, chi_t in enumerate(self.CHI_TS):
            v = evolve_parametric(chi_t, policy)
            assert fid[k] == fidelity(v, two_mode_geometric(sech_squared(chi_t), policy))
            assert nrm[k] == norm(v)

    def test_one_entry_per_time(self):
        fid, nrm = fidelity_series(np.linspace(0.0, 1.0, 3))
        assert fid.shape == nrm.shape == (3,) and fid[0] == 1.0
        fid, nrm = fidelity_series([])
        assert fid.shape == nrm.shape == (0,)

    def test_refusals(self):
        with pytest.raises(ValueError, match="unknown evolution scheme"):
            fidelity_series([0.5], scheme="squeezer")
        with pytest.raises(ValueError, match="seeded by vacuum"):
            fidelity_series([0.5], 2, "parametric")
