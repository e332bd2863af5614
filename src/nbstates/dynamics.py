"""Generation-scheme dynamics in the interaction picture.

Two routes to the negative binomial family:

  * intensity-dependent coupling: exp(chi t (K+ - K-)) drives |m>
    directly along the family, landing on nbs(sech^2(chi t), m);
  * a nondegenerate parametric amplifier builds the two-mode geometric
    state from |0,0>, and conditional m-photon addition on the signal
    mode (an atom crossing the cavity, detected in its ground state)
    turns it into the two-mode negative binomial state.

Free-field phases are omitted throughout: every reported quantity is
a Fock-basis modulus, so they are unobservable here.  Two-mode states
never leave the pair span {|offset+n, n>}, which keeps memory linear
in the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._expm import expm_apply_skew_bounded
from .fock import FockVector, TruncationPolicy, inner_product, pad_to
from .states import PairBasisVector, choose_n_max
from .su11 import sech_squared, su11_displace

__all__ = [
    "EvolutionSpec",
    "atom_passage",
    "evolve_intensity_dependent",
    "evolve_parametric",
    "fidelity",
]


@dataclass(frozen=True)
class EvolutionSpec:
    """Dimensionless evolution time chi_t and the family label m."""

    chi_t: float
    m: int = 0
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if not (math.isfinite(self.chi_t) and self.chi_t >= 0.0):
            raise ValueError(f"chi_t must be a finite nonnegative real, got {self.chi_t}")
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")


def evolve_intensity_dependent(spec: EvolutionSpec) -> FockVector:
    """exp(chi t (K+ - K-)) |m>; lands on nbs(sech^2(chi t), m)."""
    return su11_displace(spec.chi_t, spec.m, spec.policy)


def evolve_parametric(
    chi_t: float, policy: TruncationPolicy | None = None
) -> PairBasisVector:
    """Two-mode squeezing from |0,0> on the pair basis.

    The generator a1†a2† - a1a2 is tridiagonal-skew over |n,n> with
    raising elements (n+1); the result equals
    two_mode_geometric(sech^2(chi t)).
    """
    policy = policy or TruncationPolicy()
    if not (math.isfinite(chi_t) and chi_t >= 0.0):
        raise ValueError(f"chi_t must be a finite nonnegative real, got {chi_t}")
    eta_target = sech_squared(chi_t)
    n_max = choose_n_max(eta_target, 0, policy)
    v0 = np.zeros(n_max + 1, dtype=complex)
    v0[0] = 1.0
    up = chi_t * np.arange(1.0, n_max + 1.0)
    out, bound = expm_apply_skew_bounded(
        up, v0, eta_target, 0, policy.tail_eps, f"chi_t={chi_t}"
    )
    return PairBasisVector(out, 0, n_max, bound)


def atom_passage(
    state: PairBasisVector, g_t: float, m_photon: int
) -> tuple[PairBasisVector, float]:
    """First-order effect of an atom crossing the cavity for time g_t.

    Detecting the atom in its ground state projects onto the branch
    proportional to (a1†)^m_photon applied to the signal mode; that
    branch is returned normalized.  excited_weight is the probability
    the atom exits still excited, 1 - O(g_t^2).  Valid only for short
    passage, enforced as 0 < g_t <= 0.1.
    """
    if not 0.0 < g_t <= 0.1:
        raise ValueError(f"g_t must satisfy 0 < g_t <= 0.1, got {g_t}")
    if m_photon < 1 or int(m_photon) != m_photon:
        raise ValueError(f"m_photon must be a positive integer, got {m_photon}")
    amps = np.array(state.amplitudes, dtype=complex)
    n = np.arange(state.n_max + 1, dtype=float)
    # (a1†)^m on |offset+n, n>: pure amplitude factors, no index shift
    for j in range(m_photon):
        amps *= np.sqrt(state.offset_m + j + 1 + n)
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if nrm2 == 0.0:
        raise ValueError("state annihilated by the passage branch")
    # the hidden tail would have been amplified by at most the top factor
    top_gain = 1.0
    for j in range(m_photon):
        top_gain *= state.offset_m + j + 1 + state.n_max
    tail = min(1.0, state.tail_bound * top_gain / nrm2)
    ground = PairBasisVector(
        amps / math.sqrt(nrm2),
        state.offset_m + m_photon,
        state.n_max,
        tail,
    )
    excited_weight = 1.0 / (1.0 + g_t * g_t * nrm2)
    return ground, excited_weight


def fidelity(a, b) -> float:
    """|<a|b>|^2 for two states in the same representation."""
    if isinstance(a, FockVector) and isinstance(b, FockVector):
        top = max(a.n_max, b.n_max)
        return abs(inner_product(pad_to(a, top), pad_to(b, top))) ** 2
    if isinstance(a, PairBasisVector) and isinstance(b, PairBasisVector):
        if a.offset_m != b.offset_m:
            raise ValueError(
                f"pair-basis offset mismatch: {a.offset_m} vs {b.offset_m}"
            )
        top = max(a.n_max, b.n_max)
        av = np.zeros(top + 1, dtype=complex)
        bv = np.zeros(top + 1, dtype=complex)
        av[: a.n_max + 1] = a.amplitudes
        bv[: b.n_max + 1] = b.amplitudes
        return float(abs(np.vdot(av, bv)) ** 2)
    raise TypeError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )
