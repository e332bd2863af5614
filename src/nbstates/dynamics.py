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

from .fock import FockVector, TruncationPolicy, check_domain, norm, tail_mass_nbs
from .states import NBSParams, PairBasisVector, nbs, two_mode_geometric
from .su11 import orbit, sech_squared, su11_displace

__all__ = [
    "EvolutionSpec",
    "atom_passage",
    "evolve_intensity_dependent",
    "evolve_parametric",
    "fidelity",
    "fidelity_series",
]


@dataclass(frozen=True)
class EvolutionSpec:
    """Dimensionless evolution time chi_t and the family label m."""

    chi_t: float
    m: int = 0
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        check_domain(chi_t=self.chi_t, m=self.m)


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
    check_domain(chi_t=chi_t)
    out, bound, eta = orbit(chi_t, 0, policy, f"chi_t={chi_t}")
    return PairBasisVector(out, 0, tail_bound=bound, eta=eta)


def atom_passage(
    state: PairBasisVector, g_t: float, m_photon: int
) -> tuple[PairBasisVector, float]:
    """First-order effect of an atom crossing the cavity for time g_t.

    Detecting the atom in its ground state projects onto the branch
    proportional to (a1†)^m_photon applied to the signal mode; that
    branch is returned normalized.  excited_weight is the probability
    the atom exits still excited, 1 - O(g_t^2).  Valid only for short
    passage, enforced as 0 < g_t <= 0.1.  The branch of a two-mode
    NB(eta, o) state is two-mode NB(eta, o + m_photon), whose mass above
    the basis is its tail_bound; a state of no known family gets 1.0.
    """
    check_domain(g_t=g_t, m_photon=m_photon)
    amps = np.array(state.amplitudes)
    n = np.arange(state.n_max + 1, dtype=float)
    # (a1†)^m on |offset+n, n>: pure amplitude factors, no index shift.  Each
    # is at most sqrt(offset_m + m_photon + n_max); where their product may
    # pass e^300, each step divides by a power of two that brings the largest
    # modulus into [1/2, 1), exactly, and log_scale keeps the log of the product
    rescale = m_photon * math.log(state.offset_m + m_photon + state.n_max) > 600.0
    log_scale = 0.0
    for j in range(m_photon):
        amps *= np.sqrt(state.offset_m + j + 1 + n)
        if rescale:
            exponent = math.frexp(np.abs(amps).max())[1]
            amps *= 2.0**-exponent
            log_scale += exponent * math.log(2.0)
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if nrm2 == 0.0:
        raise ValueError("state annihilated by the passage branch")
    offset = state.offset_m + m_photon
    if state.eta is None:
        tail = 1.0
    else:
        tail = tail_mass_nbs(state.eta, offset, offset + state.n_max)
    ground = PairBasisVector(amps / math.sqrt(nrm2), offset, tail_bound=tail, eta=state.eta)
    if log_scale:  # 1 / (1 + g_t^2 |branch|^2) from the log of the norm
        excited_weight = math.exp(-np.logaddexp(0.0, math.log(g_t * g_t * nrm2) + 2 * log_scale))
    else:
        excited_weight = 1.0 / (1.0 + g_t * g_t * nrm2)
    return ground, excited_weight


def fidelity(a, b) -> float:
    """|<a|b>|^2 for two states of one type, FockVector or PairBasisVector.

    The shorter amplitude array is zero-padded to the longer basis.
    """
    if type(a) is not type(b) or not isinstance(a, FockVector):
        raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if isinstance(a, PairBasisVector) and a.offset_m != b.offset_m:
        raise ValueError(f"pair-basis offset mismatch: {a.offset_m} vs {b.offset_m}")
    top = max(a.n_max, b.n_max)
    av, bv = (np.pad(v.amplitudes, (0, top - v.n_max)) for v in (a, b))
    return float(abs(np.vdot(av, bv)) ** 2)


def fidelity_series(chi_ts, m: int = 0, scheme: str = "intensity",
                    policy: TruncationPolicy | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity with the family member, and norm, of a scheme at each chi_t.

    "intensity" evolves |m> and compares with nbs(sech^2(chi t), m);
    "parametric" squeezes |0,0> and compares with
    two_mode_geometric(sech^2(chi t)).  Each sample is its own evolution.
    """
    if scheme not in ("intensity", "parametric"):
        raise ValueError(f"unknown evolution scheme {scheme!r}")
    if scheme == "parametric" and m != 0:
        raise ValueError("the parametric scheme is seeded by vacuum; m does not apply")
    policy = policy or TruncationPolicy()
    rows = []
    for chi_t in map(float, chi_ts):
        eta = sech_squared(chi_t)
        if scheme == "intensity":
            v = evolve_intensity_dependent(EvolutionSpec(chi_t, m, policy))
            target = nbs(NBSParams(eta, m), policy)
        else:
            v = evolve_parametric(chi_t, policy)
            target = two_mode_geometric(eta, policy)
        rows.append((fidelity(v, target), norm(v)))
    return tuple(np.array(rows, dtype=float).reshape(-1, 2).T)
