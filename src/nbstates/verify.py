"""Self-contained acceptance checks, one per headline property.

Each criterion function builds everything it needs, measures the worst
deviation, and returns a CheckResult; run_all prints one PASS/FAIL line
per criterion.  Only this package and numpy are used, so the checks run
identically from the CLI (`verify`) and from the test suite.

Where a measured result contradicts a published claim, the check
reports the measurement as a finding instead of failing silently in
either direction; see criterion_squeezing_criticals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import atom_passage, fidelity, fidelity_series
from .fock import FockVector, TruncationPolicy
from .phasespace import (
    GridSpec,
    PhaseSpacePoint,
    grid_evaluate,
    q_function,
    s_distribution,
    wigner,
)
from .squeeze import default_eta_grid, squeezing_scan, x_squeezing_onset
from .states import (
    NBSParams,
    excited_geometric,
    nbs,
    number_state,
    two_mode_geometric,
    two_mode_nbs,
)
from .stats import (
    factorial_moments,
    find_sign_change,
    mandel_q,
    stats_report,
    sub_poissonian_threshold,
)
from .su11 import (
    k_minus,
    k_plus,
    k_zero,
    ladder_residual,
    nonlinear_eigen_residual,
    su11_displace,
)

__all__ = ["ALL_CRITERIA", "CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _within(name: str, worst: float, budget: str, what: str) -> CheckResult:
    """PASS when worst < budget, so NaN FAILs; ``what`` formats worst, budget is as printed."""
    return CheckResult(name, worst < float(budget), f"{what.format(worst)} (budget {budget})")


def criterion_moment_closed_forms() -> CheckResult:
    """Brute-force factorial moments vs closed forms on the (eta, m) grid."""
    # quadratic moments weight the hidden tail by n^2, so build far below
    # the 1e-8 comparison budget
    policy = TruncationPolicy(tail_eps=1e-20)
    worst = 0.0
    for eta in np.arange(0.1, 0.95, 0.1):
        eta = round(float(eta), 10)
        for m in range(11):
            v = nbs(NBSParams(eta, m), policy)
            p = v.probabilities()
            n = np.arange(len(p), dtype=float)
            brute1 = float(np.sum(n * p))
            brute2 = float(np.sum(n * (n - 1.0) * p))
            f1, f2 = factorial_moments(eta, m)
            brute_q = brute2 / brute1 - brute1
            worst = max(
                worst,
                abs(brute1 - f1),
                abs(brute2 - f2),
                abs(brute_q - mandel_q(eta, m)),
            )
    return _within("moment-closed-forms", worst, "1e-8",
                   "max deviation {:.3e} over eta 0.1..0.9, m 0..10")


def criterion_sub_poissonian_threshold() -> CheckResult:
    """Sign change of the numeric Mandel Q `nbs stats` prints vs the closed threshold."""
    worst = 0.0
    for m in [1, 2, 5, 10]:
        closed = sub_poissonian_threshold(m)

        def q_of_eta(eta, m=m):
            return stats_report(eta, m).mandel_q_numeric

        found = find_sign_change(q_of_eta, closed - 0.03, closed + 0.03, 1e-5)
        worst = max(worst, abs(found - closed))
    return _within("sub-poissonian-threshold", worst, "1e-4",
                   "max |bisected - closed| {:.3e} for m in (1, 2, 5, 10)")


def _interior_vector(m: int, n_max: int, seed: int):
    rng = np.random.default_rng(seed)
    amps = np.zeros(n_max + 1, dtype=complex)
    k = n_max - 2 - m
    amps[m : n_max - 2] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    amps /= np.linalg.norm(amps)
    return FockVector(amps)


def criterion_su11_algebra() -> CheckResult:
    """Commutation relations plus the ladder eigen-relation residuals."""
    worst = 0.0
    for m in range(7):
        v = _interior_vector(m, 56, seed=100 + m)
        scale = float(np.linalg.norm(k_plus(v, m).amplitudes))
        # [a, b] = c k: [K0, K+] = K+, [K0, K-] = -K-, [K-, K+] = 2 K0
        for a, b, c, k in ((k_zero, k_plus, 1.0, k_plus), (k_zero, k_minus, -1.0, k_minus),
                           (k_minus, k_plus, 2.0, k_zero)):
            r = a(b(v, m), m).amplitudes - b(a(v, m), m).amplitudes - c * k(v, m).amplitudes
            worst = max(worst, float(np.linalg.norm(r)) / scale)
        for eta in (0.2, 0.5, 0.8):
            worst = max(worst, ladder_residual(eta, m))
    return _within("su11-algebra", worst, "1e-10",
                   "max residual {:.3e} over m 0..6, eta (0.2, 0.5, 0.8)")


def criterion_triple_construction() -> CheckResult:
    """Direct coefficients vs group displacement vs photon-added route."""
    worst = 0.0
    for m in range(7):
        for eta in (0.2, 0.5, 0.8):
            direct = nbs(NBSParams(eta, m))
            displaced = su11_displace(math.atanh(math.sqrt(1.0 - eta)), m)
            added = excited_geometric(eta, m)
            worst = max(
                worst,
                1.0 - fidelity(direct, displaced),
                1.0 - fidelity(direct, added),
                1.0 - fidelity(displaced, added),
            )
    return _within("triple-construction", worst, "1e-10",
                   "max pairwise infidelity {:.3e} over m 0..6, eta (0.2, 0.5, 0.8)")


def criterion_nonlinear_lowering() -> CheckResult:
    """Eigen-relation of the nonlinear lowering operator, all m <= 6."""
    worst = 0.0
    for m in range(7):
        for eta in (0.2, 0.5, 0.8):
            worst = max(worst, nonlinear_eigen_residual(eta, m))
    return _within("nonlinear-lowering", worst, "1e-8", "max residual {:.3e} over m 0..6")


def criterion_squeezing_criticals() -> CheckResult:
    """x-onset and claimed y-cutoff of quadrature squeezing.

    The x side is asserted strictly.  The claimed y cutoff (no
    squeezing above m = 31) is measured; deviations are reported as a
    finding rather than hidden, and the criterion passes with the
    finding attached as long as the measurement itself is conclusive.
    """
    grid = default_eta_grid()
    xs = squeezing_scan(range(1, 11), grid)
    mins_x = xs.min_var_x()
    x_ok = all(
        (v >= 0.25) == (m <= 6) for m, v in zip(xs.m_values, mins_x)
    )
    onset = x_squeezing_onset(xs)

    ys = squeezing_scan([20, 25, 31] + list(range(32, 41)), grid)
    mins_y = ys.min_var_y()
    low_side_ok = all(
        v < 0.25 for m, v in zip(ys.m_values, mins_y) if m <= 31
    )
    high_side_clean = all(
        v >= 0.25 for m, v in zip(ys.m_values, mins_y) if m >= 32
    )
    passed = x_ok and onset == 7 and low_side_ok
    detail = (
        f"x-quadrature: onset at m = {onset} "
        f"(min var_x {mins_x[6]:.5f} at m = 7); "
    )
    if high_side_clean:
        detail += "y-quadrature: no squeezing found for m in 32..40"
    else:
        # a row still falling at the grid's first eta has no minimum inside it
        j = int(np.argmin(ys.var_y[-1]))
        edge = ", the eta grid's first point, not a minimum" if j == 0 else ""
        detail += (
            "finding: y-quadrature squeezing persists for every scanned "
            f"m in 32..40 (min var_y {mins_y[-1]:.5f} at m = 40, "
            f"eta = {ys.eta_values[j]:.3g}{edge}), so the claimed cutoff at "
            "m = 31 is not reproduced at grid step 1e-3; reported as a "
            "measured deviation"
        )
    return CheckResult("squeezing-criticals", passed, detail)


def criterion_phase_space_identities() -> CheckResult:
    """Origin values, reductions, grid norms."""
    problems = []
    w_origin = wigner(number_state(1, 10), PhaseSpacePoint(0, 0))
    if abs(w_origin + 2.0 / math.pi) >= 1e-8:
        problems.append(f"single-photon origin value {w_origin:.10f}")

    # S(-1) against the coherent overlap Q, and W(0) against the parity
    # identity W(0) = (2/pi) sum_n (-1)^n |c_n|^2
    worst_red = 0.0
    for eta, m in ((0.5, 0), (0.3, 1)):
        state = nbs(NBSParams(eta, m))
        probs = state.probabilities()
        parity = 2.0 / math.pi * float(probs @ (-1.0) ** np.arange(len(probs)))
        worst_red = max(worst_red, abs(wigner(state, PhaseSpacePoint(0, 0)) - parity))
        for beta in (0.0, 0.7, 1.1 - 0.6j):
            p = PhaseSpacePoint.from_complex(complex(beta))
            worst_red = max(
                worst_red, abs(s_distribution(state, p, -1.0) - q_function(state, p))
            )
    if worst_red >= 1e-10:
        problems.append(f"endpoint reductions deviate {worst_red:.3e}")

    spec = GridSpec.square(6.0)
    worst_norm = max(
        abs(grid_evaluate(number_state(0, 10), spec, "Q").riemann_sum - 1.0),
        abs(grid_evaluate(nbs(NBSParams(0.5, 2)), spec, "Q").riemann_sum - 1.0),
        abs(grid_evaluate(nbs(NBSParams(0.3, 1)), spec, "W").riemann_sum - 1.0),
    )
    if worst_norm >= 1e-4:
        problems.append(f"grid normalization off by {worst_norm:.3e}")

    detail = (
        f"origin W {w_origin:.8f}, "
        f"reduction dev {worst_red:.1e}, window integral dev {worst_norm:.1e}"
    )
    if problems:
        detail = "; ".join(problems)
    return CheckResult("phase-space-identities", not problems, detail)


def criterion_wigner_negativity_trend() -> CheckResult:
    """Grid minimum of W for m = 1 must deepen with eta."""
    spec = GridSpec.square(6.0)
    mins = []
    for eta in (0.3, 0.5, 0.9, 1.0):
        g = grid_evaluate(nbs(NBSParams(eta, 1)), spec, "W")
        mins.append(float(g.values.min()))
    monotone = all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
    pretty = ", ".join(f"{v:.6f}" for v in mins)
    return CheckResult(
        "wigner-negativity-trend",
        monotone and mins[-1] < 0,
        f"minima over eta (0.3, 0.5, 0.9, 1.0): [{pretty}]",
    )


def criterion_generation_dynamics() -> CheckResult:
    """Evolution targets and the conditional photon-addition state."""
    chi_ts = (0.3, 0.8, 1.3, 2.0)
    worst = 0.0
    for m in (0, 2):
        fid, nrm = fidelity_series(chi_ts, m)
        worst = max(worst, float(np.max(1.0 - fid)), float(np.max(abs(nrm - 1.0))))
    worst = max(worst, float(np.max(1.0 - fidelity_series(chi_ts, scheme="parametric")[0])))
    base = two_mode_geometric(0.5)
    for m_photon in (1, 3):
        # the branch is two-mode NB(0.5, m_photon), its mass above the basis in tail_bound
        ground, weight = atom_passage(base, 0.05, m_photon)
        infidelity = 1.0 - fidelity(ground, two_mode_nbs(0.5, m_photon))
        worst = max(worst, infidelity, ground.tail_bound)
        # geometric base: |(a1+)^m psi|^2 = m!/eta^m in closed form
        expected = 1.0 / (1.0 + 0.05**2 * math.factorial(m_photon) / 0.5**m_photon)
        worst = max(worst, abs(weight - expected))
    return _within("generation-dynamics", worst, "1e-10",
                   "max infidelity / norm defect {:.3e} over chi_t <= 2")


ALL_CRITERIA = [
    criterion_moment_closed_forms,
    criterion_sub_poissonian_threshold,
    criterion_su11_algebra,
    criterion_triple_construction,
    criterion_nonlinear_lowering,
    criterion_squeezing_criticals,
    criterion_phase_space_identities,
    criterion_wigner_negativity_trend,
    criterion_generation_dynamics,
]


def run_all(write=print) -> int:
    """Run every criterion, print one line each, return a process code."""
    all_ok = True
    for crit in ALL_CRITERIA:
        result = crit()
        all_ok = all_ok and result.passed
        write(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    write("all checks passed" if all_ok else "some checks FAILED")
    return 0 if all_ok else 2
