"""Acceptance gate: ten pinned checks, one PASS/FAIL line each.

Every test computes its measurement, prints a single line

    ACCEPTANCE nn <name>: PASS|FAIL (<measured values and bounds>)

and then asserts against the pinned bound. Two checks pin the law the method
follows rather than a plain bound; the README testing section explains both:

  - 02: the recurrence residual is the product of the k stage quadratics at
        exp(-theta), each O(tau^3), so its slope is 3k.
  - 03 (rho_inf = 0 row) and 05: with full annihilation the high-frequency
        radius tends to zero like (2 |theta|)^(-1/2), so the check asserts
        |rho(G) sqrt(2 |theta|) - 1| <= 2 / sqrt(|theta|) at growing |theta|.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh

from galpha import (
    BELL_CLOSED_FORMS,
    amplification_matrix,
    bell_complete,
    block_eigenvalues,
    charpoly_coeffs,
    fit_slope,
    init_state,
    integrate,
    l2_error,
    manufactured_heat,
    params_from_rho,
    recurrence_residual,
    scalar_mode,
    spectral_radius,
    step,
    StepWorkspace,
)


def report(num, name, ok, detail):
    line = "ACCEPTANCE %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


def test_criterion_01_temporal_order():
    # scalar decay, lambda = 1, T = 1, five-point tau-halving sweeps
    windows = {1: (2.0, 0.1, 0.5), 2: (3.0, 0.15, 0.25),
               3: (5.0, 0.3, 0.25), 4: (6.0, 0.3, 0.25)}
    system = scalar_mode(1.0)
    exact = float(np.exp(-1.0))
    ok = True
    parts = []
    for k, (target, tol, tau0) in windows.items():
        prm = params_from_rho([0.5] * k)
        taus, errs = [], []
        for i in range(5):
            tau = tau0 / 2 ** i
            traj = integrate(system, np.array([1.0]), prm, tau, round(1.0 / tau))
            taus.append(tau)
            errs.append(abs(float(traj[-1].u[0]) - exact))
        fit = fit_slope(taus, errs, scale=exact)
        ok = ok and abs(fit.slope - target) <= tol
        parts.append("k=%d: %.4f in %.1f+-%.2f" % (k, fit.slope, target, tol))
    line = report(1, "temporal-order", ok, "; ".join(parts))
    assert ok, line


def test_criterion_02_recurrence_slopes():
    # slope 3k: 3.0+-0.2 (k=1), 6.0+-0.2 (k=2), 9.0+-0.3 (k=3)
    windows = {1: (3.0, 0.2), 2: (6.0, 0.2), 3: (9.0, 0.3)}
    taus = np.logspace(-2.0, -3.0, 6)
    ok = True
    parts = []
    for k, (target, tol) in windows.items():
        prm = params_from_rho([0.5] * k)
        # scale 0 removes the absolute roundoff floor: the residual is accurate
        # to 1e-9 relative on this grid (test_cayley cross-checks it against
        # a 50-digit mpmath evaluation), down to values near 1e-27 for k = 3
        fit = fit_slope(taus, [recurrence_residual(prm, 1.0, t) for t in taus], scale=0.0)
        ok = ok and abs(fit.slope - target) <= tol
        parts.append("k=%d: %.4f vs %.1f+-%.2f" % (k, fit.slope, target, tol))
    line = report(2, "recurrence-residual-order", ok, "; ".join(parts))
    assert ok, line


# |theta| at which the full-annihilation rate law is checked
ANNIHILATION_THETAS = (1e6, 1e8, 1e10)


def annihilation_samples(prm, phase=0.0):
    """(|theta|, rho(G(theta)) sqrt(2 |theta|)) along a ray at each ANNIHILATION_THETAS."""
    return [(r, spectral_radius(prm, r * np.exp(1j * phase)) * np.sqrt(2.0 * r))
            for r in ANNIHILATION_THETAS]


def annihilation_rate_detail(samples):
    """Worst |product - 1| sqrt(|theta|), which the rate law bounds by 2, and a report."""
    products = [p for _, p in samples]
    defect = max(abs(p - 1.0) * np.sqrt(r) for r, p in samples)
    detail = ("rho(G)*sqrt(2|theta|) in [%.9f, %.9f] at |theta| = 1e6, 1e8, 1e10; "
              "max |.-1|*sqrt|theta| = %.4f vs bound 2"
              % (min(products), max(products), defect))
    return defect, detail


def test_criterion_03_dissipation_control():
    # |rho(G(1e8)) - rho_inf| <= 1e-5 for rho_inf in {0.2, 0.5, 0.8, 1}, all
    # stages equal, k <= 4. At rho_inf = 0 the radius tends to zero like
    # (2 theta)^(-1/2), so that row checks the rate law instead.
    ok = True
    worst = {}
    for rho in (0.2, 0.5, 0.8, 1.0):
        devs = []
        for k in (1, 2, 3, 4):
            prm = params_from_rho([rho] * k)
            devs.append(abs(spectral_radius(prm, 1e8) - rho))
        worst[rho] = max(devs)
        ok = ok and worst[rho] <= 1e-5
    detail = "; ".join("rho_inf=%g: max dev %.3e" % (r, d) for r, d in worst.items())
    samples = [x for k in (1, 2, 3, 4) for x in annihilation_samples(params_from_rho([0.0] * k))]
    defect, rate = annihilation_rate_detail(samples)
    ok = ok and defect <= 2.0
    detail += "; bound 1e-5; rho_inf=0: " + rate
    line = report(3, "dissipation-control", ok, detail)
    assert ok, line


def test_criterion_04_a_stability():
    # 1e4 random theta in the closed right half-plane, |theta| <= 1e6
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 5))
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        mag = 10.0 ** rng.uniform(-6.0, 6.0)
        phase = rng.uniform(-np.pi / 2.0, np.pi / 2.0)
        worst = max(worst, spectral_radius(prm, mag * np.exp(1j * phase)))
    ok = worst <= 1.0 + 1e-9
    line = report(4, "a-stability", ok, "max rho(G) = %.12f, bound 1 + 1e-9" % worst)
    assert ok, line


def test_criterion_05_l_stability_rays():
    # rho_inf = 0, five rays into the right half-plane: the radius tends to
    # zero like (2 |theta|)^(-1/2) at |theta| = 1e6, 1e8, 1e10
    samples = []
    for k in (1, 2, 3, 4):
        prm = params_from_rho([0.0] * k)
        for phase in (-np.pi / 2, -np.pi / 4, 0.0, np.pi / 4, np.pi / 2):
            samples += annihilation_samples(prm, phase)
    defect, detail = annihilation_rate_detail(samples)
    ok = defect <= 2.0
    line = report(5, "l-stability-rays", ok, detail)
    assert ok, line


def test_criterion_06_stepper_matches_matrix_powers():
    # 50 random (k, rho, theta) tuples, 10 steps each, relative 1e-12
    rng = np.random.default_rng(20260816)
    system = scalar_mode(1.0)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 5))
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        theta = 10.0 ** rng.uniform(-3.0, 3.0)
        state = init_state(system, np.array([1.0]), k=k, tau=theta)
        ws = StepWorkspace.build(system, prm, theta)
        G = amplification_matrix(prm, theta).dense.real
        v = state.data[:, 0].copy()
        for i in range(10):
            state = step(state, i * theta, ws)
            v = G @ v
            scale = max(1.0, float(np.max(np.abs(v))))
            worst = max(worst, float(np.max(np.abs(state.data[:, 0] - v))) / scale)
    ok = worst <= 1e-12
    line = report(6, "stepper-matrix-oracle", ok,
                  "max relative deviation %.3e over 50 tuples x 10 steps" % worst)
    assert ok, line


def test_criterion_07_trapezoidal_reduction():
    # k = 1, rho_inf = 1: every step must match the trapezoidal update
    prm = params_from_rho([1.0])
    tau = 0.1
    traj = integrate(scalar_mode(1.0), np.array([1.0]), prm, tau, 10)
    r = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
    worst = max(abs(float(s.u[0]) - r ** i) for i, s in enumerate(traj))
    ok = worst <= 1e-12
    line = report(7, "trapezoidal-reduction", ok,
                  "max per-step deviation %.3e, bound 1e-12" % worst)
    assert ok, line


def test_criterion_08_cayley_hamilton_suite():
    # ||p(G)|| <= 1e-9 (1 + ||G||)^n on 200 random matrices, and the Bell
    # determinant equals the expanded closed forms exactly on rationals
    rng = np.random.default_rng(20260817)
    worst_ratio = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        G = rng.standard_normal((n, n))
        c = charpoly_coeffs(G).c
        P = np.linalg.matrix_power(G, n).astype(complex)
        for i in range(n):
            P += c[i] * np.linalg.matrix_power(G, i)
        bound = (1.0 + np.linalg.norm(G, 2)) ** n
        worst_ratio = max(worst_ratio, np.linalg.norm(P, 2) / bound)
    matrices_ok = worst_ratio <= 1e-9

    bell_ok = True
    for _ in range(50):
        for l in range(2, 7):
            x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                 for _ in range(l)]
            bell_ok = bell_ok and bell_complete(l, x) == BELL_CLOSED_FORMS[l](*x)

    ok = matrices_ok and bell_ok
    line = report(8, "cayley-hamilton-suite", ok,
                  "max ||p(G)||/(1+||G||)^n = %.3e vs 1e-9; closed forms exact: %s"
                  % (worst_ratio, bell_ok))
    assert ok, line


def test_criterion_09_block_spectrum_factorization():
    # dense spectrum equals the union of the 2x2 block spectra, 1e-10
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        theta = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        amp = amplification_matrix(prm, theta)
        dense = sorted(np.linalg.eigvals(amp.dense), key=lambda z: (z.real, z.imag))
        blocks = sorted((r for B in amp.blocks for r in block_eigenvalues(B)),
                        key=lambda z: (z.real, z.imag))
        scale = max(1.0, max(abs(z) for z in dense))
        worst = max(worst, max(abs(a - b) for a, b in zip(dense, blocks)) / scale)
    ok = worst <= 1e-10
    line = report(9, "block-spectrum-factorization", ok,
                  "max eigenvalue deviation %.3e over 100 tuples, bound 1e-10" % worst)
    assert ok, line


def test_criterion_10_heat_end_to_end():
    # manufactured case, k = 2, 256 elements. The temporal slope is measured
    # against the exact solution of the semi-discrete system (generalized
    # eigendecomposition); the spatial floor against the nodal interpolant is
    # documented alongside.
    case = manufactured_heat("sin-decay")
    ne = 256
    system = case.assemble(ne)
    x = np.arange(1, ne) / ne
    U0 = case.u0(x)
    prm = params_from_rho([0.5, 0.5])
    T = 1.0

    w, Phi = eigh(system.K, system.M)
    load = system.forcing_derivative(0, 0.0)  # F(t) = load * exp(-t)
    b = Phi.T @ load
    y0 = Phi.T @ (system.M @ U0)
    part = b / (w - 1.0)
    U_semi = Phi @ ((y0 - part) * np.exp(-w * T) + part * np.exp(-T))

    M = system.M
    e_floor = U_semi - case.u(x, T)
    floor = float(np.sqrt(e_floor @ M @ e_floor))

    taus, errs = [], []
    for i in range(5):
        tau = 0.125 / 2 ** i
        traj = integrate(system, U0, prm, tau, round(T / tau))
        diff = traj[-1].u - U_semi
        taus.append(tau)
        errs.append(float(np.sqrt(diff @ M @ diff)))
    fit = fit_slope(taus, errs, scale=1.0)
    ok = abs(fit.slope - 3.0) <= 0.2
    line = report(10, "heat-end-to-end", ok,
                  "temporal slope %.4f in 3.0+-0.2 (kept %d); spatial floor "
                  "|U_semi - u_I|_M = %.3e at %d elements" % (fit.slope, fit.kept, floor, ne))
    assert ok, line
