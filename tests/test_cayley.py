"""Characteristic polynomial via power sums and Bell polynomials."""

from fractions import Fraction
from math import factorial, isnan, nan

import numpy as np
import pytest

from galpha import (
    BELL_CLOSED_FORMS,
    ConfigurationError,
    MethodParams,
    PoleError,
    amplification_matrix,
    bell_complete,
    charpoly_coeffs,
    fit_slope,
    params_from_rho,
    power_sums,
    recurrence_residual,
    verify_order_conditions,
)


def _partition_bell(l, x):
    """Independent oracle: sum over integer partitions of l.

    B_l = sum over (m_1, ..., m_l) with sum i*m_i = l of
    l! / (prod m_i! * (i!)^m_i) * prod x_i^m_i, evaluated exactly.
    """
    total = Fraction(0)

    def rec(i, remaining, coeff_den, term):
        nonlocal total
        if i > remaining:
            if remaining == 0:
                total += Fraction(factorial(l), coeff_den) * term
            return
        m = 0
        while m * i <= remaining:
            rec(
                i + 1,
                remaining - m * i,
                coeff_den * factorial(m) * factorial(i) ** m,
                term * x[i - 1] ** m,
            )
            m += 1

    rec(1, l, 1, Fraction(1))
    return total


def test_power_sums_identity():
    assert power_sums(np.eye(3), 4) == (3.0, 3.0, 3.0, 3.0)


def test_power_sums_diagonal():
    s = power_sums(np.diag([2.0, 3.0]), 3)
    assert s == (5.0, 13.0, 35.0)


def test_power_sums_first_is_trace():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    s = power_sums(A, 2)
    assert abs(s[0] - np.trace(A)) <= 1e-13 * max(1.0, abs(np.trace(A)))


def test_bell_index_zero_is_one():
    assert bell_complete(0, []) == 1


def test_bell_negative_index_rejected():
    with pytest.raises(ConfigurationError, match=">= 0"):
        bell_complete(-1, [])


def test_bell_arity_checked():
    with pytest.raises(ConfigurationError, match="B_3 needs exactly 3 arguments, got 2"):
        bell_complete(3, [1, 2])


def test_bell_small_integer_values():
    assert bell_complete(2, [1, 1]) == 2
    assert bell_complete(4, [1, 1, 1, 1]) == 15
    assert bell_complete(6, [1, 0, 0, 0, 0, 0]) == 1


def test_bell_determinant_equals_expanded_forms_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        for l in range(2, 7):
            x = [
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                for _ in range(l)
            ]
            assert bell_complete(l, x) == BELL_CLOSED_FORMS[l](*x)


def test_bell_determinant_equals_partition_sum_exactly():
    # l reaches 12, the largest order charpoly_coeffs asks for
    rng = np.random.default_rng(99)
    for _ in range(10):
        for l in range(1, 13):
            x = [
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
                for _ in range(l)
            ]
            assert bell_complete(l, x) == _partition_bell(l, x)


def test_bell_over_integer_arrays_stays_in_the_integers():
    # elementwise over object arrays of Python ints: any division would turn
    # an entry into a Fraction or a float
    rng = np.random.default_rng(5)
    for l in range(1, 13):
        x = rng.integers(-6, 7, (l, 40)).astype(object)
        got = bell_complete(l, x)
        assert got.dtype == object and got.shape == (40,)
        for e in range(40):
            assert type(got[e]) is int
            assert got[e] == _partition_bell(l, list(x[:, e]))


def test_bell_float_path_tracks_exact_path():
    rng = np.random.default_rng(8)
    for l in (3, 6, 8):
        xi = [int(v) for v in rng.integers(-4, 5, l)]
        exact = bell_complete(l, xi)
        approx = bell_complete(l, [float(v) for v in xi])
        scale = max(1.0, abs(float(exact)))
        assert abs(complex(approx) - float(exact)) <= 1e-10 * scale


def test_charpoly_diagonal_two_by_two():
    coeffs = charpoly_coeffs(np.diag([2.0, 3.0]))
    assert coeffs.n == 2
    np.testing.assert_allclose(coeffs.c, [6.0, -5.0], rtol=0, atol=1e-13)
    assert abs(coeffs.evaluate(2.0)) <= 1e-12
    assert abs(coeffs.evaluate(3.0)) <= 1e-12


def test_charpoly_identity_gives_binomials():
    n = 5
    coeffs = charpoly_coeffs(np.eye(n))
    expected = [(-1.0) ** (n - i) * factorial(n) / (factorial(i) * factorial(n - i))
                for i in range(n)]
    np.testing.assert_allclose(coeffs.c, expected, rtol=1e-12)


def test_charpoly_matches_root_products():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 8):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs = charpoly_coeffs(A)
        monic = np.poly(np.linalg.eigvals(A))
        scale = max(1.0, np.max(np.abs(monic)))
        np.testing.assert_allclose(
            coeffs.c, monic[1:][::-1], rtol=0, atol=1e-8 * scale
        )


def test_charpoly_newton_identity_consistency():
    rng = np.random.default_rng(44)
    for n in (2, 4, 6, 8):
        A = rng.standard_normal((n, n))
        c = charpoly_coeffs(A).c
        s = power_sums(A, n)
        scale = max(1.0, max(abs(v) for v in s))
        for l in range(1, n + 1):
            acc = s[l - 1] + l * c[n - l]
            for i in range(1, l):
                acc += c[n - i] * s[l - i - 1]
            assert abs(acc) <= 1e-10 * scale


def test_charpoly_amplification_pattern_two_stage():
    # n = 4: coefficients in terms of traces of powers and the determinant
    G = amplification_matrix(params_from_rho([0.8, 0.2]), 0.7).dense
    c = charpoly_coeffs(G).c
    s1, s2, s3 = power_sums(G, 3)
    assert abs(c[3] + s1) <= 1e-13
    assert abs(c[2] - 0.5 * (s1 ** 2 - s2)) <= 1e-13
    assert abs(c[1] + (s1 ** 3 - 3.0 * s2 * s1 + 2.0 * s3) / 6.0) <= 1e-13
    assert abs(c[0] - np.linalg.det(G)) <= 1e-13


def test_charpoly_dimension_cap():
    with pytest.raises(ConfigurationError, match="n = 13"):
        charpoly_coeffs(np.eye(13))
    with pytest.raises(ConfigurationError, match="square"):
        charpoly_coeffs(np.ones((2, 3)))


def test_cayley_hamilton_on_random_matrices():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        G = rng.standard_normal((n, n))
        c = charpoly_coeffs(G).c
        P = np.linalg.matrix_power(G, n).astype(complex)
        for i in range(n):
            P += c[i] * np.linalg.matrix_power(G, i)
        bound = 1e-9 * (1.0 + np.linalg.norm(G, 2)) ** n
        assert np.linalg.norm(P, 2) <= bound


def test_recurrence_residual_third_order_ratio():
    # single stage: residual scales like tau^3, so halving tau divides it by 8
    prm = params_from_rho([0.5])
    ratio = recurrence_residual(prm, 1.0, 1e-2) / recurrence_residual(prm, 1.0, 5e-3)
    assert abs(ratio - 8.0) <= 0.05 * 8.0


def test_recurrence_slope_single_stage():
    prm = params_from_rho([0.5])
    taus = np.logspace(-2, -3, 6)
    fit = fit_slope(taus, [recurrence_residual(prm, 1.0, t) for t in taus])
    assert 2.9 <= fit.slope <= 3.1
    assert fit.kept == 6


def test_recurrence_slope_two_stage():
    # all 2k roots carry an O(tau^3) defect, so the product residual decays
    # like tau^(3k); the fitted value sits below 6 at measurable tau
    prm = params_from_rho([0.5, 0.5])
    taus = np.logspace(-0.5, -1.75, 6)
    fit = fit_slope(taus, [recurrence_residual(prm, 1.0, t) for t in taus])
    assert 5.4 <= fit.slope <= 6.1
    assert fit.kept == 6


def test_recurrence_slope_three_stage():
    prm = params_from_rho([0.5, 0.5, 0.5])
    taus = np.logspace(-0.25, -1.0, 6)
    fit = fit_slope(taus, [recurrence_residual(prm, 1.0, t) for t in taus])
    assert 7.3 <= fit.slope <= 9.2


def _mp_residual(prm, lambda_theta, tau):
    """50-digit |prod_j det(z I - G_j)| at z = exp(-theta) from the 2x2 stage blocks."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        th = mpmath.mpc(lambda_theta) * mpmath.mpf(tau)
        z = mpmath.exp(-th)
        af = mpmath.mpf(prm.alpha_f)
        prod = mpmath.mpc(1)
        for j in range(prm.k):
            a, g = mpmath.mpf(prm.alpha[j]), mpmath.mpf(prm.gamma[j])
            if j < prm.k - 1:
                den = a + g * th
                b00, b11 = a, a + (g - 1) * th - 1
            else:
                den = a + af * g * th
                b00, b11 = a + (af - 1) * g * th, a + af * (g - 1) * th - 1
            prod *= (z - b00 / den) * (z - b11 / den) - (a - g) * (-th) / den ** 2
        return float(abs(prod))


def test_recurrence_residual_matches_mpmath_at_small_tau():
    # the product form carries no absolute roundoff floor: relative accuracy
    # holds down to residuals near 1e-40 (k = 4, tau = 1e-3)
    taus = np.logspace(-3.0, -2.0, 6)
    worst = 0.0
    for k in (1, 2, 3, 4):
        for rho in ([0.5] * k, [0.0] * k, [1.0] * k, [0.9, 0.1, 0.4, 0.7][:k]):
            prm = params_from_rho(rho)
            for lam in (1.0, np.exp(1j * np.pi / 3)):
                for tau in taus:
                    ref = _mp_residual(prm, lam, tau)
                    got = recurrence_residual(prm, lam, tau)
                    worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-9


def test_recurrence_residual_matches_charpoly_route():
    # the Bell/power-sum coefficients evaluated as a monomial carry an absolute
    # error near 1e-16, so they resolve the residual only at moderate theta
    worst = 0.0
    for k in (1, 2, 3, 4):
        for rho in ([0.5] * k, [0.9, 0.1, 0.4, 0.7][:k]):
            prm = params_from_rho(rho)
            for lam in (1.0, np.exp(1j * np.pi / 3)):
                for th in np.linspace(0.6, 1.0, 5):
                    G = amplification_matrix(prm, lam * th).dense
                    ref = abs(charpoly_coeffs(G).evaluate(np.exp(-lam * th)))
                    got = recurrence_residual(prm, lam, th)
                    worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-8


def test_recurrence_residual_reports_pole():
    prm = params_from_rho([1.0])
    with pytest.raises(PoleError):
        recurrence_residual(prm, -1.0, 2.0)


def test_order_conditions_pass_for_derived_params():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        report = verify_order_conditions(prm)
        assert report.all_ok
        assert report.max_residual <= 1e-13


def test_order_condition_residuals_one_per_stage_in_order():
    # dyadic coefficients on the order law; shifting gamma_j by 2^-j moves
    # only stage j's residual, to exactly 2^-j
    prm = MethodParams(3, (1.25, 1.25, 0.75), 0.5, (0.75, 0.75, 0.75))
    shifts = (0.5, 0.25, 0.125)
    pert = prm.with_gamma([g + d for g, d in zip(prm.gamma, shifts)])
    assert verify_order_conditions(pert).residuals == shifts
    assert verify_order_conditions(prm).residuals == (0.0, 0.0, 0.0)


def test_order_conditions_catch_perturbation():
    prm = params_from_rho([0.5, 0.5])
    pert = prm.with_gamma((prm.gamma[0] + 1e-3, prm.gamma[1]))
    report = verify_order_conditions(pert)
    assert not report.all_ok
    first, last = report.residuals
    assert abs(first - 1e-3) <= 1e-12
    assert last <= 1e-12
    assert report.max_residual == first


@pytest.mark.parametrize("gamma", [(nan, 0.75), (0.75, nan)], ids=["first", "last"])
def test_order_condition_max_residual_carries_nan(gamma):
    report = verify_order_conditions(MethodParams(2, (1.25, 0.75), 0.5, gamma))
    assert not report.all_ok
    assert isnan(report.max_residual)


def test_fit_slope_recovers_exact_power():
    taus = np.logspace(-1, -3, 7)
    fit = fit_slope(taus, 3.0 * taus ** 4)
    assert abs(fit.slope - 4.0) <= 1e-10
    assert fit.kept == 7
    assert fit.floor == 100.0 * np.finfo(float).eps


def test_fit_slope_discards_floored_points():
    taus = np.logspace(-1, -5, 9)
    values = np.maximum(taus ** 3, 1e-15)
    fit = fit_slope(taus, values)
    assert fit.kept < 9
    assert abs(fit.slope - 3.0) <= 1e-6


def test_fit_slope_needs_five_samples():
    with pytest.raises(ConfigurationError, match="at least 5"):
        fit_slope([0.1, 0.05, 0.025, 0.0125], [1, 1, 1, 1])


def test_fit_slope_needs_points_above_floor():
    taus = np.logspace(-1, -2, 5)
    with pytest.raises(ConfigurationError, match="roundoff floor"):
        fit_slope(taus, np.full(5, 1e-16))
