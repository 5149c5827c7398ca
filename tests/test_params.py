"""Parameter maps from the dissipation controls and the stability bounds."""

from math import factorial

import numpy as np
import pytest

from galpha import (
    ConfigurationError,
    MethodParams,
    params_from_rho,
    validate_stability,
)


def test_single_stage_no_dissipation_is_trapezoid():
    prm = params_from_rho([1.0])
    assert prm.k == 1
    assert prm.alpha == (0.5,)
    assert prm.alpha_f == 0.5
    assert prm.gamma == (0.5,)


def test_single_stage_full_dissipation():
    prm = params_from_rho([0.0])
    assert prm.alpha == (1.5,)
    assert prm.alpha_f == 1.0
    assert prm.gamma == (1.0,)


def test_two_stage_mixed_controls_exact():
    # rho = [0.8, 0.2]: alpha = (19/18, 7/6), alpha_f = 5/6, gamma = (5/9, 5/6)
    prm = params_from_rho([0.8, 0.2])
    assert prm.alpha == (19.0 / 18.0, 7.0 / 6.0)
    assert prm.alpha_f == 5.0 / 6.0
    assert prm.gamma == (5.0 / 9.0, 5.0 / 6.0)


def test_gamma_is_reciprocal_of_one_plus_rho():
    # both stage formulas collapse to gamma_j = 1/(1 + rho_j)
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        rho = rng.uniform(0.0, 1.0, k)
        prm = params_from_rho(rho.tolist())
        np.testing.assert_allclose(prm.gamma, 1.0 / (1.0 + rho), rtol=1e-14)


def test_gamma_strictly_decreasing_in_rho():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        if lo == hi:
            continue
        g_lo = params_from_rho([lo]).gamma[0]
        g_hi = params_from_rho([hi]).gamma[0]
        assert g_hi < g_lo


def test_bounds_hold_across_the_whole_control_range():
    # closed-form values sit exactly on the bounds at the endpoints;
    # validation must accept them without epsilon slop
    for rho in np.linspace(0.0, 1.0, 101):
        for k in (1, 2, 3, 4):
            prm = params_from_rho([float(rho)] * k)
            violations = validate_stability(prm)
            assert violations == (), violations


def test_params_accepts_plain_sequence():
    ref = params_from_rho([0.5, 0.25])
    assert params_from_rho((0.5, 0.25)) == ref
    assert params_from_rho(np.array([0.5, 0.25])) == ref
    assert params_from_rho(iter([0.5, 0.25])) == ref


def test_empty_rho_rejected():
    with pytest.raises(ConfigurationError,
                       match="stage count k must be >= 1, got an empty rho list"):
        params_from_rho([])


def test_rho_out_of_range_names_the_offender():
    with pytest.raises(ConfigurationError, match=r"rho\[1\] = 1.5 lies outside \[0, 1\]"):
        params_from_rho([0.5, 1.5])
    with pytest.raises(ConfigurationError, match=r"rho\[0\]"):
        params_from_rho((-0.1,))


def test_violation_strings_name_each_bound():
    # the four bounds in stage-table terms: alpha_j >= c_j = 1 on an inner
    # stage, alpha_k >= c_k = alpha_f, c_k = alpha_f >= 1/2, and gamma_j > 0
    assert validate_stability(MethodParams(2, (0.9, 1.2), 0.8, (0.4, 0.9))) == (
        "alpha_1 >= c_1",)
    assert validate_stability(MethodParams(1, (0.4,), 0.45, (0.7,))) == (
        "alpha_1 >= c_1", "c_1 >= 1/2")
    assert validate_stability(MethodParams(1, (1.0,), 0.5, (0.0,))) == ("gamma_1 > 0",)
    assert validate_stability(MethodParams(2, (1.0, 0.7), 0.75, (0.5, -0.1))) == (
        "alpha_2 >= c_2", "gamma_2 > 0")


def test_valid_params_report_no_violations():
    assert validate_stability(params_from_rho([0.3, 0.9])) == ()


def test_with_gamma_replaces_only_gamma():
    prm = params_from_rho([0.5, 0.5])
    pert = prm.with_gamma((prm.gamma[0] + 0.01, prm.gamma[1]))
    assert pert.alpha == prm.alpha
    assert pert.alpha_f == prm.alpha_f
    assert pert.gamma[0] == prm.gamma[0] + 0.01
    assert pert.gamma[1] == prm.gamma[1]


def test_method_params_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        MethodParams(2, (1.0,), 0.5, (0.5, 0.5))
    with pytest.raises(ConfigurationError):
        MethodParams(2, (1.0, 1.0), 0.5, (0.5,))


def test_taylor_shift_reaches_past_the_float_factorials():
    # 171! is past the float range, so 1.0 / 171! overflows; 1/i! is the
    # correctly rounded quotient (a subnormal at i = 171, zero from i = 178
    # on), and below i = 23, where i! is an exact float, it equals 1.0 / i!
    S = params_from_rho([0.5] * 90)._shift
    assert np.all(np.isfinite(S))
    assert 0.0 < S[0, 171] < np.finfo(float).tiny
    assert S[0, 179] == 0.0
    assert all(S[0, i] == 1.0 / factorial(i) for i in range(23))
