"""The stage table MethodParams._stages against the per-site formulas it replaced.

Each reference below is the two-branch form that its consumer used before
the table existed, copied verbatim: stage j < k with c_j = 1 and b_j = gamma_j,
the last stage with c_k = alpha_f and b_k = alpha_f gamma_k. The consumers
now read (alpha_j, gamma_j, c_j, b_j) from the table, and must agree with the
references bitwise on seeded draws of k = 1..6, rho in [0, 1]^k (0 and 1
included), complex theta in the right half-plane up to 1e10 and
tau in [1e-4, 3]. The one exception is the closed-form 2x2 blocks, which
amplification_matrix now copies from the diagonal of its dense matrix; they
agree with the reference to 1e-13 of that matrix's largest entry. The
stability bounds are not numbers: validate_stability must violate the same
bounds as its reference, renamed into table terms, on the draws and on
out-of-range coefficient sets with NaN entries.
"""

from math import fsum

import numpy as np
import pytest

from galpha import (
    ConfigurationError,
    MethodParams,
    PoleError,
    SemiDiscreteSystem,
    StepWorkspace,
    amplification_matrix,
    asymptotic_eigenvalues,
    heat_fem_1d,
    params_from_rho,
    recurrence_residual,
    validate_stability,
    verify_order_conditions,
)
from galpha.cayley import _exp_tail
from galpha.integrator import _Factorization
from galpha.spectral import KERNEL_CHUNK, _stage_root_magnitudes

DRAWS = 1000


def _ref_stage_blocks(params, theta):
    th = complex(theta)
    k = params.k
    blocks = []
    for j in range(k):
        a = params.alpha[j]
        g = params.gamma[j]
        if j < k - 1:
            den = a + g * th
            if den == 0:
                raise PoleError(j + 1, theta)
            blocks.append(np.array(
                [[a, a - g],
                 [-th, a + (g - 1.0) * th - 1.0]], dtype=complex) / den)
        else:
            af = params.alpha_f
            den = a + af * g * th
            if den == 0:
                raise PoleError(j + 1, theta)
            blocks.append(np.array(
                [[a + (af - 1.0) * g * th, a - g],
                 [-th, a + af * (g - 1.0) * th - 1.0]], dtype=complex) / den)
    return blocks


def _ref_stage_root_magnitudes(params, theta):
    th = np.asarray(theta, dtype=complex)
    k = params.k
    rows = []
    for j in range(k):
        a, g = params.alpha[j], params.gamma[j]
        c = 1.0 if j < k - 1 else params.alpha_f
        rows.append((a, c * g, 2.0 * a - 1.0, -(g * (1.0 - c) + c * (1.0 - g)),
                     a - 1.0, (1.0 - g) * (1.0 - c), 2.0 * (g + c - 2.0 * a), (g - c) ** 2))
    a, b, n0, n1, d0, d1, p1, p2 = np.array(rows).T[:, :, None]
    nodes = th.reshape(1, -1)
    n = nodes.shape[1]
    mags = np.empty((n, k, 2))
    poles = np.empty((n, k), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, KERNEL_CHUNK):
            part = slice(lo, lo + KERNEL_CHUNK)
            t = nodes[:, part]
            poles[part] = (a + b * t == 0).T
            x = 1.0 / np.maximum(1.0, np.abs(t))
            y = t * x
            num = n0 * x + n1 * y
            s = np.sqrt((x + p1 * y) * x + p2 * y * y)
            big = num + np.where(num.real * s.real + num.imag * s.imag < 0, -s, s)
            m1 = np.abs(big) / (2.0 * np.abs(a * x + b * y))
            m2 = np.where(big == 0, 0.0, 2.0 * np.abs(d0 * x + d1 * y) / np.abs(big))
            mags[part, :, 0] = np.maximum(m1, m2).T
            mags[part, :, 1] = np.minimum(m1, m2).T
    return mags.reshape(th.shape + (2 * k,)), poles.reshape(th.shape + (k,))


def _ref_recurrence_residual(params, lambda_theta, tau):
    theta = complex(lambda_theta * tau)
    small = abs(theta) <= 1.0
    if small:
        tail = _exp_tail(theta)
        s = theta * theta / 2.0 + tail
    else:
        z = complex(np.exp(-theta))
    k = params.k
    product = complex(1.0)
    for j in range(k):
        a, g = params.alpha[j], params.gamma[j]
        b, c = (g, 1.0) if j < k - 1 else (params.alpha_f * g, params.alpha_f)
        den = a + b * theta
        if den == 0:
            raise PoleError(j + 1, theta)
        if small:
            e2 = fsum((a, -g, -c, 0.5))
            num = (tail + e2 * theta ** 2 + b * theta ** 3
                   + (g + c - 2.0 * den) * theta * s + den * s * s)
        else:
            num = (den * z * z - (2.0 * den - 1.0 - (g + c) * theta) * z
                   + a - 1.0 + (b + 1.0 - g - c) * theta)
        product *= num / den
    return abs(product)


def _ref_asymptotic_eigenvalues(params):
    k = params.k
    out = []
    for j in range(k - 1):
        g = params.gamma[j]
        out.extend([0.0 + 0.0j, complex((g - 1.0) / g)])
    g = params.gamma[k - 1]
    af = params.alpha_f
    out.extend([complex((af - 1.0) / af), complex((g - 1.0) / g)])
    return tuple(out)


def _ref_stage_coefficients(params, tau):
    """The K coefficient of each stage matrix alpha_j M + coef_j K."""
    k = params.k
    out = []
    for j in range(k):
        coef = params.gamma[j] * tau
        if j == k - 1:
            coef *= params.alpha_f
        out.append(coef)
    return out


def _ref_validate_stability(params):
    violations = []
    k = params.k
    for j in range(k - 1):
        if not params.alpha[j] >= 1.0:
            violations.append("alpha_%d >= 1" % (j + 1,))
    if not params.alpha[k - 1] >= params.alpha_f:
        violations.append("alpha_%d >= alpha_f" % (k,))
    if not params.alpha_f >= 0.5:
        violations.append("alpha_f >= 1/2")
    for j in range(k):
        if not params.gamma[j] > 0.0:
            violations.append("gamma_%d > 0" % (j + 1,))
    return tuple(violations)


def _ref_order_residuals(params):
    """The residual of each ConditionCheck that verify_order_conditions built."""
    residuals = []
    k = params.k
    for j in range(k - 1):
        target = params.alpha[j] - 0.5
        res = abs(params.gamma[j] - target)
        residuals.append(res)
    target = 0.5 - params.alpha_f + params.alpha[k - 1]
    res = abs(params.gamma[k - 1] - target)
    residuals.append(res)
    return tuple(residuals)


def _pentadiagonal(n):
    """The SPD Toeplitz band [1, -4, 6, -4, 1]: half-bandwidth 2."""
    return 6.0 * np.eye(n) + sum(c * (np.eye(n, k=d) + np.eye(n, k=-d))
                                 for d, c in ((1, -4.0), (2, 1.0)))


def _draws(seed, n=DRAWS):
    """(params, theta) pairs: k in 1..6, rho in [0, 1]^k with 0 and 1 drawn
    often, Re theta >= 0 and |theta| in [1e-6, 1e10]. A quarter of the draws
    shift every gamma, as order-check's perturbation does, so the table is
    also checked off the rho parameterization."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(1, 7))
        rho = rng.uniform(0.0, 1.0, k)
        pick = rng.random(k)
        rho[pick < 0.2] = 0.0
        rho[pick > 0.8] = 1.0
        prm = params_from_rho(rho.tolist())
        if rng.random() < 0.25:
            prm = prm.with_gamma(np.array(prm.gamma) + rng.uniform(-0.05, 0.05, k))
        phase = rng.choice([-np.pi / 2, 0.0, np.pi / 2, rng.uniform(-np.pi / 2, np.pi / 2)])
        r = 10.0 ** rng.uniform(-6.0, 10.0)
        theta = complex(0.0 if abs(phase) == np.pi / 2 else r * np.cos(phase), r * np.sin(phase))
        yield prm, theta


def test_table_rows_follow_the_last_stage_shift():
    prm = params_from_rho([0.3, 0.9, 0.0])
    assert len(prm._stages) == 3
    for j, (a, g, c, b) in enumerate(prm._stages):
        assert (a, g) == (prm.alpha[j], prm.gamma[j])
        assert c == (prm.alpha_f if j == 2 else 1.0)
        assert b == c * g
    assert prm._stages is prm._stages


def _left_half_plane_draws():
    """(params, theta) pairs: k in 1..4 with Re theta in [-5, 50]."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        yield prm, complex(rng.uniform(-5, 50), rng.uniform(-50, 50))


def test_stage_blocks_equal_the_two_branch_blocks_bitwise():
    # bitwise against dense's diagonal, which the blocks are copied from; the
    # two-branch closed form agrees with them to 1e-13 of dense's largest entry
    for prm, theta in [*_draws(1), *_left_half_plane_draws()]:
        amp = amplification_matrix(prm, theta)
        scale = max(1.0, float(np.max(np.abs(amp.dense))))
        for j, (B, R) in enumerate(zip(amp.blocks, _ref_stage_blocks(prm, theta), strict=True)):
            assert np.array_equal(B, amp.dense[2 * j:2 * j + 2, 2 * j:2 * j + 2])
            assert np.max(np.abs(B - R)) <= 1e-13 * scale


def test_kernel_equals_the_two_branch_kernel_bitwise():
    # one array per method: theta scaled down to 1e-16 of itself, the mirror
    # images in the left half-plane, and the first stage's pole
    rng = np.random.default_rng(2)
    for prm, theta in _draws(2, n=DRAWS // 10):
        grid = theta * np.concatenate([[1.0], 10.0 ** rng.uniform(-16.0, 0.0, 63)])
        pole = -prm.alpha[0] / (prm.gamma[0] * (prm.alpha_f if prm.k == 1 else 1.0))
        grid = np.concatenate([grid, -grid.real + 1j * grid.imag, [0.0, pole]])
        for new, ref in zip(_stage_root_magnitudes(prm, grid),
                            _ref_stage_root_magnitudes(prm, grid), strict=True):
            assert np.array_equal(new, ref, equal_nan=True)


def test_recurrence_residual_equals_the_two_branch_residual_bitwise():
    rng = np.random.default_rng(3)
    for prm, theta in _draws(3):
        lam = theta / max(1.0, abs(theta)) * 10.0 ** rng.uniform(-2.0, 2.0)
        tau = 10.0 ** rng.uniform(-4.0, np.log10(3.0))
        assert recurrence_residual(prm, lam, tau) == _ref_recurrence_residual(prm, lam, tau)


def test_asymptotic_eigenvalues_equal_the_two_branch_limits_bitwise():
    for prm, _ in _draws(4):
        assert np.array_equal(asymptotic_eigenvalues(prm), _ref_asymptotic_eigenvalues(prm))


def test_asymptotic_eigenvalues_reject_a_zero_coefficient():
    with pytest.raises(ConfigurationError, match="stage 2 has no asymptotic limit"):
        asymptotic_eigenvalues(params_from_rho([0.5, 0.5]).with_gamma([0.6, 0.0]))


def _out_of_range_params(seed, n=DRAWS):
    """MethodParams with k in 1..6 and every entry uniform in [-1, 3], where
    a tenth of the entries are NaN."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(1, 7))
        v = rng.uniform(-1.0, 3.0, 2 * k + 1)
        v[rng.random(v.size) < 0.1] = np.nan
        yield MethodParams(k, v[:k], v[k], v[k + 1:])


def test_stability_bounds_equal_the_two_branch_bounds():
    # the same bounds violated, once renamed: with c_j = 1 (j < k) and
    # c_k = alpha_f, "alpha_j >= 1", "alpha_k >= alpha_f" and "alpha_f >= 1/2"
    # read "alpha_j >= c_j", "alpha_k >= c_k" and "c_k >= 1/2"
    params = [prm for prm, _ in _draws(6)] + list(_out_of_range_params(7))
    rejected = 0
    for prm in params:
        k = prm.k
        renamed = {"alpha_%d >= alpha_f" % k: "alpha_%d >= c_%d" % (k, k),
                   "alpha_f >= 1/2": "c_%d >= 1/2" % k}
        renamed.update(("alpha_%d >= 1" % j, "alpha_%d >= c_%d" % (j, j)) for j in range(1, k))
        new, ref = validate_stability(prm), _ref_validate_stability(prm)
        assert bool(new) == bool(ref)
        assert len(new) == len(ref)
        assert sorted(new) == sorted(renamed.get(v, v) for v in ref)
        rejected += bool(ref)
    assert 0 < rejected < len(params)


def test_order_residuals_equal_the_two_branch_residuals_bitwise():
    for prm, _ in _draws(8):
        assert verify_order_conditions(prm).residuals == _ref_order_residuals(prm)


def test_stage_factors_equal_the_two_branch_factors_bitwise():
    # the tridiagonal heat stages (LDL^T: factors d, e) and a pentadiagonal
    # stiffness (banded Cholesky: factor ab) on the same mass
    heat = heat_fem_1d(9, 1.0)
    penta = SemiDiscreteSystem(n=heat.n, M=heat.M, K=_pentadiagonal(heat.n),
                               forcing=heat.forcing)
    assert (heat.K.u, penta.K.u) == (1, 2)
    rng = np.random.default_rng(5)
    for prm, _ in _draws(5, n=DRAWS // 5):
        tau = 10.0 ** rng.uniform(-4.0, np.log10(3.0))
        for system, n_factors in ((heat, 2), (penta, 1)):
            ws = StepWorkspace.build(system, prm, tau)
            coefs = _ref_stage_coefficients(prm, tau)
            for j, (coef, fac) in enumerate(zip(coefs, ws.factors, strict=True)):
                ref = _Factorization(system.M.combine(prm.alpha[j], system.K, coef))
                assert len(fac.factors) == len(ref.factors) == n_factors
                for got, want in zip(fac.factors, ref.factors):
                    assert got.tobytes() == want.tobytes()
