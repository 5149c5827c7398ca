"""Self-starting initialization and the k-stage stepping loop."""

import os
import re
import subprocess
import sys
import time
from math import factorial

import numpy as np
import pytest

import galpha
from galpha import (
    ConfigurationError,
    GalphaError,
    LinearSolveError,
    SemiDiscreteSystem,
    StateVector,
    StepWorkspace,
    amplification_matrix,
    heat_fem_1d,
    init_state,
    integrate,
    manufactured_heat,
    params_from_rho,
    scalar_mode,
    step,
    MethodParams,
    SymmetricBanded,
)
from galpha.integrator import _Factorization, _flapack


def test_init_state_scalar_stack_exact():
    # u' = -2u from u0 = 1: u^(m) = (-2)^m, scaled by tau^m = 1
    state = init_state(scalar_mode(2.0), np.array([1.0]), k=2, tau=1.0)
    np.testing.assert_array_equal(state.data, [[1.0], [-2.0], [4.0], [-8.0]])


def test_init_state_applies_tau_scaling():
    state = init_state(scalar_mode(2.0), np.array([1.0]), k=2, tau=0.5)
    np.testing.assert_array_equal(state.data, [[1.0], [-1.0], [1.0], [-1.0]])


def test_init_state_zero_everything():
    state = init_state(scalar_mode(1.0), np.array([0.0]), k=3, tau=0.1)
    assert np.all(state.data == 0.0)


def test_init_state_recovers_heat_rate():
    # M V = F - K U0 reproduces u_t(x, 0) to O(h^2)
    case = manufactured_heat("sin-decay")
    errs = []
    for ne in (10, 20):
        system = case.assemble(ne)
        x = np.arange(1, ne) / ne
        state = init_state(system, case.u0(x), k=1, tau=0.3)
        errs.append(np.max(np.abs(state.derivative(1) - case.u_t(x, 0.0))))
    assert errs[0] <= 1e-2
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_init_state_checks_forcing_orders():
    system = scalar_mode(1.0)
    system.m_max = 1
    with pytest.raises(ConfigurationError, match="m_max = 1"):
        init_state(system, np.array([1.0]), k=2, tau=0.1)


def test_init_state_rejects_singular_mass():
    system = SemiDiscreteSystem(
        n=2,
        M=np.array([[1.0, 1.0], [1.0, 1.0]]),
        K=np.eye(2),
        forcing=lambda m, t: np.zeros(2),
    )
    with pytest.raises(LinearSolveError):
        init_state(system, np.zeros(2), k=1, tau=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_init_state_rejects_nonfinite_u0(bad):
    with pytest.raises(ConfigurationError, match="U0 must be finite"):
        init_state(scalar_mode(1.0), np.array([bad]), k=1, tau=0.1)


@pytest.mark.parametrize("tau", [1e200, np.float64(1e200)])
def test_tau_whose_top_power_overflows_rejected(tau):
    # k = 2 scales by tau^3 = 1e600; k = 1 needs only tau itself
    system = scalar_mode(1.0)
    with pytest.raises(ConfigurationError, match=r"tau\^3 overflows"):
        init_state(system, np.array([1.0]), k=2, tau=tau)
    with pytest.raises(ConfigurationError, match=r"tau\^3 overflows"):
        StepWorkspace.build(system, params_from_rho([0.5, 0.5]), tau)
    assert init_state(system, np.array([1.0]), k=1, tau=tau).tau == 1e200


def test_init_state_solves_with_a_pentadiagonal_mass():
    # u = 2: the banded Cholesky path beyond the tridiagonal FEM matrices
    M = (np.diag(np.full(6, 6.0)) + np.diag(np.full(5, -4.0), 1) + np.diag(np.full(5, -4.0), -1)
         + np.diag(np.full(4, 1.0), 2) + np.diag(np.full(4, 1.0), -2))
    K = np.diag(np.arange(1.0, 7.0))
    system = SemiDiscreteSystem(n=6, M=M, K=K, forcing=lambda m, t: np.ones(6))
    assert system.M.u == 2
    U0 = np.linspace(-1.0, 1.0, 6)
    state = init_state(system, U0, k=1, tau=1.0)
    np.testing.assert_allclose(state.data[1], np.linalg.solve(M, np.ones(6) - K @ U0),
                               rtol=1e-12)


def test_init_state_validates_inputs():
    with pytest.raises(ConfigurationError, match="k must be >= 1"):
        init_state(scalar_mode(1.0), np.array([1.0]), k=0, tau=0.1)
    with pytest.raises(ConfigurationError, match="tau must be positive"):
        init_state(scalar_mode(1.0), np.array([1.0]), k=1, tau=0.0)
    with pytest.raises(ConfigurationError, match="shape"):
        init_state(scalar_mode(1.0), np.array([1.0, 2.0]), k=1, tau=0.1)


def test_single_step_is_trapezoidal_for_rho_one():
    prm = params_from_rho([1.0])
    system = scalar_mode(1.0)
    tau = 0.1
    state = init_state(system, np.array([1.0]), k=1, tau=tau)
    ws = StepWorkspace.build(system, prm, tau)
    out = step(state, system, prm, 0.0, tau, ws)
    r = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
    assert abs(out.u[0] - r) <= 1e-15


def test_trajectory_matches_trapezoidal_closed_form():
    prm = params_from_rho([1.0])
    tau = 0.1
    traj = integrate(scalar_mode(1.0), np.array([1.0]), prm, tau, 10)
    r = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
    for i, state in enumerate(traj):
        assert abs(state.u[0] - r ** i) <= 1e-13


def test_step_equals_amplification_matrix_action():
    prm = params_from_rho([0.5, 0.5])
    system = scalar_mode(1.0)
    tau = 0.5
    v = np.array([1.0, -0.5, 0.25, -0.125])
    state = StateVector(k=2, tau=tau, data=v[:, None])
    ws = StepWorkspace.build(system, prm, tau)
    out = step(state, system, prm, 0.0, tau, ws)
    expected = amplification_matrix(prm, tau).dense.real @ v
    np.testing.assert_allclose(out.data[:, 0], expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("k", [5, 6])
def test_step_equals_amplification_matrix_action_at_high_stage_counts(k):
    rng = np.random.default_rng(k)
    system = scalar_mode(1.0)
    for _ in range(10):
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        tau = 10.0 ** rng.uniform(-3.0, 3.0)
        v = rng.standard_normal(2 * k)
        state = StateVector(k=k, tau=tau, data=v[:, None])
        out = step(state, system, prm, 0.0, tau, StepWorkspace.build(system, prm, tau))
        expected = amplification_matrix(prm, tau).dense.real @ v
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(out.data[:, 0] - expected)) <= 1e-12 * scale


def test_stepper_equals_matrix_powers():
    rng = np.random.default_rng(606)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
        theta = 10.0 ** rng.uniform(-3, 3)
        system = scalar_mode(1.0)
        state = init_state(system, np.array([1.0]), k=k, tau=theta)
        ws = StepWorkspace.build(system, prm, theta)
        G = amplification_matrix(prm, theta).dense.real
        v = state.data[:, 0].copy()
        for i in range(10):
            state = step(state, system, prm, i * theta, theta, ws)
            v = G @ v
            scale = max(1.0, np.max(np.abs(v)))
            assert np.max(np.abs(state.data[:, 0] - v)) <= 1e-12 * scale


def test_zero_state_stays_zero():
    prm = params_from_rho([0.3, 0.8])
    traj = integrate(scalar_mode(4.0), np.array([0.0]), prm, 0.25, 8)
    assert all(np.all(s.data == 0.0) for s in traj)


def test_halving_tau_scales_error_by_global_order():
    system = scalar_mode(1.0)
    exact = np.exp(-1.0)

    def err(k, tau):
        prm = params_from_rho([0.5] * k)
        traj = integrate(system, np.array([1.0]), prm, tau, round(1.0 / tau))
        return abs(traj[-1].u[0] - exact)

    # k = 2 is third order: ratio 8; k = 3 is fifth order: ratio 32
    assert 7.0 <= err(2, 0.25) / err(2, 0.125) <= 9.5
    assert 26.0 <= err(3, 0.25) / err(3, 0.125) <= 36.0


def test_unconditionally_stable_at_huge_theta():
    # seed only the solution component: a stiff mode is damped hard on the
    # first step and then contracts by rho_inf = 0.5 per step, with no
    # step-size restriction (theta = tau * lambda up to 1e6 here)
    prm = params_from_rho([0.5, 0.5, 0.5])
    system = scalar_mode(1e3)
    for tau in (10.0, 1000.0):
        state = StateVector(k=3, tau=tau, data=np.array([[1.0], [0.0], [0.0], [0.0], [0.0], [0.0]]))
        ws = StepWorkspace.build(system, prm, tau)
        mags = [1.0]
        for i in range(20):
            state = step(state, system, prm, i * tau, tau, ws)
            mags.append(abs(state.u[0]))
        assert max(mags) == 1.0
        assert mags[1] <= 1e-3
        assert mags[-1] <= 1e-9
        # asymptotic contraction factor approaches 0.5
        assert all(b / a <= 0.55 for a, b in zip(mags[2:-1], mags[3:]))


def test_workspace_counts_factorizations():
    system = scalar_mode(1.0)
    prm = params_from_rho([0.5, 0.5, 0.5])
    ws = StepWorkspace.build(system, prm, 0.1)
    assert ws.n_factorizations == 3
    assert ws.matches(prm, 0.1, 1)
    assert not ws.matches(prm, 0.2, 1)


def test_workspace_mismatch_rejected():
    system = scalar_mode(1.0)
    prm = params_from_rho([0.5])
    state = init_state(system, np.array([1.0]), k=1, tau=0.1)
    ws = StepWorkspace.build(system, prm, 0.2)
    with pytest.raises(ConfigurationError, match="workspace"):
        step(state, system, prm, 0.0, 0.1, ws)


def test_state_tau_mismatch_rejected():
    system = scalar_mode(1.0)
    prm = params_from_rho([0.5])
    state = init_state(system, np.array([1.0]), k=1, tau=0.1)
    ws = StepWorkspace.build(system, prm, 0.2)
    with pytest.raises(ConfigurationError, match="scaled with tau"):
        step(state, system, prm, 0.0, 0.2, ws)


def test_workspace_rejects_invalid_params():
    bad = MethodParams(1, (0.4,), 0.45, (0.5,))
    with pytest.raises(ConfigurationError, match="stability bounds"):
        StepWorkspace.build(scalar_mode(1.0), bad, 0.1)


def test_state_shape_validation():
    with pytest.raises(ConfigurationError, match=r"\(2k, n\)"):
        StateVector(k=2, tau=0.1, data=np.zeros((3, 1)))


def test_derivative_accessor_unscales():
    state = init_state(scalar_mode(2.0), np.array([1.0]), k=2, tau=0.5)
    assert state.u[0] == 1.0
    assert state.derivative(1)[0] == -2.0
    assert state.derivative(3)[0] == -8.0
    with pytest.raises(ConfigurationError, match="derivative order"):
        state.derivative(4)


def test_integrate_zero_steps():
    traj = integrate(scalar_mode(1.0), np.array([1.0]), params_from_rho([0.5]), 0.1, 0)
    assert len(traj) == 1
    assert traj[0].u[0] == 1.0


@pytest.mark.parametrize("n_steps", [0, 2])
def test_integrate_rejects_a_march_that_overflows(n_steps):
    # the first stage's rhs (n_steps = 2) or the scaled initial derivative
    # tau u'(0) (n_steps = 0) overflows; no warning leaks
    lam = 1.0 if n_steps else 1e200
    with pytest.raises(GalphaError, match="the march overflows"):
        integrate(scalar_mode(lam), np.array([1.0]), params_from_rho([0.5]),
                  1e300 if n_steps else 1e200, n_steps)


def test_integrate_rejects_negative_steps():
    with pytest.raises(ConfigurationError, match="n_steps"):
        integrate(scalar_mode(1.0), np.array([1.0]), params_from_rho([0.5]), 0.1, -1)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_nonfinite_tau_rejected(tau):
    system = scalar_mode(1.0)
    with pytest.raises(ConfigurationError, match="tau must be positive"):
        init_state(system, np.array([1.0]), k=1, tau=tau)
    with pytest.raises(ConfigurationError, match="tau must be positive"):
        StepWorkspace.build(system, params_from_rho([0.5]), tau)


def _dense_step(W, system, prm, t_n, tau):
    # the stage equations on dense matrices, solved by LU
    M, K = system.M.toarray(), system.K.toarray()
    k = prm.k
    new = np.empty_like(W)
    for j in range(1, k + 1):
        e, o = 2 * j - 2, 2 * j - 1
        g, a = prm.gamma[j - 1], prm.alpha[j - 1]
        if j < k:
            t_e = sum(W[e + i] / factorial(i) for i in range(2 * k - e))
            t_o = sum(W[o + i] / factorial(i) for i in range(2 * k - o))
            S = a * M + g * tau * K
            rhs = -M @ t_o - tau * K @ t_e + tau ** o * system.forcing(e, t_n + tau)
            q = np.linalg.solve(S, rhs)
            new[e], new[o] = t_e + g * q, t_o + q
        else:
            af = prm.alpha_f
            S = a * M + af * g * tau * K
            rhs = (-M @ W[o] - tau * K @ (W[e] + af * W[o])
                   + tau ** o * system.forcing(e, t_n + af * tau))
            d = np.linalg.solve(S, rhs)
            new[e], new[o] = W[e] + W[o] + g * d, W[o] + d
    return new


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_banded_step_matches_dense_stage_equations(k):
    rng = np.random.default_rng(40 + k)
    system = manufactured_heat("sin-decay").assemble(16)
    prm = params_from_rho(rng.uniform(0.0, 1.0, k).tolist())
    tau = 0.05
    W = rng.standard_normal((2 * k, system.n))
    ws = StepWorkspace.build(system, prm, tau)
    out = step(StateVector(k=k, tau=tau, data=W), system, prm, 0.3, tau, ws)
    ref = _dense_step(W, system, prm, 0.3, tau)
    assert np.max(np.abs(out.data - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_step_on_a_mesh_too_large_for_dense_storage():
    # n = 65535: dense M and K would take 69 GB; the band takes 1 MiB each
    system = heat_fem_1d(2 ** 16, kappa=1.0)
    assert system.M.ab.shape == (2, 2 ** 16 - 1)
    prm = params_from_rho([0.5, 0.5, 0.5])
    x = np.arange(1, 2 ** 16) / 2.0 ** 16
    t0 = time.perf_counter()
    traj = integrate(system, np.sin(np.pi * x), prm, 1e-3, 1)
    elapsed = time.perf_counter() - t0
    assert np.all(np.isfinite(traj[-1].data))
    assert elapsed < 1.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_stage_matrix_rejected():
    # tau * lambda overflows to inf: a numerical failure, not a LAPACK traceback
    with pytest.raises(LinearSolveError, match="non-finite"):
        StepWorkspace.build(scalar_mode(1e10), params_from_rho([0.5]), 1e300)


def test_lapack_binding_loads_scipys_flapack_file():
    from scipy.linalg import lapack
    assert os.path.samefile(_flapack().__file__, lapack._flapack.__file__)


@pytest.mark.parametrize("u", [0, 1, 2])
def test_lapack_binding_matches_scipy_linalg_bitwise(u):
    from scipy.linalg import lapack
    rng = np.random.default_rng(70 + u)
    n = 40
    ab = rng.uniform(-1.0, 1.0, (u + 1, n))
    ab[u] = 2.0 * u + rng.uniform(0.5, 1.5, n)  # diagonally dominant: SPD
    fac = _Factorization(SymmetricBanded(ab))
    ref, info = lapack.dpbtrf(ab, lower=0)
    assert info == 0
    assert fac.fac.tobytes() == ref.tobytes()
    rhs = rng.standard_normal(n)
    assert fac.solve(rhs).tobytes() == lapack.dpbtrs(ref, rhs, lower=0)[0].tobytes()


def test_lapack_binding_names_the_folder_when_flapack_is_missing(monkeypatch, tmp_path):
    import scipy
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    folder = str(tmp_path / "scipy" / "linalg")
    with pytest.raises(ImportError, match=re.escape(folder)):
        _flapack.__wrapped__()


_MARCH = """
import hashlib, sys
import numpy as np
from galpha import integrate, manufactured_heat, params_from_rho

def march():
    case = manufactured_heat("sin-decay")
    system = case.assemble(64)
    traj = integrate(system, case.u0(np.arange(1, 64) / 64.0),
                     params_from_rho([0.5, 0.5, 0.5]), 1 / 16, 16)
    return hashlib.sha256(b"".join(s.data.tobytes() for s in traj)).hexdigest()
"""


def _fresh_python(code):
    """stdout of a fresh interpreter that imports this galpha and runs code."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(galpha.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_march_is_identical_whether_scipy_linalg_is_imported_first_or_later():
    first = _fresh_python(_MARCH + "import scipy.linalg\nprint(march())")
    later = _fresh_python(_MARCH + """
digest = march()
assert "scipy.linalg" not in sys.modules
import scipy.linalg
assert march() == digest
print(digest)
""")
    assert first == later
