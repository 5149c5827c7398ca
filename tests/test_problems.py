"""Model problems: scalar mode, 1D FEM heat system, manufactured case."""

import numpy as np
import pytest
from scipy.linalg import eigh

from galpha import (
    ConfigurationError,
    SemiDiscreteSystem,
    SymmetricBanded,
    heat_fem_1d,
    integrate,
    l2_error,
    manufactured_heat,
    params_from_rho,
    scalar_mode,
)


def _gauss_assemble(elements, kappa):
    # quadrature oracle: 2-point Gauss per element, exact for these products
    ne = elements
    h = 1.0 / ne
    n = ne - 1
    pts = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    shape = [lambda xi: 0.5 * (1.0 - xi), lambda xi: 0.5 * (1.0 + xi)]
    dshape = (-0.5, 0.5)
    for e in range(ne):
        for a in range(2):
            ia = e + a - 1
            if not 0 <= ia < n:
                continue
            for b in range(2):
                ib = e + b - 1
                if not 0 <= ib < n:
                    continue
                for xi in pts:
                    M[ia, ib] += (h / 2.0) * shape[a](xi) * shape[b](xi)
                    K[ia, ib] += (h / 2.0) * kappa * (dshape[a] * 2 / h) * (dshape[b] * 2 / h)
    return M, K


def test_scalar_mode_matrices():
    system = scalar_mode(2.0)
    assert system.n == 1
    np.testing.assert_array_equal(system.M, [[1.0]])
    np.testing.assert_array_equal(system.K, [[2.0]])
    for m in range(4):
        np.testing.assert_array_equal(system.forcing_derivative(m, 0.7), [0.0])


def test_scalar_mode_rejects_nonpositive():
    with pytest.raises(ConfigurationError, match="positive"):
        scalar_mode(0.0)
    with pytest.raises(ConfigurationError, match="positive"):
        scalar_mode(-3.0)


def test_fem_two_elements_single_dof():
    system = heat_fem_1d(2, kappa=1.0)
    np.testing.assert_allclose(system.M, [[1.0 / 3.0]], rtol=0, atol=1e-16)
    np.testing.assert_allclose(system.K, [[4.0]], rtol=0, atol=1e-15)


def test_fem_interior_stencils():
    ne, kappa = 8, 2.0
    h = 1.0 / ne
    system = heat_fem_1d(ne, kappa=kappa)
    assert system.n == 7
    M, K = system.M.toarray(), system.K.toarray()
    row = 3
    np.testing.assert_allclose(
        M[row, row - 1:row + 2], [h / 6.0, 4.0 * h / 6.0, h / 6.0], rtol=1e-15
    )
    np.testing.assert_allclose(
        K[row, row - 1:row + 2],
        [-kappa / h, 2.0 * kappa / h, -kappa / h], rtol=1e-15
    )
    np.testing.assert_array_equal(M, M.T)
    np.testing.assert_array_equal(K, K.T)


def test_fem_stiffness_interior_row_sums_vanish():
    system = heat_fem_1d(16, kappa=3.0)
    sums = system.K.toarray().sum(axis=1)
    np.testing.assert_allclose(sums[1:-1], 0.0, atol=1e-12 * 3.0 * 16)


def test_fem_matches_quadrature_assembly():
    for ne, kappa in ((4, 1.0), (9, 0.7)):
        system = heat_fem_1d(ne, kappa=kappa)
        M, K = _gauss_assemble(ne, kappa)
        np.testing.assert_allclose(system.M, M, rtol=0, atol=1e-15)
        np.testing.assert_allclose(system.K, K, rtol=0, atol=1e-12 * kappa * ne)


def test_fem_validation():
    with pytest.raises(ConfigurationError, match="at least 2"):
        heat_fem_1d(1, kappa=1.0)
    with pytest.raises(ConfigurationError, match="kappa"):
        heat_fem_1d(8, kappa=0.0)


def test_fem_matrices_positive_definite():
    system = heat_fem_1d(12, kappa=1.0)
    np.linalg.cholesky(system.M)
    assert np.min(np.linalg.eigvalsh(system.K)) > 0.0


def test_generalized_eigenvalues_approach_continuum():
    # modes of -kappa u_xx with Dirichlet ends: lambda_m = kappa (m pi)^2
    kappa = 1.0
    system = heat_fem_1d(64, kappa=kappa)
    w = eigh(system.K, system.M, eigvals_only=True)
    assert abs(w[0] - kappa * np.pi ** 2) / (kappa * np.pi ** 2) <= 1e-2

    system = heat_fem_1d(128, kappa=kappa)
    w = eigh(system.K, system.M, eigvals_only=True)
    for m in (1, 2, 3):
        lam = kappa * (m * np.pi) ** 2
        assert abs(w[m - 1] - lam) / lam <= 2e-2


def test_manufactured_residual_vanishes():
    rng = np.random.default_rng(21)
    for kappa in (1.0, 0.3):
        case = manufactured_heat("sin-decay", kappa=kappa)
        x = rng.uniform(0.0, 1.0, 100)
        t = rng.uniform(0.0, 2.0, 100)
        resid = case.u_t(x, t) - kappa * case.u_xx(x, t) - case.f(x, t)
        assert np.max(np.abs(resid)) <= 1e-10


def test_manufactured_forcing_nearly_vanishes_at_critical_kappa():
    # kappa = 1/pi^2 balances decay against diffusion exactly
    case = manufactured_heat("sin-decay", kappa=1.0 / np.pi ** 2)
    x = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(case.f(x, 0.5))) <= 1e-15


def test_manufactured_load_time_derivatives_consistent():
    case = manufactured_heat("sin-decay")
    system = case.assemble(16)
    t, dh = 0.3, 1e-4
    for m in (0, 1):
        fd = (system.forcing_derivative(m, t + dh)
              - system.forcing_derivative(m, t - dh)) / (2.0 * dh)
        target = system.forcing_derivative(m + 1, t)
        np.testing.assert_allclose(fd, target, rtol=1e-7)


def test_manufactured_load_matches_quadrature_oracle():
    # loads scatter 2-point Gauss samples of f against the hat functions
    case = manufactured_heat("sin-decay")
    ne = 8
    system = case.assemble(ne)
    h = 1.0 / ne
    pts = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
    t = 0.4
    F = np.zeros(ne - 1)
    for e in range(ne):
        for xi in pts:
            xg = (e + 0.5 * (1.0 + xi)) * h
            fg = case.f(xg, t)
            for a, phi in ((0, 0.5 * (1.0 - xi)), (1, 0.5 * (1.0 + xi))):
                ia = e + a - 1
                if 0 <= ia < ne - 1:
                    F[ia] += (h / 2.0) * phi * fg
    np.testing.assert_allclose(system.forcing_derivative(0, t), F, rtol=0, atol=1e-15)


def test_unknown_case_rejected():
    with pytest.raises(ConfigurationError, match="sin-decay"):
        manufactured_heat("square-wave")


def test_l2_error_zero_for_nodal_values():
    case = manufactured_heat("sin-decay")
    ne = 32
    x = np.arange(1, ne) / ne
    assert l2_error(case.u(x, 0.75), case, 0.75) == 0.0


def test_l2_error_constant_offset():
    case = manufactured_heat("sin-decay")
    ne = 16
    x = np.arange(1, ne) / ne
    delta = 1e-3
    U = case.u(x, 0.2) + delta
    system = case.assemble(ne)
    expected = delta * np.sqrt(system.M.toarray().sum())
    assert abs(l2_error(U, case, 0.2) - expected) <= 1e-15


def test_l2_error_rejects_bad_shape():
    case = manufactured_heat("sin-decay")
    with pytest.raises(ConfigurationError, match="vector"):
        l2_error(np.zeros((3, 3)), case, 0.0)


def test_forcing_derivative_order_guard():
    system = scalar_mode(1.0)
    system.m_max = 2
    with pytest.raises(ConfigurationError, match="m_max = 2"):
        system.forcing_derivative(3, 0.0)


def test_system_shape_validation():
    with pytest.raises(ConfigurationError):
        SemiDiscreteSystem(n=2, M=np.eye(3), K=np.eye(2), forcing=lambda m, t: np.zeros(2))
    with pytest.raises(ConfigurationError, match="symmetric"):
        SemiDiscreteSystem(
            n=2, M=np.array([[1.0, 0.5], [0.0, 1.0]]), K=np.eye(2),
            forcing=lambda m, t: np.zeros(2),
        )


def test_heat_temporal_convergence_on_fine_mesh():
    # fine mesh keeps the spatial floor below the temporal error; k = 2 gives
    # third order until the floor bites
    case = manufactured_heat("sin-decay")
    system = case.assemble(1024)
    x = np.arange(1, 1024) / 1024.0
    U0 = case.u0(x)
    prm = params_from_rho([0.5, 0.5])
    errs = []
    for tau in (0.25, 0.125, 0.0625):
        traj = integrate(system, U0, prm, tau, round(1.0 / tau))
        errs.append(l2_error(traj[-1].u, case, 1.0))
    assert 8.0 <= errs[0] / errs[1] <= 13.0
    assert 7.0 <= errs[1] / errs[2] <= 10.0


@pytest.mark.parametrize("A, u", [
    (np.diag([2.0, 3.0, 4.0, 5.0]) + np.diag([-1.0, 0.5, -0.25], 1)
     + np.diag([-1.0, 0.5, -0.25], -1), 1),
    (np.diag(np.full(6, 6.0)) + np.diag(np.full(5, -4.0), 1) + np.diag(np.full(5, -4.0), -1)
     + np.diag(np.full(4, 1.0), 2) + np.diag(np.full(4, 1.0), -2), 2),
    (np.array([[2.5]]), 0),
])
def test_symmetric_banded_round_trip(A, u):
    B = SymmetricBanded.from_dense(A)
    assert B.u == u
    assert B.shape == A.shape
    np.testing.assert_array_equal(B.toarray(), A)
    v = np.linspace(-1.0, 2.0, A.shape[0])
    np.testing.assert_allclose(B @ v, A @ v, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(v @ B, v @ A, rtol=1e-15, atol=1e-15)


def test_dense_input_converted_once():
    M = np.diag([2.0, 3.0, 4.0])
    K = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    system = SemiDiscreteSystem(n=3, M=M, K=K, forcing=lambda m, t: np.zeros(3))
    assert isinstance(system.M, SymmetricBanded) and system.M.u == 0
    assert isinstance(system.K, SymmetricBanded) and system.K.u == 1
    np.testing.assert_array_equal(system.K.toarray(), K)


def test_load_vector_assembled_once():
    case = manufactured_heat("sin-decay")
    system = case.assemble(8)
    b = system.forcing_derivative(0, 0.0)
    for m, t in ((0, 0.4), (1, 0.4), (3, 1.5)):
        np.testing.assert_allclose(system.forcing_derivative(m, t),
                                   (-1.0) ** m * np.exp(-t) * b, rtol=1e-15)


def _element_loop(elements, kappa):
    # the element loop the closed-form bands replace, same float operations
    ne = elements
    h = 1.0 / ne
    n = ne - 1
    Me = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    Ke = kappa / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    for e in range(ne):
        for a in range(2):
            for b in range(2):
                ia, ib = e + a - 1, e + b - 1
                if 0 <= ia < n and 0 <= ib < n:
                    M[ia, ib] += Me[a, b]
                    K[ia, ib] += Ke[a, b]
    return M, K


def test_fem_bands_equal_element_loop_bitwise():
    for ne, kappa in ((2, 1.0), (9, 0.7), (100, 3.3), (1024, 1.0)):
        system = heat_fem_1d(ne, kappa=kappa)
        M, K = _element_loop(ne, kappa)
        np.testing.assert_array_equal(system.M.toarray(), M)
        np.testing.assert_array_equal(system.K.toarray(), K)
