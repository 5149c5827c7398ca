"""Test systems: scalar decay modes and a 1D linear-FEM heat harness.

All systems share one shape: M u' + K u = F(t) with symmetric M (positive
definite) and K (positive semidefinite) in symmetric band storage, plus
analytic time derivatives of the forcing up to any order the integrator
requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, pi, sqrt

import numpy as np

from .exceptions import ConfigurationError

__all__ = [
    "SymmetricBanded",
    "SemiDiscreteSystem",
    "ManufacturedCase",
    "scalar_mode",
    "heat_fem_1d",
    "manufactured_heat",
    "l2_error",
]


class SymmetricBanded:
    """Symmetric band matrix in LAPACK upper band storage.

    ab has shape (u + 1, n) for half-bandwidth u: row u holds the diagonal
    and row u - d the d-th superdiagonal, ab[u - d, j] = A[j - d, j], with
    its first d entries unused. This is the layout LAPACK's pbtrf/pbtrs read;
    at u <= 1 row u and ab[0, 1:] are the d and e that pttrf reads.
    A @ x costs O(u n) for a vector x and O(u m n) for an (m, n) block X,
    whose row r of A @ X is A @ X[r]; toarray() builds the dense matrix for
    oracles.
    """

    # ndarray @ SymmetricBanded defers to __rmatmul__ instead of densifying
    __array_ufunc__ = None

    def __init__(self, ab):
        ab = np.array(ab, dtype=float)
        if ab.ndim != 2 or ab.shape[1] < 1:
            raise ConfigurationError("band storage must be (u + 1, n), got shape %s"
                                     % (ab.shape,))
        self.ab = ab

    @classmethod
    def from_dense(cls, A):
        """Upper band of a square matrix; u is its outermost nonzero diagonal."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        rows, cols = np.nonzero(A)
        u = int(np.max(np.abs(cols - rows))) if rows.size else 0
        ab = np.zeros((u + 1, n))
        for d in range(u + 1):
            ab[u - d, d:] = np.diagonal(A, d)
        return cls(ab)

    @property
    def u(self):
        return self.ab.shape[0] - 1

    @property
    def n(self):
        return self.ab.shape[1]

    @property
    def shape(self):
        return (self.n, self.n)

    def toarray(self):
        n, u = self.n, self.u
        A = np.zeros((n, n))
        i = np.arange(n)
        for d in range(u + 1):
            A[i[:n - d], i[d:]] = self.ab[u - d, d:]
            A[i[d:], i[:n - d]] = self.ab[u - d, d:]
        return A

    def __array__(self, dtype=None, copy=None):
        A = self.toarray()
        return A if dtype is None else A.astype(dtype)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError("cannot multiply an %d x %d band matrix by shape %s"
                             % (self.n, self.n, x.shape))
        ab, u = self.ab, self.u
        y = ab[u] * x
        for d in range(1, u + 1):
            y[..., d:] += ab[u - d, d:] * x[..., :-d]
        for d in range(1, u + 1):
            y[..., :-d] += ab[u - d, d:] * x[..., d:]
        return y

    # for symmetric A, x @ A = A @ x on a vector, and row r of X @ A is A @ X[r]
    __rmatmul__ = __matmul__

    def combine(self, a, other, b):
        """a * self + b * other on the wider of the two bands."""
        u = max(self.u, other.u)
        ab = np.zeros((u + 1, self.n))
        ab[u - self.u:] = a * self.ab
        ab[u - other.u:] += b * other.ab
        return SymmetricBanded(ab)


@dataclass
class SemiDiscreteSystem:
    """Matrices and forcing of M u' + K u = F.

    M and K are stored as SymmetricBanded; dense input is checked for
    symmetry and converted once, with the band inferred from its nonzero
    diagonals. forcing(m, t) returns the m-th time derivative F^(m)(t) as a
    length-n vector; m_max is the highest available derivative order (None:
    unlimited).
    """

    n: int
    M: SymmetricBanded
    K: SymmetricBanded
    forcing: object
    m_max: object = None

    def __post_init__(self):
        n = self.n
        if np.shape(self.M) != (n, n) or np.shape(self.K) != (n, n):
            raise ConfigurationError(
                "expected %d x %d matrices, got M%s and K%s"
                % (n, n, np.shape(self.M), np.shape(self.K))
            )
        self.M = _as_banded(self.M, "mass")
        self.K = _as_banded(self.K, "stiffness")

    def forcing_derivative(self, m, t):
        """F^(m)(t), guarding the available derivative order."""
        if self.m_max is not None and m > self.m_max:
            raise ConfigurationError(
                "forcing derivative of order %d requested, but the system "
                "provides m_max = %d" % (m, self.m_max)
            )
        return np.asarray(self.forcing(m, t), dtype=float)


def _as_banded(A, name):
    if isinstance(A, SymmetricBanded):
        return A
    A = np.asarray(A, dtype=float)
    if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
        raise ConfigurationError("%s matrix is not symmetric" % name)
    return SymmetricBanded.from_dense(A)


def _positive_finite(name, value):
    x = float(value)
    if not 0.0 < x < inf:
        raise ConfigurationError("%s must be positive and finite, got %r" % (name, value))
    return x


def scalar_mode(lambda_theta):
    """Single-dof decay mode: M = [1], K = [lambda], F = 0."""
    lam = _positive_finite("lambda_theta", lambda_theta)

    def zero_forcing(m, t):
        return np.zeros(1)

    return SemiDiscreteSystem(n=1, M=[[1.0]], K=[[lam]], forcing=zero_forcing)


def _element_band(n, diag, off):
    """Assembled band of the element matrix [[diag, off], [off, diag]] on a
    uniform mesh: each interior node takes diag from both of its elements."""
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1] = diag + diag
    return SymmetricBanded(ab)


def _fem_mass(elements):
    h = 1.0 / elements
    return _element_band(elements - 1, h / 6.0 * 2.0, h / 6.0 * 1.0)


def heat_fem_1d(elements, kappa):
    """Linear-element discretization of u_t = kappa u_xx on (0,1), u(0)=u(1)=0.

    Returns the interior-dof system with zero forcing. M and K are built as
    bands of half-width 1 in closed form, each entry the same sum of element
    entries that an element loop would add up; manufactured cases attach
    their load vector through ManufacturedCase.assemble.
    """
    if elements < 2:
        raise ConfigurationError("need at least 2 elements, got %r" % (elements,))
    kappa = _positive_finite("kappa", kappa)
    ne = int(elements)
    n = ne - 1
    h = 1.0 / ne
    M = _fem_mass(ne)
    K = _element_band(n, kappa / h * 1.0, kappa / h * -1.0)

    def zero_forcing(m, t):
        return np.zeros(n)

    return SemiDiscreteSystem(n=n, M=M, K=K, forcing=zero_forcing)


_GAUSS2 = (-1.0 / sqrt(3.0), 1.0 / sqrt(3.0))


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with analytic forcing derivatives for the heat harness.

    The forcing separates as f(x, t) = f_space(x) * f_time(0, t), and
    f_time(m, t) is the m-th time derivative of the time factor, so one
    quadrature of f_space gives the load vector of every derivative at every
    time.
    """

    kappa: float
    u: object        # u(x, t)
    u_t: object      # du/dt
    u_xx: object     # d2u/dx2
    f_space: object  # f_space(x): space profile of the forcing
    f_time: object   # f_time(m, t): m-th time derivative of its time factor
    u0: object       # u(x, 0)

    def f(self, x, t):
        """The forcing f = u_t - kappa u_xx."""
        return self.f_space(x) * self.f_time(0, t)

    def assemble(self, elements):
        """Interior-dof system for this case with its Gauss-quadrature load vector."""
        base = heat_fem_1d(elements, self.kappa)
        load = _load_vector(elements, self.f_space)
        f_time = self.f_time

        def forcing(m, t):
            return f_time(m, t) * load

        return SemiDiscreteSystem(n=base.n, M=base.M, K=base.K, forcing=forcing)


def _load_vector(elements, g):
    """Load vector of the space profile g by 2-point Gauss quadrature."""
    ne = int(elements)
    h = 1.0 / ne
    n = ne - 1
    F = np.zeros(n)
    left = np.arange(ne) * h
    idx = np.arange(ne)
    for xi in _GAUSS2:
        xg = left + h * (xi + 1.0) / 2.0
        vals = g(xg) * (h / 2.0)
        # node e gets the (1-xi)/2 share, node e+1 the (1+xi)/2 share
        for nodes, share in ((idx, (1.0 - xi) / 2.0), (idx + 1, (1.0 + xi) / 2.0)):
            interior = (nodes >= 1) & (nodes <= n)
            np.add.at(F, nodes[interior] - 1, vals[interior] * share)
    return F


def manufactured_heat(case_id, kappa=1.0):
    """Built-in manufactured solutions. Known case ids: 'sin-decay'.

    sin-decay: u(x, t) = sin(pi x) exp(-t), so f = (kappa pi^2 - 1) sin(pi x)
    exp(-t) and every time derivative just flips sign. With kappa = 1/pi^2 the
    forcing vanishes identically (pure decay of the first Laplace mode).
    """
    if case_id != "sin-decay":
        raise ConfigurationError(
            "unknown manufactured case %r; available: 'sin-decay'" % (case_id,)
        )
    kap = _positive_finite("kappa", kappa)
    amp = kap * pi ** 2 - 1.0

    def u(x, t):
        return np.sin(pi * np.asarray(x)) * np.exp(-t)

    def u_t(x, t):
        return -u(x, t)

    def u_xx(x, t):
        return -pi ** 2 * u(x, t)

    def f_space(x):
        return amp * np.sin(pi * np.asarray(x))

    def f_time(m, t):
        return (-1.0) ** m * np.exp(-t)

    def u0(x):
        return np.sin(pi * np.asarray(x))

    return ManufacturedCase(kappa=kap, u=u, u_t=u_t, u_xx=u_xx,
                            f_space=f_space, f_time=f_time, u0=u0)


def l2_error(U_h, case, t):
    """Mass-weighted norm of U_h minus the nodal interpolant of case.u at time t.

    The mesh is inferred from the vector length (n interior dofs of a uniform
    mesh with n + 1 elements). The sum e' M e is math.fsum's, exactly rounded,
    so the norm does not depend on how a BLAS would split a dot product.
    """
    U = np.asarray(U_h, dtype=float)
    if U.ndim != 1 or U.size < 1:
        raise ConfigurationError("U_h must be a nonempty vector, got shape %s" % (U.shape,))
    n = U.size
    ne = n + 1
    h = 1.0 / ne
    x = (np.arange(1, n + 1)) * h
    e = U - case.u(x, t)
    try:
        return sqrt(fsum((e * (_fem_mass(ne) @ e)).tolist()))
    except (OverflowError, ValueError):  # a term or a partial sum past the float range
        return inf
