"""The k-stage time march: initialization, one step, and the driving loop.

State entries are stored scaled, block m holding tau^m u^(m), which makes
every update dimensionless. Stage j = 1..k reads its row (alpha_j, gamma_j,
c_j, b_j) of the stage table (MethodParams._stages), takes its pair of blocks
(e, o) = (2j - 2, 2j - 1) and solves

    (alpha_j M + b_j tau K) q_j = -M T[o] - tau K U_j + tau^o F^(e)(t_n + c_j tau),
    U_j = c_j T[e] + (1 - c_j) W[e],

with T = S W the Taylor predictors of the time-n stack W (S =
MethodParams._shift) and U_j the stage's displacement at its equation time
t_n + c_j tau (c_j = 1, or alpha_f for the last stage); then new[e] = T[e] +
gamma_j q_j and new[o] = T[o] + q_j. Stages are mutually decoupled, so a step
runs them all at once on (k, n) blocks: one product P W with the predictor
matrix (MethodParams._predictor) gives the even predictors, the odd
predictors and every U_j; one band product each gives M T_o and K U; the k
loads fill one block; and each stage's factorization solves its own row.

StepWorkspace.build(system, params, tau) factors the k stage matrices once and
keeps the system, the params and tau with them; step(state, t_n, ws) reads all
three from the workspace, so a march cannot be stepped with facts other than
the ones its factors were built from. integrate drives the two for a whole run.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from math import inf

import numpy as np

from .exceptions import ConfigurationError, GalphaError, LinearSolveError
from .params import validate_stability

__all__ = ["StateVector", "StepWorkspace", "init_state", "step", "integrate"]


@dataclass
class StateVector:
    """Scaled derivative stack: data[m] = tau^m u^(m), m = 0..2k-1."""

    k: int
    tau: float
    data: np.ndarray  # (2k, n)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != 2 * self.k:
            raise ConfigurationError(
                "state needs shape (2k, n) = (%d, n), got %s" % (2 * self.k, self.data.shape)
            )

    @property
    def n(self):
        return self.data.shape[1]

    @property
    def u(self):
        """The unscaled solution block."""
        return self.data[0]

    def derivative(self, m):
        """Unscaled m-th time derivative."""
        if not 0 <= m < 2 * self.k:
            raise ConfigurationError("derivative order %d outside 0..%d" % (m, 2 * self.k - 1))
        return self.data[m] / self.tau ** m


_FLAPACK = "scipy.linalg._flapack"


@lru_cache(maxsize=None)
def _flapack():
    """scipy's compiled LAPACK wrapper module, loaded once per process.

    Importing scipy.linalg runs its package init (about 0.3 s and 25 MiB of
    array-API imports) for the four routines used here: dpttrf/dpttrs for
    tridiagonal matrices, dpbtrf/dpbtrs for wider bands.
    A plain import of scipy sets up the wheel's shared-library search path;
    the extension module scipy/linalg/_flapack is then loaded straight from
    its file and kept out of sys.modules, so a later import of scipy.linalg
    runs as usual. Both hand out the same compiled routines.
    """
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError("scipy's LAPACK wrapper _flapack is missing from %s" % folder)
    registered = _FLAPACK in sys.modules
    spec = spec_from_file_location(_FLAPACK, path, loader=ExtensionFileLoader(_FLAPACK, path))
    lib = module_from_spec(spec)
    if not registered:
        # a single-phase extension module enters itself in sys.modules
        sys.modules.pop(_FLAPACK, None)
    return lib


class _Factorization:
    """Factorization of one SPD matrix in SymmetricBanded storage, chosen by
    its half-bandwidth u.

    u <= 1 (every heat stage matrix, the scalar mode, the FEM mass) is
    factored A = L D L^T by LAPACK dpttrf and solved by dpttrs; u >= 2 is
    factored by banded Cholesky, dpbtrf and dpbtrs. factors holds the arrays
    the solve routine takes before the right-hand side: (d, e) for dpttrs,
    (ab,) for dpbtrs. The routines come from _flapack on the first
    factorization, not with the package, and scipy.linalg is never imported:
    the analysis commands never factor a matrix, and converge and solve skip
    the scipy.linalg package init.
    """

    def __init__(self, A):
        lib = _flapack()
        if not np.all(np.isfinite(A.ab)):
            raise LinearSolveError("stage matrix has non-finite entries")
        if A.u <= 1:
            # dpttrf's wrapper wants len(e) = n - 1, but at least 1 (unread at n = 1)
            e = np.zeros(max(A.n - 1, 1))
            if A.u:
                e[:A.n - 1] = A.ab[0, 1:]
            *self.factors, info = lib.dpttrf(A.ab[A.u], e, overwrite_e=1)
            self._solve = lib.dpttrs
        else:
            fac, info = lib.dpbtrf(A.ab, lower=0)
            self.factors = [fac]
            self._solve = lib.dpbtrs  # lower=0 by default: upper band storage
        if info != 0:
            raise LinearSolveError(
                "stage matrix factorization failed: leading minor %d is not "
                "positive definite" % info
            )

    def solve(self, rhs):
        return self._solve(*self.factors, rhs)[0]


def _check_tau(tau, k):
    """tau positive and finite, and so is tau^(2k-1), the highest power of tau
    that scales the state and the forcing terms of a step."""
    if not 0.0 < tau < inf:
        raise ConfigurationError("tau must be positive and finite, got %r" % (tau,))
    try:
        float(tau) ** (2 * k - 1)
    except OverflowError:
        raise ConfigurationError(
            "tau = %r is too large for k = %d: tau^%d overflows" % (tau, k, 2 * k - 1)
        ) from None


@dataclass
class StepWorkspace:
    """A march's fixed facts, (system, params, tau), and the factorizations of
    the k stage matrices they give."""

    system: object
    params: object
    tau: float
    factors: list

    @property
    def n_factorizations(self):
        return len(self.factors)

    @cached_property
    def _stage_columns(self):
        """Per stage j: the offset c_j tau of its equation time, and as (k, 1)
        columns the scale tau^(2j - 1) of its load and its gamma_j."""
        offsets, scale, g = zip(*((c * self.tau, self.tau ** (2 * j + 1), g)
                                  for j, (_, g, c, _) in enumerate(self.params._stages)))
        return offsets, np.array(scale)[:, None], np.array(g)[:, None]

    @classmethod
    def build(cls, system, params, tau):
        violations = validate_stability(params)
        if violations:
            raise ConfigurationError(
                "parameters violate the stability bounds (c_j = 1 for j < k, c_k = alpha_f): "
                + "; ".join(violations)
            )
        _check_tau(tau, params.k)
        factors = [_Factorization(system.M.combine(a, system.K, g * tau * c))
                   for a, g, c, _ in params._stages]
        return cls(system=system, params=params, tau=float(tau), factors=factors)


def init_state(system, U0, k, tau, t0=0.0):
    """Self-starting initialization: recover u^(m)(t0) from the equation.

    Differentiating M u' + K u = F gives M u^(m+1) = F^(m) - K u^(m), so the
    whole stack follows from U0 by repeated mass solves. Needs forcing
    derivatives through order 2k - 2.
    """
    if k < 1:
        raise ConfigurationError("stage count k must be >= 1, got %r" % (k,))
    _check_tau(tau, k)
    need = 2 * k - 2
    if system.m_max is not None and system.m_max < need:
        raise ConfigurationError(
            "stage count k = %d needs forcing derivatives through order %d; "
            "system provides m_max = %d" % (k, need, system.m_max)
        )
    U0 = np.asarray(U0, dtype=float)
    if U0.shape != (system.n,):
        raise ConfigurationError(
            "U0 must have shape (%d,), got %s" % (system.n, U0.shape)
        )
    if not np.all(np.isfinite(U0)):
        raise ConfigurationError("U0 must be finite")
    fac = _Factorization(system.M)
    data = np.empty((2 * k, system.n))
    data[0] = U0
    cur = U0
    scale = 1.0
    for m in range(1, 2 * k):
        rhs = system.forcing_derivative(m - 1, t0) - system.K @ cur
        cur = fac.solve(rhs)
        scale *= tau
        data[m] = scale * cur
    return StateVector(k=k, tau=float(tau), data=data)


def step(state, t_n, ws):
    """Advance the state from t_n to t_n + tau by the march that ws holds."""
    system, params, tau = ws.system, ws.params, ws.tau
    k = params.k
    if (state.k, state.n, state.tau) != (k, system.n, tau):
        raise ConfigurationError(
            "state (k, n, tau) = (%d, %d, %r) does not fit the workspace's (%d, %d, %r)%s"
            % (state.k, state.n, state.tau, k, system.n, tau,
               "; a state scaled with tau steps only with that tau" if state.tau != tau else "")
        )
    offsets, scale, g = ws._stage_columns
    # the even predictors, the odd predictors and every stage's displacement
    # at its equation time: three (k, n) blocks of one product
    T_e, T_o, U = (params._predictor @ state.data).reshape(3, k, -1)
    F = np.empty_like(U)
    for j, dt in enumerate(offsets):
        F[j] = system.forcing_derivative(2 * j, t_n + dt)
    rhs = -(system.M @ T_o) - tau * (system.K @ U) + scale * F
    Q = np.array([fac.solve(r) for fac, r in zip(ws.factors, rhs)])
    new = np.empty_like(state.data)
    new[0::2] = T_e + g * Q
    new[1::2] = T_o + Q
    return StateVector(k=k, tau=tau, data=new)


def integrate(system, U0, params, tau, n_steps, t0=0.0):
    """Run n_steps steps from the self-started state; factor each stage once.

    Returns the trajectory [state_0, state_1, ..., state_{n_steps}]. The march
    is linear, so once an entry overflows it never turns finite again: one
    check of the last state raises GalphaError for the whole run.
    """
    try:
        whole = int(n_steps) == n_steps
    except (TypeError, ValueError, OverflowError):  # "3", nan, inf
        whole = False
    if not whole:
        raise ConfigurationError("n_steps must be a whole number, got %r" % (n_steps,))
    if n_steps < 0:
        raise ConfigurationError("n_steps must be >= 0, got %r" % (n_steps,))
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(system, U0, params.k, tau, t0=t0)
        trajectory = [state]
        if n_steps > 0:
            ws = StepWorkspace.build(system, params, tau)
            for i in range(int(n_steps)):
                state = step(state, t0 + i * tau, ws)
                trajectory.append(state)
    if not np.all(np.isfinite(state.data)):
        raise GalphaError("the march overflows: the state after %d steps of tau = %g "
                          "is not finite" % (len(trajectory) - 1, tau))
    return trajectory
