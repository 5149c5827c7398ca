"""The k-stage time march: initialization, one step, and the driving loop.

Per step, stage j = 1..k-1 solves (alpha_j M + gamma_j tau K) Q_j = rhs built
from Taylor predictors of the time-n state, and the last stage solves
(alpha_k M + alpha_f gamma_k tau K) D = rhs with the equation shifted to
t_n + alpha_f tau. Stages are mutually decoupled; they are processed in
descending order only for determinism. State entries are stored scaled,
block m holding tau^m u^(m), which makes every update dimensionless.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from math import factorial, inf

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
    array-API imports) for the two routines used here, dpbtrf and dpbtrs.
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
    """Banded Cholesky factor of one SPD matrix in SymmetricBanded storage.

    LAPACK dpbtrf/dpbtrs come from _flapack on the first factorization, not
    with the package, and scipy.linalg is never imported: the analysis
    commands never factor a matrix, and converge and solve skip the
    scipy.linalg package init.
    """

    def __init__(self, A):
        lib = _flapack()
        if not np.all(np.isfinite(A.ab)):
            raise LinearSolveError("stage matrix has non-finite entries")
        self._dpbtrs = lib.dpbtrs
        self.fac, info = lib.dpbtrf(A.ab, lower=0)
        if info != 0:
            raise LinearSolveError(
                "stage matrix factorization failed: leading minor %d is not "
                "positive definite" % info
            )

    def solve(self, rhs):
        return self._dpbtrs(self.fac, rhs, lower=0)[0]


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
    """Factorizations of the k stage matrices for a fixed (system, params, tau)."""

    params: object
    tau: float
    n: int
    factors: list
    inv_fact: tuple  # 1/i! for the Taylor predictors, i = 0..2k-1
    n_factorizations: int = 0

    @classmethod
    def build(cls, system, params, tau):
        report = validate_stability(params)
        if not report.ok:
            raise ConfigurationError(
                "parameters violate the stability bounds: " + "; ".join(report.violations)
            )
        k = params.k
        _check_tau(tau, k)
        ws = cls(params=params, tau=float(tau), n=system.n, factors=[],
                 inv_fact=tuple(1.0 / factorial(i) for i in range(2 * k)))
        for a, g, c, _ in params._stages:
            ws.factors.append(_Factorization(system.M.combine(a, system.K, g * tau * c)))
            ws.n_factorizations += 1
        return ws

    def matches(self, params, tau, n):
        return self.params == params and self.tau == tau and self.n == n


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


def step(state, system, params, t_n, tau, ws):
    """Advance the state from t_n to t_n + tau."""
    k = params.k
    if state.k != k:
        raise ConfigurationError("state has k = %d, params have k = %d" % (state.k, k))
    if not ws.matches(params, tau, system.n):
        raise ConfigurationError("workspace does not match (params, tau, system)")
    if state.tau != tau:
        raise ConfigurationError(
            "state was scaled with tau = %r, step called with tau = %r" % (state.tau, tau)
        )
    W = state.data
    M, K = system.M, system.K
    # Taylor predictors of every block over the rest of the stack:
    # T[m] = sum_i W[m + i] / i!, summed in ascending i
    T = W.copy()
    for i in range(1, 2 * k):
        T[:2 * k - i] += ws.inv_fact[i] * W[i:]
    new = np.empty_like(W)
    af = params.alpha_f
    for j in range(k, 0, -1):
        e, o = 2 * j - 2, 2 * j - 1
        g = params.gamma[j - 1]
        tau_o = tau ** o
        if j < k:
            t_e, t_o = T[e], T[o]
            rhs = (-(M @ t_o) - tau * (K @ t_e)
                   + tau_o * system.forcing_derivative(e, t_n + tau))
            q = ws.factors[j - 1].solve(rhs)
            new[e] = t_e + g * q
            new[o] = t_o + q
        else:
            rhs = (-(M @ W[o]) - tau * (K @ (W[e] + af * W[o]))
                   + tau_o * system.forcing_derivative(e, t_n + af * tau))
            d = ws.factors[j - 1].solve(rhs)
            new[e] = W[e] + W[o] + g * d
            new[o] = W[o] + d
    return StateVector(k=k, tau=float(tau), data=new)


def integrate(system, U0, params, tau, n_steps, t0=0.0):
    """Run n_steps steps from the self-started state; factor each stage once.

    Returns the trajectory [state_0, state_1, ..., state_{n_steps}]. The march
    is linear, so once an entry overflows it never turns finite again: one
    check of the last state raises GalphaError for the whole run.
    """
    if n_steps < 0:
        raise ConfigurationError("n_steps must be >= 0, got %r" % (n_steps,))
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(system, U0, params.k, tau, t0=t0)
        trajectory = [state]
        if n_steps > 0:
            ws = StepWorkspace.build(system, params, tau)
            for i in range(int(n_steps)):
                state = step(state, system, params, t0 + i * tau, tau, ws)
                trajectory.append(state)
    if not np.all(np.isfinite(state.data)):
        raise GalphaError("the march overflows: the state after %d steps of tau = %g "
                          "is not finite" % (len(trajectory) - 1, tau))
    return trajectory
