"""Coefficients of the k-stage generalized-alpha family.

Each stage j carries a dissipation control rho_j in [0, 1]: the magnitude that
the stage's nonzero amplification eigenvalue approaches in the high-frequency
limit. Stage coefficients follow from rho by closed formulas. Every stage is
then a row (alpha_j, gamma_j, c_j, b_j) of one stage table (MethodParams._stages),
with c_j = 1 for j < k and c_k = alpha_f, and two per-stage laws hold on each
row. The order condition

    alpha_j - gamma_j - c_j + 1/2 = 0,

that is gamma_j = alpha_j - 1/2 (j < k) and gamma_k = 1/2 - alpha_f + alpha_k,
which both collapse to gamma_j = 1/(1 + rho_j); and the unconditional-stability
bounds alpha_j >= c_j >= 1/2 and gamma_j > 0, which validate_stability checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, fsum

import numpy as np

from .exceptions import ConfigurationError

__all__ = [
    "MethodParams",
    "params_from_rho",
    "validate_stability",
]


@dataclass(frozen=True)
class MethodParams:
    """Stage coefficients alpha_1..alpha_k, alpha_f and gamma_1..gamma_k.

    Instances are plain value holders: construction does not enforce the
    stability bounds, so deliberately out-of-range coefficient sets can be
    built and fed to validate_stability or to the analysis routines.
    """

    k: int
    alpha: tuple
    alpha_f: float
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "alpha_f", float(self.alpha_f))
        if self.k < 1:
            raise ConfigurationError("stage count k must be >= 1, got %r" % (self.k,))
        if len(self.alpha) != self.k or len(self.gamma) != self.k:
            raise ConfigurationError(
                "expected %d alpha and gamma entries, got %d and %d"
                % (self.k, len(self.alpha), len(self.gamma))
            )

    @cached_property
    def _stages(self):
        """The stage table: one row (alpha_j, gamma_j, c_j, b_j) per stage.

        c_j = 1 for j < k; c_k = alpha_f, as the last stage imposes the
        equation at t_n + alpha_f tau. b_j = c_j gamma_j. Stage j of the march
        factors alpha_j M + gamma_j tau c_j K, and on the scalar mode u' = -lambda u,
        theta = tau lambda, it has the amplification block

            G_j = [[alpha_j + (c_j - 1) gamma_j theta,  alpha_j - gamma_j],
                   [-theta,  alpha_j + c_j (gamma_j - 1) theta - 1]] / den_j,

        den_j = alpha_j + b_j theta, whose quadratic q_j(z) = det(z I - G_j) is

            den_j q_j(z) = den_j z^2 - (n0 + n1 theta) z + d0 + d1 theta,
            n0 = 2 alpha_j - 1,  n1 = -(gamma_j (1 - c_j) + c_j (1 - gamma_j)),
            d0 = alpha_j - 1,    d1 = (1 - gamma_j)(1 - c_j).

        So q_j(1) = theta / den_j, and den_j^2 times the discriminant is
        P = 1 + 2 (gamma_j + c_j - 2 alpha_j) theta + (gamma_j - c_j)^2 theta^2.
        As |theta| grows the roots tend to (c_j - 1)/c_j and (gamma_j - 1)/gamma_j.
        """
        cs = (1.0,) * (self.k - 1) + (self.alpha_f,)
        return tuple((a, g, c, c * g) for a, g, c in zip(self.alpha, self.gamma, cs))

    @cached_property
    def _order_defects(self):
        """The order law on each row: alpha_j - gamma_j - c_j + 1/2, exactly rounded.

        Zero under the order conditions. It is the theta^2 coefficient of each
        stage factor in recurrence_residual, and verify_order_conditions
        reports its magnitude.
        """
        return tuple(fsum((a, -g, -c, 0.5)) for a, g, c, _ in self._stages)

    @cached_property
    def _predictor(self):
        """The stepper's predictor matrix P (read-only, 3k x 2k).

        Its three k-row blocks are S[0::2], S[1::2] and c S[0::2] + (1 - c) I[0::2]
        with c the stage table's c column, so P W stacks the even predictors,
        the odd predictors and every stage's displacement at its equation time.
        """
        c = np.array([row[2] for row in self._stages])[:, None]
        S = self._shift
        P = np.vstack((S[0::2], S[1::2], c * S[0::2] + (1.0 - c) * np.eye(2 * self.k)[0::2]))
        P.flags.writeable = False
        return P

    @cached_property
    def _shift(self):
        """The Taylor-shift matrix S, S[m, m + i] = 1/i! (read-only, 2k x 2k).

        Row m of S applied to the scaled stack W gives block m's Taylor
        predictor over one step, sum_i W[m + i] / i!. The stepper's predictor
        matrix and the dense stage equations of the spectral module both read it.
        """
        n = 2 * self.k
        S = np.zeros((n, n))
        for i in range(n):
            # integer true division rounds correctly, to a subnormal or 0 once
            # i! passes the float range, where 1.0 / factorial(i) overflows
            np.fill_diagonal(S[:, i:], 1 / factorial(i))
        S.flags.writeable = False
        return S

    def with_gamma(self, gamma):
        """Copy with the gamma tuple replaced (used for perturbation studies)."""
        return MethodParams(self.k, self.alpha, self.alpha_f, tuple(gamma))


def params_from_rho(rho):
    """Map dissipation controls to method coefficients.

    rho is a sequence of k >= 1 values in [0, 1], one per stage. Stages
    j < k use alpha_j = (3 + rho_j) / (2 (1 + rho_j)); the last stage uses
    alpha_k = (3 - rho_k) / (2 (1 + rho_k)) together with
    alpha_f = 1 / (1 + rho_k). For k = 1 the single stage is the last stage.
    """
    rho = [float(r) for r in rho]
    if not rho:
        raise ConfigurationError("stage count k must be >= 1, got an empty rho list")
    for j, r in enumerate(rho):
        if not 0.0 <= r <= 1.0:
            raise ConfigurationError("rho[%d] = %r lies outside [0, 1]" % (j, r))
    *first, last = rho
    alpha = [(3.0 + r) / (2.0 * (1.0 + r)) for r in first]
    gamma = [a - 0.5 for a in alpha]
    alpha.append((3.0 - last) / (2.0 * (1.0 + last)))
    gamma.append(1.0 / (1.0 + last))
    return MethodParams(len(rho), tuple(alpha), 1.0 / (1.0 + last), tuple(gamma))


def validate_stability(params):
    """The unconditional-stability bounds that a coefficient set violates.

    Every row (alpha_j, gamma_j, c_j, b_j) of the stage table must satisfy
    alpha_j >= c_j, c_j >= 1/2 and gamma_j > 0; with c_j = 1 (j < k) and
    c_k = alpha_f these are alpha_j >= 1, alpha_k >= alpha_f >= 1/2 and
    gamma_j > 0. Returns one string per violated bound, such as
    "alpha_2 >= c_2", in stage order; () means the set is admissible. A NaN
    entry violates every bound it enters. The rho parameterization satisfies
    all of them exactly for rho in [0, 1]^k, boundary values included, so no
    tolerance slop is used.
    """
    return tuple(
        bound.format(j)
        for j, (a, g, c, _) in enumerate(params._stages, 1)
        for holds, bound in ((a >= c, "alpha_{0} >= c_{0}"), (c >= 0.5, "c_{0} >= 1/2"),
                             (g > 0.0, "gamma_{0} > 0"))
        if not holds
    )
