"""Coefficients of the k-stage generalized-alpha family.

Each stage j carries a dissipation control rho_j in [0, 1]: the magnitude that
the stage's nonzero amplification eigenvalue approaches in the high-frequency
limit. Stage coefficients follow from rho by closed formulas; the gamma values
are fixed by the order conditions

    gamma_j = alpha_j - 1/2        (j < k)
    gamma_k = 1/2 - alpha_f + alpha_k

which both collapse to gamma_j = 1/(1 + rho_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exceptions import ConfigurationError

__all__ = [
    "RhoSpectrum",
    "MethodParams",
    "StabilityReport",
    "params_from_rho",
    "validate_stability",
]


@dataclass(frozen=True)
class RhoSpectrum:
    """Per-stage high-frequency dissipation targets rho_1 ... rho_k."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 1:
            raise ConfigurationError("stage count k must be >= 1, got an empty rho list")
        for i, v in enumerate(values):
            if not (0.0 <= v <= 1.0):
                raise ConfigurationError(
                    "rho[%d] = %r lies outside [0, 1]" % (i, v)
                )

    @classmethod
    def uniform(cls, rho, k):
        """Broadcast a single scalar control to all k stages."""
        if k < 1:
            raise ConfigurationError("stage count k must be >= 1, got %r" % (k,))
        return cls((float(rho),) * int(k))

    @property
    def k(self):
        return len(self.values)


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

    def with_gamma(self, gamma):
        """Copy with the gamma tuple replaced (used for perturbation studies)."""
        return MethodParams(self.k, self.alpha, self.alpha_f, tuple(gamma))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of validate_stability: ok flag plus one line per violated bound."""

    ok: bool
    violations: tuple


def params_from_rho(rho):
    """Map dissipation controls to method coefficients.

    rho may be a RhoSpectrum or any sequence of k values in [0, 1]. Stages
    j < k use alpha_j = (3 + rho_j) / (2 (1 + rho_j)); the last stage uses
    alpha_k = (3 - rho_k) / (2 (1 + rho_k)) together with
    alpha_f = 1 / (1 + rho_k). For k = 1 the single stage is the last stage.
    """
    if not isinstance(rho, RhoSpectrum):
        rho = RhoSpectrum(tuple(rho))
    k = rho.k
    alpha = []
    gamma = []
    for j, r in enumerate(rho.values):
        if j < k - 1:
            a = (3.0 + r) / (2.0 * (1.0 + r))
            g = a - 0.5
        else:
            a = (3.0 - r) / (2.0 * (1.0 + r))
            g = 1.0 / (1.0 + r)
        alpha.append(a)
        gamma.append(g)
    alpha_f = 1.0 / (1.0 + rho.values[-1])
    return MethodParams(k, tuple(alpha), alpha_f, tuple(gamma))


def validate_stability(params):
    """Check the unconditional-stability bounds on a coefficient set.

    Bounds: alpha_j >= 1 for j < k, alpha_k >= alpha_f >= 1/2, and every
    gamma_j > 0. The rho parameterization satisfies all of them exactly for
    rho in [0, 1]^k, boundary values included, so no tolerance slop is used.
    """
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
    return StabilityReport(ok=not violations, violations=tuple(violations))
