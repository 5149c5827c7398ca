"""Characteristic-polynomial machinery and order verification.

Coefficients of det(lambda I - G) are produced from the power sums
s_l = tr(G^l) through complete exponential Bell polynomials,

    c_{n-l} = (-1)^l / l! * B_l(s_1, -1! s_2, 2! s_3, ..., (-1)^{l-1} (l-1)! s_l),

which holds for any square matrix. B_0 .. B_n come from one pass of the
recurrence B_{l+1} = sum_i C(l, i) B_{l-i} x_{i+1}, which adds and multiplies
by integers only, so it is exact on integers and fractions and runs over any
commutative ring. The local accuracy of the time march is
measured by the residual of the exact decay solution in the 2k+1 term scalar
recurrence that det(lambda I - G) defines. Because G is block upper
triangular, that residual is the product of the k stage quadratics at
exp(-theta); recurrence_residual evaluates it in that form, and the Bell
route stays as an independent cross-check. The order conditions themselves
are one law per row of the stage table, alpha_j - gamma_j - c_j + 1/2 = 0:
MethodParams._order_defects holds its left side, which is the theta^2
coefficient of each stage factor in the residual, and verify_order_conditions
reports its magnitude per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .exceptions import ConfigurationError, PoleError

__all__ = [
    "BELL_CLOSED_FORMS",
    "CharPolyCoeffs",
    "OrderConditionReport",
    "SlopeFit",
    "power_sums",
    "bell_complete",
    "charpoly_coeffs",
    "recurrence_residual",
    "verify_order_conditions",
    "fit_slope",
]

MAX_CHARPOLY_DIM = 12
CONDITION_TOL = 1e-12
FLOOR_FACTOR = 100.0


@dataclass(frozen=True)
class CharPolyCoeffs:
    """p(lambda) = lambda^n + c[n-1] lambda^(n-1) + ... + c[0]."""

    n: int
    c: tuple

    def evaluate(self, z):
        """p(z) by Horner, highest coefficient first."""
        acc = complex(1.0)
        for m in range(self.n - 1, -1, -1):
            acc = acc * z + self.c[m]
        return acc


def power_sums(G, l_max):
    """(tr(G), tr(G^2), ..., tr(G^l_max)) by iterated multiplication."""
    if l_max < 1:
        raise ConfigurationError("l_max must be >= 1, got %d" % (l_max,))
    A = np.asarray(G, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError("power sums need a square matrix")
    s = []
    P = A
    for _ in range(l_max):
        s.append(complex(np.trace(P)))
        P = P @ A
    return tuple(s)


# Expanded forms of B_2..B_6, kept as an independent cross-check on the
# recurrence. Exact for int/Fraction inputs.
BELL_CLOSED_FORMS = {
    2: lambda x1, x2: x1 ** 2 + x2,
    3: lambda x1, x2, x3: x1 ** 3 + 3 * x1 * x2 + x3,
    4: lambda x1, x2, x3, x4: (x1 ** 4 + 6 * x1 ** 2 * x2 + 4 * x1 * x3
                               + 3 * x2 ** 2 + x4),
    5: lambda x1, x2, x3, x4, x5: (x1 ** 5 + 10 * x1 ** 3 * x2
                                   + 10 * x1 ** 2 * x3 + 15 * x1 * x2 ** 2
                                   + 5 * x1 * x4 + 10 * x2 * x3 + x5),
    6: lambda x1, x2, x3, x4, x5, x6: (x1 ** 6 + 15 * x1 ** 4 * x2
                                       + 20 * x1 ** 3 * x3
                                       + 45 * x1 ** 2 * x2 ** 2
                                       + 15 * x2 ** 3 + 60 * x1 * x2 * x3
                                       + 15 * x1 ** 2 * x4 + 10 * x3 ** 2
                                       + 15 * x2 * x4 + 6 * x1 * x5 + x6),
}


def _bell_sequence(x):
    """[B_0, B_1, ..., B_L] at x = (x_1, ..., x_L), L = len(x).

    B_{l+1} = sum_{i=0..l} C(l, i) B_{l-i} x_{i+1}, from B_0 = 1: sums and
    integer multiples only, with no division.
    """
    B = [1]
    for l in range(len(x)):
        acc = B[l] * x[0]
        for i in range(1, l + 1):
            acc = acc + comb(l, i) * B[l - i] * x[i]
        B.append(acc)
    return B


def bell_complete(l, x):
    """Complete exponential Bell polynomial B_l(x_1, ..., x_l).

    The result has the ring of the inputs: exact for int or Fraction, complex
    for complex, elementwise for numpy arrays. B_0 = 1 (empty product).
    """
    if l < 0:
        raise ConfigurationError("Bell polynomial index must be >= 0, got %d" % (l,))
    x = list(x)
    if len(x) != l:
        raise ConfigurationError("B_%d needs exactly %d arguments, got %d" % (l, l, len(x)))
    return _bell_sequence(x)[l]


def charpoly_coeffs(G):
    """Characteristic polynomial coefficients of a square matrix, n <= 12."""
    A = np.asarray(G, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError("characteristic polynomial needs a square matrix")
    n = A.shape[0]
    if n > MAX_CHARPOLY_DIM:
        raise ConfigurationError(
            "characteristic polynomial supported up to n = %d, got n = %d"
            % (MAX_CHARPOLY_DIM, n)
        )
    s = power_sums(A, n)
    B = _bell_sequence([(-1.0) ** (m - 1) * factorial(m - 1) * s[m - 1]
                        for m in range(1, n + 1)])
    c = [(-1.0) ** l / factorial(l) * B[l] for l in range(n, 0, -1)]
    return CharPolyCoeffs(n=n, c=tuple(complex(v) for v in c))


def _exp_tail(theta):
    """exp(-theta) - (1 - theta + theta^2/2) by its power series, for |theta| <= 1.

    Every term carries theta^3 or higher, so nothing cancels; 21 terms reach
    double precision on the unit disc.
    """
    term = -theta ** 3 / 6.0
    acc = term
    for n in range(4, 24):
        term *= -theta / n
        acc += term
    return acc


def recurrence_residual(params, lambda_theta, tau):
    """Residual of the exact decay solution in the 2k+1 term recurrence.

    The characteristic polynomial of G(theta), theta = tau * lambda_theta,
    defines the scalar recurrence u_{m+1} + c_{2k-1} u_m + ... + c_0 u_{m-2k+1} = 0;
    substituting u(t) = exp(-lambda_theta t) turns it into p(exp(-theta)), whose
    magnitude is returned raw for slope fitting. G is block upper triangular,
    so p is the product of the stage quadratics q_j(z) = det(z I - G_j), one
    per row of the stage table, whose docstring (MethodParams._stages) writes
    den_j q_j out; q_j(1) = theta / den_j. For |theta| <= 1 each factor is
    expanded about z = 1 in s = theta + expm1(-theta), with the theta^2
    coefficient summed exactly and the rest from the series tail, which leaves
    no cancellation: the residual is accurate to a few ulps relative however
    small it is, and needs no roundoff floor in the slope fit. Raises
    PoleError where a stage denominator vanishes.
    """
    theta = complex(lambda_theta * tau)
    small = abs(theta) <= 1.0
    if small:
        tail = _exp_tail(theta)
        s = theta * theta / 2.0 + tail
    else:
        z = complex(np.exp(-theta))
    product = complex(1.0)
    for j, ((a, g, c, b), e2) in enumerate(zip(params._stages, params._order_defects)):
        den = a + b * theta
        if den == 0:
            raise PoleError(j + 1, theta)
        if small:
            # den q(1 + d) with d = s - theta; the theta^2 coefficient e2 is
            # the stage's order defect, zero under the order conditions
            num = (tail + e2 * theta ** 2 + b * theta ** 3
                   + (g + c - 2.0 * den) * theta * s + den * s * s)
        else:
            num = (den * z * z - (2.0 * den - 1.0 - (g + c) * theta) * z
                   + a - 1.0 + (b + 1.0 - g - c) * theta)
        product *= num / den
    return abs(product)


@dataclass(frozen=True)
class OrderConditionReport:
    """|alpha_j - gamma_j - c_j + 1/2| for each stage, in stage order."""

    residuals: tuple

    @property
    def all_ok(self):
        return all(r <= CONDITION_TOL for r in self.residuals)

    @property
    def max_residual(self):
        """The largest residual; NaN when any residual is NaN."""
        return float(np.max(self.residuals))


def verify_order_conditions(params):
    """Check the order law alpha_j - gamma_j - c_j + 1/2 = 0 on each stage-table row.

    With c_j = 1 (j < k) and c_k = alpha_f that is gamma_j = alpha_j - 1/2 and
    gamma_k = 1/2 - alpha_f + alpha_k. Returns an OrderConditionReport whose
    residuals are the magnitudes of MethodParams._order_defects, one per stage;
    all_ok holds when each is within CONDITION_TOL.
    """
    return OrderConditionReport(residuals=tuple(abs(e) for e in params._order_defects))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    kept: int
    floor: float


def fit_slope(taus, values, scale=1.0):
    """Least-squares slope of log(value) against log(tau).

    Points below the roundoff floor 100 * eps * scale are discarded; at least
    5 samples must be supplied and at least 2 must survive the floor.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.shape != values.shape or taus.ndim != 1:
        raise ConfigurationError("tau and value arrays must be 1-D and equal length")
    if taus.size < 5:
        raise ConfigurationError("slope fit needs at least 5 tau samples, got %d" % taus.size)
    floor = FLOOR_FACTOR * np.finfo(float).eps * float(scale)
    keep = values > floor
    kept = int(np.count_nonzero(keep))
    if kept < 2:
        raise ConfigurationError(
            "only %d samples above the roundoff floor %.3e; cannot fit a slope" % (kept, floor)
        )
    A = np.vstack([np.log(taus[keep]), np.ones(kept)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(values[keep]), rcond=None)
    return SlopeFit(slope=float(coef[0]), kept=kept, floor=floor)
