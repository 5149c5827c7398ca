"""Scalar-mode amplification analysis.

For the 1-dof problem u' = -lambda u the method advances a stack of 2k scaled
derivatives by a 2k x 2k matrix G(theta), theta = tau * lambda. G is block
upper triangular with k diagonal 2x2 blocks, one per stage, so eigenvalues come
from closed-form quadratics. spectral_radius, sweeps and stability maps take
those roots from one array kernel over theta of any shape. Only
amplification_matrix forms G itself, once, from the stage equations; its 2x2
blocks are copies of the diagonal of that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .exceptions import ConfigurationError, PoleError

__all__ = [
    "AmplificationMatrix",
    "SweepResult",
    "StabilityMap",
    "amplification_matrix",
    "block_eigenvalues",
    "spectral_radius",
    "asymptotic_eigenvalues",
    "sweep_spectral_radius",
    "stability_region",
]

A_STABILITY_SLACK = 1e-9
# theta nodes per pass of the root kernel; bounds its temporaries to a few MiB
KERNEL_CHUNK = 1 << 14


def _dense_from_stage_equations(params, theta):
    """Assemble G numerically as L^-1 R from the scaled stage equations.

    State ordering w_m = tau^m u^(m), m = 0..2k-1. Stage j couples the pair
    (2j-2, 2j-1) and reads its row (alpha_j, gamma_j, c_j) of the stage table
    (MethodParams._stages); rows of R combine rows of the Taylor-shift matrix
    (MethodParams._shift), so the block lower triangle is exactly zero by
    construction.
    """
    th = complex(theta)
    n = 2 * params.k
    S = params._shift
    G = np.empty((n, n), dtype=complex)
    for j, (a, g, c, _) in enumerate(params._stages):
        e = 2 * j
        L = np.array([[1.0, -g], [c * th, a]], dtype=complex)
        # rows t_e - g t_o and (a - 1) t_o of the predictors t = S w
        R = np.zeros((2, n), dtype=complex)
        R[0, e:] = S[e, e:] - g * S[e + 1, e:]
        R[1, e:] = (a - 1.0) * S[e + 1, e:]
        R[1, e] = -(1.0 - c) * th
        # L is the stage's own 2x2 block of the block diagonal system, so the
        # zero pattern of R stays exact in G
        G[e:e + 2] = np.linalg.solve(L, R)
    return G


@dataclass(frozen=True)
class AmplificationMatrix:
    """Amplification matrix G(theta) with its diagonal blocks.

    dense is the full 2k x 2k matrix including the upper coupling blocks;
    blocks holds copies of its k diagonal 2x2 stage blocks.
    """

    k: int
    theta: complex
    blocks: tuple
    dense: np.ndarray

    def coupling(self, i, j):
        """Upper coupling block between stage pairs i < j (1-based)."""
        if not (1 <= i < j <= self.k):
            raise ConfigurationError(
                "coupling block indices need 1 <= i < j <= k, got (%d, %d)" % (i, j)
            )
        return self.dense[2 * i - 2:2 * i, 2 * j - 2:2 * j]


def amplification_matrix(params, theta):
    """G(theta) from the stage equations, with its diagonal stage blocks.

    Raises PoleError when a stage denominator alpha_j + b_j theta vanishes;
    that happens only for real theta < 0.
    """
    th = complex(theta)
    for j, (a, _, _, b) in enumerate(params._stages):
        if a + b * th == 0:
            raise PoleError(j + 1, theta)
    dense = _dense_from_stage_equations(params, theta)
    blocks = tuple(dense[2 * j:2 * j + 2, 2 * j:2 * j + 2].copy() for j in range(params.k))
    return AmplificationMatrix(params.k, th, blocks, dense)


def block_eigenvalues(block):
    """Both roots of a 2x2 block, ordered by descending magnitude.

    The larger root uses the stable sign choice in the quadratic formula; the
    smaller one comes from the product of roots, avoiding cancellation.
    """
    b = np.asarray(block, dtype=complex)
    tr = b[0, 0] + b[1, 1]
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    s = np.sqrt(tr * tr - 4.0 * det)
    if abs(tr + s) >= abs(tr - s):
        r1 = (tr + s) / 2.0
    else:
        r1 = (tr - s) / 2.0
    if r1 != 0:
        r2 = det / r1
    else:
        r2 = tr - r1
    if abs(r2) > abs(r1):
        r1, r2 = r2, r1
    return complex(r1), complex(r2)


def _stage_root_magnitudes(params, theta):
    """Root magnitudes of every stage block of G, for theta of any shape S.

    Returns mags of shape S + (2k,), stage pairs in order with each pair in
    descending order, and a pole mask of shape S + (k,) set where a stage
    denominator vanishes; mags carries no meaning at a pole. Per stage, with
    the coefficients of the stage table (MethodParams._stages), den tr and
    den det are linear in theta and den^2 (tr^2 - 4 det) is the quadratic P,
    all in factored coefficients that carry no cancellation. The roots are
    big / (2 den) and 2 den det / big, where big = den tr +- sqrt(P) takes the
    sign of larger modulus, so neither root is formed by cancellation either.
    The rho parameterization has gamma_k = alpha_f, so for the last stage P
    is linear in theta and the pair that meets at -rho_k as theta grows (a
    double root at -1 for rho_k = 1) keeps full accuracy.
    """
    th = np.asarray(theta, dtype=complex)
    k = params.k
    rows = [(a, b, 2.0 * a - 1.0, -(g * (1.0 - c) + c * (1.0 - g)), a - 1.0,
             (1.0 - g) * (1.0 - c), 2.0 * (g + c - 2.0 * a), (g - c) ** 2)
            for a, g, c, b in params._stages]
    # each coefficient as a (k, 1) column against a (1, n) row of nodes
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
            # the polynomials are homogeneous in (x, y) = (1, theta) / max(1, |theta|):
            # the roots do not change, and p2 theta^2 cannot overflow
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


def _raise_first_pole(poles, theta):
    """PoleError naming the first stage and node in a kernel pole mask."""
    if poles.any():
        *node, stage = np.argwhere(poles)[0]
        raise PoleError(int(stage) + 1, np.asarray(theta)[tuple(node)].item())


def check_range(name, lo, hi, positive=False):
    """(lo, hi) as floats: finite, ordered, of finite width and, if asked, positive.

    The one boundary check of the analysis inputs: theta grids, map axes and
    the CLI ranges all pass through it, so NaN and inf never reach the kernel.
    """
    lo, hi = float(lo), float(hi)
    if not (isfinite(lo) and isfinite(hi)):
        raise ConfigurationError("%s range must be finite, got [%g, %g]" % (name, lo, hi))
    if positive and lo <= 0.0:
        raise ConfigurationError("%s range must be positive, got [%g, %g]" % (name, lo, hi))
    if lo > hi:
        raise ConfigurationError("%s range is reversed: [%g, %g]" % (name, lo, hi))
    if not isfinite(hi - lo):
        raise ConfigurationError("%s range is too wide: the width of [%g, %g] overflows"
                                 % (name, lo, hi))
    return lo, hi


def check_points(name, n, lo, hi):
    """A point count n for the axis [lo, hi]: n >= 1, and n = 1 only on a
    degenerate range (lo == hi). The map axes and the CLI's theta grid share it."""
    if n < 1:
        raise ConfigurationError("%s must be >= 1, got %d" % (name, n))
    if n == 1 and lo != hi:
        raise ConfigurationError("%s = 1 needs a degenerate range, got [%g, %g]" % (name, lo, hi))


def spectral_radius(params, theta):
    """max |eigenvalue| of G(theta), from the closed-form stage roots."""
    mags, poles = _stage_root_magnitudes(params, theta)
    _raise_first_pole(poles, theta)
    return float(mags.max())


def asymptotic_eigenvalues(params):
    """Eigenvalue limits of G(theta) as |theta| grows, in stage-pair order.

    Stage j contributes {(c_j - 1) / c_j, (gamma_j - 1) / gamma_j} from the
    stage table: 0 for j < k, where c_j = 1. With the rho parameterization
    every nonzero limit equals -rho of its stage.
    """
    out = []
    for j, (_, g, c, _) in enumerate(params._stages):
        if g == 0 or c == 0:
            raise ConfigurationError(
                "stage %d has no asymptotic limit: gamma = %g, c = %g" % (j + 1, g, c))
        out.extend([complex((c - 1.0) / c), complex((g - 1.0) / g)])
    return tuple(out)


@dataclass(frozen=True)
class SweepResult:
    """Dissipation curve: spectral radius and per-block magnitudes over theta."""

    theta: np.ndarray        # (N,)
    rho: np.ndarray          # (N,)
    magnitudes: np.ndarray   # (N, 2k), stage pairs in order, each pair descending


def sweep_spectral_radius(params, theta_grid):
    """Evaluate the spectral radius along a positive theta grid."""
    grid = np.asarray(theta_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ConfigurationError("theta grid is empty")
    check_range("theta", grid.min(), grid.max(), positive=True)
    mags, poles = _stage_root_magnitudes(params, grid)
    _raise_first_pole(poles, grid)
    return SweepResult(theta=grid.copy(), rho=mags.max(axis=1), magnitudes=mags)


@dataclass(frozen=True)
class StabilityMap:
    """Spectral radius sampled on a rectangle of complex theta.

    rho has shape (n_re, n_im); pole nodes carry NaN and are flagged in
    pole_mask. max_rho_right_half and a_stable summarize the Re >= 0 nodes;
    with none sampled they are NaN and None (undetermined).
    """

    re: np.ndarray
    im: np.ndarray
    rho: np.ndarray
    pole_mask: np.ndarray
    max_rho_right_half: float
    a_stable: bool | None


def stability_region(params, re_range, im_range, resolution):
    """Map rho(G) over [re_min, re_max] x [im_min, im_max].

    resolution is the point count per axis (one count for both, or a pair
    (n_re, n_im)); a single-point axis requires a degenerate range. Pole nodes
    (only possible for Re theta < 0) are flagged, not fatal. a_stable is None
    when no Re theta >= 0 node off a pole is sampled.
    """
    pair = tuple(resolution) if np.ndim(resolution) else (resolution, resolution)
    bad = "resolution must be a finite count or a pair of them, got %r" % (resolution,)
    try:
        n_re, n_im = (int(n) for n in pair)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(bad) from exc
    if (n_re, n_im) != pair:
        raise ConfigurationError(bad)
    re_lo, re_hi = check_range("re", *re_range)
    im_lo, im_hi = check_range("im", *im_range)
    check_points("re resolution", n_re, re_lo, re_hi)
    check_points("im resolution", n_im, im_lo, im_hi)
    res = np.linspace(re_lo, re_hi, n_re)
    ims = np.linspace(im_lo, im_hi, n_im)
    theta = np.empty((n_re, n_im), dtype=complex)
    theta.real = res[:, None]
    theta.imag = ims[None, :]
    mags, stage_poles = _stage_root_magnitudes(params, theta)
    poles = stage_poles.any(axis=-1)
    rho = np.where(poles, np.nan, mags.max(axis=-1))
    right = (res >= 0.0)[:, None] & ~poles
    if np.any(right):
        max_right = float(np.max(rho[right]))
        a_stable = bool(max_right <= 1.0 + A_STABILITY_SLACK)
    else:
        max_right = float("nan")
        a_stable = None
    return StabilityMap(
        re=res, im=ims, rho=rho, pole_mask=poles,
        max_rho_right_half=max_right, a_stable=a_stable,
    )
