"""Amplification blocks, dense assembly, spectra, sweeps, stability maps."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galpha import (
    ConfigurationError,
    PoleError,
    amplification_matrix,
    asymptotic_eigenvalues,
    block_eigenvalues,
    params_from_rho,
    spectral_radius,
    stability_region,
    sweep_spectral_radius,
)
from galpha.spectral import _stage_root_magnitudes

# magnitude of the conjugate pair of the last stage at theta = 1e8 for
# rho_k = 0: the decay there is algebraic, (2 theta)^(-1/2) to leading order
HIGH_FREQ_RESIDUE = 7.071067758832469e-05
# (gamma - 1) / gamma against -rho, with gamma = 1 / (1 + rho) rounded first:
# worst measured 6.7e-16 over 20 000 random rho lists
ASYMPTOTIC_TOL = 1e-15


def _random_params(rng, k):
    return params_from_rho(rng.uniform(0.0, 1.0, k).tolist())


def test_dense_matches_diagonal_blocks():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        prm = _random_params(rng, k)
        theta = complex(rng.uniform(-5, 50), rng.uniform(-50, 50))
        amp = amplification_matrix(prm, theta)
        for j, B in enumerate(amp.blocks):
            sl = slice(2 * j, 2 * j + 2)
            np.testing.assert_array_equal(amp.dense[sl, sl], B)


def test_dense_lower_block_triangle_exactly_zero():
    prm = params_from_rho([0.9, 0.4, 0.1, 0.6])
    amp = amplification_matrix(prm, 3.7)
    for r in range(4):
        for c in range(r):
            block = amp.dense[2 * r:2 * r + 2, 2 * c:2 * c + 2]
            assert np.all(block == 0.0)


def test_dense_spectrum_equals_block_union():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        prm = _random_params(rng, k)
        mag = 10.0 ** rng.uniform(-3, 3)
        phase = rng.uniform(-np.pi, np.pi)
        theta = mag * np.exp(1j * phase)
        amp = amplification_matrix(prm, theta)
        dense_eigs = sorted(np.linalg.eigvals(amp.dense), key=lambda z: (z.real, z.imag))
        block_eigs = sorted(
            (r for B in amp.blocks for r in block_eigenvalues(B)),
            key=lambda z: (z.real, z.imag),
        )
        scale = max(1.0, max(abs(z) for z in dense_eigs))
        err = max(abs(a - b) for a, b in zip(dense_eigs, block_eigs))
        assert err <= 1e-10 * scale


def test_block_eigenvalues_closed_cases():
    r1, r2 = block_eigenvalues(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert (r1, r2) == (3.0, 2.0)
    r1, r2 = block_eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert {complex(r1), complex(r2)} == {1j, -1j}


def test_early_stage_blocks_shared_across_stage_counts():
    # stage j < k has a closed form independent of k, so the same control
    # produces bit-identical blocks in a 2-stage and a 3-stage method
    theta = 2.5
    two = amplification_matrix(params_from_rho([0.37, 0.8]), theta)
    three = amplification_matrix(params_from_rho([0.37, 0.5, 0.8]), theta)
    assert np.array_equal(two.blocks[0], three.blocks[0])


def test_spectral_radius_at_zero_is_one():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        prm = _random_params(rng, k)
        assert abs(spectral_radius(prm, 0.0) - 1.0) <= 1e-14


def test_unit_eigenvalue_count_at_zero_is_k():
    # every stage contributes one principal root equal to 1 at theta = 0
    rng = np.random.default_rng(18)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        prm = _random_params(rng, k)
        eigs = np.linalg.eigvals(amplification_matrix(prm, 0.0).dense)
        assert np.count_nonzero(np.abs(eigs - 1.0) <= 1e-13) == k


def test_trapezoid_block_at_zero():
    amp = amplification_matrix(params_from_rho([1.0]), 0.0)
    np.testing.assert_allclose(amp.dense, [[1.0, 0.0], [0.0, -1.0]], atol=1e-15)


def test_trapezoid_imaginary_axis_radius_one():
    prm = params_from_rho([1.0])
    assert abs(spectral_radius(prm, 5j) - 1.0) <= 1e-12


def test_high_frequency_residue_single_stage():
    prm = params_from_rho([0.0])
    r1, r2 = block_eigenvalues(amplification_matrix(prm, 1e8).blocks[0])
    # conjugate pair, equal magnitudes, algebraic (2 theta)^(-1/2) decay
    assert abs(abs(r1) - abs(r2)) <= 1e-18
    assert abs(abs(r1) - HIGH_FREQ_RESIDUE) <= 1e-12
    assert abs(spectral_radius(prm, 1e8) - HIGH_FREQ_RESIDUE) <= 1e-12


def test_asymptotic_eigenvalues_annihilating_stage():
    assert asymptotic_eigenvalues(params_from_rho([0.0])) == (0j, 0j)


def test_asymptotic_eigenvalues_mixed_controls():
    eigs = asymptotic_eigenvalues(params_from_rho([0.8, 0.2]))
    np.testing.assert_allclose(
        sorted(abs(z) for z in eigs), [0.0, 0.2, 0.2, 0.8], atol=1e-14
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                min_size=1, max_size=6))
def test_asymptotic_eigenvalues_are_minus_rho(rho):
    # (0, -rho_1, ..., 0, -rho_{k-1}, -rho_k, -rho_k)
    expected = [v for r in rho[:-1] for v in (0.0, -r)] + [-rho[-1], -rho[-1]]
    eigs = asymptotic_eigenvalues(params_from_rho(rho))
    assert all(z.imag == 0.0 for z in eigs)
    np.testing.assert_allclose([z.real for z in eigs], expected, rtol=0, atol=ASYMPTOTIC_TOL)


def test_asymptotic_limit_matches_huge_theta_evaluation():
    prm = params_from_rho([0.8, 0.2])
    amp = amplification_matrix(prm, 1e10)
    finite = sorted(
        abs(r) for B in amp.blocks for r in block_eigenvalues(B)
    )
    limit = sorted(abs(z) for z in asymptotic_eigenvalues(prm))
    np.testing.assert_allclose(finite, limit, atol=1e-8)


def test_sweep_trapezoid_pins_radius_to_one():
    prm = params_from_rho([1.0])
    sweep = sweep_spectral_radius(prm, np.logspace(-4, 8, 200))
    assert np.max(np.abs(sweep.rho - 1.0)) <= 1e-8


def test_sweep_dissipation_curve_limits():
    prm = params_from_rho([0.5, 0.5])
    sweep = sweep_spectral_radius(prm, np.logspace(-4, 8, 200))
    assert sweep.magnitudes.shape == (200, 4)
    assert 1.0 - 1e-3 <= sweep.rho[0] <= 1.0 + 1e-12
    assert abs(sweep.rho[-1] - 0.5) <= 1e-5
    # the curve dips below the asymptote at moderate theta before recovering
    assert np.min(sweep.rho) < 0.5


def test_sweep_magnitudes_pair_descending():
    prm = params_from_rho([0.3, 0.7, 0.5])
    sweep = sweep_spectral_radius(prm, np.logspace(-2, 4, 30))
    for j in range(3):
        assert np.all(sweep.magnitudes[:, 2 * j] >= sweep.magnitudes[:, 2 * j + 1])


def test_sweep_rejects_bad_grids():
    prm = params_from_rho([0.5])
    with pytest.raises(ConfigurationError, match="empty"):
        sweep_spectral_radius(prm, [])
    with pytest.raises(ConfigurationError, match="positive"):
        sweep_spectral_radius(prm, [1.0, 0.0, 2.0])


def test_pole_carries_stage_and_theta():
    # trapezoid stage matrix is singular at theta = -2
    prm = params_from_rho([1.0])
    with pytest.raises(PoleError, match="pole at stage 1") as exc:
        spectral_radius(prm, -2.0)
    assert exc.value.stage == 1
    assert exc.value.theta == -2.0


def test_stability_region_right_half_plane():
    prm = params_from_rho([0.0, 0.0])
    region = stability_region(prm, (0.0, 10.0), (-10.0, 10.0), 11)
    assert region.rho.shape == (11, 11)
    assert not region.pole_mask.any()
    assert region.a_stable
    assert region.max_rho_right_half <= 1.0 + 1e-9


def test_stability_region_exceeds_one_left_of_axis():
    # a column at Re theta = -0.5 leaves the stability region
    prm = params_from_rho([0.0, 0.0])
    region = stability_region(prm, (-0.5, -0.5), (-10.0, 10.0), (1, 21))
    assert np.nanmax(region.rho) > 1.0
    # no Re >= 0 nodes sampled: A-stability is undetermined, not certified
    assert np.isnan(region.max_rho_right_half)
    assert region.a_stable is None


def test_stability_region_flags_poles():
    prm = params_from_rho([1.0])
    region = stability_region(prm, (-4.0, 0.0), (0.0, 0.0), (9, 1))
    assert int(region.pole_mask.sum()) == 1
    i = int(np.argwhere(region.pole_mask)[0][0])
    assert region.re[i] == -2.0
    assert np.isnan(region.rho[i, 0])


def test_stability_region_degenerate_single_node():
    region = stability_region(params_from_rho([0.5]), (0.0, 0.0), (0.0, 0.0), 1)
    assert region.rho.shape == (1, 1)
    assert abs(region.rho[0, 0] - 1.0) <= 1e-14
    assert region.a_stable


def test_stability_region_validation():
    prm = params_from_rho([0.5])
    with pytest.raises(ConfigurationError, match="resolution must be >= 1"):
        stability_region(prm, (0.0, 1.0), (0.0, 1.0), 0)
    with pytest.raises(ConfigurationError, match="reversed"):
        stability_region(prm, (1.0, 0.0), (0.0, 1.0), 3)
    with pytest.raises(ConfigurationError, match="degenerate"):
        stability_region(prm, (0.0, 1.0), (0.0, 1.0), (1, 3))
    # one count or a pair of exactly two whole counts
    for bad in (np.inf, np.nan, (3, np.inf), [9], [3, 3, 3], 2.5, (9, 1.5), "9"):
        with pytest.raises(ConfigurationError, match="finite count"):
            stability_region(prm, (0.0, 1.0), (0.0, 1.0), bad)


def test_coupling_accessor():
    prm = params_from_rho([0.9, 0.4, 0.1])
    amp = amplification_matrix(prm, 1.3 + 0.2j)
    xi = amp.coupling(1, 3)
    assert xi.shape == (2, 2)
    np.testing.assert_array_equal(xi, amp.dense[0:2, 4:6])
    with pytest.raises(ConfigurationError):
        amp.coupling(3, 1)
    with pytest.raises(ConfigurationError):
        amp.coupling(0, 2)


def test_amplification_matrix_metadata():
    amp = amplification_matrix(params_from_rho([0.5, 0.5]), 2.0)
    assert amp.k == 2
    assert amp.theta == 2.0
    assert amp.dense.shape == (4, 4)
    assert len(amp.blocks) == 2


def test_amplification_matrix_names_the_pole_stage_and_theta():
    # den_j = alpha_j + b_j theta vanishes exactly at these theta
    prm = params_from_rho([0.5, 0.0])
    inner = -prm.alpha[0] / prm.gamma[0]
    a, _, _, b = prm._stages[1]
    cases = ((params_from_rho([1.0]), -2.0, 1), (prm, inner, 1), (prm, -a / b, 2))
    for params, theta, stage in cases:
        with pytest.raises(PoleError, match="stage %d for theta = " % stage) as info:
            amplification_matrix(params, theta)
        assert (info.value.stage, info.value.theta) == (stage, theta)


# ---------------------------------------------------------------------------
# the closed-form stage-root kernel behind spectral_radius, sweeps and maps

# kernel against block_eigenvalues on the 2x2 blocks and against eigvals of
# the dense matrix: all take sqrt(eps) near a double root, and the block and
# dense paths' roundoff there is the larger (worst measured 1.0e-8 of the
# radius against the blocks, at rho = 1 and theta = 5.7e9, and 1.5e-8
# against the dense matrix over 3000 draws with |theta| <= 1e10)
BLOCK_ROOT_TOL = 1e-7
RHO_ONE_GRID = np.logspace(-4, 10, 401)


@st.composite
def methods_and_thetas(draw, n_theta=8):
    """k in 1..6, rho in [0, 1]^k, theta in the closed right half-plane."""
    k = draw(st.integers(1, 6))
    control = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    prm = params_from_rho(draw(st.lists(control, min_size=k, max_size=k)))
    exponent = st.floats(-6.0, 10.0)
    phase = st.one_of(st.sampled_from([-np.pi / 2, 0.0, np.pi / 2]),
                      st.floats(-np.pi / 2, np.pi / 2))
    thetas = []
    for _ in range(n_theta):
        r, ph = 10.0 ** draw(exponent), draw(phase)
        re = 0.0 if abs(ph) == np.pi / 2 else r * np.cos(ph)
        thetas.append(complex(re, r * np.sin(ph)))
    return prm, np.array(thetas)


def _mp_stage_magnitudes(prm, theta):
    """Root magnitudes of the closed-form stage blocks, eigen-solved at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        th = mp.mpc(theta)
        out = []
        for j in range(prm.k):
            a, g = mp.mpf(prm.alpha[j]), mp.mpf(prm.gamma[j])
            c = mp.mpf(1) if j < prm.k - 1 else mp.mpf(prm.alpha_f)
            den = a + c * g * th
            b11 = a + (c - 1) * g * th
            b22 = a + c * (g - 1) * th - 1
            tr = (b11 + b22) / den
            det = (b11 * b22 + (a - g) * th) / den ** 2
            s = mp.sqrt(tr * tr - 4 * det)
            out.extend(sorted((float(abs((tr + s) / 2)), float(abs((tr - s) / 2))),
                              reverse=True))
    return np.array(out)


@settings(max_examples=150, deadline=None)
@given(methods_and_thetas())
def test_kernel_bounded_and_equal_to_block_roots(case):
    prm, thetas = case
    mags, poles = _stage_root_magnitudes(prm, thetas)
    assert mags.shape == (thetas.size, 2 * prm.k)
    assert not poles.any()
    assert np.all(mags[:, 0::2] >= mags[:, 1::2])
    radius = mags.max(axis=1)
    assert np.all(radius <= 1.0 + 1e-9)
    for theta, row, r in zip(thetas, mags, radius):
        amp = amplification_matrix(prm, theta)
        roots = [abs(z) for B in amp.blocks for z in block_eigenvalues(B)]
        assert np.max(np.abs(row - roots)) <= BLOCK_ROOT_TOL * r
        # the blocks are the diagonal of the dense matrix, so its eigenvalues
        # check the block triangular structure of G
        dense = np.sort(np.abs(np.linalg.eigvals(amp.dense)))
        assert np.max(np.abs(np.sort(row) - dense)) <= BLOCK_ROOT_TOL * r
        assert spectral_radius(prm, theta) == pytest.approx(r, rel=1e-15, abs=0.0)


def test_kernel_matches_mpmath():
    # worst measured over 4000 such draws: 5.0e-16 relative on the radius and
    # 6.2e-16 of the radius on any root
    rng = np.random.default_rng(20211)
    for _ in range(150):
        k = int(rng.integers(1, 7))
        rho = rng.uniform(0.0, 1.0, k)
        rho[rng.random(k) < 0.2] = 1.0
        prm = params_from_rho(rho.tolist())
        theta = 10.0 ** rng.uniform(-6, 10) * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        mags, _ = _stage_root_magnitudes(prm, theta)
        exact = _mp_stage_magnitudes(prm, theta)
        assert abs(mags.max() - exact.max()) <= 1e-12 * exact.max()
        assert np.max(np.abs(mags - exact)) <= 1e-12 * exact.max()


@pytest.mark.parametrize("k", range(1, 7))
def test_sweep_at_rho_one_stays_on_the_unit_circle(k):
    # the last stage's pair meets at -1 as theta grows; entrywise blocks lost
    # sqrt(eps) there and read 1.00000001 from theta ~ 3e7
    sweep = sweep_spectral_radius(params_from_rho([1.0] * k), RHO_ONE_GRID)
    assert np.all(sweep.rho <= 1.0 + 1e-9)
    assert np.all(np.abs(sweep.rho - 1.0) <= 1e-12)
    assert np.array_equal(sweep.rho, sweep.magnitudes.max(axis=1))


def test_kernel_matches_mpmath_at_rho_one_far_out():
    prm = params_from_rho([1.0, 1.0])
    for theta in (6.68e9, 1e10, 1e10j, 3e9 + 4e9j):
        mags, _ = _stage_root_magnitudes(prm, theta)
        np.testing.assert_allclose(mags, _mp_stage_magnitudes(prm, theta), rtol=1e-12, atol=0)


def test_kernel_keeps_any_shape_and_flags_poles():
    prm = params_from_rho([1.0, 0.5])
    theta = np.array([[1.0, -2.0, 3j], [0.0, 1e300, -1e300]])
    mags, poles = _stage_root_magnitudes(prm, theta)
    assert mags.shape == (2, 3, 4)
    assert poles.shape == (2, 3, 2)
    # the trapezoidal first stage is singular at theta = -2, and only there
    assert np.argwhere(poles).tolist() == [[0, 1, 0]]
    # no overflow far out: the radius stays finite at |theta| = 1e300
    assert np.all(np.isfinite(mags[1]))
    assert spectral_radius(prm, 1e300) == pytest.approx(1.0, abs=1e-12)


def test_large_sweep_and_map_run_at_array_speed():
    prm = params_from_rho([0.5, 0.5, 0.5])
    t0 = time.perf_counter()
    sweep = sweep_spectral_radius(prm, np.logspace(-4, 10, 20000))
    sweep_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    region = stability_region(prm, (0.0, 1e3), (-1e3, 1e3), 1001)
    map_s = time.perf_counter() - t0
    assert np.all(sweep.rho <= 1.0 + 1e-9)
    assert region.a_stable is True
    # about 0.01 s and 0.5 s on a 2-core VM; a per-theta Python loop took
    # 0.55 s and about 27 s
    assert sweep_s < 0.5
    assert map_s < 10.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sweep_rejects_non_finite_theta(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        sweep_spectral_radius(params_from_rho([0.5]), [1.0, bad, 2.0])


@pytest.mark.parametrize("re_range, im_range", [
    ((0.0, np.nan), (-1.0, 1.0)),
    ((0.0, np.inf), (-1.0, 1.0)),
    ((0.0, 1.0), (-np.inf, 1.0)),
    ((np.nan, np.nan), (0.0, 0.0)),
])
def test_stability_region_rejects_non_finite_ranges(re_range, im_range):
    with pytest.raises(ConfigurationError, match="finite"):
        stability_region(params_from_rho([0.5]), re_range, im_range, 3)


@pytest.mark.parametrize("re_range, im_range", [
    ((-1e308, 1e308), (-100.0, 100.0)),
    ((0.0, 1.0), (-1.5e308, 1e308)),
])
def test_stability_region_rejects_a_range_whose_width_overflows(re_range, im_range):
    # finite ends whose difference is not: linspace would make nan and inf nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="too wide"):
            stability_region(params_from_rho([0.5, 0.5]), re_range, im_range, 3)


def test_stability_region_certifies_rho_one_far_out():
    # the map that printed a_stable = false for an A-stable method
    region = stability_region(params_from_rho([1.0, 1.0]), (0.0, 1e10), (-1.0, 1.0), 41)
    assert region.a_stable is True
    assert region.max_rho_right_half <= 1.0 + 1e-9
