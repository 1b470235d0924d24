import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from oracles import base_row, dense_covariance
from slem import (ConfigError, CovParams, GridSpec, NumericalError, SpectralField,
                  amplitude_for_variance, calibrate_range_to_matern, flatten,
                  log_det, marginal_variance,
                  matern_correlation, quasi_matern_spectrum, sample_gp,
                  sigma_inv_matvec, sigma_matvec, unflatten)
from slem.spectral import _filter, correlation_at_lag, half_dft

GRID6 = GridSpec.unit(6, 6)
GRID8 = GridSpec.unit(8, 8)
# non-square grids with odd n2 catch a half plane cut on the wrong axis or an
# inverse transform that drops s= (it would return an even n2); acceptance 01
# reads SpectralField.inv_row on the same grids
ORACLE_GRIDS = [GRID6, GRID8, GridSpec.unit(5, 7), GridSpec.unit(7, 5), GridSpec.unit(9, 4)]
PARAM_SETS = [CovParams(1.5, 3.0), CovParams(2.0, 8.0)]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------


def test_spectrum_zero_frequency_is_sigma2():
    f = quasi_matern_spectrum(CovParams(2.7, 5.0), GRID6)
    assert f.values[0, 0] == pytest.approx(2.7, rel=1e-14)


def test_spectrum_alpha_zero_is_white_noise():
    f = quasi_matern_spectrum(CovParams(1.3, 0.0), GRID8)
    np.testing.assert_allclose(f.values, 1.3)
    np.testing.assert_allclose(dense_covariance(f), 1.3 * np.eye(64), atol=1e-12)


def test_spectrum_matches_formula_pointwise():
    sigma2, alpha = 2.0, 18.0
    grid = GridSpec.unit(5, 7)
    f = quasi_matern_spectrum(CovParams(sigma2, alpha), grid)
    for j1 in range(5):
        for j2 in range(7):
            w1 = 2.0 * np.pi * j1 / 5
            w2 = 2.0 * np.pi * j2 / 7
            val = sigma2 * (1.0 + alpha**2 * (np.sin(w1 / 2) ** 2 + np.sin(w2 / 2) ** 2)) ** -2
            assert f.values[j1, j2] == pytest.approx(val, rel=1e-12)


def test_cov_zero_lag_brute_force_double_sum():
    # Cov(0) = (1/n) sum_omega f(omega), summed with explicit loops
    grid = GridSpec.unit(70, 70)
    f = quasi_matern_spectrum(CovParams(2.0, 18.0), grid)
    total = 0.0
    for j1 in range(70):
        for j2 in range(70):
            total += f.values[j1, j2]
    cov0 = total / grid.n
    assert marginal_variance(CovParams(2.0, 18.0), grid) == pytest.approx(cov0, rel=1e-12)
    assert base_row(f)[0] == pytest.approx(cov0, rel=1e-10)


def test_spectral_field_rejects_bad_values():
    with pytest.raises(Exception):
        SpectralField(np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(Exception):
        # asymmetric under frequency negation
        vals = np.ones((4, 4))
        vals[1, 0] = 2.0
        SpectralField(vals)


def test_spectral_field_symmetry_tolerance_is_1e8_relative():
    vals = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID8).values
    bumped = vals.copy()
    bumped[1, 2] *= 1 + 2e-8  # its mirror is entry (7, 6)
    with pytest.raises(NumericalError, match="not symmetric"):
        SpectralField(bumped)
    bumped = vals.copy()
    bumped[1, 2] *= 1 + 5e-9
    np.testing.assert_array_equal(SpectralField(bumped).values, bumped)


def test_amplitude_for_variance_roundtrip():
    grid = GridSpec.unit(12, 12)
    s2 = amplitude_for_variance(2.0, 6.0, grid)
    assert marginal_variance(CovParams(s2, 6.0), grid) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ConfigError):
        amplitude_for_variance(-1.0, 6.0, grid)


# ---------------------------------------------------------------------------
# matvecs against dense oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
@pytest.mark.parametrize("eta", PARAM_SETS)
def test_sigma_matvec_dense(grid, eta):
    f = quasi_matern_spectrum(eta, grid)
    S = dense_covariance(f)
    v = np.random.default_rng(0).standard_normal(grid.n)
    assert rel_err(sigma_matvec(f, v), S @ v) < 1e-10


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
@pytest.mark.parametrize("eta", PARAM_SETS)
def test_sigma_inv_matvec_dense(grid, eta):
    f = quasi_matern_spectrum(eta, grid)
    Sinv = np.linalg.inv(dense_covariance(f))
    v = np.random.default_rng(1).standard_normal(grid.n)
    assert rel_err(sigma_inv_matvec(f, v), Sinv @ v) < 1e-8


def test_matvec_alpha_zero_diagonal():
    f = quasi_matern_spectrum(CovParams(2.5, 0.0), GRID6)
    v = np.random.default_rng(2).standard_normal(36)
    np.testing.assert_allclose(sigma_matvec(f, v), 2.5 * v, rtol=1e-12)
    np.testing.assert_allclose(sigma_inv_matvec(f, v), v / 2.5, rtol=1e-12)


def test_matvec_inverse_composition():
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID8)
    v = np.random.default_rng(3).standard_normal(64)
    assert rel_err(sigma_inv_matvec(f, sigma_matvec(f, v)), v) < 1e-9


def test_matvec_unit_vector_gives_base_column():
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID6)
    e1 = np.zeros(36)
    e1[0] = 1.0
    col = sigma_matvec(f, e1)
    # spectral-sum oracle for the base row, explicit loops
    expected = np.zeros(36)
    for h2 in range(6):
        for h1 in range(6):
            acc = 0.0
            for j1 in range(6):
                for j2 in range(6):
                    w = 2.0 * np.pi * (j1 * h1 / 6 + j2 * h2 / 6)
                    acc += f.values[j1, j2] * np.cos(w)
            expected[h1 + 6 * h2] = acc / 36
    np.testing.assert_allclose(col, expected, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(base_row(f), expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("shape", [(70, 70), (7, 10), (9, 6), (1, 8), (8, 1)])
def test_filter_passes_match_the_rfft2_pair_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    v = rng.standard_normal(shape[0] * shape[1])
    half = 0.5 + rng.random((shape[0], shape[1] // 2 + 1))
    want = flatten(np.fft.irfft2(np.fft.rfft2(unflatten(v, *shape)) * half, s=shape))
    for layout in (half, np.asfortranarray(half)):  # SpectralField.half is Fortran-ordered
        assert np.array_equal(_filter(layout, v, shape), want)
    assert np.array_equal(half_dft(v, shape), np.fft.rfft2(unflatten(v, *shape)))


def test_matvec_rejects_bad_input():
    f = quasi_matern_spectrum(CovParams(1.0, 1.0), GRID6)
    with pytest.raises(ConfigError):
        sigma_matvec(f, np.zeros(7))
    with pytest.raises(Exception):
        sigma_matvec(f, np.full(36, np.nan))


# ---------------------------------------------------------------------------
# log determinant
# ---------------------------------------------------------------------------


def test_log_det_alpha_zero():
    f = quasi_matern_spectrum(CovParams(3.0, 0.0), GRID8)
    assert log_det(f) == pytest.approx(64 * np.log(3.0), rel=1e-14)


def test_log_det_scaling():
    grid = GRID6
    base = log_det(quasi_matern_spectrum(CovParams(1.0, 4.0), grid))
    scaled = log_det(quasi_matern_spectrum(CovParams(5.0, 4.0), grid))
    assert scaled == pytest.approx(base + 36 * np.log(5.0), rel=1e-12)


def test_log_det_dense():
    f = quasi_matern_spectrum(CovParams(2.0, 4.0), GRID8)
    sign, expected = np.linalg.slogdet(dense_covariance(f))
    assert sign > 0
    assert abs(log_det(f) - expected) / abs(expected) < 1e-8


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_gp_white_noise_variance():
    grid = GridSpec.unit(100, 100)
    z = sample_gp(quasi_matern_spectrum(CovParams(2.0, 0.0), grid), seed=0)
    assert abs(z.var() - 2.0) / 2.0 < 0.05


def test_sample_gp_deterministic():
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID8)
    np.testing.assert_array_equal(sample_gp(f, 7), sample_gp(f, 7))
    assert not np.array_equal(sample_gp(f, 7), sample_gp(f, 8))


def test_sample_gp_lag_covariance():
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID6)
    draws = np.array([sample_gp(f, s) for s in range(500)])
    S = dense_covariance(f)
    for i, j in [(0, 0), (0, 1), (0, 6), (0, 7), (3, 20)]:
        prods = draws[:, i] * draws[:, j]
        se = prods.std(ddof=1) / np.sqrt(len(prods))
        assert abs(prods.mean() - S[i, j]) < 3.0 * se


# ---------------------------------------------------------------------------
# base rows and the dense oracle itself
# ---------------------------------------------------------------------------


def test_inverse_base_row_alpha_zero():
    f = quasi_matern_spectrum(CovParams(4.0, 0.0), GRID6)
    row = f.inv_row
    expected = np.zeros(36)
    expected[0] = 0.25
    np.testing.assert_allclose(row, expected, atol=1e-14)


def test_inverse_base_row_dense_lookup():
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID6)
    Sinv = np.linalg.inv(dense_covariance(f))
    row = f.inv_row
    # entry (i, j) is a wrap-around lag lookup
    idx = np.arange(36)
    i1, i2 = idx % 6, idx // 6
    for i in [0, 5, 17, 35]:
        for j in [0, 3, 22]:
            h1 = (i1[i] - i1[j]) % 6
            h2 = (i2[i] - i2[j]) % 6
            assert row[h1 + 6 * h2] == pytest.approx(Sinv[i, j], rel=1e-9, abs=1e-12)


def test_base_row_lag_symmetry():
    f = quasi_matern_spectrum(CovParams(2.0, 8.0), GRID8)
    for row in (base_row(f), f.inv_row):
        table = row.reshape((8, 8), order="F")
        np.testing.assert_allclose(table, np.roll(table[::-1, ::-1], (1, 1), axis=(0, 1)),
                                   rtol=1e-10, atol=1e-13)


def test_wraparound_lag_equality():
    # covariance at lag (n1-1, 0) equals lag (1, 0): opposite edges touch
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID8)
    table = base_row(f).reshape((8, 8), order="F")
    assert table[7, 0] == pytest.approx(table[1, 0], rel=1e-12)
    assert table[0, 7] == pytest.approx(table[0, 1], rel=1e-12)


def test_dense_covariance_properties():
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID6)
    S = dense_covariance(f)
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    assert np.linalg.eigvalsh(S).min() > 0
    assert S[0, 0] == pytest.approx(marginal_variance(CovParams(1.5, 3.0), GRID6), rel=1e-12)


def test_dense_covariance_size_guard():
    grid = GridSpec.unit(70, 70)
    with pytest.raises(ConfigError):
        dense_covariance(quasi_matern_spectrum(CovParams(1.0, 1.0), grid))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
def test_matvec_linearity(seed):
    rng = np.random.default_rng(seed)
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID6)
    v, w = rng.standard_normal((2, 36))
    a, b = rng.uniform(-2, 2, size=2)
    lhs = sigma_matvec(f, a * v + b * w)
    rhs = a * sigma_matvec(f, v) + b * sigma_matvec(f, w)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_matvec_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    f = quasi_matern_spectrum(CovParams(2.0, 8.0), GRID8)
    u, v = rng.standard_normal((2, 64))
    assert u @ sigma_matvec(f, v) == pytest.approx(v @ sigma_matvec(f, u), rel=1e-10)


@given(st.integers(0, 2**32 - 1))
def test_inv_quadratic_form_positive(seed):
    rng = np.random.default_rng(seed)
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), GRID8)
    v = rng.standard_normal(64)
    assert v @ sigma_inv_matvec(f, v) > 0


# ---------------------------------------------------------------------------
# Matern calibration
# ---------------------------------------------------------------------------


def test_matern_correlation_values():
    assert matern_correlation(0.0, 18.0) == pytest.approx(1.0)
    # rho(a) is K_1(1) by the (h/a) K_1(h/a) form
    assert matern_correlation(18.0, 18.0) == pytest.approx(
        float(special.kv(1, 1.0)), rel=1e-12)
    h = np.linspace(0.0, 80.0, 41)
    rho = matern_correlation(h, 18.0)
    assert np.all(np.diff(rho) < 0)
    assert np.all(rho > 0)


def test_matern_correlation_matches_scipy_bessel_k1():
    # K_1 is a trapezoid sum, not scipy.special.kv; every calibration to an
    # integer range evaluates it at t = 1, where it must be kv to the bit
    t = np.geomspace(1e-6, 50.0, 2001)
    rho = matern_correlation(t, 1.0)
    want = t * special.kv(1.0, t)
    assert np.max(np.abs(rho - want) / want) <= 1e-13
    assert matern_correlation(18.0, 18.0) == float(special.kv(1.0, 1.0))
    assert matern_correlation(np.array([1e-11, 0.0]), 1.0).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("matern_range", [float("nan"), float("inf"), -float("inf"),
                                          0.0, -3.0, 0.4, 0.5])
def test_calibration_rejects_a_range_without_a_lag(matern_range):
    # NaN and inf used to end in a ValueError or OverflowError, and a range
    # that rounds to lag 0 (0, -3, 0.4) silently returned an alpha
    with pytest.raises(ConfigError, match="matern_range must be finite"):
        calibrate_range_to_matern(GRID8, matern_range)


def test_correlation_at_lag_matches_dense():
    grid = GRID8
    eta = CovParams(1.7, 5.0)
    S = dense_covariance(quasi_matern_spectrum(eta, grid))
    for lag in (1, 2, 3):
        want = S[lag, 0] / S[0, 0]   # pixels (lag, 0) and (0, 0)
        assert correlation_at_lag(eta.alpha, grid, lag) == pytest.approx(want, rel=1e-10)


def test_calibrated_range_hits_matern_target():
    grid = GridSpec.unit(70, 70)
    alpha = calibrate_range_to_matern(grid, 18.0)
    got = correlation_at_lag(alpha, grid, 18)
    target = matern_correlation(18.0, 18.0)
    assert abs(got - target) < 1e-8          # far inside the 0.02 contract
    assert alpha == pytest.approx(29.91305580069937, abs=1e-6)


def test_calibration_scale_invariance_of_correlation():
    # correlation_at_lag ignores sigma2 by construction; check alpha move
    grid = GridSpec.unit(40, 40)
    a_small = calibrate_range_to_matern(grid, 5.0)
    a_large = calibrate_range_to_matern(grid, 12.0)
    assert a_large > a_small > 0
