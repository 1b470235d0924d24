import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from slem import (ConfigError, CountGrid, GridSpec, PointPattern, bin_points,
                  domain_mask, flatten, split_train_test, unflatten)
from slem.grid import check_counts, log_factorial


# ---------------------------------------------------------------------------
# canonical flattening
# ---------------------------------------------------------------------------


def test_flatten_axis1_fastest():
    field = np.arange(12).reshape(3, 4)
    vec = flatten(field)
    for i1 in range(3):
        for i2 in range(4):
            assert vec[i1 + 3 * i2] == field[i1, i2]


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_flatten_unflatten_roundtrip(n1, n2, seed):
    field = np.random.default_rng(seed).standard_normal((n1, n2))
    np.testing.assert_array_equal(unflatten(flatten(field), n1, n2), field)
    vec = field.reshape(-1)
    np.testing.assert_array_equal(flatten(unflatten(vec, n1, n2)), vec)


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------


def test_gridspec_derived_quantities():
    grid = GridSpec(4, 5, 0.0, 8.0, 1.0, 11.0)
    assert grid.n == 20
    assert grid.pixel_width_x == 2.0
    assert grid.pixel_width_y == 2.0
    assert grid.pixel_area == 4.0
    np.testing.assert_allclose(grid.delta(), 4.0)
    assert grid.delta().shape == (20,)


def test_gridspec_unit():
    grid = GridSpec.unit(3, 7)
    assert (grid.x_max, grid.y_max) == (3.0, 7.0)
    assert grid.pixel_area == 1.0


def test_gridspec_centers_order():
    grid = GridSpec.unit(2, 3)
    centers = grid.pixel_centers()
    # canonical order: pixel (i1, i2) at row i1 + n1*i2
    np.testing.assert_allclose(centers[0], [0.5, 0.5])
    np.testing.assert_allclose(centers[1], [1.5, 0.5])
    np.testing.assert_allclose(centers[2], [0.5, 1.5])
    np.testing.assert_allclose(centers[-1], [1.5, 2.5])


@pytest.mark.parametrize("kwargs", [
    dict(n1=0, n2=4, x_min=0, x_max=1, y_min=0, y_max=1),
    dict(n1=4, n2=-1, x_min=0, x_max=1, y_min=0, y_max=1),
    dict(n1=4, n2=4, x_min=1, x_max=1, y_min=0, y_max=1),
    dict(n1=4, n2=4, x_min=0, x_max=1, y_min=2, y_max=1),
    dict(n1=4, n2=4, x_min=0, x_max=float("inf"), y_min=0, y_max=1),
])
def test_gridspec_validation(kwargs):
    with pytest.raises(ConfigError):
        GridSpec(**kwargs)


# ---------------------------------------------------------------------------
# CountGrid
# ---------------------------------------------------------------------------


def test_countgrid_vector_order():
    grid = GridSpec.unit(2, 2)
    Y = CountGrid(np.array([[1, 2], [3, 4]]), grid)
    np.testing.assert_array_equal(Y.vector(), [1.0, 3.0, 2.0, 4.0])
    assert Y.total() == 10


@pytest.mark.parametrize("values", [
    np.array([[1, -1], [0, 0]]),
    np.array([[1.5, 0.0], [0.0, 0.0]]),
    np.zeros((3, 2)),
])
def test_countgrid_validation(values):
    with pytest.raises(ConfigError):
        CountGrid(values, GridSpec.unit(2, 2))


def test_countgrid_accepts_integral_floats():
    Y = CountGrid(np.array([[1.0, 0.0], [2.0, 3.0]]), GridSpec.unit(2, 2))
    assert Y.values.dtype == np.int64


@pytest.mark.parametrize("count", [1e19, 1e300, 2.0 ** 63])
def test_count_rule_rejects_counts_int64_cannot_hold(count):
    # the int64 cast would wrap these to negative, with a cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="too large"):
            check_counts(np.array([3.0, count]))


def test_count_rule_keeps_large_whole_counts():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = check_counts(np.array([3.0, 2.0 ** 62]))
    assert got.dtype == np.int64 and got.tolist() == [3, 2 ** 62]


def test_log_factorial_matches_gammaln_on_every_count_to_1e5():
    y = np.arange(100_001, dtype=float)
    np.testing.assert_allclose(log_factorial(y), gammaln(y + 1.0), rtol=1e-15, atol=0.0)


def test_log_factorial_of_repeated_counts_keeps_order_and_shape():
    y = np.random.default_rng(0).poisson(3.0, size=(40, 25))
    got = log_factorial(y)
    assert got.shape == y.shape
    np.testing.assert_allclose(got, gammaln(y + 1.0), rtol=1e-15, atol=0.0)
    assert log_factorial(np.array([], dtype=float)).shape == (0,)


@pytest.mark.parametrize("values", [[1.0, -1.0], [np.nan, 0.0], [2.5, 1.0]])
def test_log_factorial_applies_the_count_rule(values):
    with pytest.raises(ConfigError):
        log_factorial(np.array(values))


# ---------------------------------------------------------------------------
# domain mask and binning
# ---------------------------------------------------------------------------


def test_domain_mask_closed_rectangle():
    grid = GridSpec.unit(4, 4)
    pts = PointPattern(np.array([
        [0.0, 0.0], [4.0, 4.0], [2.0, 4.0],        # on the rim: inside
        [-0.01, 2.0], [2.0, 4.01],                 # outside
        [np.nan, 1.0],                             # never inside
    ]))
    np.testing.assert_array_equal(domain_mask(pts, grid),
                                  [True, True, True, False, False, False])


def test_bin_empty_pattern():
    Y = bin_points(PointPattern(np.empty((0, 2))), GridSpec.unit(5, 5))
    assert Y.total() == 0
    assert np.all(Y.values == 0)


def test_bin_centroid_goes_to_upper_pixel():
    # interior boundaries are closed on the low edge, so the exact centroid
    # of a 2x2 unit grid lands in pixel (1, 1)
    Y = bin_points(PointPattern(np.array([[1.0, 1.0]])), GridSpec.unit(2, 2))
    expected = np.zeros((2, 2), dtype=int)
    expected[1, 1] = 1
    np.testing.assert_array_equal(Y.values, expected)


def test_bin_domain_max_edge_folds_in():
    grid = GridSpec.unit(3, 3)
    Y = bin_points(PointPattern(np.array([[3.0, 1.5], [1.5, 3.0], [3.0, 3.0]])), grid)
    assert Y.values[2, 1] == 1
    assert Y.values[1, 2] == 1
    assert Y.values[2, 2] == 1
    assert Y.total() == 3


def test_bin_excludes_out_of_domain():
    grid = GridSpec.unit(3, 3)
    pts = PointPattern(np.array([[1.0, 1.0], [5.0, 1.0], [-1.0, 0.5]]))
    Y = bin_points(pts, grid)
    assert Y.total() == 1


def test_bin_uniform_points_chi_square():
    grid = GridSpec.unit(10, 10)
    rng = np.random.default_rng(42)
    pts = PointPattern(rng.uniform(0.0, 10.0, size=(1000, 2)))
    Y = bin_points(pts, grid)
    assert Y.total() == 1000
    stat = np.sum((Y.vector() - 10.0) ** 2 / 10.0)
    assert stat < scipy.stats.chi2.ppf(0.99, df=99)


def test_bin_scaled_domain():
    grid = GridSpec(2, 2, -1.0, 1.0, 10.0, 30.0)
    Y = bin_points(PointPattern(np.array([[-0.5, 15.0], [0.5, 25.0]])), grid)
    assert Y.values[0, 0] == 1
    assert Y.values[1, 1] == 1


@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_bin_total_equals_in_domain_count(seed, npts):
    rng = np.random.default_rng(seed)
    pts = PointPattern(rng.uniform(-1.0, 6.0, size=(npts, 2)))
    grid = GridSpec.unit(5, 4)
    assert bin_points(pts, grid).total() == int(domain_mask(pts, grid).sum())


@given(st.integers(0, 2**32 - 1))
def test_bin_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 4.0, size=(60, 2))
    grid = GridSpec.unit(4, 4)
    base = bin_points(PointPattern(pts), grid)
    shuffled = bin_points(PointPattern(pts[rng.permutation(60)]), grid)
    np.testing.assert_array_equal(base.values, shuffled.values)


# ---------------------------------------------------------------------------
# train/test split
# ---------------------------------------------------------------------------


def test_split_ninety_ten():
    pts = PointPattern(np.arange(20, dtype=float).reshape(10, 2))
    train, test = split_train_test(pts, 0.9, seed=0)
    assert (len(train), len(test)) == (9, 1)


def test_split_half_of_two():
    pts = PointPattern(np.array([[0.5, 0.5], [1.5, 1.5]]))
    train, test = split_train_test(pts, 0.5, seed=3)
    assert (len(train), len(test)) == (1, 1)
    both = np.vstack([train.points, test.points])
    assert {tuple(p) for p in both} == {(0.5, 0.5), (1.5, 1.5)}


def test_split_deterministic():
    pts = PointPattern(np.random.default_rng(1).uniform(0, 5, size=(40, 2)))
    a = split_train_test(pts, 0.8, seed=11)
    b = split_train_test(pts, 0.8, seed=11)
    np.testing.assert_array_equal(a[0].points, b[0].points)
    np.testing.assert_array_equal(a[1].points, b[1].points)


@pytest.mark.parametrize("n,fraction", [(10, 0.01), (10, 0.99), (3, 0.05)])
def test_split_empty_side_rejected(n, fraction):
    pts = PointPattern(np.random.default_rng(0).uniform(0, 1, size=(n, 2)))
    with pytest.raises(ConfigError):
        split_train_test(pts, fraction, seed=0)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.3])
def test_split_fraction_range(fraction):
    pts = PointPattern(np.zeros((5, 2)))
    with pytest.raises(ConfigError):
        split_train_test(pts, fraction, seed=0)


@given(st.integers(0, 2**32 - 1))
def test_split_bins_add_up(seed):
    rng = np.random.default_rng(seed)
    pts = PointPattern(rng.uniform(0.0, 6.0, size=(50, 2)))
    grid = GridSpec.unit(6, 6)
    train, test = split_train_test(pts, 0.9, seed=seed)
    total = bin_points(pts, grid).values
    np.testing.assert_array_equal(
        bin_points(train, grid).values + bin_points(test, grid).values, total)
