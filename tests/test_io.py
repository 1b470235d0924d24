import re

import numpy as np
import pytest

from slem import ConfigError, GridSpec, PointPattern
from slem.io import (read_matrix_csv, read_minute_stack, read_points_csv,
                     read_raster_csv, write_matrix_csv, write_minute_stack,
                     write_points_csv, write_raster_csv)


def test_raster_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((5, 7))
    path = tmp_path / "r.csv"
    write_raster_csv(path, values)
    np.testing.assert_array_equal(read_raster_csv(path), values)


def test_raster_round_trip_with_missing(tmp_path):
    values = np.array([[1.5, np.nan], [np.nan, -2.25]])
    path = tmp_path / "r.csv"
    write_raster_csv(path, values)
    back = read_raster_csv(path)
    np.testing.assert_array_equal(np.isnan(back), np.isnan(values))
    np.testing.assert_array_equal(back[~np.isnan(values)], values[~np.isnan(values)])


def test_raster_integer_rows_have_no_decimal_point(tmp_path):
    path = tmp_path / "counts.csv"
    write_raster_csv(path, np.array([[0, 3], [12, 5]]))
    body = path.read_text().splitlines()
    assert body[0] == "# n1=2 n2=2"
    assert body[1] == "0,3" and body[2] == "12,5"
    np.testing.assert_array_equal(read_raster_csv(path), [[0, 3], [12, 5]])


def test_raster_write_is_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 4)) * 1e-7
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_raster_csv(a, values)
    write_raster_csv(b, values)
    assert a.read_bytes() == b.read_bytes()


def test_raster_header_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ConfigError):
        read_raster_csv(p)
    p.write_text("# n1=3 n2=2\n1.0,2.0\n")
    with pytest.raises(ConfigError):
        read_raster_csv(p)
    with pytest.raises(ConfigError):
        write_raster_csv(tmp_path / "x.csv", np.zeros(4))


def test_points_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pts = PointPattern(rng.random((20, 2)) * 8.0)
    path = tmp_path / "p.csv"
    write_points_csv(path, pts)
    np.testing.assert_array_equal(read_points_csv(path).points, pts.points)


def test_points_empty_pattern(tmp_path):
    path = tmp_path / "p.csv"
    write_points_csv(path, PointPattern(np.zeros((0, 2))))
    assert read_points_csv(path).points.shape == (0, 2)


def test_points_header_and_field_errors(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("lon,lat\n1,2\n")
    with pytest.raises(ConfigError):
        read_points_csv(p)
    p.write_text("x,y\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_points_csv(p)
    p.write_text("x,y\n1,abc\n")
    with pytest.raises(ConfigError):
        read_points_csv(p)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 3))
    X[4, 2] = np.nan
    names = ["intercept", "x1", "x2"]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, X, names)
    back, back_names = read_matrix_csv(path)
    assert back_names == names
    np.testing.assert_array_equal(np.isnan(back), np.isnan(X))
    np.testing.assert_array_equal(back[~np.isnan(X)], X[~np.isnan(X)])


def test_matrix_errors(tmp_path):
    with pytest.raises(ConfigError):
        write_matrix_csv(tmp_path / "m.csv", np.ones((3, 2)), ["only"])
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ConfigError):
        read_matrix_csv(p)


def test_minute_stack_directory_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((10, 4, 6))
    frames[2, 1, 3] = np.nan
    d = tmp_path / "stack"
    write_minute_stack(d, frames)
    assert sorted(f.name for f in d.iterdir())[0] == "frame_001.csv"
    back = read_minute_stack(d, GridSpec.unit(4, 6))
    np.testing.assert_array_equal(np.isnan(back), np.isnan(frames))
    np.testing.assert_array_equal(back[~np.isnan(frames)], frames[~np.isnan(frames)])


def test_minute_stack_concatenated_form(tmp_path):
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((3, 2, 4))
    p = tmp_path / "stack.csv"
    lines = ["# n1=2 n2=4"]
    for t in range(3):
        for i in range(2):
            lines.append(",".join([str(t + 1)] + [repr(float(v)) for v in frames[t, i]]))
    p.write_text("\n".join(lines) + "\n")
    back = read_minute_stack(p, GridSpec.unit(2, 4))
    np.testing.assert_array_equal(back, frames)


def test_minute_stack_errors(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(ConfigError):
        read_minute_stack(d, GridSpec.unit(2, 2))
    p = tmp_path / "bad.csv"
    p.write_text("# n1=2 n2=2\n1,1.0\n")
    with pytest.raises(ConfigError):
        read_minute_stack(p, GridSpec.unit(2, 2))
    # frames that disagree with the grid
    d2 = tmp_path / "wrong"
    write_minute_stack(d2, np.zeros((2, 3, 3)))
    with pytest.raises(ConfigError):
        read_minute_stack(d2, GridSpec.unit(4, 4))


def test_bad_field_names_path_and_line(tmp_path):
    # every reader parses fields the same way: empty is NaN, junk is an error
    p = tmp_path / "bad.csv"
    for reader, text in [
        (read_raster_csv, "# n1=2 n2=2\n1,2\n3,abc\n"),
        (read_matrix_csv, "a,b\n1,2\n3,abc\n"),
        (read_points_csv, "x,y\n1,2\n3,abc\n"),
        (lambda q: read_minute_stack(q, GridSpec.unit(1, 2)), "# n1=1 n2=2\n1,1,2\n2,3,abc\n"),
    ]:
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{p}:3: field 'abc' is not a number")):
            reader(p)
    p.write_text("x,y\n1,\n")
    with pytest.raises(ConfigError, match="missing coordinate"):
        read_points_csv(p)
    p.write_text("# n1=1 n2=2\n1.5,1,2\n")
    with pytest.raises(ConfigError, match="frame index"):
        read_minute_stack(p, GridSpec.unit(1, 2))
