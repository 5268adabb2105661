"""The field-grid CSV against a per-point oracle, and its error paths."""

import math
import warnings

import numpy as np
import pytest

from shearwave import DomainError, WaveParams
from shearwave.cli import PRESETS
from shearwave.fields import (GRID_HEADER, field_grid_rows, in_fluid, pressure,
                              velocity, write_field_grid)


def per_point_rows(params, t, x_grid, y_grid):
    """The grid evaluated one point at a time through the public fields."""
    yield GRID_HEADER
    for x in np.asarray(x_grid, dtype=float):
        for y in np.asarray(y_grid, dtype=float):
            u, v = velocity(t, x, y, params)
            P = pressure(t, x, y, params)
            flag = "inside" if bool(in_fluid(t, x, y, params)) else "outside"
            yield (f"{x:.17g},{y:.17g},{t:.17g},"
                   f"{float(u):.17g},{float(v):.17g},{float(P):.17g},{flag}")


def preset_params(name):
    return WaveParams.solve(**PRESETS[name]["params"])


def assert_same_rows(params, t, x_grid, y_grid):
    got = list(field_grid_rows(params, t, x_grid, y_grid))
    want = list(per_point_rows(params, t, x_grid, y_grid))
    assert got == want
    return got


@pytest.mark.parametrize("name", list(PRESETS))
def test_matches_per_point_on_every_preset(name):
    p = preset_params(name)
    rng = np.random.default_rng(20261017)
    t = float(rng.uniform(0.0, 2.0 * np.pi / p.f))
    x_grid = np.linspace(0.0, p.wavelength, 17)
    y_grid = np.linspace(0.0, p.h + p.a, 11)
    rows = assert_same_rows(p, t, x_grid, y_grid)
    assert len(rows) == 1 + 17 * 11


def test_matches_per_point_above_the_surface():
    p = preset_params("fig2")
    rng = np.random.default_rng(7)
    x_grid = rng.uniform(-p.wavelength, 2.0 * p.wavelength, 9)
    y_grid = np.sort(rng.uniform(0.0, p.h + 20.0 * p.a, 14))
    rows = assert_same_rows(p, 1.25, x_grid, y_grid)
    flags = {row.rsplit(",", 1)[1] for row in rows[1:]}
    assert flags == {"inside", "outside"}


def test_single_point_and_empty_grids():
    p = preset_params("fig1")
    assert len(assert_same_rows(p, 0.5, [0.3], [0.2])) == 2
    assert assert_same_rows(p, 0.5, [], [0.1, 0.2]) == [GRID_HEADER]
    assert assert_same_rows(p, 0.5, [0.1, 0.2], []) == [GRID_HEADER]


def rows_before_error(params, y_grid, exc_type, t=0.0, x_grid=(0.0, 1.0), match=None):
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy RuntimeWarning on the way
        with pytest.raises(exc_type, match=match):
            for row in field_grid_rows(params, t, x_grid, y_grid):
                rows.append(row)
    assert rows == []


def test_negative_y_raises_before_any_data_row():
    rows_before_error(preset_params("fig1"), [0.5, 0.25, -0.1], DomainError)


def test_hyperbolic_overflow_raises_before_any_data_row():
    p = preset_params("fig1")
    rows_before_error(p, [0.5, 701.0 / p.k], DomainError)


# The workload shapes of the field-grid benchmark, 2400 points each.
@pytest.mark.parametrize("name,nx,ny", [("fig1", 30, 80), ("fig2", 48, 50),
                                        ("fig3", 60, 40), ("fig4-left", 80, 30)])
def test_matches_per_point_on_benchmark_shapes(name, nx, ny):
    p = preset_params(name)
    t = 0.3 * 2.0 * np.pi / p.f
    x_grid = np.linspace(0.0, p.wavelength, nx)
    y_grid = np.linspace(0.0, p.h + p.a, ny)
    rows = assert_same_rows(p, t, x_grid, y_grid)
    assert len(rows) == 1 + nx * ny


def test_flag_boundary_at_the_surface_height():
    p = preset_params("fig3")
    crest = p.h + p.a           # eta at t = 0, x = 0
    y_grid = [np.nextafter(crest, 0.0), crest, np.nextafter(crest, np.inf)]
    rows = assert_same_rows(p, 0.0, [0.0], y_grid)
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["inside", "inside", "outside"]


def test_unsorted_and_repeated_y():
    p = preset_params("fig4-left")
    y_grid = [0.7, 0.1, 0.7, p.h + p.a, 0.0, 0.1]
    rows = assert_same_rows(p, 2.5, [p.wavelength, 0.0, 0.25 * p.wavelength], y_grid)
    assert rows[1] == rows[3]


def test_written_file_is_the_rows(tmp_path):
    p = preset_params("fig2")
    args = (p, 1.1, np.linspace(-1.0, p.wavelength, 9), np.linspace(0.0, p.h + p.a, 13))
    path = tmp_path / "grid.csv"
    write_field_grid(path, *args)
    want = "\n".join(field_grid_rows(*args)) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("kwargs,match", [
    ({"x_grid": 0.5}, "x_grid must be one-dimensional"),
    ({"y_grid": 0.5}, "y_grid must be one-dimensional"),
    ({"x_grid": [[0.0, 1.0], [2.0, 3.0]]}, "x_grid must be one-dimensional"),
    ({"y_grid": [[0.1], [0.2]]}, "y_grid must be one-dimensional"),
    ({"t": math.nan}, "t must be finite"),
    ({"t": -math.inf}, "t must be finite"),
    ({"y_grid": [0.1, -0.2]}, "y must be nonnegative"),
    ({"y_grid": [0.1, 800.0]}, "hyperbolic argument exceeds"),
    ({"x_grid": [0.0, math.inf]}, "x_grid must be finite"),
    ({"x_grid": [math.nan, 1.0]}, "x_grid must be finite"),
    ({"y_grid": [0.1, math.nan]}, "y_grid must be finite"),
    ({"y_grid": [math.inf]}, "y_grid must be finite"),
])
def test_bad_inputs_raise_before_any_row(kwargs, match, tmp_path):
    p = preset_params("fig2")
    args = {"t": 0.0, "x_grid": [0.0, 1.0], "y_grid": [0.1, 0.2], **kwargs}
    y_grid = args.pop("y_grid")
    rows_before_error(p, y_grid, DomainError, match=match, **args)
    path = tmp_path / "grid.csv"
    with pytest.raises(DomainError, match=match):
        write_field_grid(path, p, args["t"], args["x_grid"], y_grid)
    assert not path.exists()
