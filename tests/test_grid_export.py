"""The field-grid CSV against a per-point oracle, and its error paths."""

import numpy as np
import pytest

from shearwave import DomainError, UnsupportedConfig, WaveParams
from shearwave.cli import PRESETS
from shearwave.fields import (GRID_HEADER, field_grid_rows, in_fluid, pressure,
                              velocity)

BED_FRAME_PRESETS = [name for name, spec in PRESETS.items()
                     if spec["params"]["s"] == 0.0]


def per_point_rows(params, t, x_grid, y_grid, P0=0.0):
    """The grid evaluated one point at a time through the public fields."""
    yield GRID_HEADER
    for x in np.asarray(x_grid, dtype=float):
        for y in np.asarray(y_grid, dtype=float):
            u, v = velocity(t, x, y, params)
            P = pressure(t, x, y, params, P0=P0)
            flag = "inside" if bool(in_fluid(t, x, y, params)) else "outside"
            yield (f"{x:.17g},{y:.17g},{t:.17g},"
                   f"{float(u):.17g},{float(v):.17g},{float(P):.17g},{flag}")


def preset_params(name):
    return WaveParams.solve(**PRESETS[name]["params"])


def assert_same_rows(params, t, x_grid, y_grid, P0=0.0):
    got = list(field_grid_rows(params, t, x_grid, y_grid, P0=P0))
    want = list(per_point_rows(params, t, x_grid, y_grid, P0=P0))
    assert got == want
    return got


@pytest.mark.parametrize("name", BED_FRAME_PRESETS)
def test_matches_per_point_on_every_preset(name):
    p = preset_params(name)
    rng = np.random.default_rng(20261017)
    t = float(rng.uniform(0.0, 2.0 * np.pi / p.f))
    x_grid = np.linspace(0.0, p.wavelength, 17)
    y_grid = np.linspace(0.0, p.h + p.a, 11)
    rows = assert_same_rows(p, t, x_grid, y_grid, P0=float(rng.normal()))
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


def rows_before_error(params, y_grid, exc_type):
    rows = []
    with pytest.raises(exc_type):
        for row in field_grid_rows(params, 0.0, [0.0, 1.0], y_grid):
            rows.append(row)
    assert rows in ([], [GRID_HEADER])


def test_negative_y_raises_before_any_data_row():
    rows_before_error(preset_params("fig1"), [0.5, 0.25, -0.1], DomainError)


def test_hyperbolic_overflow_raises_before_any_data_row():
    p = preset_params("fig1")
    rows_before_error(p, [0.5, 701.0 / p.k], DomainError)


def test_moving_frame_raises_before_any_data_row():
    p = WaveParams.solve(9.81, 1.0, 1.0, 0.0, a=0.01, s=0.2)
    rows_before_error(p, [0.0, 0.5], UnsupportedConfig)
