"""The field grid is evaluated through velocity, pressure and in_fluid, a
block of whole grid lines at a time."""

import numpy as np

import test_grid_export
from shearwave import fields
from shearwave.fields import (field_grid_rows, in_fluid, pressure, velocity,
                              write_field_grid)
from test_grid_export import per_point_rows, preset_params


def perturbed_velocity(t, x, y, params):
    u, v = velocity(t, x, y, params)
    return u + 1.0, -v


def perturbed_pressure(t, x, y, params):
    return pressure(t, x, y, params) + 2.0


def perturbed_in_fluid(t, x, y, params):
    return ~in_fluid(t, x, y, params)


def test_grid_follows_the_public_field_functions(monkeypatch, tmp_path):
    # A change to the public functions shows in both grid faces, as it does
    # in the per-point oracle.
    p = preset_params("fig2")
    args = (p, 0.9, np.linspace(0.0, p.wavelength, 5), np.linspace(0.0, p.h + p.a, 4))
    plain = list(per_point_rows(*args))
    for name, fn in (("velocity", perturbed_velocity), ("pressure", perturbed_pressure),
                     ("in_fluid", perturbed_in_fluid)):
        monkeypatch.setattr(fields, name, fn)
        monkeypatch.setattr(test_grid_export, name, fn)
    want = list(per_point_rows(*args))
    assert want != plain
    assert list(field_grid_rows(*args)) == want
    path = tmp_path / "grid.csv"
    write_field_grid(path, *args)
    assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"


def test_matches_per_point_across_block_boundaries():
    p = preset_params("fig4-left")
    t, ny = 1.7, 70
    lines_per_block = fields._GRID_BLOCK // ny
    nx = 2 * lines_per_block + 5                        # three blocks
    x_grid = np.linspace(-p.wavelength, p.wavelength, nx)
    y_grid = np.linspace(0.0, p.h + 2.0 * p.a, ny)
    rows = list(field_grid_rows(p, t, x_grid, y_grid))
    assert len(rows) == 1 + nx * ny
    for boundary in (lines_per_block, 2 * lines_per_block):
        around = [boundary - 1, boundary]               # last line before, first after
        want = list(per_point_rows(p, t, x_grid[around], y_grid))[1:]
        assert rows[1 + (boundary - 1) * ny:1 + (boundary + 1) * ny] == want
