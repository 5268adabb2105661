"""The field grid's numpy cell formatter against ``'%.17g' % v``, and whole
grids against the per-point oracle, byte for byte."""

import math

import numpy as np
import pytest

from shearwave import fields
from shearwave.fields import field_grid_rows, pressure, velocity
from test_grid_export import per_point_rows, preset_params

#: The grid shapes of the field-grid benchmark, 2,400 points each.
GRID_SHAPES = ((30, 80), (40, 60), (48, 50), (50, 48), (60, 40), (80, 30))


def formatted(values):
    """The formatter's cells as strings, one per value."""
    cells = fields._cells(np.asarray(values, dtype=float))
    text = np.vstack([cells, np.full((1, cells.shape[1]), ord("\n"), np.uint8)])
    return text.T.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def assert_formats_as_percent_g(values):
    values = np.asarray(values, dtype=float).ravel()
    got = formatted(values)
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_seeded_values_over_every_exponent():
    rng = np.random.default_rng(20261019)
    for _ in range(10):                     # 10^6 values, 10^5 at a time
        mantissa = rng.uniform(1.0, 10.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        values = mantissa * 10.0 ** rng.integers(-9, 20, 100_000)
        assert_formats_as_percent_g(values)
        # The exact path takes nearly every value in its range and no other.
        exact = fields._digits(values)[2]
        inside = (np.abs(values) >= 1e-6) & (np.abs(values) < 1e17)
        assert not np.any(exact & ~inside)
        assert np.count_nonzero(exact) > 0.999 * np.count_nonzero(inside)


def power_of_ten_neighbours():
    """10**k for k in [-7, 18], its 64 floats below and its 64 above, both signs."""
    values = []
    for k in range(-7, 19):
        for toward in (0.0, math.inf):
            v = 10.0 ** k
            for _ in range(64):
                v = math.nextafter(v, toward)
                values.append(v)
        values.append(10.0 ** k)
    return np.concatenate([values, np.negative(values)])


def test_neighbours_of_powers_of_ten():
    assert_formats_as_percent_g(power_of_ten_neighbours())


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_exponent_estimate_one_off_falls_back(monkeypatch, toward):
    # A log10 one ulp off puts E one off at powers of ten: too low, N reaches
    # 10**17; too high, |v| * 10**(16 - E) falls below 10**16.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    assert_formats_as_percent_g(power_of_ten_neighbours())


@pytest.mark.parametrize("E", range(-6, 17))
def test_exact_ties_round_half_to_even(E):
    # m * 2**(E - 17) with m odd is |v| * 10**(16 - E) = m * 5**(16 - E) / 2,
    # halfway between two 17-digit values.  From E = 16 up no tie is a double:
    # the doubles there are even integers.
    low = math.ceil(math.ldexp(10.0 ** E, 17 - E)) | 1
    high = min(math.ldexp(10.0 ** (E + 1), 17 - E), 2 ** 53)
    count = max(0, math.ceil((high - low) / 2))       # odd m in [low, high)
    if E == 16:
        assert count == 0
        return
    m = low + 2 * np.linspace(0, count - 1, min(count, 20_000)).astype(np.int64)
    values = np.ldexp(m.astype(np.float64), E - 17)
    assert np.all((values >= 10.0 ** E) & (values < 10.0 ** (E + 1)))
    assert_formats_as_percent_g(np.concatenate([values, -values]))


def test_rounding_up_to_the_next_power_of_ten():
    values = [0.99999999999999999, 9.9999999999999999, 99999999999999999.0,
              9.99999999999999999e-5, 9.99999999999999999e-6, 9.99999999999999999e-7]
    assert "%.17g" % 0.99999999999999999 == "1"
    assert_formats_as_percent_g(values)


def test_fixed_and_exponent_form_boundaries():
    values = [1e-4, 1.5e-4, 9.5e-5, 1e-5, 1.25e-5, 2.0 ** -17, 1e-6, 1.5e-6, 9.9e-7,
              1e16, 1.5e16, 9.9e16, 1e17, 1.5e17, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 56,
              1.0, 2.5, 10.0, 1200.0, 123456.0, 1e15, 12.0, 0.5, 0.001, 0.0125]
    assert_formats_as_percent_g(np.concatenate([values, np.negative(values)]))


def test_zeros_subnormals_infinities_and_nan():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, -tiny, 1e-300, 1e300,
              np.finfo(float).max, -np.finfo(float).max, math.inf, -math.inf, math.nan]
    assert_formats_as_percent_g(values)
    assert not np.any(fields._digits(np.array(values))[2])


# ----------------------------------------------------------------------
# Whole grids
# ----------------------------------------------------------------------

#: Cells (of 7,200 per grid) that take '%.17g' in Python, per preset and
#: grid shape, at t = 0.3 period: v = 0 on the bed, and on fig4-left one
#: or two more below 1e-6.
FALLBACK_CELLS = {
    "fig1": [30, 40, 48, 50, 60, 80],
    "fig2": [30, 40, 48, 50, 60, 80],
    "fig3": [30, 40, 48, 50, 60, 80],
    "fig4-left": [31, 41, 50, 52, 62, 82],
}


def grid_values(p, t, x_grid, y_grid):
    xb = np.asarray(x_grid, dtype=float)[:, None]
    u, v = velocity(t, xb, y_grid, p)
    return np.stack([u, v, pressure(t, xb, y_grid, p)]).ravel()


@pytest.mark.parametrize("name", sorted(FALLBACK_CELLS))
def test_benchmark_shaped_grids_match_per_point(name):
    p = preset_params(name)
    t = 0.3 * 2.0 * np.pi / p.f
    fallbacks = []
    for nx, ny in GRID_SHAPES:
        x_grid = np.linspace(0.0, p.wavelength, nx)
        y_grid = np.linspace(0.0, p.h + p.a, ny)
        assert list(field_grid_rows(p, t, x_grid, y_grid)) == list(
            per_point_rows(p, t, x_grid, y_grid))
        exact = fields._digits(grid_values(p, t, x_grid, y_grid))[2]
        fallbacks.append(int(np.count_nonzero(~exact)))
    assert fallbacks == FALLBACK_CELLS[name]


def test_grid_reaching_every_fallback_class_matches_per_point():
    p = preset_params("fig2")
    rng = np.random.default_rng(31)
    x_grid = np.concatenate([[0.0, 0.25 * p.wavelength, 0.5 * p.wavelength],
                             rng.uniform(0.0, p.wavelength, 5)])
    y_grid = np.array([0.0, 1e-12, 1e-9, 3e-7, 2e-6, 4e-5, 3e-4, 0.1, 0.5, 1.0,
                       5.0, 40.0, 300.0, 650.0 / p.k, 700.0 / p.k])
    t = 0.7
    values = grid_values(p, t, x_grid, y_grid)
    size = np.abs(values)
    assert np.any(size == 0.0)                              # the bed's v
    assert np.any((size > 0.0) & (size < 1e-6))
    assert np.any(size >= 1e17)                             # near |k*y| = 700
    assert np.any((size >= 1e-6) & (size < 1e-4))           # exponent form, exact
    assert list(field_grid_rows(p, t, x_grid, y_grid)) == list(
        per_point_rows(p, t, x_grid, y_grid))
