"""Memory of the field-grid and residual operations: the residual kernel's
peak of live arrays, and the per-thread workspace that holds a grid
block's row matrix (``fields._workspace``).

The workspace is reused by every block and export of a thread, so these
tests check that no byte of an earlier block survives into a later one,
that threads do not share it, and that it stays within one
``fields._GRID_BLOCK``-point block.  Peaks and retained bytes are read
with ``tracemalloc``, which numpy reports its array data to; they are
deterministic, unlike page-fault counts."""

import math
import sys
import threading
import tracemalloc

import numpy as np

from shearwave import field_identity_residuals, fields
from shearwave.fields import field_grid_rows, write_field_grid
from test_grid_export import per_point_rows, preset_params


#: Bytes of the widest row matrix column: the x, y and t cells of '%.17g'
#: (at most 24 bytes) and the u, v and P cells, each with its comma, and
#: the flag.
WIDEST_ROW = 3 * 25 + 3 * (fields._CELL + 1) + len(fields._FLAGS)


def workspace():
    """This thread's workspace buffer, or None before its first grid."""
    return getattr(fields._SPACE, "buffer", None)


def traced(fn):
    """(bytes retained, peak bytes above the start) of one call of ``fn``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - start, peak - start


def in_new_thread(fn):
    """``fn()`` run in a thread of its own, which starts without a workspace."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and out, "the thread hung or raised"
    return out[0]


def assert_grid(params, t, x_grid, y_grid, path):
    want = list(per_point_rows(params, t, x_grid, y_grid))
    assert list(field_grid_rows(params, t, x_grid, y_grid)) == want
    write_field_grid(path, params, t, x_grid, y_grid)
    assert path.read_text(encoding="ascii") == "\n".join(want) + "\n"


def test_residual_report_peaks_at_seven_arrays():
    p = preset_params("fig2")
    rng = np.random.default_rng(5)
    n = 10_000
    t = rng.uniform(0.0, 6.0 * math.pi / p.f, n)
    x = rng.uniform(0.0, 3.0 * p.wavelength, n)
    y = rng.uniform(0.0, p.h, n)
    field_identity_residuals(t, x, y, p)
    retained, peak = traced(lambda: field_identity_residuals(t, x, y, p))
    array = 8 * n
    assert peak <= 1.1 * 7 * array
    assert retained < 1.1 * 5 * array                  # the five residuals are freed


def test_narrow_rows_after_wide_rows_keep_no_stale_byte(tmp_path):
    p = preset_params("fig4-left")
    # Negative x and long t and y digits give the widest cells the grid can
    # print; integers and t = 0 give short ones, in the same workspace.
    wide = (-math.pi / 3.0, np.linspace(-p.wavelength, -0.1, 40) / 3.0,
            np.linspace(0.0, p.h + p.a, 50) / 7.0)
    narrow = (0.0, np.arange(40.0), np.arange(50.0) / 8.0)
    assert_grid(p, *wide, tmp_path / "wide.csv")
    buffer = workspace()
    assert buffer is not None
    assert_grid(p, *narrow, tmp_path / "narrow.csv")
    assert workspace() is buffer                       # reused, not reallocated
    assert_grid(p, *wide, tmp_path / "wide_again.csv")


def test_threads_exporting_at_once_keep_their_own_bytes(tmp_path):
    # Four threads on two cores, switching as often as the interpreter
    # allows, each exporting a grid of its own shape and preset.
    names = ("fig1", "fig2", "fig3", "fig4-left")
    grids = {}
    for i, name in enumerate(names):
        p = preset_params(name)
        grids[name] = (p, 0.37 * (i + 1), np.linspace(0.0, p.wavelength, 48 + 7 * i),
                       np.linspace(0.0, p.h + p.a, 50 - 9 * i))
    want = {name: "\n".join(per_point_rows(*grid)) + "\n" for name, grid in grids.items()}
    start = threading.Barrier(len(names), timeout=60)
    buffers, differ, errors = {}, [], []

    def export(name):
        try:
            start.wait()
            for i in range(10):
                path = tmp_path / f"{name}_{i}.csv"
                write_field_grid(path, *grids[name])
                if path.read_text(encoding="ascii") != want[name]:
                    differ.append((name, i))
            buffers[name] = workspace()
        except Exception as exc:                   # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=export, args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not differ, differ
    assert len({id(buffer) for buffer in buffers.values()}) == len(names)


def test_empty_grids(tmp_path):
    p = preset_params("fig2")
    for x_grid, y_grid in (([], []), ([], [0.0, 1.0]), ([0.0, 1.0], [])):
        assert list(field_grid_rows(p, 0.5, x_grid, y_grid)) == [fields.GRID_HEADER]
        assert_grid(p, 0.5, np.array(x_grid), np.array(y_grid), tmp_path / "empty.csv")


def test_a_line_longer_than_a_block_leaves_the_workspace_at_its_cap(tmp_path):
    p = preset_params("fig3")
    block = fields._GRID_BLOCK
    full = (1.1, np.linspace(-p.wavelength, p.wavelength, 64) / 3.0,
            np.linspace(0.0, p.h + p.a, block // 64) / 7.0)
    assert_grid(p, *full, tmp_path / "full.csv")       # one block of _GRID_BLOCK points
    buffer = workspace()
    before = buffer.copy()
    long_line = (1.1, np.array([-p.wavelength / 3.0, 0.5]),
                 np.linspace(0.0, p.h + p.a, block + 3))
    assert_grid(p, *long_line, tmp_path / "long.csv")
    assert workspace() is buffer                       # neither grown nor written
    assert buffer.tobytes() == before.tobytes()
    assert buffer.size <= WIDEST_ROW * block


def test_second_export_reuses_the_workspace(tmp_path):
    p = preset_params("fig2")
    args = (tmp_path / "grid.csv", p, 0.0, np.linspace(0.0, p.wavelength, 48),
            np.linspace(0.0, p.h + p.a, 50))

    def two_exports():
        first = traced(lambda: write_field_grid(*args))
        buffer = workspace()
        second = traced(lambda: write_field_grid(*args))
        assert workspace() is buffer
        return first, second, buffer.nbytes

    (retained1, peak1), (retained2, peak2), kept = in_new_thread(two_exports)
    body = len(args[0].read_bytes()) - len(fields.GRID_HEADER) - 1
    assert body <= kept <= 48 * 50 * WIDEST_ROW         # one NUL-padded row matrix
    assert kept <= retained1 <= kept + 16_384          # the workspace, and little else
    assert retained2 <= 16_384
    assert peak2 <= peak1
