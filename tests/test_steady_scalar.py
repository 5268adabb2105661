"""The numpy-free replacements in ``steady`` and ``drift`` against numpy.

- ``steady.linspace`` is ``numpy.linspace`` bit for bit;
- the default drift levels are ``numpy.geomspace`` to one ulp, ends exact;
- ``steady.hessian_eigenvalues`` matches ``numpy.linalg.eigvalsh`` to 1e-15
  of the spectral radius, and to 1e-15 of each eigenvalue where the
  entries fix it to that accuracy (b = 0, or the small eigenvalue 1e-8 of
  the large one), where m -+ hypot alone loses half the digits;
- a height checked by ``params.check_hyperbolic`` where it enters, then
  read by the scalar kernel on ``math``, is refused beyond 700.
"""

import math

import numpy as np
import pytest

from shearwave import DomainError, SteadyCoeffs, classify_critical_point, from_mapping
from shearwave.cli import PRESETS
from shearwave.drift import drift_profile, fluid_top_level
from shearwave.params import HYPERBOLIC_ARG_MAX, check_hyperbolic
from shearwave.steady import hessian_eigenvalues, linspace


def _linspace_cases():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        start, stop = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-6, 6, 2)
        yield float(start), float(stop), int(rng.integers(2, 600))
    yield 0.0, -6.0, 61
    yield 0.0, 1.2345, 512
    yield 1.5, 1.5, 7
    yield -0.0, -0.0, 3
    yield -2.0, 3.0, 2
    yield 3, 10, 4


def test_linspace_is_numpy_linspace_bit_for_bit():
    for start, stop, num in _linspace_cases():
        got = np.array(linspace(start, stop, num), dtype=float)
        assert got.tobytes() == np.linspace(start, stop, num).tobytes(), (start, stop, num)
    assert linspace(2.5, 4.0, 1) == [2.5] and linspace(2.5, 4.0, 0) == []


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig4-left"])
def test_default_drift_levels_are_geomspace_to_one_ulp(name):
    p = from_mapping(PRESETS[name]["params"])
    _, shifted = SteadyCoeffs.from_params(p).normalized()
    top = 0.999 * fluid_top_level(p, shifted)
    want = [0.0] + np.geomspace(1e-5 * top, top, 32).tolist()
    got = [r.Y0 for r in drift_profile(p, n=33)]
    assert got[:2] == want[:2] and got[-1] == want[-1]
    assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want))


def _eig_errors(matrices, per_eigenvalue):
    worst = 0.0
    for a, b, d in matrices:
        got = hessian_eigenvalues(a, b, d)
        want = np.linalg.eigvalsh(np.array([[a, b], [b, d]]))
        for g, w in zip(got, want):
            scale = abs(w) if per_eigenvalue else float(np.max(np.abs(want)))
            worst = max(worst, abs(g - w) / scale)
    return worst


def test_eigenvalues_match_eigvalsh_on_generic_matrices():
    rng = np.random.default_rng(7)
    matrices = rng.uniform(-1.0, 1.0, (5000, 3)) * 10.0 ** rng.uniform(-3, 3, (5000, 1))
    assert _eig_errors(matrices.tolist(), per_eigenvalue=False) <= 1e-15


def _graded(rng, n, log_ratio, off_diagonal):
    """Matrices with eigenvalues near ``big`` and ``big * 10**log_ratio``."""
    for _ in range(n):
        big = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        small = (rng.choice([-1.0, 1.0]) * abs(big) * 10.0 ** rng.uniform(*log_ratio)
                 * rng.uniform(0.5, 2.0))
        b = abs(big) * off_diagonal * rng.uniform(-1.0, 1.0)
        yield (big, b, small) if rng.random() < 0.5 else (small, b, big)


def test_eigenvalues_match_eigvalsh_each_to_its_own_size():
    rng = np.random.default_rng(8)
    diagonal = list(_graded(rng, 2000, (-8, 0), 0.0))
    tiny_small = list(_graded(rng, 2000, (-8, -8), 1e-6))
    assert all(b == 0.0 for _, b, _ in diagonal)
    assert _eig_errors(diagonal, per_eigenvalue=True) <= 1e-15
    assert _eig_errors(tiny_small, per_eigenvalue=True) <= 1e-15


def test_eigenvalues_are_ascending_and_exact_on_diagonal_matrices():
    assert hessian_eigenvalues(0.0, 0.0, 0.0) == (0.0, 0.0)
    assert hessian_eigenvalues(-3.0, 0.0, 5.0) == (-3.0, 5.0)
    assert hessian_eigenvalues(5.0, 0.0, -3.0) == (-3.0, 5.0)


def test_guarded_kernel_refuses_arguments_beyond_700():
    co = SteadyCoeffs(Ak=0.05, omega=-6.0, f=0.15, k=1.0)
    over = math.nextafter(HYPERBOLIC_ARG_MAX, math.inf)
    for fn in (co.H, co.H_X, co.H_Y, co.hessian):
        fn(0.3, check_hyperbolic(HYPERBOLIC_ARG_MAX), math)
        for Y in (over, -over):
            with pytest.raises(DomainError):
                fn(0.3, check_hyperbolic(Y), math)
    with pytest.raises(DomainError):
        classify_critical_point(0.0, over, co)
