"""Wave parameters, the dispersion relation, and regime classification.

Physical setup: a periodic gravity wave of amplitude ``a`` and wavenumber
``k`` rides on the sheared current ``U(y) = -omega*y``, zero at the flat
bed ``y = 0``, with mean water level ``y = h``.  The linear surface
conditions pin the speed ``c`` to ``(g, h, k, omega)`` through a dispersion
relation with two branches, the signs of ``c + h*omega``.  A bed speed
``s*sqrt(g*h)`` shifts ``c`` and ``u`` and nothing else (Galilean), so only
:func:`solve_dispersion` takes ``s``; ``WaveParams.solve`` refuses s != 0.

All quantities are SI: meters, seconds, rad/m, rad/s.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from typing import NamedTuple

from .errors import DomainError, UnsupportedConfig

BRANCHES = ("plus", "minus")

#: Serialized parameter keys; speed, frequency and the wave coefficient are
#: always recomputed on load, never trusted from a file.
PARAM_KEYS = ("g", "h", "a", "k", "omega", "branch")
_DERIVED_KEYS = ("c", "f", "A", "lambda", "wavelength", "name")

# Guard thresholds (warnings, not errors).  The linear solution solves the
# governing equations up to O(a^2), and its shear correction is uniformly
# small only while (a/h)*|omega|*sqrt(h/g) stays small; these cutoffs are
# engineering defaults, not sharp bounds.
AMPLITUDE_RATIO_MAX = 0.1
VORTICITY_PRODUCT_MAX = 0.3

# |c + h*omega| must exceed this times sqrt(gh); the closed-form
# speed keeps it bounded away from zero, so a violation means inconsistent
# externally supplied parameters.
BRANCH_MARGIN = 1e-8

# cosh/sinh overflow near exp(710); refuse columns whose hyperbolic factors
# are not representable rather than propagate inf.
HYPERBOLIC_ARG_MAX = 700.0

#: Default portrait height, and the least height listed from the census.
Y_SEARCH_MAX = 20.0

#: Least k (1/m), k*h and |f| (1/s), below which the wavelength, depth ratio
#: or period leaves the float range, and largest |omega| (1/s): the steady
#: flow's critical-point test squares Hessian entries of order omega.
SCALE_MIN, OMEGA_MAX = 1e-300, 1e150


def _require_finite(**named):
    for name, value in named.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _require_positive(**named):
    for name, value in named.items():
        if not value > 0:
            raise DomainError(f"{name} must be positive, got {value!r}")


def check_hyperbolic(y: float) -> float:
    """``y`` itself; DomainError where cosh(y) or sinh(y) would overflow."""
    if abs(y) > HYPERBOLIC_ARG_MAX:
        raise DomainError(f"hyperbolic argument exceeds {HYPERBOLIC_ARG_MAX:g}; "
                          "evaluation would overflow")
    return y


def solve_dispersion(g: float, h: float, k: float, omega: float,
                     s: float = 0.0, branch: str = "plus") -> float:
    """Closed-form wave speed on a constant-vorticity current.

    Solves the finite-depth dispersion relation

        c - s*sqrt(g*h) + h*omega
            = (omega*tanh(kh) +/- sqrt(4*g*k*tanh(kh) + omega^2*tanh(kh)^2)) / (2k)

    where the sign of the square root is chosen by ``branch`` and fixes the
    sign of the left-hand side.  The discriminant is positive for all valid
    inputs, so no iteration is needed.

    Parameters
    ----------
    g, h, k : float
        Gravity (m/s^2), mean depth (m), wavenumber (rad/m); all positive.
    omega : float
        Constant vorticity (1/s).
    s : float, optional
        Dimensionless shear offset at the bed.  The bed-frame (Stokes)
        normalization is s = 0.
    branch : {"plus", "minus"}
        Sign of ``c - s*sqrt(g*h) + h*omega`` for the returned speed.

    Returns
    -------
    float
        Wave speed c (m/s).  May be negative (left-going wave).
    """
    _require_finite(g=g, h=h, k=k, omega=omega, s=s)
    _require_positive(g=g, h=h, k=k)
    if branch not in BRANCHES:
        raise DomainError(f"branch must be one of {BRANCHES}, got {branch!r}")
    t = math.tanh(k * h)
    try:
        root = math.sqrt(4.0 * g * k * t + (omega * t) ** 2)
    except OverflowError:
        raise DomainError(f"omega = {omega!r} is too large: (omega*tanh(k*h))**2 "
                          "overflows") from None
    signed = root if branch == "plus" else -root
    return s * math.sqrt(g * h) - h * omega + (omega * t + signed) / (2.0 * k)


def _caller_level() -> int:
    """``stacklevel`` of a warning raised in ``WaveParams.__new__`` that names
    the first frame outside this module and the named-tuple machinery
    (``_replace`` runs in ``collections``): the line that built the set,
    whether through ``WaveParams(...)``, ``solve`` or ``_replace``."""
    frame, level = sys._getframe(2), 2
    while frame.f_back and frame.f_globals.get("__name__") in (__name__, "collections"):
        frame, level = frame.f_back, level + 1
    return level


class _WaveParamsFields(NamedTuple):
    g: float
    h: float
    a: float
    k: float
    omega: float
    c: float
    branch: str = "plus"


class WaveParams(_WaveParamsFields):
    """Full physical parameter set of one linear wave.

    ``c`` is stored (so externally supplied speeds can be validated via
    :func:`dispersion_residual`); the frequency ``f = k*c`` and the wave
    velocity coefficient ``A`` are always derived, never stored.

    Use :meth:`WaveParams.solve` to construct a set whose speed satisfies
    the dispersion relation on a chosen branch.  Every construction,
    ``_replace`` included, is validated.
    """

    __slots__ = ()

    def __new__(cls, g: float, h: float, a: float, k: float, omega: float,
                c: float, branch: str = "plus"):
        self = cls._unwarned(g, h, a, k, omega, c, branch)
        for message in self._guard_messages():
            warnings.warn(message, stacklevel=_caller_level())
        return self

    @classmethod
    def _unwarned(cls, g, h, a, k, omega, c, branch) -> "WaveParams":
        """``WaveParams(...)`` without the warnings of ``_guard_messages``."""
        self = super().__new__(cls, g, h, a, k, omega, c, branch)
        _require_finite(g=g, h=h, a=a, k=k, omega=omega, c=c)
        _require_positive(g=g, h=h, k=k)
        if a < 0:
            raise DomainError(f"amplitude must be nonnegative, got {a}")
        if branch not in BRANCHES:
            raise DomainError(f"branch must be one of {BRANCHES}, got {branch!r}")
        if k * h > HYPERBOLIC_ARG_MAX:
            raise UnsupportedConfig(
                f"k*h = {k * h!r} overflows the hyperbolic factors")
        if min(k, k * h, abs(k * c)) < SCALE_MIN:
            raise DomainError(f"k, k*h and |f| = |k*c| must be at least {SCALE_MIN:g}, "
                              f"got {k!r}, {k * h!r} and {abs(k * c)!r}")
        if abs(omega) > OMEGA_MAX:
            raise DomainError(f"|omega| must be at most {OMEGA_MAX:g}, got {abs(omega)!r}")
        if not math.isfinite(self.A):
            raise DomainError(f"A = a*(f + k*h*omega)/sinh(k*h) overflows at a = {a:.3g}")
        q = c + h * omega
        if abs(q) <= BRANCH_MARGIN * math.sqrt(g * h):
            raise UnsupportedConfig(
                "c + h*omega is (numerically) zero; no linear wave "
                "propagates at the speed of the sheared surface current")
        if (q > 0) != (branch == "plus"):
            raise UnsupportedConfig(
                f"sign of c + h*omega = {q:.6g} contradicts "
                f"branch={branch!r}")
        return self

    def _guard_messages(self):
        """The small-amplitude guard warnings of this set, one per flag raised."""
        if self.amplitude_flag:
            yield (f"a/h = {self.a / self.h:.3g} exceeds {AMPLITUDE_RATIO_MAX}; "
                   "the linear solution degrades as O(a^2)")
        if self.validity_flag:
            yield (f"(a/h)*|omega_nd| = {self._vorticity_product():.3g} exceeds "
                   f"{VORTICITY_PRODUCT_MAX}; uniform validity of the linearization "
                   "is doubtful")

    @classmethod
    def _make(cls, iterable) -> "WaveParams":
        return cls(*iterable)

    @classmethod
    def solve(cls, g: float, h: float, k: float, omega: float,
              a: float = 0.0, s: float = 0.0, branch: str = "plus") -> "WaveParams":
        """Build a parameter set whose speed satisfies the dispersion relation;
        refuses s != 0 after solving, so a non-finite s stays a DomainError."""
        c = solve_dispersion(g, h, k, omega, s=s, branch=branch)
        if s != 0.0:
            raise UnsupportedConfig(
                f"s = {s!r} is not supported: the steady frame and the field "
                "formulas assume the bed-frame normalization s = 0")
        return cls(g=g, h=h, a=a, k=k, omega=omega, c=c, branch=branch)

    def _vorticity_product(self) -> float:
        return (self.a / self.h) * abs(self.omega) * math.sqrt(self.h / self.g)

    @property
    def amplitude_flag(self) -> bool:
        """True when a/h exceeds AMPLITUDE_RATIO_MAX (small-amplitude guard)."""
        return self.a / self.h > AMPLITUDE_RATIO_MAX

    @property
    def validity_flag(self) -> bool:
        """True when (a/h)*|omega|*sqrt(h/g) reaches VORTICITY_PRODUCT_MAX."""
        return self._vorticity_product() >= VORTICITY_PRODUCT_MAX

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.k

    @property
    def f(self) -> float:
        """Wave frequency f = k*c (rad/s); recomputed, never stored."""
        return self.k * self.c

    @property
    def A(self) -> float:
        """Wave velocity coefficient A = a*(f + k*h*omega)/sinh(k*h) (m/s).

        Negative exactly when the surface counter-current outruns a
        right-going wave (c + h*omega < 0).
        """
        return self.a * (self.f + self.k * self.h * self.omega) / math.sinh(self.k * self.h)


class Regime(NamedTuple):
    """Qualitative classification of a right-going wave configuration."""

    vorticity_sign: str      # "negative" | "zero" | "positive"
    crest_shift: str         # "X=0" | "X=pi": crest position in the steady frame
    supercritical: bool      # c + h*omega < 0 (surface current outruns the wave)
    branching_positive: bool # two-branch isocline / interior-vortex regime


def dispersion_residual(params: WaveParams) -> float:
    """Dimensionless defect of the solvability relation.

    Returns |q*(kh*q*coth(kh) - omega_nd) - 1| with omega_nd =
    omega*sqrt(h/g), q = c/sqrt(g*h) + omega_nd and kh = 2*pi*h over
    the wavelength.  Zero (to rounding) iff the stored speed came from
    :func:`solve_dispersion` on either branch.
    """
    g, h = params.g, params.h
    kh = 2.0 * math.pi * (h / params.wavelength)
    omega_nd = params.omega * math.sqrt(h / g)
    q = params.c / math.sqrt(g * h) + omega_nd
    return abs(q * (kh * q / math.tanh(kh) - omega_nd) - 1.0)


def field_identities(params: WaveParams, m):
    """``at(t, x, y)``: the five residuals of ``fields.FieldResiduals`` at
    (t, x, y), each in the operand order of its per-term formula, which
    fixes its bits, with sin, cos, cosh and sinh from ``m``: ``math`` for
    one point, ``numpy`` for arrays.  The caller checks |k*y| <= 700.

    Each residual starts as one fresh temporary of its result's shape (a
    product with a ``y`` factor for the two that depend on y) and augmented
    steps finish it: a numpy array updates in place, a float rebinds.  A
    step may swap the operands of one ``*`` or ``+``, which IEEE arithmetic
    makes exact, and a subtracted sum is built the same way in its own
    temporary.  The phase, ``k*y`` and ``cosh(k*y)`` are dropped after
    their last use, so an array call holds fewer arrays at its peak."""
    A, k, f, omega = params.A, params.k, params.f, params.omega
    a, h, g = params.a, params.h, params.g
    mAk, Ak, af, mOh, mak, A_k = -A * k, A * k, a * f, -omega * h, -a * k, A / k
    sinh_0, sinh_kh = math.sinh(0.0), math.sinh(k * h)
    # At y = h the hydrostatic term of the pressure vanishes.
    p_shape = (f + k * omega * h) * m.cosh(k * h) - omega * m.sinh(k * h)
    sin, cos, cosh, sinh = m.sin, m.cos, m.cosh, m.sinh

    def at(t, x, y):
        theta = k * x - f * t
        sin_t, cos_t = sin(theta), cos(theta)
        del theta
        ky = k * y
        # u_x + v_y: mAk*sin_t*cosh_ky + Ak*sin_t*cosh_ky
        cosh_ky = cosh(ky)
        div = mAk * sin_t * cosh_ky
        div += Ak * sin_t * cosh_ky
        del cosh_ky
        # (v_x - u_y) - omega: (v_x - (-omega + v_x)) - omega,
        # v_x = Ak*cos_t*sinh(ky)
        curl = Ak * cos_t * sinh(ky)
        del ky
        curl -= -omega + curl
        curl -= omega
        # v at y = 0: A*sin_t*sinh_0
        bed = A * sin_t
        bed *= sinh_0
        # v(h) - (eta_t + U(h)*eta_x), U(h) = -omega*h:
        # A*sin_t*sinh_kh - (af*sin_t + mOh*(mak*sin_t))
        rise = mak * sin_t
        rise *= mOh
        rise += af * sin_t
        kin = A * sin_t
        kin *= sinh_kh
        kin -= rise
        # P(h) - g*(eta - h), P = 0 on the mean level at rest:
        # A_k*cos_t*p_shape - g*((h + a*cos_t) - h)
        head = a * cos_t
        head += h
        head -= h
        head *= g
        dyn = A_k * cos_t
        dyn *= p_shape
        dyn -= head
        return div, curl, bed, kin, dyn

    return at


def classify_regime(params: WaveParams) -> Regime:
    """Classify a right-going configuration (requires c > 0).

    The steady-frame analysis places the crest at X = 0 when
    c + h*omega > 0 and at X = pi when c + h*omega < 0 (the sign of the
    wave coefficient A flips, which is a half-period translation).
    """
    if params.c <= 0:
        raise UnsupportedConfig(
            f"regime classification assumes a right-going wave; c = {params.c:.6g}. "
            "Map x -> -x for left-going waves.")
    if params.omega < 0:
        vort = "negative"
    elif params.omega > 0:
        vort = "positive"
    else:
        vort = "zero"
    supercritical = params.c + params.h * params.omega < 0
    crest = "X=pi" if supercritical else "X=0"
    branching = False
    if params.omega < 0 and params.a > 0:
        alpha = abs(params.A) * params.k
        branching = branching_discriminant(alpha, params.omega, params.f) > 0
    return Regime(vorticity_sign=vort, crest_shift=crest,
                  supercritical=supercritical, branching_positive=branching)


def branching_discriminant(alpha: float, omega: float, f: float) -> float:
    """Sign test for the two-branch isocline regime at negative vorticity.

    Evaluates (omega/alpha)*asinh(omega/alpha) - sqrt(1 + (omega/alpha)^2)
    - f/alpha, the scaled maximum of phi(Y; X) over Y at the vertical where
    the cosh coefficient equals -alpha.  A positive value means phi has two
    roots there, i.e. the upper isocline branch exists.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    r = omega / alpha
    return r * math.asinh(r) - math.hypot(1.0, r) - f / alpha


# ----------------------------------------------------------------------
# Serialization: flat key = value text and JSON with identical keys.
# ----------------------------------------------------------------------

def to_kv(params: WaveParams) -> str:
    """Serialize to ``key = value`` lines (keys: g h a k omega branch)."""
    lines = [f"{key} = {getattr(params, key)!r}" if key != "branch"
             else f"branch = {params.branch}"
             for key in PARAM_KEYS]
    return "\n".join(lines) + "\n"


def to_json_str(params: WaveParams) -> str:
    return json.dumps({key: getattr(params, key) for key in PARAM_KEYS}, indent=2)


def _number(key: str, value) -> float:
    if not isinstance(value, bool):  # float() reads JSON true and false as 1 and 0
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"parameter {key} must be a number, got {value!r}")


def from_mapping(mapping: dict) -> WaveParams:
    """Build params from a key/value mapping, re-solving the speed.

    Derived quantities (c, f, A, wavelength) present in the mapping are
    ignored; the speed is always recomputed from the stored branch, and
    ``s`` goes to :meth:`WaveParams.solve`.  Unknown keys raise :class:`DomainError`.
    """
    unknown = set(mapping) - {*PARAM_KEYS, "s", *_DERIVED_KEYS}
    if unknown:
        raise DomainError(f"unknown parameter keys: {sorted(unknown)}")
    try:
        g, h, k, omega = (_number(key, mapping[key]) for key in ("g", "h", "k", "omega"))
    except KeyError as exc:
        raise DomainError(f"missing required parameter key: {exc.args[0]}") from None
    a = _number("a", mapping.get("a", 0.0))
    s = _number("s", mapping.get("s", 0.0))
    branch = str(mapping.get("branch", "plus")).strip()
    return WaveParams.solve(g, h, k, omega, a=a, s=s, branch=branch)


def kv_mapping(text: str) -> dict:
    """Mapping of ``key = value`` lines (``#`` starts a comment), unvalidated."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"malformed line {lineno}: {raw!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def json_mapping(text: str) -> dict:
    """Mapping of a JSON object, unvalidated."""
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON parameter file: {exc}") from None
    if not isinstance(mapping, dict):
        raise DomainError("JSON parameter file must contain an object")
    return mapping


def from_kv(text: str) -> WaveParams:
    """Parse ``key = value`` lines (``#`` starts a comment)."""
    return from_mapping(kv_mapping(text))


def from_json_str(text: str) -> WaveParams:
    return from_mapping(json_mapping(text))
