"""Two-port cell algebra: the elimination cell, the decorated beam splitter,
and the Mach-Zehnder realization, plus parameter fitting between them; and
the kernel that applies cells, one at a time or a layer of them at once.

Conventions
-----------
* ``T(omega, phi)``  -- the bare elimination cell
      [[ sin w,            cos w           ],
       [ e^{-i f} cos w,  -e^{-i f} sin w  ]]
* ``T_bs(omega, alpha, beta, phi)`` -- beam splitter with input phases
  alpha/beta and output phase phi; transmission T = cos^2 w, reflection
  R = sin^2 w.
* ``T_mz(alpha, beta, omega, phi)`` -- Mach-Zehnder pair of 50:50 couplers
  with an internal phase omega and external phases alpha, beta, phi.

Angles: omega is a mixing angle kept in its canonical interval
([0, pi/2] for T/T_bs, [0, pi] for the Mach-Zehnder); every pure phase is
wrapped to (-pi, pi].  Wrapping phases never changes the matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, unitarity_deviation

__all__ = [
    "wrap_angle",
    "TParams",
    "BsParams",
    "MzParams",
    "t_matrix",
    "apply_two_port",
    "schedule",
    "layer_steps",
    "apply_layers",
    "t_bs",
    "t_bs_product",
    "t_mz",
    "t_mz_product",
    "bridge_params",
    "named_gate",
    "fit_bs",
    "transmission",
    "omega_from_transmission",
    "GATE_NAMES",
]

_TWO_PI = 2.0 * math.pi
_RANGE_SLOP = 1e-12  # tolerated overshoot before an omega is rejected


def wrap_angle(x: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi].

    Exact (bitwise identity) for inputs already inside the interval.
    """
    w = math.fmod(float(x), _TWO_PI)
    if w <= -math.pi:
        w += _TWO_PI
    elif w > math.pi:
        w -= _TWO_PI
    return w


def _checked_mixing(omega: float, hi: float) -> float:
    o = float(omega)
    if not math.isfinite(o):
        raise ValueError("mixing angle must be finite")
    if o < -_RANGE_SLOP or o > hi + _RANGE_SLOP:
        raise ValueError(f"mixing angle {o!r} outside [0, {hi!r}]")
    return min(max(o, 0.0), hi)


def _checked_phase(x: float) -> float:
    f = float(x)
    if not math.isfinite(f):
        raise ValueError("phase must be finite")
    return wrap_angle(f)


# The same three rules elementwise, for the cell arrays of a whole mesh.


def _wrap(x: np.ndarray) -> np.ndarray:
    w = np.fmod(x, _TWO_PI)
    return np.where(w <= -math.pi, w + _TWO_PI, np.where(w > math.pi, w - _TWO_PI, w))


def _checked_mixings(omega: np.ndarray, hi: float) -> np.ndarray:
    if not np.isfinite(omega).all():
        raise ValueError("mixing angle must be finite")
    bad = np.flatnonzero((omega < -_RANGE_SLOP) | (omega > hi + _RANGE_SLOP))
    if bad.size:
        raise ValueError(f"mixing angle {float(omega[bad[0]])!r} outside [0, {hi!r}]")
    return np.minimum(np.maximum(omega, 0.0), hi)


def _checked_phases(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError("phase must be finite")
    return _wrap(x)


@dataclass(frozen=True)
class TParams:
    """Parameters of the bare elimination cell; omega in [0, pi/2]."""

    omega: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_mixing(self.omega, math.pi / 2))
        object.__setattr__(self, "phi", _checked_phase(self.phi))


@dataclass(frozen=True)
class BsParams:
    """Decorated beam-splitter parameters; omega in [0, pi/2]."""

    omega: float
    alpha: float
    beta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_mixing(self.omega, math.pi / 2))
        object.__setattr__(self, "alpha", _checked_phase(self.alpha))
        object.__setattr__(self, "beta", _checked_phase(self.beta))
        object.__setattr__(self, "phi", _checked_phase(self.phi))


@dataclass(frozen=True)
class MzParams:
    """Mach-Zehnder parameters; omega in [0, pi].

    A negative wrapped omega is folded back with the matrix-preserving flip
    (alpha, beta, omega, phi) -> (alpha - pi, beta + omega + pi, -omega,
    phi - pi); the realization is 2*pi-periodic in all four angles.
    """

    alpha: float
    beta: float
    omega: float
    phi: float

    def __post_init__(self):
        a, b, o, f = (float(self.alpha), float(self.beta), float(self.omega), float(self.phi))
        for val in (a, b, o, f):
            if not math.isfinite(val):
                raise ValueError("Mach-Zehnder angles must be finite")
        o = wrap_angle(o)
        if o < 0.0:
            a, b, o, f = a - math.pi, b + o + math.pi, -o, f - math.pi
        object.__setattr__(self, "alpha", wrap_angle(a))
        object.__setattr__(self, "beta", wrap_angle(b))
        object.__setattr__(self, "omega", o)
        object.__setattr__(self, "phi", wrap_angle(f))


def _t_block(omega, phi) -> tuple:
    """Entries of T(omega, phi) as nested pairs; numbers, or arrays for many cells at once."""
    s, c = np.sin(omega), np.cos(omega)
    ph = np.exp(-1j * phi)
    return ((s, c), (ph * c, -ph * s))


def t_matrix(p: TParams) -> np.ndarray:
    """Matrix of the bare cell T(omega, phi)."""
    return np.array(_t_block(p.omega, p.phi), dtype=np.complex128)


def apply_two_port(m: np.ndarray, p: int, q: int, block) -> None:
    """Multiply rows ``p`` and ``q`` of ``m`` in place by a 2x2 block.

    The effect is ``m[[p, q]] = block @ m[[p, q]]``; ``m`` is a matrix or a
    vector, and ``m.T`` acts on columns.  ``block`` is a 2x2 array or nested
    pairs of numbers.  For a layer of cells at once, ``p`` and ``q`` are
    equal-length integer arrays of distinct ports and the four entries are
    arrays that broadcast against ``m[p]``.  The one way a cell is applied.
    """
    (a, b), (c, d) = block
    x, y = m[p], m[q]
    m[p], m[q] = a * x + b * y, c * x + d * y


# --- layers ---------------------------------------------------------------
#
# A mesh is a list of elements in passage order, held as columns: a kind
# code per element and its ports p, q.  TWO is a 2x2 block on rows (p, q),
# ONE a phase factor on row p, ALL a phase factor on every row.

TWO, ONE, ALL = 0, 1, 2


def schedule(kind: np.ndarray, p: np.ndarray, q: np.ndarray, dim: int) -> np.ndarray:
    """ASAP layer (1-based) of each element: 1 + the latest layer on its ports.

    An ALL element is a barrier: it takes a layer of its own above every
    earlier one.  The elements of one layer act on distinct rows, so they
    commute, and applying the layers in turn equals applying the list in order.
    """
    latest = [0] * dim
    layers = []
    for k, i, j in zip(kind.tolist(), p.tolist(), q.tolist()):
        if k == TWO:
            a, b = latest[i], latest[j]
            layer = (a if a > b else b) + 1
            latest[i] = latest[j] = layer
        elif k == ONE:
            layer = latest[i] = latest[i] + 1
        else:
            layer = max(latest) + 1
            latest = [layer] * dim
        layers.append(layer)
    return np.array(layers, dtype=np.int64)


def layer_steps(layers, kind, p, q, block, rows) -> list:
    """Steps for ``apply_layers``: one per layer and kind, in layer order.

    ``block`` holds the entries (a, b, c, d) of each TWO element as arrays
    indexed like ``kind``; ``a`` also holds the factor of each ONE element.
    ``rows[r]`` holds the per-row factors of the r-th ALL element.  A layer of
    one cell keeps plain ports and numbers for the scalar kernel.
    """
    key = 3 * layers + kind
    order = np.argsort(key, kind="stable")
    key = key[order]
    ps, qs = p[order], q[order]
    a, b, c, d = (x[order][:, None] for x in block)
    row_of = np.cumsum(kind == ALL)[order] - 1
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    steps = []
    for lo, hi in zip(starts, starts[1:] + [len(key)]):
        k = key[lo] % 3
        if k == ALL:
            steps.append((slice(None), None, rows[row_of[lo]][:, None]))
        elif k == ONE:
            steps.append((ps[lo:hi], None, a[lo:hi]))
        elif hi - lo == 1:
            steps.append((int(ps[lo]), int(qs[lo]), ((a[lo, 0], b[lo, 0]), (c[lo, 0], d[lo, 0]))))
        else:
            s = slice(lo, hi)
            steps.append((ps[s], qs[s], ((a[s], b[s]), (c[s], d[s]))))
    return steps


def apply_layers(m: np.ndarray, steps) -> None:
    """Apply ``layer_steps`` in place to the rows of a matrix or a vector."""
    rows = m if m.ndim == 2 else m[:, None]
    for p, q, coef in steps:
        if q is None:
            rows[p] *= coef
        else:
            apply_two_port(rows, p, q, coef)


class _Mesh:
    """What ``Factorization`` and ``Netlist`` share, each part built once per object.

    A subclass is a frozen dataclass holding ``dim`` and the columns ``kind``,
    ``p`` and ``q``.  Its one checker, ``_check(dim, *columns)``, returns the
    checked columns by name, and every constructor stores them through it.
    It names its tuple view in ``_view`` and builds it in ``_build_view``;
    ``_coefficients()`` returns the ``block`` and ``rows`` that ``layer_steps``
    takes.
    """

    _view = ""

    @classmethod
    def _from_columns(cls, dim, *columns):
        """An instance straight from its columns, without the tuple view."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "dim", int(dim))
        obj._store_columns(*columns)
        return obj

    def _store_columns(self, *columns) -> None:
        for name, arr in self._check(self.dim, *columns).items():
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _once(self, name: str, build):
        try:
            return self.__dict__[name]
        except KeyError:
            value = build()
            object.__setattr__(self, name, value)
            return value

    def __getattr__(self, name):
        if name != self._view:
            raise AttributeError(name)
        return self._once(name, self._build_view)

    @property
    def depth(self) -> int:
        """Number of layers the ASAP schedule applies the elements in."""
        return int(self._layers().max(initial=0))

    def _layers(self) -> np.ndarray:
        return self._once("_layer_of", lambda: schedule(self.kind, self.p, self.q, self.dim))

    def _steps(self) -> list:
        return self._once(
            "_layer_steps", lambda: layer_steps(self._layers(), self.kind, self.p, self.q, *self._coefficients())
        )


def _trusted(cls, **fields):
    """An instance of a frozen dataclass from fields already checked, skipping ``__post_init__``."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _bs_block(omega, alpha, beta, phi) -> tuple:
    """Entries of T_bs(omega, alpha, beta, phi) as nested pairs; numbers, or arrays."""
    s, c = np.sin(omega), np.cos(omega)
    ea = np.exp(1j * alpha)
    eb = np.exp(1j * beta)
    ef = np.exp(1j * phi)
    return ((1j * ea * eb * ef * s, eb * ef * c), (ea * eb * c, 1j * eb * s))


def t_bs(p: BsParams) -> np.ndarray:
    """Decorated beam splitter, closed form."""
    return np.array(_bs_block(p.omega, p.alpha, p.beta, p.phi), dtype=np.complex128)


def t_bs_product(p: BsParams) -> np.ndarray:
    """Decorated beam splitter as its four-element physical product.

    Output phase layer x symmetric coupler x input phase layers.  Agrees
    with the closed form to ~1e-16; tests pin <= 1e-14.
    """
    s, c = math.sin(p.omega), math.cos(p.omega)
    coupler = np.array([[1j * s, c], [c, 1j * s]], dtype=np.complex128)
    out_phase = np.diag([cmath.exp(1j * p.phi), 1.0])
    in_a = np.diag([cmath.exp(1j * (p.alpha + p.beta)), 1.0])
    in_b = np.diag([1.0, cmath.exp(1j * p.beta)])
    return out_phase @ coupler @ in_a @ in_b


def t_mz(p: MzParams) -> np.ndarray:
    """Mach-Zehnder realization, closed form."""
    half = 0.5 * p.omega
    s, c = math.sin(half), math.cos(half)
    pref = 1j * cmath.exp(1j * (p.beta + half))
    ea = cmath.exp(1j * p.alpha)
    ef = cmath.exp(1j * p.phi)
    return pref * np.array([[-ea * ef * s, ef * c], [ea * c, s]], dtype=np.complex128)


_H50 = np.array([[1j, 1.0], [1.0, 1j]], dtype=np.complex128) / np.sqrt(2.0)


def t_mz_product(p: MzParams) -> np.ndarray:
    """Mach-Zehnder as its six-element chain.

    phi layer x 50:50 coupler x internal omega layer x 50:50 coupler x
    (alpha+beta) layer x beta layer.  The bare chain already equals the
    closed form -- no extra scalar in front.
    """
    d_phi = np.diag([cmath.exp(1j * p.phi), 1.0])
    d_omega = np.diag([cmath.exp(1j * p.omega), 1.0])
    d_ab = np.diag([cmath.exp(1j * (p.alpha + p.beta)), 1.0])
    d_b = np.diag([1.0, cmath.exp(1j * p.beta)])
    return d_phi @ _H50 @ d_omega @ _H50 @ d_ab @ d_b


def bridge_params(p: TParams) -> tuple[BsParams, MzParams]:
    """Equivalent beam-splitter and Mach-Zehnder settings for a bare cell.

    Both returned parameter sets reproduce ``t_matrix(p)`` exactly (up to
    float roundoff), including the phase conventions -- not merely up to a
    global phase.
    """
    bs = BsParams(
        omega=p.omega,
        alpha=-math.pi / 2,
        beta=math.pi / 2 - p.phi,
        phi=p.phi - math.pi / 2,
    )
    mz = MzParams(
        alpha=math.pi,
        beta=math.pi / 2 - p.omega - p.phi,
        omega=2.0 * p.omega,
        phi=p.phi - math.pi,
    )
    return bs, mz


_SQ = np.sqrt(0.5)

_GATES = {
    "identity": np.eye(2, dtype=np.complex128),
    "not": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "sqrt_i2": _SQ * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128),
    "sqrt_not": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128),
}

GATE_NAMES = tuple(sorted(_GATES))


def named_gate(name: str) -> np.ndarray:
    """Return a fresh copy of a named 2x2 gate.

    Known names: identity, not, sqrt_i2 (square root of the symmetric
    Hadamard-like involution), sqrt_not.
    """
    try:
        return _GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; known gates: {', '.join(GATE_NAMES)}") from None


_FIT_DEGENERATE = 1e-12


def fit_bs(u) -> BsParams:
    """Recover beam-splitter parameters from a 2x2 unitary.

    Inverts the closed form of :func:`t_bs`.  At the degenerate mixing
    angles (omega = 0 or pi/2) one phase is unconstrained and is set to
    zero: omega = 0 fixes phi = 0, omega = pi/2 fixes alpha = 0.
    """
    m = as_matrix(u)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    if unitarity_deviation(m) > 1e-8:
        raise ValueError("matrix is not unitary enough to fit (deviation > 1e-8)")

    mag_s = abs(m[0, 0])  # sin(omega) up to phase
    mag_c = abs(m[0, 1])  # cos(omega) up to phase
    omega = math.atan2(mag_s, mag_c)

    if mag_s <= _FIT_DEGENERATE:
        # omega = 0: anti-diagonal matrix, phi unconstrained
        phi = 0.0
        beta = cmath.phase(m[0, 1])
        alpha = cmath.phase(m[1, 0]) - beta
    elif mag_c <= _FIT_DEGENERATE:
        # omega = pi/2: diagonal matrix, alpha unconstrained
        alpha = 0.0
        beta = cmath.phase(m[1, 1]) - math.pi / 2
        phi = cmath.phase(m[0, 0]) - math.pi / 2 - beta
    else:
        beta = cmath.phase(m[1, 1]) - math.pi / 2
        phi = cmath.phase(m[0, 1]) - beta
        alpha = cmath.phase(m[1, 0]) - beta
    return BsParams(omega=omega, alpha=alpha, beta=beta, phi=phi)


def transmission(omega: float) -> float:
    """Beam-splitter transmission T = cos^2(omega)."""
    return float(math.cos(omega) ** 2)


def omega_from_transmission(t: float) -> float:
    """Mixing angle with cos^2(omega) = t, for t in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {t!r}")
    return float(math.acos(math.sqrt(t)))
