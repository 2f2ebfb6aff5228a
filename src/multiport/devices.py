"""Two-port cell algebra: the elimination cell, the decorated beam splitter,
and the Mach-Zehnder realization; and the kernel that applies cells.

The kernel applies a layer of w cells on distinct rows as one batched
``(w, 2, 2) @ (w, 2, cols)`` product.  A layer of cells (p, p+1) with p
stepping by 2 covers one contiguous run of rows, read as a strided view;
any other layer gathers and scatters its row pairs through a (w, 2) index
array.  A single cell is the w = 1 case.

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
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import read_real

__all__ = [
    "wrap_angle",
    "TParams",
    "BsParams",
    "MzParams",
    "t_matrix",
    "t_bs",
    "t_bs_product",
    "t_mz",
    "t_mz_product",
    "bridge_params",
    "named_gate",
    "transmission",
    "omega_from_transmission",
    "GATE_NAMES",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi  # the top of a T or T_bs mixing angle's interval
_RANGE_SLOP = 1e-12  # tolerated overshoot before an omega is rejected
MAX_FILE_DIM = 4096  # largest mesh dim read from a file, checked before any allocation


def wrap_angle(x: float) -> float:
    """Wrap a finite angle to the half-open interval (-pi, pi], by the cell arrays' rule.

    Exact (bitwise identity) for inputs already inside the interval; a
    non-finite angle raises ``ValueError``.
    """
    return _checked_phases(np.array([read_real(x)]))[0].item()


# The angle rules, elementwise over the cell arrays of a whole mesh.  A
# single parameter is checked as a one-element array, so it obeys the same
# rules bit for bit.


def _wrap(x: np.ndarray) -> np.ndarray:
    w = np.fmod(x, _TWO_PI)
    return np.where(w <= -math.pi, w + _TWO_PI, np.where(w > math.pi, w - _TWO_PI, w))


def _checked_mixings(omega: np.ndarray) -> np.ndarray:
    if not np.isfinite(omega).all():
        raise ValueError("mixing angle must be finite")
    bad = np.flatnonzero((omega < -_RANGE_SLOP) | (omega > _HALF_PI + _RANGE_SLOP))
    if bad.size:
        raise ValueError(f"mixing angle {float(omega[bad[0]])!r} outside [0, {_HALF_PI!r}]")
    return np.minimum(np.maximum(omega, 0.0), _HALF_PI)


def _checked_phases(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError("phase must be finite")
    return _wrap(x)


def _checked_mixing(omega: float) -> float:
    return _checked_mixings(np.array([read_real(omega)]))[0].item()


@dataclass(frozen=True)
class TParams:
    """Parameters of the bare elimination cell; omega in [0, pi/2]."""

    omega: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_mixing(self.omega))
        object.__setattr__(self, "phi", wrap_angle(self.phi))


@dataclass(frozen=True)
class BsParams:
    """Decorated beam-splitter parameters; omega in [0, pi/2]."""

    omega: float
    alpha: float
    beta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_mixing(self.omega))
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))
        object.__setattr__(self, "beta", wrap_angle(self.beta))
        object.__setattr__(self, "phi", wrap_angle(self.phi))


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
        a, b, o, f = map(read_real, (self.alpha, self.beta, self.omega, self.phi))
        w = _checked_phases(np.array([a, b, o, f]))
        if w[2] < 0.0:
            w = _wrap(np.array([a - math.pi, b + w[2] + math.pi, -w[2], f - math.pi]))
        for name, value in zip(("alpha", "beta", "omega", "phi"), w.tolist()):
            object.__setattr__(self, name, value)


def _t_block(omega, phi) -> tuple:
    """Entries of T(omega, phi) as nested pairs; numbers, or arrays for many cells at once."""
    s, c = np.sin(omega), np.cos(omega)
    ph = np.exp(-1j * phi)
    return ((s, c), (ph * c, -ph * s))


def t_matrix(p: TParams) -> np.ndarray:
    """Matrix of the bare cell T(omega, phi)."""
    return np.array(_t_block(p.omega, p.phi), dtype=np.complex128)


def _stack(block) -> np.ndarray:
    """A (w, 2, 2) coefficient stack from nested pairs of length-w arrays.

    It is C-contiguous, as is every run of it: the batched product picks its
    inner loop, and so its last bits, by the layout of the coefficients.
    """
    (a, b), (c, d) = block
    out = np.empty((len(a), 2, 2), dtype=np.complex128)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _apply_pairs(rows: np.ndarray, where, coef: np.ndarray) -> None:
    """``rows[pair k] = coef[k] @ rows[pair k]`` for every k, as one batched matmul.

    ``rows`` is 2-D.  ``where`` is a slice over a run of 2w rows, read as
    w consecutive pairs through a view, or a (w, 2) array of row pairs,
    gathered and scattered back.  A view that would need a copy raises
    rather than leave ``rows`` unchanged.
    """
    if isinstance(where, slice):
        pairs = rows[where].reshape(len(coef), 2, rows.shape[1], copy=False)
        pairs[...] = coef @ pairs
    else:
        rows[where] = coef @ rows[where]


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


def layer_plan(layers, kind, p, q) -> tuple:
    """How a mesh is applied: ``(order, steps)``, one step per layer and kind, in layer order.

    ``order`` sorts the elements by layer, kind and port.  Each step is
    ``(layer, kind, where, lo, hi)``: a TWO or ONE step acts on the sorted
    elements ``lo`` to ``hi - 1``, and an ALL step on every row, by ALL
    element ``lo``.  A TWO step's ``where`` is a slice of rows when its cells
    are (p, p+1) with p stepping by 2, and a (w, 2) array of row pairs
    otherwise; a ONE step's is its rows.  ``plan_steps`` replays a plan.
    """
    key = 3 * layers + kind
    order = np.lexsort((p, key))
    key, ps, qs = key[order], p[order], q[order]
    row_of = np.cumsum(kind == ALL)[order] - 1
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    # A cell breaks a run unless q = p + 1 and, past its layer's first cell, p is 2 above the last.
    breaks = (qs != ps + 1) | (np.diff(ps, prepend=0) != 2)
    breaks[starts] = qs[starts] != ps[starts] + 1
    irregular = np.logical_or.reduceat(breaks, starts).tolist()
    steps = []
    for lo, hi, odd in zip(starts.tolist(), starts[1:].tolist() + [len(key)], irregular):
        layer, k = divmod(int(key[lo]), 3)
        if k == ALL:
            where, lo, hi = slice(None), int(row_of[lo]), int(row_of[lo]) + 1
        elif k == ONE:
            where = ps[lo:hi]
        elif odd:
            where = np.stack((ps[lo:hi], qs[lo:hi]), axis=1)
        else:
            where = slice(int(ps[lo]), int(ps[hi - 1]) + 2)
        steps.append((layer, k, where, lo, hi))
    return order, steps


def plan_steps(order, steps, block, rows) -> list:
    """Steps ``(where, coef)`` for ``apply_layers``: a ``layer_plan`` replayed on a mesh's coefficients.

    ``block`` holds the entries ((a, b), (c, d)) of each element as arrays,
    ``a`` also a ONE element's factor, and ``rows[r]`` the per-row factors of
    ALL element r.  The blocks form one (K, 2, 2) stack in the plan's
    ``order`` (list order when None); a ONE or ALL step's ``coef`` is a column.
    """
    coef = _stack(block) if order is None else _stack(block)[order]
    return [(where, coef[lo:hi] if k == TWO else coef[lo:hi, 0, :1] if k == ONE else rows[lo][:, None])
            for _, k, where, lo, hi in steps]


def apply_layers(m: np.ndarray, steps) -> None:
    """Apply ``plan_steps`` in place to the rows of a matrix or a vector."""
    rows = m if m.ndim == 2 else m[:, None]
    for where, coef in steps:
        if coef.ndim == 3:
            _apply_pairs(rows, where, coef)
        else:
            rows[where] *= coef


class _Mesh:
    """What ``Factorization`` and ``Netlist`` share, each part built once per object as a ``cached_property``.

    A subclass is a frozen dataclass holding ``dim`` and the columns ``kind``,
    ``p`` and ``q``; ``==`` compares ``dim`` and the arrays its ``_COLUMNS``
    name, so a mesh is unhashable.  ``_from_columns`` stores valid columns and
    checks none: the rules belong to the readers of outside input, and the
    producers (``decompose``, ``netlist_from_factorization``) build valid
    columns.  ``_coefficients()`` returns the ``block`` and ``rows`` that
    ``plan_steps`` takes.  Every mesh is applied by replaying one
    ``layer_plan``, ``_plan``: the one handed to ``_from_columns``, or else
    one built from the ASAP ``schedule`` on first use.  ``_steps`` is that
    plan replayed on the mesh's coefficients, also on first use.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in self._COLUMNS)

    @classmethod
    def _from_columns(cls, dim, plan=None, **columns):
        """An instance straight from valid columns, stored as read-only arrays, without the per-element view.

        ``plan``, when given, is the mesh's ``layer_plan``, already known, so
        the mesh never runs ``schedule`` or ``layer_plan``.
        """
        for arr in columns.values():
            arr.flags.writeable = False
        if plan is not None:
            columns["_plan"] = plan
        return _trusted(cls, dim=dim, **columns)

    @property
    def depth(self) -> int:
        """Number of layers the elements are applied in: the last layer of the mesh's plan."""
        return max((step[0] for step in self._plan[1]), default=0)

    @cached_property
    def _plan(self) -> tuple:
        return layer_plan(schedule(self.kind, self.p, self.q, self.dim), self.kind, self.p, self.q)

    @cached_property
    def _steps(self) -> list:
        return plan_steps(*self._plan, *self._coefficients())


def _trusted(cls, **fields):
    """An instance of a frozen dataclass from fields already checked, skipping ``__post_init__``."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


_ROWS_STEP = 4096  # items built per step of an iteration, so that a long view is never listed at once


class _Rows(Sequence):
    """A read-only sequence whose item i is ``build(*row i of the columns)``, built only when read.

    ``columns`` are equal-length 1-D arrays, and ``build`` takes one Python
    scalar per column.  ``len`` comes from the arrays, a slice is a tuple,
    iteration builds the items in order, and ``==``, ``hash`` and ``repr``
    are those of the tuple of the items.  The view holds the arrays only.
    """

    __slots__ = ("_build", "_columns")

    def __init__(self, build, *columns):
        self._build = build
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._build, *(c[i].tolist() for c in self._columns)))
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("view index out of range")
        return self._build(*(c[i].item() for c in self._columns))

    def __iter__(self):
        for lo in range(0, len(self), _ROWS_STEP):
            yield from self[lo : lo + _ROWS_STEP]

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Rows)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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


def transmission(omega: float) -> float:
    """Beam-splitter transmission T = cos^2(omega), for any finite omega."""
    omega = read_real(omega)
    if not math.isfinite(omega):
        raise ValueError("mixing angle must be finite")
    return math.cos(omega) ** 2


def omega_from_transmission(t: float) -> float:
    """Mixing angle with cos^2(omega) = t, for t in [0, 1]."""
    t = read_real(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {t!r}")
    return math.acos(math.sqrt(t))
