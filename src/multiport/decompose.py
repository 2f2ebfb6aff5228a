"""Factor an n x n unitary into two-port cells and a phase layer.

``decompose`` right-multiplies the working matrix by elimination cells on
neighbouring columns (j, j+1) until only a unit-modulus diagonal is left,
then records that diagonal as phases.  The cells form the nearest-neighbour
triangle of Reck et al. (PRL 73, 58 (1994)), of optical depth 2n-3, and
each of its layers is solved and applied as one array step.
``reconstruct`` rebuilds the original unitary from the factors, layer by
layer, so ``reconstruct(decompose(u)) == u`` to float accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import (
    TParams,
    TWO,
    _Mesh,
    _checked_mixings,
    _checked_phases,
    _t_block,
    _trusted,
    apply_layers,
    apply_two_port,
)
from .numerics import as_matrix, read_json, unitarity_deviation, write_json

__all__ = [
    "TFactor",
    "Factorization",
    "solve_t_params",
    "solve_t_layer",
    "decompose",
    "reconstruct",
    "save_factorization",
    "load_factorization",
    "factorization_to_payload",
    "factorization_from_payload",
]

SKIP_TOL = 1e-14  # entries at or below this magnitude need no elimination
UNITARY_TOL = 1e-9  # input Gram deviation; residual distance from a unit-modulus diagonal


@dataclass(frozen=True)
class TFactor:
    """One embedded cell acting on ports ``p < q`` (0-based)."""

    p: int
    q: int
    params: TParams

    def __post_init__(self):
        p, q = int(self.p), int(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if not 0 <= p < q:
            raise ValueError(f"need 0 <= p < q, got p={p}, q={q}")


@dataclass(frozen=True, eq=False)
class Factorization(_Mesh):
    """Ordered cell factors plus the final diagonal, stored as phases.

    The defining identity is ``u @ T_1 @ ... @ T_K @ D == I`` where
    ``D = diag(exp(i * diagonal))``; equivalently
    ``u == D^dagger @ T_K^dagger @ ... @ T_1^dagger``.

    The cells are held as read-only arrays ``p``, ``q`` (ports), ``omega``
    and ``phi``, checked once per array; ``diagonal`` is an array too.
    ``factors`` is a tuple view of ``TFactor`` objects, built on first use.
    """

    dim: int
    factors: tuple[TFactor, ...]
    diagonal: np.ndarray
    _view = "factors"

    def __post_init__(self):
        fs = tuple(self.factors)
        object.__setattr__(self, "factors", fs)
        self._store_columns(
            np.array([f.p for f in fs], dtype=np.int64),
            np.array([f.q for f in fs], dtype=np.int64),
            np.array([f.params.omega for f in fs], dtype=float),
            np.array([f.params.phi for f in fs], dtype=float),
            self.diagonal,
        )

    @staticmethod
    def _check(dim, p, q, omega, phi, diagonal) -> dict:
        """Check the cell arrays once, with the rules of TFactor and TParams."""
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        diagonal = np.array(diagonal, dtype=float).reshape(-1)
        if diagonal.size != dim:
            raise ValueError(f"diagonal length {diagonal.size} does not match dim {dim}")
        limit = dim * (dim - 1) // 2
        if p.size > limit:
            raise ValueError(f"{p.size} factors exceed the n(n-1)/2 = {limit} bound")
        bad = np.flatnonzero((p < 0) | (p >= q))
        if bad.size:
            raise ValueError(f"need 0 <= p < q, got p={p[bad[0]]}, q={q[bad[0]]}")
        bad = np.flatnonzero(q >= dim)
        if bad.size:
            raise ValueError(f"factor ports ({p[bad[0]]}, {q[bad[0]]}) out of range for dim {dim}")
        return {
            "p": p,
            "q": q,
            "omega": _checked_mixings(np.asarray(omega, dtype=float), math.pi / 2),
            "phi": _checked_phases(np.asarray(phi, dtype=float)),
            "diagonal": diagonal,
        }

    def _build_view(self) -> tuple:
        return tuple(
            _trusted(TFactor, p=p, q=q, params=_trusted(TParams, omega=w, phi=f))
            for p, q, w, f in zip(self.p.tolist(), self.q.tolist(), self.omega.tolist(), self.phi.tolist())
        )

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return self.dim == other.dim and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in ("p", "q", "omega", "phi", "diagonal")
        )

    @property
    def kind(self) -> np.ndarray:
        return np.full(self.p.size, TWO)

    def _coefficients(self) -> tuple:
        """Every factor's adjoint block, so the layers apply T_1^dagger first."""
        (a, b), (c, d) = _t_block(self.omega, self.phi)  # a, b are real
        return (a, c.conj(), b, d.conj()), None


def solve_t_layer(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell parameters nulling each ``a[k]`` against ``b[k]``: sin(w)a + e^{-if}cos(w)b = 0.

    Returns ``(keep, omega, phi)``; ``keep`` is False where ``a`` is already
    negligible and the cell is skipped.  Where ``b`` is negligible any phase
    works and phi is fixed to 0.  omega lies in [0, pi/2] and phi in (-pi, pi].
    """
    abs_a, abs_b = np.abs(a), np.abs(b)
    omega = np.arctan2(abs_b, abs_a)
    phi = np.angle(b * a.conj()) - math.pi  # in (-2pi, 0]
    phi[phi <= -math.pi] += 2.0 * math.pi
    phi[abs_b <= SKIP_TOL] = 0.0
    return abs_a > SKIP_TOL, omega, phi


def solve_t_params(a: complex, b: complex) -> TParams | None:
    """``solve_t_layer`` for one pair: the cell's TParams, or None (skip)."""
    keep, omega, phi = solve_t_layer(np.array([a], dtype=complex), np.array([b], dtype=complex))
    return TParams(omega=float(omega[0]), phi=float(phi[0])) if keep[0] else None


def decompose(u) -> Factorization:
    """Eliminate below-diagonal entries of a unitary on neighbouring columns.

    Rows are processed bottom-up; within row i, entry (i, j) is nulled against
    (i, j+1) for j = 0 .. i-1, so every cell mixes columns j and j+1.  Cell
    (i, j) only waits for cells on those columns, which puts it in layer
    j + 2(n-1-i) + 1 of 2n-3; each layer is solved with ``solve_t_layer`` and
    applied as one array step, and the factors are listed layer by layer.
    Entries already below 1e-14 are skipped, so the factor count is at most
    n(n-1)/2.  Permutation-like inputs are no longer short: each 1 walks to
    the diagonal through swap cells (omega = 0), one per inversion, so the
    reversal of n ports takes all n(n-1)/2.  The input's Gram deviation, and
    after elimination the residual's distance from a unit-modulus diagonal,
    must stay within ``UNITARY_TOL``.

    The factors always describe an exactly unitary mesh, so an input with Gram
    deviation d is reproduced only to about d/2: inputs with d in
    (2e-10, 1e-9] are accepted but miss the 1e-10 round-trip contract.  For
    ``u * (1 + 4e-10)`` (d = 8e-10) ``reconstruct`` is off by 3.3e-10 on a
    dense 6x6 unitary and by 4.0e-10 on a diagonal one.
    """
    m = as_matrix(u)
    n, c = m.shape
    if n != c:
        raise ValueError(f"can only decompose square matrices, got {n}x{c}")
    dev = unitarity_deviation(m)
    if dev > UNITARY_TOL:
        raise ValueError(f"input is not unitary (deviation {dev:.3e} > {UNITARY_TOL:g})")

    w = m.T.copy()  # row j of w is column j of the working matrix
    cells = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for layer in range(1, 2 * n - 2):
        r = np.arange(max(0, layer - n + 1), (layer - 1) // 2 + 1)  # rows i = n-1-r
        j = layer - 1 - 2 * r
        i = n - 1 - r
        keep, omega, phi = solve_t_layer(w[j, i], w[j + 1, i])
        if not keep.all():
            j, omega, phi = j[keep], omega[keep], phi[keep]
            if not j.size:
                continue
        (a, b), (c, d) = _t_block(omega[:, None], phi[:, None])
        apply_two_port(w, j, j + 1, ((a, c), (b, d)))  # columns times T: rows times T^T
        cells.append((j, omega, phi))

    angles = np.angle(np.diagonal(w))
    drift = float(np.max(np.abs(w - np.diag(np.exp(1j * angles)))))
    if drift > UNITARY_TOL:
        raise ValueError(f"elimination left a residual {drift:.3e} off a unit-modulus diagonal")
    p, omega, phi = (np.concatenate(x) for x in zip(*cells))
    return Factorization._from_columns(n, p, p + 1, omega, phi, -angles)


def reconstruct(f: Factorization) -> np.ndarray:
    """Rebuild the unitary: D^dagger @ T_K^dagger @ ... @ T_1^dagger, T_1^dagger applied first."""
    out = np.eye(f.dim, dtype=np.complex128)
    apply_layers(out, f._steps())
    out *= np.exp(-1j * f.diagonal)[:, None]
    return out


# --- JSON persistence ---------------------------------------------------
#
# Files carry 1-based ports: {"dim": n, "factors": [{"p": .., "q": ..,
# "omega": .., "phi": ..}, ...], "diagonal": [..]}.


def factorization_to_payload(f: Factorization) -> dict:
    return {
        "dim": f.dim,
        "factors": [
            {"p": p + 1, "q": q + 1, "omega": omega, "phi": phi}
            for p, q, omega, phi in zip(f.p.tolist(), f.q.tolist(), f.omega.tolist(), f.phi.tolist())
        ],
        "diagonal": f.diagonal.tolist(),
    }


def factorization_from_payload(payload: dict) -> Factorization:
    dim = int(payload["dim"])
    items = payload["factors"]
    p = np.array([int(item["p"]) for item in items], dtype=np.int64)
    q = np.array([int(item["q"]) for item in items], dtype=np.int64)
    bad = np.flatnonzero((p < 1) | (p >= q) | (q > dim))
    if bad.size:
        raise ValueError(f"file ports ({p[bad[0]]}, {q[bad[0]]}) invalid for dim {dim} (1-based)")
    omega = np.array([float(item["omega"]) for item in items])
    phi = np.array([float(item["phi"]) for item in items])
    diagonal = [float(d) for d in payload["diagonal"]]
    return Factorization._from_columns(dim, p - 1, q - 1, omega, phi, diagonal)


def save_factorization(path, f: Factorization) -> None:
    write_json(path, factorization_to_payload(f))


def load_factorization(path) -> Factorization:
    return read_json(path, factorization_from_payload)
