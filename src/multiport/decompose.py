"""Factor an n x n unitary into two-port cells and a phase layer.

``decompose`` right-multiplies the working matrix by elimination cells on
neighbouring columns (j, j+1) until only a unit-modulus diagonal is left,
then records that diagonal as phases.  The cells form the nearest-neighbour
triangle of Reck et al. (PRL 73, 58 (1994)), of optical depth 2n-3, and
each of its layers is solved as one array step and applied as one batched
2x2 product.
``reconstruct`` rebuilds the original unitary from the factors, layer by
layer, so ``reconstruct(decompose(u)) == u`` to float accuracy.  When no cell
is skipped, ``decompose`` hands its layers to the factorization as its layer
plan, and ``reconstruct`` and the compiled netlist replay it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .devices import (
    MAX_FILE_DIM,
    TParams,
    TWO,
    _Mesh,
    _Rows,
    _apply_pairs,
    _checked_mixings,
    _checked_phases,
    _stack,
    _t_block,
    _trusted,
    apply_layers,
)
from .numerics import (
    _parts_within_one,
    as_matrix,
    read_array,
    read_int,
    read_json,
    read_real,
    unitarity_deviation,
    write_json,
)

__all__ = [
    "TFactor",
    "Factorization",
    "decompose",
    "reconstruct",
    "save_factorization",
    "load_factorization",
]

SKIP_TOL = 1e-14  # entries at or below this magnitude need no elimination
UNITARY_TOL = 1e-9  # input Gram deviation; residual distance from a unit-modulus diagonal


@dataclass(frozen=True)
class TFactor:
    """One embedded cell acting on ports ``p < q`` (0-based), as ``Factorization.factors`` shows it."""

    p: int
    q: int
    params: TParams


def _cell(p, q, omega, phi) -> TFactor:
    # The cell's fields are already checked, so TParams.__post_init__ is skipped.
    return _trusted(TFactor, p=p, q=q, params=_trusted(TParams, omega=omega, phi=phi))


@dataclass(frozen=True, eq=False, init=False)
class Factorization(_Mesh):
    """Ordered cell factors plus the final diagonal, stored as phases.

    The defining identity is ``u @ T_1 @ ... @ T_K @ D == I`` where
    ``D = diag(exp(i * diagonal))``; equivalently
    ``u == D^dagger @ T_K^dagger @ ... @ T_1^dagger``.

    A factorization comes from ``decompose``, which builds valid cells, or
    from its file format, whose reader ``factorization_from_payload`` checks
    every rule once.  The cells are held as read-only arrays ``p``, ``q``
    (ports), ``omega`` and ``phi``; ``diagonal`` is an array too.
    ``factors``, made on first read, is a read-only sequence of ``TFactor``
    cells over those arrays: its length is ``p.size``, and cell i is built
    only when it is read.  It compares equal to the tuple of its cells, and
    is not a tuple, nor a dataclass field.
    """

    dim: int
    diagonal: np.ndarray
    _COLUMNS = ("p", "q", "omega", "phi", "diagonal")

    @cached_property
    def factors(self) -> Sequence[TFactor]:
        return _Rows(_cell, self.p, self.q, self.omega, self.phi)

    @property
    def kind(self) -> np.ndarray:
        return np.full(self.p.size, TWO)

    def _coefficients(self) -> tuple:
        """Every factor's adjoint block, so the layers apply T_1^dagger first."""
        (a, b), (c, d) = _t_block(self.omega, self.phi)  # a, b are real
        return ((a, c.conj()), (b, d.conj())), ()


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


def decompose(u) -> Factorization:
    """Eliminate below-diagonal entries of a unitary on neighbouring columns.

    Rows are processed bottom-up; within row i, entry (i, j) is nulled against
    (i, j+1) for j = 0 .. i-1, so every cell mixes columns j and j+1.  Cell
    (i, j) only waits for cells on those columns, which puts it in layer
    j + 2(n-1-i) + 1 of 2n-3.  A layer's entries (i, j) and (i, j+1) are read
    as two strided views of the working matrix and solved with
    ``solve_t_layer``; its cells are applied as one batched 2x2 product and
    listed layer by layer, by column within a layer.
    Entries already below 1e-14 are skipped, so the factor count is at most
    n(n-1)/2.  If none is skipped, these layers are the ASAP schedule, and
    the factorization keeps them as its layer plan; otherwise later cells
    may move up, and the mesh is planned ASAP on first use.
    Permutation-like inputs are no longer short: each 1 walks to the
    diagonal through swap cells (omega = 0), one per inversion, so the
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
    if not _parts_within_one(m):  # bounds the Gram product: no overflow
        raise ValueError("input is not unitary (an entry exceeds 1 in modulus)")
    dev = unitarity_deviation(m)
    if not dev <= UNITARY_TOL:
        raise ValueError(f"input is not unitary (deviation {dev:.3e} > {UNITARY_TOL:g})")

    w = m.T.copy()  # row j of w is column j of the working matrix
    flat = w.reshape(-1)
    step = 2 * n + 1  # from w[j, i] to w[j+2, i+1], the next cell of a layer
    cells = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    plan, k = [], 0  # each layer's (layer, TWO, where, lo, hi), while no cell is skipped
    for layer in range(1, 2 * n - 2):
        top = (layer - 1) // 2  # the layer's cells sit in rows i = n-1-r, r <= top
        count = top - max(0, layer - n + 1) + 1
        j0 = layer - 1 - 2 * top  # lowest column; columns step up by 2, rows by 1
        at = j0 * n + n - 1 - top
        stop = at + count * step
        keep, omega, phi = solve_t_layer(flat[at:stop:step], flat[at + n : stop + n : step])
        kept = np.count_nonzero(keep)
        j = np.arange(j0, j0 + 2 * count, 2)
        where = slice(j0, j0 + 2 * count)
        if kept < count:
            plan = None
            if not kept:
                continue
            j, omega, phi = j[keep], omega[keep], phi[keep]
            where = np.stack((j, j + 1), axis=1)
        elif plan is not None:
            plan.append((layer, TWO, where, k, k + count))
            k += count
        (a, b), (c, d) = _t_block(omega, phi)
        _apply_pairs(w, where, _stack(((a, c), (b, d))))  # columns times T: rows times T^T
        cells.append((j, omega, phi))

    angles = np.angle(np.diagonal(w))
    drift = float(np.max(np.abs(w - np.diag(np.exp(1j * angles)))))
    if drift > UNITARY_TOL:
        raise ValueError(f"elimination left a residual {drift:.3e} off a unit-modulus diagonal")
    p, omega, phi = (np.concatenate(x) for x in zip(*cells))
    # Skipped cells let later cells move up, so only a full triangle hands over its layers, in list order.
    return Factorization._from_columns(
        n, plan=None if plan is None else (None, plan), p=p, q=p + 1, omega=omega, phi=phi, diagonal=-angles
    )


def reconstruct(f: Factorization) -> np.ndarray:
    """Rebuild the unitary: D^dagger @ T_K^dagger @ ... @ T_1^dagger, T_1^dagger applied first."""
    out = np.eye(f.dim, dtype=np.complex128)
    apply_layers(out, f._steps)
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
    """A factorization from its file, every rule checked once, with the angle rules of ``TParams``."""
    dim = read_int(payload["dim"])
    if dim > MAX_FILE_DIM:
        raise ValueError(f"factorization dim {dim} exceeds the limit of {MAX_FILE_DIM}")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    items = read_array(payload["factors"])
    limit = dim * (dim - 1) // 2
    if len(items) > limit:
        raise ValueError(f"{len(items)} factors exceed the n(n-1)/2 = {limit} bound")
    p = np.array([read_int(item["p"]) for item in items], dtype=np.int64)
    q = np.array([read_int(item["q"]) for item in items], dtype=np.int64)
    bad = np.flatnonzero((p < 1) | (p >= q) | (q > dim))
    if bad.size:
        raise ValueError(f"file ports ({p[bad[0]]}, {q[bad[0]]}) invalid for dim {dim} (1-based)")
    omega = _checked_mixings(np.array([read_real(item["omega"]) for item in items]))
    phi = _checked_phases(np.array([read_real(item["phi"]) for item in items]))
    diagonal = np.array([read_real(d) for d in read_array(payload["diagonal"])])
    if diagonal.size != dim:
        raise ValueError(f"diagonal length {diagonal.size} does not match dim {dim}")
    if not np.isfinite(diagonal).all():
        raise ValueError("diagonal phase must be finite")  # not wrapped: decompose may store -pi
    return Factorization._from_columns(dim, p=p - 1, q=q - 1, omega=omega, phi=phi, diagonal=diagonal)


def save_factorization(path, f: Factorization) -> None:
    write_json(path, factorization_to_payload(f))


def load_factorization(path) -> Factorization:
    return read_json(path, factorization_from_payload)
