"""Factor an n x n unitary into two-port cells and a phase layer.

``decompose`` right-multiplies the working matrix by embedded elimination
cells until only a unit-modulus diagonal is left, then records that diagonal
as phases.  ``reconstruct`` rebuilds the original unitary from the factors,
so ``reconstruct(decompose(u)) == u`` to float accuracy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .devices import TParams, _t_block, apply_two_port
from .numerics import as_matrix, read_json, unitarity_deviation, write_json

__all__ = [
    "TFactor",
    "Factorization",
    "solve_t_params",
    "decompose",
    "reconstruct",
    "embed_two_port",
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


@dataclass(frozen=True)
class Factorization:
    """Ordered cell factors plus the final diagonal, stored as phases.

    The defining identity is ``u @ T_1 @ ... @ T_K @ D == I`` where
    ``D = diag(exp(i * diagonal))``; equivalently
    ``u == D^dagger @ T_K^dagger @ ... @ T_1^dagger``.
    """

    dim: int
    factors: tuple[TFactor, ...]
    diagonal: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "diagonal", tuple(float(d) for d in self.diagonal))
        if len(self.diagonal) != self.dim:
            raise ValueError(
                f"diagonal length {len(self.diagonal)} does not match dim {self.dim}"
            )
        limit = self.dim * (self.dim - 1) // 2
        if len(self.factors) > limit:
            raise ValueError(f"{len(self.factors)} factors exceed the n(n-1)/2 = {limit} bound")
        for f in self.factors:
            if f.q >= self.dim:
                raise ValueError(f"factor ports ({f.p}, {f.q}) out of range for dim {self.dim}")


def solve_t_params(a: complex, b: complex) -> Optional[TParams]:
    """Cell parameters nulling ``a`` against ``b``: sin(w)a + e^{-if}cos(w)b = 0.

    Returns None (skip) when ``a`` is already negligible.  When ``b`` is
    negligible any phase works and phi is fixed to 0.
    """
    a = complex(a)
    b = complex(b)
    if abs(a) <= SKIP_TOL:
        return None
    omega = math.atan2(abs(b), abs(a))
    if abs(b) <= SKIP_TOL:
        return TParams(omega=omega, phi=0.0)
    phi = cmath.phase(b) - cmath.phase(a) - math.pi
    return TParams(omega=omega, phi=phi)


def embed_two_port(n: int, p: int, q: int, block) -> np.ndarray:
    """Identity on n ports with ``block`` written into rows/cols (p, q)."""
    if not 0 <= p < q < n:
        raise ValueError(f"ports ({p}, {q}) invalid for dimension {n}")
    b = as_matrix(block)
    if b.shape != (2, 2):
        raise ValueError("block must be 2x2")
    m = np.eye(n, dtype=np.complex128)
    apply_two_port(m, p, q, b)
    return m


def decompose(u) -> Factorization:
    """Eliminate below-diagonal entries of a unitary row by row.

    Rows are processed bottom-up; within a row, columns left to right.  The
    cell for entry (i, j) mixes columns j and i against the diagonal entry
    (i, i).  Entries already below 1e-14 are skipped, so the factor count is
    at most n(n-1)/2 and diagonal/permutation-like inputs come out shorter.
    The input's Gram deviation, and after elimination the residual's distance
    from a unit-modulus diagonal, must stay within ``UNITARY_TOL``.

    The factors always describe an exactly unitary mesh, so an input with Gram
    deviation d is reproduced only to about d/2: inputs with d in
    (2e-10, 1e-9] are accepted but miss the 1e-10 round-trip contract.  For
    ``u * (1 + 4e-10)`` (d = 8e-10) ``reconstruct`` is off by 3.3e-10 on a
    dense 6x6 unitary and by 4.0e-10 on a diagonal one.
    """
    m = as_matrix(u).copy()
    n, c = m.shape
    if n != c:
        raise ValueError(f"can only decompose square matrices, got {n}x{c}")
    dev = unitarity_deviation(m)
    if dev > UNITARY_TOL:
        raise ValueError(f"input is not unitary (deviation {dev:.3e} > {UNITARY_TOL:g})")

    factors: list[TFactor] = []
    for i in range(n - 1, 0, -1):
        for j in range(i):
            t = solve_t_params(m[i, j], m[i, i])
            if t is None:
                continue
            factors.append(TFactor(p=j, q=i, params=t))
            (a, b), (c, d) = _t_block(t.omega, t.phi)
            apply_two_port(m.T, j, i, ((a, c), (b, d)))

    angles = np.angle(np.diagonal(m))
    drift = float(np.max(np.abs(m - np.diag(np.exp(1j * angles)))))
    if drift > UNITARY_TOL:
        raise ValueError(f"elimination left a residual {drift:.3e} off a unit-modulus diagonal")
    return Factorization(dim=n, factors=tuple(factors), diagonal=tuple(float(-a) for a in angles))


def reconstruct(f: Factorization) -> np.ndarray:
    """Rebuild the unitary: D^dagger @ T_K^dagger @ ... @ T_1^dagger, T_1^dagger applied first."""
    out = np.eye(f.dim, dtype=np.complex128)
    for fac in f.factors:
        (a, b), (c, d) = _t_block(fac.params.omega, fac.params.phi)  # a, b are real
        apply_two_port(out, fac.p, fac.q, ((a, c.conjugate()), (b, d.conjugate())))
    out *= np.exp(-1j * np.asarray(f.diagonal))[:, None]
    return out


# --- JSON persistence ---------------------------------------------------
#
# Files carry 1-based ports: {"dim": n, "factors": [{"p": .., "q": ..,
# "omega": .., "phi": ..}, ...], "diagonal": [..]}.


def factorization_to_payload(f: Factorization) -> dict:
    return {
        "dim": f.dim,
        "factors": [
            {
                "p": fac.p + 1,
                "q": fac.q + 1,
                "omega": float(fac.params.omega),
                "phi": float(fac.params.phi),
            }
            for fac in f.factors
        ],
        "diagonal": [float(d) for d in f.diagonal],
    }


def factorization_from_payload(payload: dict) -> Factorization:
    dim = int(payload["dim"])
    diagonal = tuple(float(d) for d in payload["diagonal"])
    factors = []
    for item in payload["factors"]:
        p = int(item["p"])
        q = int(item["q"])
        if not 1 <= p < q <= dim:
            raise ValueError(f"file ports ({p}, {q}) invalid for dim {dim} (1-based)")
        factors.append(
            TFactor(p=p - 1, q=q - 1, params=TParams(float(item["omega"]), float(item["phi"])))
        )
    return Factorization(dim=dim, factors=tuple(factors), diagonal=diagonal)


def save_factorization(path, f: Factorization) -> None:
    write_json(path, factorization_to_payload(f))


def load_factorization(path) -> Factorization:
    return read_json(path, factorization_from_payload)
