"""Dense complex linear algebra helpers shared by the rest of the package.

Everything operates on plain ``numpy`` arrays with ``complex128`` entries.
The implementations favor readability over sparsity tricks.  The module
also owns the JSON file rules: ``read_json`` refuses a field given twice,
and ``read_int``, ``read_real``, ``read_str``, ``read_array`` and
``read_object`` hold each kind of value a file gives, ``read_object`` the
fields every object of every format needs and takes.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from typing import Union

import numpy as np

__all__ = [
    "kron",
    "dyadic",
    "unitarity_deviation",
    "commutator",
    "random_unitary",
    "complete_to_unitary",
    "equal_up_to_global_phase",
    "save_matrix",
    "load_matrix",
]

ArrayLike = Union[np.ndarray, list, tuple]

_TOL = 1e-10  # the accuracy contract: what the package returns, and each check of a configuration, is held to it


def as_matrix(m: ArrayLike) -> np.ndarray:
    """Coerce ``m`` to a finite complex 2-d array (no copy when possible)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v: ArrayLike) -> np.ndarray:
    """Coerce ``v`` to a finite complex 1-d array; accepts n x 1 / 1 x n."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim == 2 and 1 in a.shape:
        a = a.reshape(-1)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got an array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def kron(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Kronecker product in row-major convention (delegates to numpy)."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def dyadic(v: ArrayLike) -> np.ndarray:
    """Projector |v><v| onto a nonzero vector ``v``."""
    a = as_vector(v)
    if np.linalg.norm(a) == 0.0:
        raise ValueError("dyadic of the zero vector is undefined")
    return np.outer(a, a.conj())


def unitarity_deviation(m: ArrayLike) -> float:
    """Max-norm distance of ``m``'s Gram matrix from the identity.

    Returns ``max |m^dagger m - I|`` entrywise; 0 for an exactly unitary
    matrix.  Raises ValueError for non-square or empty input.
    """
    a = as_matrix(m)
    n, c = a.shape
    if n != c:
        raise ValueError(f"unitarity is defined for square matrices, got {n}x{c}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    gram = a.conj().T @ a
    return float(np.max(np.abs(gram - np.eye(n))))


def commutator(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Matrix commutator ``a @ b - b @ a`` for same-shape square matrices."""
    x = as_matrix(a)
    y = as_matrix(b)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise ValueError(f"commutator needs equal square shapes, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic for a given seed.

    Ginibre matrix -> QR, with the R-diagonal phase fix that makes the
    distribution Haar and the output independent of LAPACK sign choices.
    """
    n = read_int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d)).conj()
    return q


_PART_BOUND = 1.0 + 1e-9  # no part of an entry of a unit vector or a unitary exceeds 1; no norm of such parts overflows


def _parts_within_one(a: np.ndarray) -> bool:
    """Whether no real or imaginary part of ``a`` exceeds 1 + 1e-9 in size (a NaN part does)."""
    parts = np.ascontiguousarray(a).view(np.float64)  # real and imaginary parts side by side
    return bool(np.maximum.reduce(np.abs(parts), axis=None, initial=0.0) <= _PART_BOUND)


def _unit_rows(rows: np.ndarray) -> list[bool]:
    """The unit-vector rule on each row of a 2-D array: the part bound, then |norm - 1| <= 1e-10.

    The bound comes first, so that no norm overflows: once over all rows,
    and row by row only where that fails.
    """
    bounded = _parts_within_one(rows)
    return [(bounded or _parts_within_one(r)) and abs(math.sqrt(np.vdot(r, r).real) - 1.0) <= _TOL for r in rows]


def _is_unit(v: np.ndarray) -> bool:
    """The unit-vector rule on one vector."""
    return _unit_rows(v[None])[0]


_GS_DROP = 1e-8  # candidates with shorter residuals are linearly dependent


def complete_to_unitary(column: ArrayLike, position: int) -> np.ndarray:
    """Extend a unit vector to a full unitary with that vector as one column.

    The given ``column`` is placed at index ``position`` (0-based).  The
    remaining columns are produced by modified Gram-Schmidt over the standard
    basis vectors taken in index order, dropping candidates whose residual
    norm falls below 1e-8; accepted vectors fill the remaining column slots
    in ascending index order.  Fully deterministic.
    """
    v = as_vector(column)
    n = v.size
    position = read_int(position)
    if not 0 <= position < n:
        raise ValueError(f"column position {position} out of range for dimension {n}")
    if not _is_unit(v):
        raise ValueError("column must have unit norm")

    cols = [v]
    for k in range(n):
        if len(cols) == n:
            break
        cand = np.zeros(n, dtype=np.complex128)
        cand[k] = 1.0
        for u in cols:
            cand = cand - u * np.vdot(u, cand)
        norm = np.linalg.norm(cand)
        if norm < _GS_DROP:
            continue
        cols.append(cand / norm)
    if len(cols) < n:
        raise ValueError("failed to complete an orthonormal basis")  # pragma: no cover

    out = np.empty((n, n), dtype=np.complex128)
    slots = [position] + [i for i in range(n) if i != position]
    for slot, col in zip(slots, cols):
        out[:, slot] = col
    return out


def equal_up_to_global_phase(a: ArrayLike, b: ArrayLike, tol: float = _TOL) -> bool:
    """True iff ``a == c * b`` entrywise within ``tol`` for some |c| = 1.

    The one-row case of ``rows_equal_up_to_global_phase``, over all entries.
    """
    x = np.asarray(a, dtype=np.complex128)
    y = np.asarray(b, dtype=np.complex128)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return bool(rows_equal_up_to_global_phase(x.reshape(1, -1), y.reshape(1, -1), tol)[0])


def rows_equal_up_to_global_phase(a: ArrayLike, b: ArrayLike, tol: float = _TOL) -> np.ndarray:
    """For two (k, n) arrays, whether ``a[r] == c_r * b[r]`` within ``tol`` for some |c_r| = 1.

    Each row's candidate phase is read off at the entry where |a| + |b| is
    largest; when either entry there is below ``tol`` the rows are compared
    directly (only near-zero rows can still match).  Rows of no entries match.
    """
    x = np.asarray(a, dtype=np.complex128)
    y = np.asarray(b, dtype=np.complex128)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError(f"need two (k, n) arrays, got {x.shape} and {y.shape}")
    if x.shape[1] == 0:
        return np.ones(x.shape[0], dtype=bool)
    at = (np.arange(x.shape[0]), (np.abs(x) + np.abs(y)).argmax(axis=1))
    xi, yi = x[at], y[at]
    direct = (np.abs(xi) <= tol) | (np.abs(yi) <= tol)
    c = np.where(direct, 1.0, xi / np.where(direct, 1.0, yi))
    c = c / np.abs(c)
    return np.abs(x - c[:, None] * y).max(axis=1) <= tol


# --- JSON persistence ---------------------------------------------------


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8: the package's one file writer."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    """Write ``payload`` as one JSON text; ``json.dumps`` runs json's C encoder, ``json.dump`` does not."""
    write_text(path, json.dumps(payload))


def _unique_fields(pairs: list) -> dict:
    """A JSON object from its ``(field, value)`` pairs; a field given twice raises ValueError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(k for k, _ in pairs)
        raise ValueError(f"repeated field {next(k for k in counts if counts[k] > 1)!r}")
    return obj


def read_json(path, from_payload):
    """Build an object from a JSON file with ``from_payload``.

    A field given twice in one object raises ValueError naming it, and so
    does an object without a field it needs or with one it does not take
    (``read_object``).  A file whose structure does not fit in another way
    -- a number where a list or an object belongs, nesting too deep to parse
    -- raises ValueError too, like a bad value does.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=_unique_fields)
        return from_payload(payload)
    except (LookupError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed file {path} ({type(exc).__name__}: {exc})") from exc


# Matrix files: {"rows": R, "cols": C, "entries": [[re, im], ...]} with the
# entries flattened in row-major order.  Floats survive a dump/load round
# trip bitwise (json uses repr, which is shortest-exact for doubles).


def matrix_to_payload(m: ArrayLike) -> dict:
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def read_int(value) -> int:
    """A count, dim or port, from a file or a library caller: ``True``, ``2.0`` and ``"2"`` raise TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"expected an integer, got {type(value).__name__}")


def read_real(value) -> float:
    """A real, from a file or a library caller: ``True`` and ``"0.5"`` raise TypeError."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def read_str(value) -> str:
    """A label or a name read from a file: a JSON string, so ``null``, ``true`` and ``3`` raise TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def read_array(value):
    """An array read from a file: a JSON array, so a string or an object (its characters or keys) raises TypeError."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def read_object(value, what=None, needs=(), takes=frozenset()) -> dict:
    """A JSON object read from a file; given ``what``, with each field of ``needs`` and none but those and ``takes``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    need = frozenset(needs)
    if what and not value.keys() <= need | takes:
        raise ValueError(f"{what} takes no {', '.join(k for k in value if k not in need | takes)}")
    if not value.keys() >= need:
        raise ValueError(f"{what} needs {', '.join(needs)}")
    return value


def read_complex(pair) -> complex:
    """An entry ``[re, im]`` read from a file, by the two rules above."""
    re, im = read_array(pair)
    return complex(read_real(re), read_real(im))


def matrix_from_payload(payload: dict) -> np.ndarray:
    payload = read_object(payload, "matrix", ("rows", "cols", "entries"))
    rows = read_int(payload["rows"])
    cols = read_int(payload["cols"])
    entries = read_array(payload["entries"])
    if rows < 1 or cols < 1:
        raise ValueError("matrix payload must have positive shape")
    if len(entries) != rows * cols:
        raise ValueError(
            f"matrix payload claims {rows}x{cols} but carries {len(entries)} entries"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        flat[i] = read_complex(pair)
    return flat.reshape(rows, cols)


def save_matrix(path, m: ArrayLike) -> None:
    write_json(path, matrix_to_payload(m))


def load_matrix(path) -> np.ndarray:
    return read_json(path, matrix_from_payload)
