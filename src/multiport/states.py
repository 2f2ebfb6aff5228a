"""Canonical entangled states, their density operators, and preparation
unitaries.

Index convention for composite vectors is row-major: the amplitude of
basis term e_i (x) e_j (x) e_k sits at flat index d^2*(i) + d*(j) + k
with 0-based i, j, k.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations

import numpy as np

from .numerics import _is_unit, as_vector, complete_to_unitary, dyadic, load_matrix

__all__ = [
    "bell_state",
    "qutrit2_singlet",
    "qutrit3_singlet",
    "state_operator",
    "preparation_unitary",
    "resolve_state",
    "STATE_NAMES",
]

# One constant per square-root family, reused by everything in the package
# (and by the test fixtures) so that identical amplitudes are identical
# floats, not merely close ones.
RSQRT2 = np.sqrt(0.5)
RSQRT3 = 1.0 / np.sqrt(3.0)
RSQRT6 = 1.0 / np.sqrt(6.0)

# Most entries of a state read from a file: completing it to a unitary costs
# an n x n matrix and O(n^3) time, before the mesh compile that follows.
MAX_STATE_DIM = 1024

_BELL_PATTERNS = {
    1: (1.0, 0.0, 0.0, 1.0),
    2: (1.0, 0.0, 0.0, -1.0),
    3: (0.0, 1.0, 1.0, 0.0),
    4: (0.0, 1.0, -1.0, 0.0),
}


def bell_state(k: int) -> np.ndarray:
    """The k-th Bell state (k = 1..4) as a 4-vector.

    1: (e11 + e22)/sqrt2   2: (e11 - e22)/sqrt2
    3: (e12 + e21)/sqrt2   4: (e12 - e21)/sqrt2 (the two-qubit singlet)
    """
    if k not in _BELL_PATTERNS:
        raise ValueError(f"Bell state index must be 1..4, got {k!r}")
    return RSQRT2 * np.array(_BELL_PATTERNS[k], dtype=np.complex128)


def qutrit2_singlet() -> np.ndarray:
    """Two-qutrit singlet (e13 - e22 + e31)/sqrt3 as a 9-vector."""
    v = np.zeros(9, dtype=np.complex128)
    v[2] = RSQRT3
    v[4] = -RSQRT3
    v[6] = RSQRT3
    return v


_PERM_SIGN = {
    (0, 1, 2): 1.0,
    (1, 2, 0): 1.0,
    (2, 0, 1): 1.0,
    (0, 2, 1): -1.0,
    (2, 1, 0): -1.0,
    (1, 0, 2): -1.0,
}


def qutrit3_singlet() -> np.ndarray:
    """Three-qutrit singlet as a 27-vector: -(1/sqrt6) * Levi-Civita.

    Totally antisymmetric; the six nonzero amplitudes are +-1/sqrt6 at the
    permutations of (0, 1, 2).
    """
    v = np.zeros(27, dtype=np.complex128)
    for perm in permutations((0, 1, 2)):
        i, j, k = perm
        v[9 * i + 3 * j + k] = -_PERM_SIGN[perm] * RSQRT6
    return v


def state_operator(psi) -> np.ndarray:
    """Density operator |psi><psi| of a normalized pure state."""
    v = as_vector(psi)
    if not _is_unit(v):
        raise ValueError("state must be normalized")
    return dyadic(v)


def preparation_unitary(psi, input_port: int = 0) -> np.ndarray:
    """Unitary sending the computational basis vector at ``input_port`` to psi.

    Column ``input_port`` (0-based) equals psi exactly; the other columns
    are a deterministic orthonormal completion.  ``complete_to_unitary``
    checks psi.
    """
    return complete_to_unitary(psi, input_port)


# The named states, in the order ``STATE_NAMES`` lists them: the one table
# that resolution and the command-line help read.
_STATES = {
    **{f"bell{k}": partial(bell_state, k) for k in _BELL_PATTERNS},
    "qutrit2-singlet": qutrit2_singlet,
    "qutrit3-singlet": qutrit3_singlet,
}
STATE_NAMES = tuple(_STATES)


def resolve_state(spec: str) -> np.ndarray:
    """Resolve a state spec string to a normalized vector.

    Accepts a name from ``STATE_NAMES``, spelled exactly, or ``@path.json``
    pointing at a matrix file with a single column of at most
    ``MAX_STATE_DIM`` entries.
    """
    spec = spec.strip()
    if spec.startswith("@"):
        m = load_matrix(spec[1:])
        if m.shape[1] != 1:
            raise ValueError(f"state file must hold a single column, got {m.shape}")
        if m.shape[0] > MAX_STATE_DIM:
            raise ValueError(f"state file of {m.shape[0]} entries exceeds the limit of {MAX_STATE_DIM}")
        v = as_vector(m)
        if not _is_unit(v):
            raise ValueError("state loaded from file is not normalized")
        return v
    if spec not in _STATES:
        raise ValueError(f"unknown state spec {spec!r}; known: {', '.join(STATE_NAMES)} or @file.json")
    return _STATES[spec]()
