"""Single-particle observables, tensor products, and analyzer unitaries.

An observable is specified by a real rotation (whose transposed columns are
the eigenvectors) and an eigenvalue label per eigenvector.  The analyzer
unitary for a multi-particle product observable maps the state space to
output ports so that port r collects the amplitude of the r-th joint
eigenvector; its rows are the conjugated joint eigenvectors, which are the
rows of ``kron(R_1, ..., R_k).conj()`` in the order below.

Row order is descending lexicographic over the per-particle eigenvector
indices ("reversed_lex", the default) or ascending ("forward_lex").  Labels
never influence row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Optional

import numpy as np

from .numerics import _TOL, _is_unit, _parts_within_one, as_matrix, as_vector, kron, read_int, read_real

__all__ = [
    "ObservableSpec",
    "TensorObservable",
    "AnalyzerUnitary",
    "PortDistribution",
    "default_labels",
    "identity_spec",
    "rotation_plane",
    "rotated_observable",
    "tensor_observable",
    "analyzer_unitary",
    "predict_ports",
    "verify_eigenbasis",
    "parse_obs_spec",
]

ORDERINGS = ("reversed_lex", "forward_lex")
_PARTICLE_DIMS = (2, 3)


def default_labels(dim: int) -> tuple[float, ...]:
    """Default eigenvalue labels 1, 0, -1, ... of a particle: (1, 0) for dim 2, (1, 0, -1) for dim 3."""
    if dim not in _PARTICLE_DIMS:
        raise ValueError(f"no default labels for dimension {dim}")
    return (1.0, 0.0, -1.0)[: int(dim)]


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """One tensor slot: a rotation and eigenvalue labels.

    ``rotation=None`` means the identity rotation (standard-basis
    eigenvectors).  ``labels=None`` marks an identity slot -- it carries no
    eigenvalue labels of its own and contributes a factor 1 to every joint
    eigenvalue; the pairwise-distinct rule does not apply to it.
    """

    dim: int
    rotation: Optional[np.ndarray] = None
    labels: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "dim", read_int(self.dim))
        if self.dim not in _PARTICLE_DIMS:
            raise ValueError(f"particle dimension must be 2 or 3, got {self.dim}")
        if self.rotation is not None:
            r = as_matrix(self.rotation)
            if r.shape != (self.dim, self.dim):
                raise ValueError(f"rotation shape {r.shape} does not match dim {self.dim}")
            if np.abs(r.imag).max() > 1e-12:
                raise ValueError("rotation must be real")
            if not _parts_within_one(r) or np.abs(r @ r.T - np.eye(self.dim)).max() > 1e-12:
                raise ValueError("rotation must be orthogonal (R R^T = I within 1e-12)")
            r = r.copy()  # the spec's own, so no later write by the caller reaches it
            r.flags.writeable = False
            object.__setattr__(self, "rotation", r)
        if self.labels is not None:
            labs = tuple(map(read_real, self.labels))
            if len(labs) != self.dim:
                raise ValueError(f"need {self.dim} labels, got {len(labs)}")
            if any(not math.isfinite(x) for x in labs):
                raise ValueError("labels must be finite")
            if len(set(labs)) != len(labs):
                raise ValueError("labels must be pairwise distinct")
            object.__setattr__(self, "labels", labs)

    def rotation_or_identity(self) -> np.ndarray:
        if self.rotation is None:
            return np.eye(self.dim, dtype=np.complex128)
        return self.rotation

    def label_values(self) -> tuple[float, ...]:
        """Labels, with the all-ones convention for identity slots."""
        if self.labels is None:
            return (1.0,) * self.dim
        return self.labels


def identity_spec(dim: int) -> ObservableSpec:
    """Identity tensor slot of the given dimension."""
    return ObservableSpec(dim=dim, rotation=None, labels=None)


def rotation_plane(dim: int, axis_pair: tuple[int, int], theta: float) -> np.ndarray:
    """Rotation by theta in the (a, b) coordinate plane, axes 1-based.

    The 1-based axes follow the usual R12/R23 naming: rotation_plane(3,
    (1, 2), t) rotates the first two coordinates and leaves the third alone.
    A non-finite ``theta`` raises ValueError.
    """
    dim = read_int(dim)
    a, b = map(read_int, axis_pair)
    if not 1 <= a < b <= dim:
        raise ValueError(f"axes ({a}, {b}) invalid: need 1 <= a < b <= {dim}")
    theta = read_real(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    r = np.eye(dim, dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    i, j = a - 1, b - 1
    r[i, i] = c
    r[i, j] = s
    r[j, i] = -s
    r[j, j] = c
    return r


def rotated_observable(spec: ObservableSpec) -> np.ndarray:
    """Hermitian matrix R^T diag(labels) R of a single tensor slot."""
    r = spec.rotation_or_identity()
    return r.T @ np.diag(np.asarray(spec.label_values(), dtype=np.complex128)) @ r


@dataclass(frozen=True, eq=False)
class TensorObservable:
    """A product observable: its slots and the assembled matrix."""

    parts: tuple[ObservableSpec, ...]
    matrix: np.ndarray = field(repr=False)
    dim: int

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.dim for p in self.parts)


def _slots(parts) -> tuple[ObservableSpec, ...]:
    """The slots of a product observable, 1 to 3 of them."""
    parts = tuple(parts)
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"expected 1..3 tensor slots, got {len(parts)}")
    return parts


def tensor_observable(parts) -> TensorObservable:
    """Kronecker product of the slot observables, in the given order."""
    parts = _slots(parts)
    m = reduce(kron, [rotated_observable(p) for p in parts])
    return TensorObservable(parts=parts, matrix=m, dim=m.shape[0])


@dataclass(frozen=True, eq=False)
class AnalyzerUnitary:
    """Analyzer matrix together with the joint labels of each output port."""

    matrix: np.ndarray = field(repr=False)
    outcome_labels: tuple[tuple[float, ...], ...]
    ordering: str
    dims: tuple[int, ...]


def analyzer_unitary(parts, ordering: str = "reversed_lex") -> AnalyzerUnitary:
    """Analyzer for a product observable.

    Row r is the conjugated joint eigenvector for the r-th multi-index in
    the requested lexicographic order; ``outcome_labels[r]`` holds the
    per-particle labels of that row (identity slots contribute 1.0).
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")
    parts = _slots(parts)
    matrix = reduce(kron, [p.rotation_or_identity() for p in parts]).conj()
    outcome = list(product(*[p.label_values() for p in parts]))  # ascending lex
    if ordering == "reversed_lex":
        matrix = matrix[::-1].copy()
        outcome.reverse()

    dims = tuple(p.dim for p in parts)
    return AnalyzerUnitary(
        matrix=matrix, outcome_labels=tuple(outcome), ordering=ordering, dims=dims
    )


@dataclass(frozen=True, eq=False)
class PortDistribution:
    """Output-port amplitudes and probabilities of one analyzer run."""

    amplitudes: tuple[complex, ...]
    probabilities: tuple[float, ...]


def predict_ports(analyzer: AnalyzerUnitary, psi) -> PortDistribution:
    """Port statistics for a normalized input state."""
    v = as_vector(psi)
    n = analyzer.matrix.shape[0]
    if v.size != n:
        raise ValueError(f"state dimension {v.size} does not match analyzer dimension {n}")
    if not _is_unit(v):
        raise ValueError("state must be normalized")
    amps = analyzer.matrix @ v
    probs = np.abs(amps) ** 2
    total = float(np.sum(probs))
    if abs(total - 1.0) > _TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_TOL:g}")
    return PortDistribution(
        amplitudes=tuple(complex(a) for a in amps),
        probabilities=tuple(float(p) for p in probs),
    )


def verify_eigenbasis(obs: TensorObservable, analyzer: AnalyzerUnitary) -> np.ndarray:
    """Check that the analyzer diagonalizes the observable; return the diagonal.

    Raises ValueError if A O A^dagger has off-diagonal mass above 1e-10 or
    if the diagonal does not equal the per-row products of the analyzer's
    outcome labels within 1e-10 (i.e. the analyzer belongs to a different
    observable).
    """
    a = analyzer.matrix
    if obs.matrix.shape != a.shape:
        raise ValueError(
            f"observable dim {obs.matrix.shape} does not match analyzer {a.shape}"
        )
    m = a @ obs.matrix @ a.conj().T
    diag = np.diagonal(m)
    off = float(np.max(np.abs(m - np.diag(diag))))
    if off > _TOL:
        raise ValueError(f"analyzer does not diagonalize the observable (off-diag {off:.3e})")
    values = diag.real.copy()
    expected = np.array([math.prod(t) for t in analyzer.outcome_labels], dtype=np.float64)
    err = float(np.max(np.abs(values - expected)))
    if err > _TOL:
        raise ValueError(
            f"diagonal does not match the analyzer's outcome-label products (max err {err:.3e})"
        )
    return values


# --- CLI-facing observable spec strings ----------------------------------
#
# One segment per particle, joined by "|".  Within a segment, ";"-separated
# fields: "plane=a,b", "theta=<radians>", "labels=v1,v2[,v3]", or the single
# field "id" for an identity slot, each field at most once.  Angles are
# decimal radians.


def _parse_segment(seg: str, dim: int) -> ObservableSpec:
    fields = [f.strip() for f in seg.strip().split(";") if f.strip()]
    if not fields:
        raise ValueError("empty observable segment")
    if fields == ["id"]:
        return identity_spec(dim)

    plane: Optional[tuple[int, int]] = None
    theta: Optional[float] = None
    labels = default_labels(dim)
    seen = set()
    for f in fields:
        key, eq, val = f.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "id" and not eq:
            raise ValueError("'id' cannot be combined with other fields")
        if not eq:
            raise ValueError(f"malformed observable field {f!r}")
        if key in seen:
            raise ValueError(f"repeated observable field {key!r}")
        seen.add(key)
        if key == "plane":
            try:
                a, b = (int(x) for x in val.split(","))
            except ValueError:
                raise ValueError(f"plane wants two comma-separated axes, got {val!r}") from None
            plane = (a, b)
        elif key == "theta":
            theta = float(val)
        elif key == "labels":
            labels = tuple(float(x) for x in val.split(","))
        else:
            raise ValueError(f"unknown observable field {key!r}")
    if plane is None and theta is not None:
        raise ValueError("theta needs plane")
    rotation = rotation_plane(dim, plane, 0.0 if theta is None else theta) if plane is not None else None
    return ObservableSpec(dim=dim, rotation=rotation, labels=labels)


def parse_obs_spec(text: str, state_dim: int) -> tuple[ObservableSpec, ...]:
    """Parse a per-particle observable spec against a known state dimension.

    The particle dimension is inferred as the P-th root of the state
    dimension (P = number of "|"-joined segments) and must be 2 or 3.
    """
    segments = text.split("|")
    n_parts = len(segments)
    dim = round(state_dim ** (1.0 / n_parts))
    if dim**n_parts != state_dim or dim not in _PARTICLE_DIMS:
        raise ValueError(
            f"cannot split state dimension {state_dim} into {n_parts} particles of equal "
            "dimension 2 or 3"
        )
    return tuple(_parse_segment(seg, dim) for seg in segments)
