"""Rays, measurement contexts, link detection, and orthogonality diagrams.

A context is a maximal set of mutually orthogonal rays (an orthonormal
basis) with one label per ray.  Two contexts are linked where they share a
ray up to a global phase.  ``validate_context_graph`` is total: it returns
a structured report instead of raising, so impossible label structures can
be handed to it and come back flagged.

Every part of a graph is read-only.  A ``Ray`` built by a caller keeps its
own read-only copy of its vector, and a ``Context`` stacks its rays, which
share one size n, once into a read-only ``(k, n)`` matrix.  A context built
from an observable by ``context_of`` stores one read-only matrix only,
copied once from the rotation; its rays' vectors are views of that matrix's
rows.  Links and validation read those matrices: one Gram matrix
``|X* Y^T|`` of two stacks of one size picks the rays they share, and the
validator's Gram matrix over the contexts of the graph's dimension also
gives each context's orthogonality.  The validator reads labels,
shared-ray counts and links from one boolean matrix of the confirmed ray
pairs, not from ray classes: equality within ``LINK_TOL`` is not transitive.
A ``ContextGraph`` keeps the report of its first validation, so
``greechie_dot`` does not validate the same graph again.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .devices import _Rows, _trusted
from .numerics import (
    _TOL,
    _unit_rows,
    as_vector,
    read_array,
    read_complex,
    read_json,
    read_str,
    rows_equal_up_to_global_phase,
    write_json,
)
from .observables import ObservableSpec

__all__ = [
    "Ray",
    "Context",
    "ContextGraph",
    "ValidationReport",
    "context_of",
    "links_between",
    "validate_context_graph",
    "greechie_dot",
    "builtin_graph",
    "BUILTIN_GRAPHS",
    "save_context_graph",
    "load_context_graph",
]

LINK_TOL = 1e-8
MAX_FILE_RAYS = 2048  # most rays read from a file, checked before any Ray: a 64 MB Gram matrix
_CONFIRM_ENTRIES = 1 << 20  # vector entries per candidate-confirming step: 16 MB per temporary


def _check_unit_rows(rows: np.ndarray, labels) -> None:
    """The ray rule on each row of a 2-D array, in order: finite entries, then the unit-vector rule."""
    for label, row, unit in zip(labels, rows, _unit_rows(rows)):
        if not unit:  # a row with NaN or inf fails too
            if not np.isfinite(row).all():
                raise ValueError("vector entries must be finite")
            raise ValueError(f"ray {label!r} must have unit norm")


@dataclass(frozen=True, eq=False)
class Ray:
    """A labeled unit vector (direction in state space), stored read-only.

    A ray built by a caller keeps its own copy of the vector; a ray of a
    context built by ``context_of`` holds a view of one row of its context's
    matrix.
    """

    label: str
    vector: np.ndarray

    def __post_init__(self):
        v = as_vector(np.array(self.vector, dtype=np.complex128))
        _check_unit_rows(v[None], (self.label,))
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "label", str(self.label))


@dataclass(frozen=True, eq=False)
class Context:
    """A named tuple of rays of one size n, stacked once into ``matrix``.

    ``matrix`` is the read-only ``(k, n)`` array of the k rays; rays of
    different sizes raise ValueError, as a ray of the wrong norm does.
    Orthonormality is deliberately NOT enforced here -- building an invalid
    context must be possible so that the validator can report it.
    """

    name: str
    rays: tuple[Ray, ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rays = tuple(self.rays)
        if not rays:
            raise ValueError("a context needs at least one ray")
        if len({r.vector.size for r in rays}) > 1:
            raise ValueError(f"context {self.name!r} mixes ray dimensions")
        matrix = np.array([r.vector for r in rays])
        matrix.flags.writeable = False
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rays)


@dataclass(frozen=True, eq=False)
class ContextGraph:
    """An ordered collection of contexts sharing a label namespace.

    Its parts are read-only, so ``_report``, the report of its validation,
    is built once, on first read; a new graph of the same contexts is
    validated afresh.
    """

    contexts: tuple[Context, ...]

    def __post_init__(self):
        object.__setattr__(self, "contexts", tuple(self.contexts))
        if not self.contexts:
            raise ValueError("a context graph needs at least one context")

    @cached_property
    def _report(self) -> ValidationReport:
        return _validate(self)


def context_of(spec: ObservableSpec, names, name: str = "context") -> Context:
    """Context of an observable: its eigenvectors, labeled by ``names``.

    The context's matrix is one read-only copy of the spec's rotation (row i
    is eigenvector i), and ray i's vector is a read-only view of row i.
    """
    names = tuple(str(x) for x in names)
    if len(names) != spec.dim:
        raise ValueError(f"need {spec.dim} ray names, got {len(names)}")
    matrix = np.array(spec.rotation_or_identity(), dtype=np.complex128, order="C")
    _check_unit_rows(matrix, names)
    matrix.flags.writeable = False
    rays = tuple(_trusted(Ray, label=label, vector=row) for label, row in zip(names, matrix))
    return _trusted(Context, name=name, rays=rays, matrix=matrix)


def _shared_rows(x: np.ndarray, y: np.ndarray | None):
    """Rows of two matrices equal up to phase, and the Gram matrix that found them.

    Returns ``(p, q, gram)``: index arrays, row-major, with ``x[p]`` equal to
    ``y[q]`` up to phase, and ``gram = |X* Y^T|``.  ``y=None`` pairs ``x``
    with itself and keeps ``p < q``.  The Gram matrix only prefilters: a pair
    equal within ``tol = LINK_TOL`` entrywise has ``||x - c y||^2 <= n tol^2``,
    so for norms 1 +- 1e-10 its entry is at least ``1 - n tol^2 / 2 - 1e-9``.
    At ``tol = 1e-8`` the gap ``1 - |<x, y>|`` is below double rounding, so the
    candidates are confirmed with ``rows_equal_up_to_global_phase``, in steps
    of at most ``_CONFIRM_ENTRIES`` vector entries.
    """
    n = x.shape[1]
    upper = y is None
    if upper:
        y = x
    gram = np.abs(x.conj() @ y.T)
    hit = gram >= 1.0 - n * LINK_TOL * LINK_TOL / 2 - 1e-9
    p, q = (np.triu(hit, 1) if upper else hit).nonzero()
    if p.size:
        step = max(1, _CONFIRM_ENTRIES // n)
        ok = np.empty(p.size, dtype=bool)
        for lo in range(0, p.size, step):
            part = slice(lo, lo + step)
            ok[part] = rows_equal_up_to_global_phase(x[p[part]], y[q[part]], LINK_TOL)
        p, q = p[ok], q[ok]
    return p, q, gram


def links_between(c1: Context, c2: Context) -> list[tuple[Ray, Ray]]:
    """Pairs of rays shared (up to global phase) between two contexts, row-major.

    Contexts of different dimensions share no ray.
    """
    if c1.dim != c2.dim:
        return []
    p, q, _ = _shared_rows(c1.matrix, c2.matrix)
    return [(c1.rays[i], c2.rays[j]) for i, j in zip(p.tolist(), q.tolist())]


@dataclass(frozen=True)
class ValidationReport:
    """Verdict, violations, and the graph's links.

    A link ``(a, b, i, j)``, a < b, says that ray i of context a equals ray j
    of context b up to phase.  Links are sorted; contexts of another
    dimension than the graph's have none.  The validator's ``links`` is a
    read-only sequence over one read-only int array of the sorted links: its
    length comes from the array, and each link tuple is built only when it
    is read.  It compares equal to the tuple of its links, and is not a tuple.
    """

    ok: bool
    violations: tuple[str, ...]
    links: Sequence[tuple[int, int, int, int]] = ()


def _link(a, b, i, j) -> tuple[int, int, int, int]:
    return a, b, i, j


def validate_context_graph(graph: ContextGraph) -> ValidationReport:
    """Structural checks on a context graph; never raises.

    The graph's dimension d is that of its first context.  Flags: contexts
    of another dimension (one line each, and nothing more about them),
    non-orthonormal or wrong-size contexts, duplicate labels inside a
    context, one label naming two different rays, two labels naming the same
    ray, and (d >= 2) two distinct contexts sharing more than d - 2 rays,
    which no two distinct orthonormal bases can.  The graph keeps the
    report, and a second call returns it.

    Labels, shared-ray counts and links come from one same-ray matrix of
    the ray pairs that one Gram pass over the dimension-d contexts confirms.
    Rays a = b and b = c within ``LINK_TOL`` need not give a = c, so pairs
    are judged, not ray classes.
    """
    return graph._report


def _validate(graph: ContextGraph) -> ValidationReport:
    violations: list[str] = []
    contexts = graph.contexts
    dim = contexts[0].dim

    # One Gram pass over the stacked matrices of the contexts of dimension
    # ``dim``; row r of the stack is ray pos[r] of context own[r].
    ks = [k for k, ctx in enumerate(contexts) if ctx.dim == dim]
    own = np.array([k for k in ks for _ in contexts[k].rays])
    pos = np.array([i for k in ks for i in range(len(contexts[k].rays))])
    p, q, gram = _shared_rows(np.concatenate([contexts[k].matrix for k in ks]), None)
    links = np.array([own[p], own[q], pos[p], pos[q]])[:, own[p] != own[q]]  # ray i of context a is ray j of b
    rays = [r for k in ks for r in contexts[k].rays]
    names = [contexts[k].name for k in own.tolist()]
    upper = ~np.tri(len(rays), dtype=bool)  # the row pairs a < b
    bad = {}
    for a, b in zip(*((gram > _TOL) & (own[:, None] == own) & upper).nonzero()):
        bad.setdefault(own[a], []).append(
            f"context {names[a]!r}: rays {rays[a].label!r} and {rays[b].label!r} are not "
            f"orthogonal (|<.,.>| = {gram[a, b]:.3e})"
        )
    # A label names one ray and a ray carries one label: a pair clashes
    # where its labels agree and its rays do not, or the other way round.
    same = np.zeros((len(rays), len(rays)), dtype=bool)
    same[p, q] = True
    ids: dict[str, int] = {}
    lab = np.array([ids.setdefault(r.label, len(ids)) for r in rays])
    clashes = []
    for a, b in zip(*((same != (lab[:, None] == lab)) & upper).nonzero()):
        la, lb, na, nb = rays[a].label, rays[b].label, names[a], names[b]
        clashes.append(f"labels {la!r} ({na!r}) and {lb!r} ({nb!r}) name the same ray" if same[a, b]
                       else f"label {la!r} names different rays in contexts {na!r} and {nb!r}")

    for k, ctx in enumerate(contexts):
        if ctx.dim != dim:
            violations.append(
                f"context {ctx.name!r} lives in dimension {ctx.dim}, expected {dim}"
            )
            continue
        if len(ctx.rays) != dim:
            violations.append(
                f"context {ctx.name!r} has {len(ctx.rays)} rays, expected {dim}"
            )
        violations += bad.get(k, [])
        seen = set()
        for r in ctx.rays:
            if r.label in seen:
                violations.append(f"context {ctx.name!r} repeats label {r.label!r}")
            seen.add(r.label)
    violations += clashes

    if dim >= 2:
        c = len(contexts)
        shared = np.bincount(links[0] * c + links[1], minlength=c * c).reshape(c, c)
        most = "one" if dim == 3 else str(dim - 2)
        for a, b in zip(*(shared > dim - 2).nonzero()):
            violations.append(
                f"contexts {contexts[a].name!r} and {contexts[b].name!r} share "
                f"{shared[a, b]} rays up to phase; distinct dimension-{dim} contexts "
                f"may share at most {most}"
            )

    # In the order of (a, b, i, j) tuples; a file at the ray cap has 2.1M links, none built here.
    links = links[:, np.lexsort(links[::-1])]
    links.flags.writeable = False
    return ValidationReport(ok=not violations, violations=tuple(violations), links=_Rows(_link, *links))


def greechie_dot(graph: ContextGraph) -> str:
    """Orthogonality diagram as Graphviz DOT text.

    Nodes are ray labels (declared in label-sorted order); each context is
    one chain of edges through its rays in stored order, tagged with a
    ``context`` attribute.  Strings are quoted with ``\\`` and ``"``
    escaped.  Raises ValueError for graphs that fail validation -- a
    diagram of an inconsistent graph would be misleading.  A graph
    validated before is not validated again.
    """
    report = graph._report
    if not report.ok:
        raise ValueError(
            "cannot draw an invalid context graph: " + "; ".join(report.violations)
        )
    labels = sorted({r.label for ctx in graph.contexts for r in ctx.rays})
    lines = ["graph contexts {"]
    for lab in labels:
        lines.append(f"  {_quoted(lab)};")
    for ctx in graph.contexts:
        name = _quoted(ctx.name)
        for i in range(len(ctx.rays) - 1):
            a, b = ctx.rays[i].label, ctx.rays[i + 1].label
            lines.append(f"  {_quoted(a)} -- {_quoted(b)} [context={name}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(s: str) -> str:
    """A DOT string literal: ``\\`` escaped first, then ``"``."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


BUILTIN_GRAPHS = ("two-tripods", "three-chain")


def builtin_graph(name: str) -> ContextGraph:
    """Built-in demonstration graphs.

    * ``two-tripods``: contexts {B, C, A} and {D, K, A} linked at the ray
      A = (0, 0, 1); the second tripod is the first rotated by pi/4 in the
      1-2 plane.
    * ``three-chain``: a chain of three tripods E - F, G - E sharing the
      rays x3 and x1 respectively (7 distinct rays in total).
    """
    h = np.sqrt(0.5)
    e1, e2, e3 = np.eye(3, dtype=np.complex128)
    d = np.array([h, h, 0.0], dtype=np.complex128)
    k = np.array([-h, h, 0.0], dtype=np.complex128)
    if name == "two-tripods":
        ctx_e = Context(name="E", rays=(Ray("B", e1), Ray("C", e2), Ray("A", e3)))
        ctx_f = Context(name="F", rays=(Ray("D", d), Ray("K", k), Ray("A", e3)))
        return ContextGraph(contexts=(ctx_e, ctx_f))
    if name == "three-chain":
        up = np.array([0.0, h, h], dtype=np.complex128)
        un = np.array([0.0, -h, h], dtype=np.complex128)
        ctx_e = Context(name="E", rays=(Ray("x1", e1), Ray("x2", e2), Ray("x3", e3)))
        ctx_f = Context(name="F", rays=(Ray("x1p", d), Ray("x2p", k), Ray("x3", e3)))
        ctx_g = Context(name="G", rays=(Ray("x1", e1), Ray("x2pp", up), Ray("x3pp", un)))
        return ContextGraph(contexts=(ctx_e, ctx_f, ctx_g))
    raise ValueError(f"unknown builtin graph {name!r}; known: {', '.join(BUILTIN_GRAPHS)}")


# --- JSON persistence ---------------------------------------------------
#
# A graph file is a list of contexts:
# [{"name": .., "rays": [{"label": .., "vector": [[re, im], ..]}, ..]}, ..]


def context_graph_to_payload(graph: ContextGraph) -> list:
    return [
        {
            "name": ctx.name,
            "rays": [
                {
                    "label": r.label,
                    "vector": [[float(z.real), float(z.imag)] for z in r.vector],
                }
                for r in ctx.rays
            ],
        }
        for ctx in graph.contexts
    ]


def context_graph_from_payload(payload) -> ContextGraph:
    if not isinstance(payload, list):
        raise ValueError("context graph payload must be a list of contexts")
    total = sum(len(read_array(item["rays"])) for item in payload)
    if total > MAX_FILE_RAYS:
        raise ValueError(f"context graph of {total} rays exceeds the limit of {MAX_FILE_RAYS}")
    contexts = []
    for item in payload:
        rays = tuple(
            Ray(
                label=read_str(rr["label"]),
                vector=np.array([read_complex(z) for z in read_array(rr["vector"])], dtype=np.complex128),
            )
            for rr in item["rays"]
        )
        contexts.append(Context(name=read_str(item["name"]), rays=rays))
    return ContextGraph(contexts=tuple(contexts))


def save_context_graph(path, graph: ContextGraph) -> None:
    write_json(path, context_graph_to_payload(graph))


def load_context_graph(path) -> ContextGraph:
    return read_json(path, context_graph_from_payload)
