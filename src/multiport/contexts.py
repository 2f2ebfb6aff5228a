"""Rays, measurement contexts, link detection, and orthogonality diagrams.

A context is a maximal set of mutually orthogonal rays (an orthonormal
basis) with one label per ray.  Two contexts are linked where they share a
ray up to a global phase.  ``validate_context_graph`` is total: it returns
a structured report instead of raising, so impossible label structures can
be handed to it and come back flagged.

Every part of a graph is read-only.  A ``Ray`` built by a caller keeps its
own read-only copy of its vector, and a ``Context`` stacks its rays once,
into a read-only ``(k, n)`` matrix (None when its rays differ in size).  A
context built from an observable by ``context_of`` stores one read-only
matrix only, copied once from the rotation; its rays' vectors are views of
that matrix's rows.  Links and
validation read those matrices: one Gram matrix ``|X* Y^T|`` of two stacks
picks the rays they share, and the validator's Gram matrix over the whole
graph also gives each context's orthogonality.  A ``ContextGraph`` keeps
the report of its first validation, so ``greechie_dot`` does not validate
the same graph again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .devices import _trusted
from .numerics import as_vector, read_json, rows_equal_up_to_global_phase, write_json
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
    "context_graph_to_payload",
    "context_graph_from_payload",
]

LINK_TOL = 1e-8
_ORTHO_TOL = 1e-10
MAX_FILE_RAYS = 2048  # most rays read from a file, checked before any Ray: a 64 MB Gram matrix
_CONFIRM_ENTRIES = 1 << 20  # vector entries per candidate-confirming step: 16 MB per temporary


def _check_unit_rows(rows, labels) -> None:
    """The ray rule on each of ``rows``, in order: finite entries, then |norm - 1| <= 1e-10."""
    for label, row in zip(labels, rows):
        if not abs(math.sqrt(np.vdot(row, row).real) - 1.0) <= 1e-10:  # a row with NaN or inf fails too
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
        _check_unit_rows((v,), (self.label,))
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "label", str(self.label))


@dataclass(frozen=True, eq=False)
class Context:
    """A named tuple of rays, stacked once into ``matrix``.

    ``matrix`` is the read-only ``(k, n)`` array of the k rays when they all
    have size n, and None when their sizes differ.  Orthonormality is
    deliberately NOT enforced here -- building an invalid context must be
    possible so that the validator can report it.
    """

    name: str
    rays: tuple[Ray, ...]
    matrix: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        rays = tuple(self.rays)
        if not rays:
            raise ValueError("a context needs at least one ray")
        matrix = None
        if len({r.vector.size for r in rays}) == 1:
            matrix = np.array([r.vector for r in rays])
            matrix.flags.writeable = False
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.rays[0].vector.size

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rays)


@dataclass(frozen=True, eq=False)
class ContextGraph:
    """An ordered collection of contexts sharing a label namespace.

    Its parts are read-only, so the graph keeps the report of its first
    validation; a new graph of the same contexts is validated afresh.
    """

    contexts: tuple[Context, ...]
    _report: ValidationReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "contexts", tuple(self.contexts))
        if not self.contexts:
            raise ValueError("a context graph needs at least one context")


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


def _shared_rows(x: np.ndarray, y: np.ndarray | None, tol: float):
    """Rows of two matrices equal up to phase, and the Gram matrix that found them.

    Returns ``(p, q, gram)``: index arrays, row-major, with ``x[p]`` equal to
    ``y[q]`` up to phase, and ``gram = |X* Y^T|``.  ``y=None`` pairs ``x``
    with itself and keeps ``p < q``.  The Gram matrix only prefilters: a pair
    equal within ``tol`` entrywise has ``||x - c y||^2 <= n tol^2``, so for
    norms 1 +- 1e-10 its entry is at least ``1 - n tol^2 / 2 - 1e-9``.  At
    ``tol = 1e-8`` the gap ``1 - |<x, y>|`` is below double rounding, so the
    candidates are confirmed with ``rows_equal_up_to_global_phase``, in steps
    of at most ``_CONFIRM_ENTRIES`` vector entries.
    """
    n = x.shape[1]
    upper = y is None
    if upper:
        y = x
    gram = np.abs(x.conj() @ y.T)
    hit = gram >= 1.0 - n * tol * tol / 2 - 1e-9
    p, q = (np.triu(hit, 1) if upper else hit).nonzero()
    if p.size:
        step = max(1, _CONFIRM_ENTRIES // n)
        ok = np.empty(p.size, dtype=bool)
        for lo in range(0, p.size, step):
            part = slice(lo, lo + step)
            ok[part] = rows_equal_up_to_global_phase(x[p[part]], y[q[part]], tol)
        p, q = p[ok], q[ok]
    return p, q, gram


def links_between(c1: Context, c2: Context, tol: float = LINK_TOL) -> list[tuple[Ray, Ray]]:
    """Pairs of rays shared (up to global phase) between two contexts, row-major.

    Rays of different sizes never match, so contexts that mix ray sizes are
    compared one size at a time.
    """
    x, y = c1.matrix, c2.matrix
    if x is not None and y is not None and x.shape[1] == y.shape[1]:
        p, q, _ = _shared_rows(x, y, tol)
        if not p.size:
            return []
        pairs = zip(p.tolist(), q.tolist())
    else:
        pairs = []
        for n in {r.vector.size for r in c1.rays} & {r.vector.size for r in c2.rays}:
            ix = [i for i, r in enumerate(c1.rays) if r.vector.size == n]
            iy = [j for j, r in enumerate(c2.rays) if r.vector.size == n]
            p, q, _ = _shared_rows(
                np.array([c1.rays[i].vector for i in ix]), np.array([c2.rays[j].vector for j in iy]), tol
            )
            pairs += [(ix[a], iy[b]) for a, b in zip(p.tolist(), q.tolist())]
        pairs.sort()
    return [(c1.rays[i], c2.rays[j]) for i, j in pairs]


@dataclass(frozen=True)
class ValidationReport:
    """Verdict, violations, and the graph's links.

    A link ``(a, b, i, j)``, a < b, says that ray i of context a equals ray j
    of context b up to phase.  Links are sorted; contexts that mix ray sizes
    have none.
    """

    ok: bool
    violations: tuple[str, ...]
    links: tuple[tuple[int, int, int, int], ...] = ()


def validate_context_graph(graph: ContextGraph) -> ValidationReport:
    """Structural checks on a context graph; never raises.

    Flags: non-orthonormal or wrong-size contexts, contexts mixing ray sizes,
    duplicate labels inside a context, one label naming two different rays,
    two labels naming the same ray, and (dimension d >= 2) two distinct
    contexts sharing more than d - 2 rays, which no two distinct orthonormal
    bases can.  The graph keeps the report, and a second call returns it.
    """
    if graph._report is None:
        object.__setattr__(graph, "_report", _validate(graph))
    return graph._report


def _validate(graph: ContextGraph) -> ValidationReport:
    violations: list[str] = []
    contexts = graph.contexts
    dim = contexts[0].dim

    # One Gram pass per ray size over the stacked matrices of the contexts
    # with one ray size.  The pass over size ``dim`` holds every context
    # that is checked further, so its Gram matrix and pairs serve below.
    by_size: dict[int, list[int]] = {}
    for k, ctx in enumerate(contexts):
        if ctx.matrix is not None:
            by_size.setdefault(ctx.matrix.shape[1], []).append(k)
    links = []
    flat, same, bad = [], set(), {}  # from the pass over size ``dim``
    for n, ks in by_size.items():
        # (context, position, ray) per row of the stack
        rows = [(k, i, r) for k in ks for i, r in enumerate(contexts[k].rays)]
        p, q, gram = _shared_rows(np.concatenate([contexts[k].matrix for k in ks]), None, LINK_TOL)
        ids = list(range(len(rows)))  # one int object per row, shared by all its pairs
        pairs = [(ids[a], ids[b]) for a, b in zip(p.tolist(), q.tolist())]
        links += [(rows[a][0], rows[b][0], rows[a][1], rows[b][1])
                  for a, b in pairs if rows[a][0] != rows[b][0]]
        if n == dim:
            flat, same = rows, set(pairs)
            own = np.array([k for k, _, _ in rows])
            inner = np.triu((gram > _ORTHO_TOL) & (own[:, None] == own[None, :]), 1)
            for a, b in zip(*np.nonzero(inner)):
                bad.setdefault(rows[a][0], []).append((rows[a][2], rows[b][2], gram[a, b]))
    links = tuple(sorted(links))

    for k, ctx in enumerate(contexts):
        if ctx.dim != dim:
            violations.append(
                f"context {ctx.name!r} lives in dimension {ctx.dim}, expected {dim}"
            )
            continue
        if ctx.matrix is None:
            violations.append(f"context {ctx.name!r} mixes ray dimensions")
            continue
        if len(ctx.rays) != dim:
            violations.append(
                f"context {ctx.name!r} has {len(ctx.rays)} rays, expected {dim}"
            )
        for ri, rj, ip in bad.get(k, ()):
            violations.append(
                f"context {ctx.name!r}: rays {ri.label!r} and {rj.label!r} are not "
                f"orthogonal (|<.,.>| = {ip:.3e})"
            )
        seen = set()
        for r in ctx.rays:
            if r.label in seen:
                violations.append(f"context {ctx.name!r} repeats label {r.label!r}")
            seen.add(r.label)

    # Label consistency across the contexts of dimension ``dim``: a label
    # names one ray, and one ray carries one label.  Only pairs that share a
    # label or a ray can break it.
    by_label: dict[str, list[int]] = {}
    for a, (_, _, r) in enumerate(flat):
        by_label.setdefault(r.label, []).append(a)
    checked = set(same)
    checked.update(pair for ix in by_label.values() for pair in combinations(ix, 2))
    for a, b in sorted(checked):
        (ka, _, ra), (kb, _, rb) = flat[a], flat[b]
        na, nb = contexts[ka].name, contexts[kb].name
        same_vec = (a, b) in same
        if ra.label == rb.label and not same_vec:
            violations.append(
                f"label {ra.label!r} names different rays in contexts {na!r} and {nb!r}"
            )
        elif ra.label != rb.label and same_vec:
            violations.append(
                f"labels {ra.label!r} ({na!r}) and {rb.label!r} ({nb!r}) name the same ray"
            )

    if dim >= 2:
        shared = Counter((a, b) for a, b, _, _ in links)
        most = "one" if dim == 3 else str(dim - 2)
        for (a, b), count in sorted(shared.items()):
            if count > dim - 2:
                violations.append(
                    f"contexts {contexts[a].name!r} and {contexts[b].name!r} share "
                    f"{count} rays up to phase; distinct dimension-{dim} contexts "
                    f"may share at most {most}"
                )

    return ValidationReport(ok=not violations, violations=tuple(violations), links=links)


def greechie_dot(graph: ContextGraph) -> str:
    """Orthogonality diagram as Graphviz DOT text.

    Nodes are ray labels (declared in label-sorted order); each context is
    one chain of edges through its rays in stored order, tagged with a
    ``context`` attribute.  Strings are quoted with ``\\`` and ``"``
    escaped.  Raises ValueError for graphs that fail validation -- a
    diagram of an inconsistent graph would be misleading.  A graph
    validated before is not validated again.
    """
    report = graph._report or validate_context_graph(graph)
    if not report.ok:
        raise ValueError(
            "cannot draw an invalid context graph: " + "; ".join(report.violations)
        )
    return _dot_text(graph)


def _quoted(s: str) -> str:
    """A DOT string literal: ``\\`` escaped first, then ``"``."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_text(graph: ContextGraph) -> str:
    """DOT text of a graph already known to be valid."""
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


def _tripod_rays():
    e1 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    e2 = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
    e3 = np.array([0.0, 0.0, 1.0], dtype=np.complex128)
    return e1, e2, e3


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
    e1, e2, e3 = _tripod_rays()
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
    total = sum(len(item["rays"]) for item in payload)
    if total > MAX_FILE_RAYS:
        raise ValueError(f"context graph of {total} rays exceeds the limit of {MAX_FILE_RAYS}")
    contexts = []
    for item in payload:
        rays = tuple(
            Ray(
                label=str(rr["label"]),
                vector=np.array(
                    [complex(float(re), float(im)) for re, im in rr["vector"]],
                    dtype=np.complex128,
                ),
            )
            for rr in item["rays"]
        )
        contexts.append(Context(name=str(item["name"]), rays=rays))
    return ContextGraph(contexts=tuple(contexts))


def save_context_graph(path, graph: ContextGraph) -> None:
    write_json(path, context_graph_to_payload(graph))


def load_context_graph(path) -> ContextGraph:
    return read_json(path, context_graph_from_payload)
