"""Rays, measurement contexts, link detection, and orthogonality diagrams.

A context is a maximal set of mutually orthogonal rays (an orthonormal
basis) with one label per ray.  Two contexts are linked where they share a
ray up to a global phase.  ``validate_context_graph`` is total: it returns
a structured report instead of raising, so impossible label structures can
be handed to it and come back flagged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Ray:
    """A labeled unit vector (direction in state space)."""

    label: str
    vector: np.ndarray

    def __post_init__(self):
        v = as_vector(self.vector)
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"ray {self.label!r} must have unit norm")
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "label", str(self.label))


@dataclass(frozen=True, eq=False)
class Context:
    """A named tuple of rays.

    Orthonormality is deliberately NOT enforced here -- building an invalid
    context must be possible so that the validator can report it.
    """

    name: str
    rays: tuple[Ray, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        if not self.rays:
            raise ValueError("a context needs at least one ray")

    @property
    def dim(self) -> int:
        return self.rays[0].vector.size

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rays)


@dataclass(frozen=True, eq=False)
class ContextGraph:
    """An ordered collection of contexts sharing a label namespace."""

    contexts: tuple[Context, ...]

    def __post_init__(self):
        object.__setattr__(self, "contexts", tuple(self.contexts))
        if not self.contexts:
            raise ValueError("a context graph needs at least one context")


def context_of(spec: ObservableSpec, names, name: str = "context") -> Context:
    """Context of an observable: its eigenvectors, labeled by ``names``."""
    names = tuple(str(x) for x in names)
    if len(names) != spec.dim:
        raise ValueError(f"need {spec.dim} ray names, got {len(names)}")
    vecs = spec.eigenvectors()
    rays = tuple(Ray(label=names[i], vector=vecs[:, i]) for i in range(spec.dim))
    return Context(name=name, rays=rays)


def _shared_pairs(xs, ys, tol: float) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, row-major, with ``xs[i]`` equal to ``ys[j]`` up to phase.

    ``ys=None`` pairs ``xs`` with itself and keeps ``i < j``.  Vectors of
    different sizes never match.  One Gram matrix ``|X* Y^T|`` per size picks
    the candidates: a pair equal within ``tol`` entrywise has
    ``||x - c y||^2 <= n tol^2``, so for norms 1 +- 1e-10 its entry is at least
    ``1 - n tol^2 / 2 - 1e-9``.  The Gram matrix only prefilters: at
    ``tol = 1e-8`` the gap ``1 - |<x, y>|`` is below double rounding, so the
    candidates are confirmed with ``rows_equal_up_to_global_phase``, in steps
    of at most ``_CONFIRM_ENTRIES`` vector entries.
    """
    upper = ys is None
    if upper:
        ys = xs
    pairs = []
    for n in {x.size for x in xs} & {y.size for y in ys}:
        ix = [i for i, x in enumerate(xs) if x.size == n]
        iy = ix if upper else [j for j, y in enumerate(ys) if y.size == n]
        x = np.array([xs[i] for i in ix])
        y = x if upper else np.array([ys[j] for j in iy])
        hit = np.abs(x.conj() @ y.T) >= 1.0 - n * tol * tol / 2 - 1e-9
        if upper:
            hit = np.triu(hit, 1)
        p, q = np.nonzero(hit)
        step = max(1, _CONFIRM_ENTRIES // n)
        for lo in range(0, p.size, step):
            cp, cq = p[lo : lo + step], q[lo : lo + step]
            ok = rows_equal_up_to_global_phase(x[cp], y[cq], tol)
            pairs += [(ix[a], iy[b]) for a, b in zip(cp[ok].tolist(), cq[ok].tolist())]
    return sorted(pairs)


def links_between(c1: Context, c2: Context, tol: float = LINK_TOL) -> list[tuple[Ray, Ray]]:
    """Pairs of rays shared (up to global phase) between two contexts."""
    pairs = _shared_pairs([r.vector for r in c1.rays], [r.vector for r in c2.rays], tol)
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
    bases can.
    """
    violations: list[str] = []
    contexts = graph.contexts
    dim = contexts[0].dim
    flat: list[tuple[int, int, Ray]] = []  # (context, position, ray) of contexts with one ray size

    for k, ctx in enumerate(contexts):
        mixed = len({r.vector.size for r in ctx.rays}) > 1
        if not mixed:
            flat += [(k, i, r) for i, r in enumerate(ctx.rays)]
        if ctx.dim != dim:
            violations.append(
                f"context {ctx.name!r} lives in dimension {ctx.dim}, expected {dim}"
            )
            continue
        if mixed:
            violations.append(f"context {ctx.name!r} mixes ray dimensions")
            continue
        if len(ctx.rays) != dim:
            violations.append(
                f"context {ctx.name!r} has {len(ctx.rays)} rays, expected {dim}"
            )
        for i in range(len(ctx.rays)):
            for j in range(i + 1, len(ctx.rays)):
                ri, rj = ctx.rays[i], ctx.rays[j]
                ip = abs(np.vdot(ri.vector, rj.vector))
                if ip > _ORTHO_TOL:
                    violations.append(
                        f"context {ctx.name!r}: rays {ri.label!r} and {rj.label!r} are not "
                        f"orthogonal (|<.,.>| = {ip:.3e})"
                    )
        seen = set()
        for r in ctx.rays:
            if r.label in seen:
                violations.append(f"context {ctx.name!r} repeats label {r.label!r}")
            seen.add(r.label)

    # Every pair of rays equal up to phase, from one Gram matrix over the graph.
    same = set(_shared_pairs([r.vector for _, _, r in flat], None, LINK_TOL))
    links = tuple(sorted((flat[a][0], flat[b][0], flat[a][1], flat[b][1])
                         for a, b in same if flat[a][0] != flat[b][0]))

    # Label consistency across the contexts of dimension ``dim``: a label
    # names one ray, and one ray carries one label.  Only pairs that share a
    # label or a ray can break it.
    inside = [contexts[k].dim == dim for k, _, _ in flat]
    by_label: dict[str, list[int]] = {}
    for a, (_, _, r) in enumerate(flat):
        if inside[a]:
            by_label.setdefault(r.label, []).append(a)
    checked = {(a, b) for a, b in same if inside[a] and inside[b]}
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
    ``context`` attribute.  Raises ValueError for graphs that fail
    validation -- a diagram of an inconsistent graph would be misleading.
    """
    report = validate_context_graph(graph)
    if not report.ok:
        raise ValueError(
            "cannot draw an invalid context graph: " + "; ".join(report.violations)
        )
    return _dot_text(graph)


def _dot_text(graph: ContextGraph) -> str:
    """DOT text of a graph already known to be valid."""
    labels = sorted({r.label for ctx in graph.contexts for r in ctx.rays})
    lines = ["graph contexts {"]
    for lab in labels:
        lines.append(f'  "{lab}";')
    for ctx in graph.contexts:
        for i in range(len(ctx.rays) - 1):
            a, b = ctx.rays[i].label, ctx.rays[i + 1].label
            lines.append(f'  "{a}" -- "{b}" [context="{ctx.name}"];')
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
