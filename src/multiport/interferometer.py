"""Netlists: ordered optical elements realizing a factored unitary.

Element kinds
-------------
* ``bs``   -- decorated beam splitter on ports (p, q) with mixing angle
              omega in [0, pi/2] and phases alpha, beta, phi; the matrix is
              ``t_bs``.  The transmission T = cos^2 omega is derived from the
              stored omega, never stored: inverting T loses omega near T = 1.
* ``ps``   -- single phase shifter on port p.
* ``diag`` -- one phase per port (a full phase layer).

``simulate`` applies elements in passage order: the first element of the
list hits the input state first.  ``transfer_matrix`` and ``simulate`` apply
a netlist layer by layer: an ASAP schedule, built once per netlist, puts
each element one layer above the latest element on its ports (a ``diag`` is
a barrier), and each layer is one array step.  A mesh compiled from a
dense n x n unitary has depth 2n-2: 2n-3 layers of cells plus the final
``diag``.  Ports are 0-based in memory and 1-based in files and rendered
output.  Netlist files write ``"omega"``; a ``bs`` with only ``"T"`` (the
older format) is still read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decompose import Factorization
from .devices import (
    ALL,
    ONE,
    TWO,
    _Mesh,
    _bs_block,
    _checked_mixing,
    _trusted,
    _wrap,
    apply_layers,
    omega_from_transmission,
    transmission,
)
from .numerics import as_vector, read_json, write_json

__all__ = [
    "Element",
    "Netlist",
    "beam_splitter",
    "phase_shifter",
    "phase_layer",
    "element_matrix",
    "netlist_from_factorization",
    "transfer_matrix",
    "simulate",
    "render_schematic",
    "save_netlist",
    "load_netlist",
    "netlist_to_payload",
    "netlist_from_payload",
]

_KINDS = ("bs", "ps", "diag")
MAX_FILE_DIM = 4096  # largest netlist dim read from a file, checked before any allocation
_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class Element:
    """One optical element; which fields apply depends on ``kind``."""

    kind: str
    p: Optional[int] = None
    q: Optional[int] = None
    omega: Optional[float] = None
    alpha: float = 0.0
    beta: float = 0.0
    phi: float = 0.0
    phase: Optional[float] = None
    phases: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "bs":
            if self.p is None or self.q is None or self.omega is None:
                raise ValueError("bs element needs ports p, q and mixing angle omega")
            if not 0 <= self.p < self.q:
                raise ValueError(f"bs ports must satisfy 0 <= p < q, got ({self.p}, {self.q})")
            object.__setattr__(self, "omega", _checked_mixing(self.omega, _HALF_PI))
            for ang in (self.alpha, self.beta, self.phi):
                if not math.isfinite(float(ang)):
                    raise ValueError("bs phases must be finite")
        elif self.kind == "ps":
            if self.p is None or self.phase is None:
                raise ValueError("ps element needs a port p and a phase")
            if self.p < 0:
                raise ValueError("ps port must be >= 0")
            if not math.isfinite(float(self.phase)):
                raise ValueError("ps phase must be finite")
        else:  # diag
            if not self.phases:
                raise ValueError("diag element needs a tuple of phases")
            object.__setattr__(self, "phases", tuple(float(x) for x in self.phases))
            if any(not math.isfinite(x) for x in self.phases):
                raise ValueError("diag phases must be finite")

    @property
    def T(self) -> Optional[float]:
        """Transmission cos^2(omega) of a ``bs``; None for the other kinds."""
        return None if self.omega is None else transmission(self.omega)


def beam_splitter(p: int, q: int, T: float, alpha: float = 0.0, beta: float = 0.0, phi: float = 0.0) -> Element:
    """A ``bs`` with transmission ``T`` in [0, 1], stored as omega = acos(sqrt(T))."""
    return Element(
        kind="bs", p=int(p), q=int(q), omega=omega_from_transmission(T), alpha=float(alpha), beta=float(beta), phi=float(phi)
    )


def phase_shifter(p: int, phase: float) -> Element:
    return Element(kind="ps", p=int(p), phase=float(phase))


def phase_layer(phases) -> Element:
    return Element(kind="diag", phases=tuple(float(x) for x in phases))


@dataclass(frozen=True)
class Netlist(_Mesh):
    """Ordered elements on ``dim`` ports; all port references must fit.

    The elements are held as read-only columns, port bounds checked once per
    array: ``kind`` (0 bs, 1 ps, 2 diag), ports ``p`` and ``q`` (-1 where a kind has
    none), ``angles`` (omega, alpha, beta, phi of a bs; a ps's phase in the
    first column) and ``phases``, one row per diag element in order.
    ``elements`` is a tuple view of ``Element`` objects, built on first use.
    """

    dim: int
    elements: tuple[Element, ...]
    _view = "elements"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("netlist dimension must be >= 1")
        els = tuple(self.elements)
        object.__setattr__(self, "elements", els)
        for e in els:
            if e.kind == "diag" and len(e.phases) != self.dim:
                raise ValueError(f"diag element has {len(e.phases)} phases, expected {self.dim}")
        _set_columns(
            self,
            np.array([_KINDS.index(e.kind) for e in els], dtype=np.int64),
            np.array([-1 if e.kind == "diag" else e.p for e in els], dtype=np.int64),
            np.array([e.q if e.kind == "bs" else -1 for e in els], dtype=np.int64),
            np.array([_angle_row(e) for e in els], dtype=float).reshape(-1, 4),
            np.array([e.phases for e in els if e.kind == "diag"], dtype=float).reshape(-1, self.dim),
        )

    @classmethod
    def _from_columns(cls, dim, kind, p, q, angles, phases) -> "Netlist":
        nl = object.__new__(cls)
        object.__setattr__(nl, "dim", int(dim))
        _set_columns(nl, kind, p, q, angles, phases)
        return nl

    def _build_view(self) -> tuple:
        rows = iter(self.phases.tolist())
        none = dict(p=None, q=None, omega=None, alpha=0.0, beta=0.0, phi=0.0, phase=None, phases=None)
        views = []
        for k, p, q, (omega, alpha, beta, phi) in zip(
            self.kind.tolist(), self.p.tolist(), self.q.tolist(), self.angles.tolist()
        ):
            if k == TWO:
                fields = dict(kind="bs", p=p, q=q, omega=omega, alpha=alpha, beta=beta, phi=phi)
            elif k == ONE:
                fields = dict(kind="ps", p=p, phase=omega)
            else:
                fields = dict(kind="diag", phases=tuple(next(rows)))
            views.append(_trusted(Element, **{**none, **fields}))
        return tuple(views)

    def _coefficients(self) -> tuple:
        omega, alpha, beta, phi = self.angles.T
        (a, b), (c, d) = _bs_block(omega, alpha, beta, phi)
        a = np.where(self.kind == ONE, np.exp(1j * omega), a)  # a ps's phase sits in the omega column
        return (a, b, c, d), np.exp(1j * self.phases)


def _angle_row(e: Element) -> tuple:
    if e.kind == "bs":
        return (e.omega, e.alpha, e.beta, e.phi)
    return (e.phase if e.kind == "ps" else 0.0, 0.0, 0.0, 0.0)


def _set_columns(nl: Netlist, kind, p, q, angles, phases) -> None:
    """Check the port bounds once per array and store the columns read-only.

    Angles and phases come checked: from ``Element`` or from a ``Factorization``.
    """
    dim = nl.dim
    bad = np.flatnonzero((kind == TWO) & (q >= dim))
    if bad.size:
        raise ValueError(f"bs ports ({p[bad[0]]}, {q[bad[0]]}) out of range for dim {dim}")
    bad = np.flatnonzero((kind == ONE) & (p >= dim))
    if bad.size:
        raise ValueError(f"ps port {p[bad[0]]} out of range for dim {dim}")
    for name, arr in (("kind", kind), ("p", p), ("q", q), ("angles", angles), ("phases", phases)):
        arr = np.array(arr)
        arr.flags.writeable = False
        object.__setattr__(nl, name, arr)


def element_matrix(e: Element, dim: int) -> np.ndarray:
    """The dim x dim unitary realized by one element."""
    return transfer_matrix(Netlist(dim=dim, elements=(e,)))


def netlist_from_factorization(f: Factorization) -> Netlist:
    """Compile a factorization into a physical netlist.

    The compiled transfer matrix equals ``reconstruct(f)``: each factor's
    adjoint block becomes one beam splitter with the factor's own mixing angle,
    in passage order T_1 then T_2 ..., using the closed form
    T(omega, phi)^dagger = T_bs(omega, -phi - pi/2, phi + pi/2, -pi/2); one
    final diag layer realizes the adjoint of the factorization's diagonal.
    The diag layer is always present, even when every phase is zero, so the
    layout is uniform.  The whole compile is array arithmetic on the
    factorization's columns.
    """
    k = f.p.size
    angles = np.empty((k + 1, 4))
    angles[:k, 0] = f.omega
    angles[:k, 1] = _wrap(-f.phi - _HALF_PI)
    angles[:k, 2] = _wrap(f.phi + _HALF_PI)
    angles[:k, 3] = -_HALF_PI
    angles[k] = 0.0
    kind = np.append(np.full(k, TWO), ALL)
    return Netlist._from_columns(
        f.dim, kind, np.append(f.p, -1), np.append(f.q, -1), angles, -f.diagonal[None, :]
    )


def transfer_matrix(nl: Netlist) -> np.ndarray:
    """Product of all element matrices in passage order, applied layer by layer."""
    out = np.eye(nl.dim, dtype=np.complex128)
    apply_layers(out, nl._steps())
    return out


def simulate(nl: Netlist, state) -> np.ndarray:
    """Push an input amplitude vector through every element in order (not in place)."""
    v = as_vector(state).copy()
    if v.size != nl.dim:
        raise ValueError(f"state dimension {v.size} does not match netlist dim {nl.dim}")
    apply_layers(v, nl._steps())
    return v


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def render_schematic(nl: Netlist, format: str = "text") -> str:
    """Deterministic schematic of a netlist as text or SVG.

    Ports are shown 1-based.  Byte-identical output for equal netlists.
    """
    if format == "text":
        lines = [f"netlist dim={nl.dim} elements={len(nl.elements)}"]
        for e in nl.elements:
            if e.kind == "bs":
                lines.append(
                    f"BS {e.p + 1},{e.q + 1} T={_fmt(e.T)} alpha={_fmt(e.alpha)} "
                    f"beta={_fmt(e.beta)} phi={_fmt(e.phi)}"
                )
            elif e.kind == "ps":
                lines.append(f"PS {e.p + 1} phi={_fmt(e.phase)}")
            else:
                lines.append("DIAG " + " ".join(_fmt(x) for x in e.phases))
        return "\n".join(lines) + "\n"
    if format == "svg":
        return _render_svg(nl)
    raise ValueError(f"unknown schematic format {format!r}; use 'text' or 'svg'")


def _render_svg(nl: Netlist) -> str:
    col_w, row_h = 90, 50
    left, top = 70, 40
    width = left + col_w * max(1, len(nl.elements)) + 40
    height = top + row_h * (nl.dim - 1) + 40

    def y(port: int) -> int:
        return top + row_h * port

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>line{stroke:#444;stroke-width:2}rect{fill:#eef;stroke:#447}'
        "text{font-family:monospace;font-size:11px;fill:#222}</style>",
    ]
    for port in range(nl.dim):
        parts.append(f'<line x1="20" y1="{y(port)}" x2="{width - 20}" y2="{y(port)}"/>')
        parts.append(f'<text x="4" y="{y(port) + 4}">{port + 1}</text>')
    for i, e in enumerate(nl.elements):
        x = left + col_w * i
        if e.kind == "bs":
            parts.append(
                f'<rect x="{x - 12}" y="{y(e.p) - 12}" width="24" '
                f'height="{y(e.q) - y(e.p) + 24}"/>'
            )
            parts.append(f'<text x="{x - 12}" y="{y(e.p) - 18}">T={_fmt(e.T)}</text>')
        elif e.kind == "ps":
            parts.append(f'<rect x="{x - 10}" y="{y(e.p) - 10}" width="20" height="20"/>')
            parts.append(f'<text x="{x - 10}" y="{y(e.p) - 16}">ph={_fmt(e.phase)}</text>')
        else:
            for port in range(nl.dim):
                parts.append(f'<rect x="{x - 8}" y="{y(port) - 8}" width="16" height="16"/>')
            parts.append(f'<text x="{x - 12}" y="{y(0) - 18}">diag</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- JSON persistence ---------------------------------------------------
#
# Files carry 1-based ports:
# {"dim": n, "elements": [
#    {"kind": "bs", "p": .., "q": .., "omega": .., "alpha": .., "beta": .., "phi": ..}
#  | {"kind": "ps", "p": .., "phase": ..}
#  | {"kind": "diag", "phases": [..]} ]}
# A bs without "omega" takes it from "T" (transmission, the older format).


def netlist_to_payload(nl: Netlist) -> dict:
    items = []
    for e in nl.elements:
        if e.kind == "bs":
            items.append(
                {
                    "kind": "bs",
                    "p": e.p + 1,
                    "q": e.q + 1,
                    "omega": float(e.omega),
                    "alpha": float(e.alpha),
                    "beta": float(e.beta),
                    "phi": float(e.phi),
                }
            )
        elif e.kind == "ps":
            items.append({"kind": "ps", "p": e.p + 1, "phase": float(e.phase)})
        else:
            items.append({"kind": "diag", "phases": [float(x) for x in e.phases]})
    return {"dim": nl.dim, "elements": items}


def netlist_from_payload(payload: dict) -> Netlist:
    dim = int(payload["dim"])
    if dim > MAX_FILE_DIM:
        raise ValueError(f"netlist dim {dim} exceeds the limit of {MAX_FILE_DIM}")
    elements = []
    for item in payload["elements"]:
        kind = item.get("kind")
        if kind == "bs":
            p, q = int(item["p"]), int(item["q"])
            if not 1 <= p < q <= dim:
                raise ValueError(f"file bs ports ({p}, {q}) invalid for dim {dim} (1-based)")
            omega = item["omega"] if "omega" in item else omega_from_transmission(item["T"])
            elements.append(
                Element(
                    kind="bs",
                    p=p - 1,
                    q=q - 1,
                    omega=float(omega),
                    alpha=float(item.get("alpha", 0.0)),
                    beta=float(item.get("beta", 0.0)),
                    phi=float(item.get("phi", 0.0)),
                )
            )
        elif kind == "ps":
            p = int(item["p"])
            if not 1 <= p <= dim:
                raise ValueError(f"file ps port {p} invalid for dim {dim} (1-based)")
            elements.append(phase_shifter(p=p - 1, phase=float(item["phase"])))
        elif kind == "diag":
            elements.append(phase_layer(tuple(float(x) for x in item["phases"])))
        else:
            raise ValueError(f"unknown element kind {kind!r} in netlist file")
    return Netlist(dim=dim, elements=tuple(elements))


def save_netlist(path, nl: Netlist) -> None:
    write_json(path, netlist_to_payload(nl))


def load_netlist(path) -> Netlist:
    return read_json(path, netlist_from_payload)
