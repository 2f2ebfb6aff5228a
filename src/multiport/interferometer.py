"""Netlists: ordered optical elements realizing a factored unitary.

Element kinds
-------------
* ``bs``   -- decorated beam splitter on ports (p, q) with transmission T
              (T = cos^2 of the mixing angle) and phases alpha, beta, phi.
* ``ps``   -- single phase shifter on port p.
* ``diag`` -- one phase per port (a full phase layer).

``simulate`` applies elements in passage order: the first element of the
list hits the input state first.  Ports are 0-based in memory and 1-based
in files and rendered output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decompose import Factorization
from .devices import BsParams, apply_two_port, fit_bs, omega_from_transmission, t_bs, t_matrix, transmission
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


@dataclass(frozen=True)
class Element:
    """One optical element; which fields apply depends on ``kind``."""

    kind: str
    p: Optional[int] = None
    q: Optional[int] = None
    T: Optional[float] = None
    alpha: float = 0.0
    beta: float = 0.0
    phi: float = 0.0
    phase: Optional[float] = None
    phases: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "bs":
            if self.p is None or self.q is None or self.T is None:
                raise ValueError("bs element needs ports p, q and transmission T")
            if not 0 <= self.p < self.q:
                raise ValueError(f"bs ports must satisfy 0 <= p < q, got ({self.p}, {self.q})")
            if not 0.0 <= self.T <= 1.0:
                raise ValueError(f"transmission must lie in [0, 1], got {self.T!r}")
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


def beam_splitter(p: int, q: int, T: float, alpha: float = 0.0, beta: float = 0.0, phi: float = 0.0) -> Element:
    return Element(kind="bs", p=int(p), q=int(q), T=float(T), alpha=float(alpha), beta=float(beta), phi=float(phi))


def phase_shifter(p: int, phase: float) -> Element:
    return Element(kind="ps", p=int(p), phase=float(phase))


def phase_layer(phases) -> Element:
    return Element(kind="diag", phases=tuple(float(x) for x in phases))


@dataclass(frozen=True)
class Netlist:
    """Ordered elements on ``dim`` ports; all port references must fit."""

    dim: int
    elements: tuple[Element, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("netlist dimension must be >= 1")
        object.__setattr__(self, "elements", tuple(self.elements))
        for e in self.elements:
            if e.kind == "bs" and e.q >= self.dim:
                raise ValueError(f"bs ports ({e.p}, {e.q}) out of range for dim {self.dim}")
            if e.kind == "ps" and e.p >= self.dim:
                raise ValueError(f"ps port {e.p} out of range for dim {self.dim}")
            if e.kind == "diag" and len(e.phases) != self.dim:
                raise ValueError(
                    f"diag element has {len(e.phases)} phases, expected {self.dim}"
                )


def _apply_element(e: Element, m: np.ndarray) -> None:
    """Apply one element in place to the rows of a matrix or a vector."""
    if e.kind == "bs":
        omega = omega_from_transmission(e.T)
        apply_two_port(m, e.p, e.q, t_bs(BsParams(omega, e.alpha, e.beta, e.phi)))
    elif e.kind == "ps":
        m[e.p] *= cmath.exp(1j * e.phase)
    else:  # diag: row k picks up exp(i * phases[k])
        np.multiply(m.T, np.exp(1j * np.asarray(e.phases)), out=m.T)


def element_matrix(e: Element, dim: int) -> np.ndarray:
    """The dim x dim unitary realized by one element."""
    return transfer_matrix(Netlist(dim=dim, elements=(e,)))


def netlist_from_factorization(f: Factorization) -> Netlist:
    """Compile a factorization into a physical netlist.

    The compiled transfer matrix equals ``reconstruct(f)``: each factor's
    adjoint block becomes one beam splitter (fitted for its alpha/beta/phi
    decorations), in passage order T_1 then T_2 ...; one final diag layer
    realizes the adjoint of the factorization's diagonal.  The diag layer is
    always present, even when every phase is zero, so the layout is uniform.
    """
    elements = []
    for fac in f.factors:
        block = t_matrix(fac.params).conj().T
        bp = fit_bs(block)
        elements.append(
            beam_splitter(
                p=fac.p,
                q=fac.q,
                T=transmission(bp.omega),
                alpha=bp.alpha,
                beta=bp.beta,
                phi=bp.phi,
            )
        )
    elements.append(phase_layer(tuple(-d for d in f.diagonal)))
    return Netlist(dim=f.dim, elements=tuple(elements))


def transfer_matrix(nl: Netlist) -> np.ndarray:
    """Product of all element matrices in passage order."""
    out = np.eye(nl.dim, dtype=np.complex128)
    for e in nl.elements:
        _apply_element(e, out)
    return out


def simulate(nl: Netlist, state) -> np.ndarray:
    """Push an input amplitude vector through every element in order (not in place)."""
    v = as_vector(state).copy()
    if v.size != nl.dim:
        raise ValueError(f"state dimension {v.size} does not match netlist dim {nl.dim}")
    for e in nl.elements:
        _apply_element(e, v)
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
#    {"kind": "bs", "p": .., "q": .., "T": .., "alpha": .., "beta": .., "phi": ..}
#  | {"kind": "ps", "p": .., "phase": ..}
#  | {"kind": "diag", "phases": [..]} ]}


def netlist_to_payload(nl: Netlist) -> dict:
    items = []
    for e in nl.elements:
        if e.kind == "bs":
            items.append(
                {
                    "kind": "bs",
                    "p": e.p + 1,
                    "q": e.q + 1,
                    "T": float(e.T),
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
            elements.append(
                beam_splitter(
                    p=p - 1,
                    q=q - 1,
                    T=float(item["T"]),
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
