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
a netlist layer by layer, replaying its layer plan: each layer is one array
step, a batched 2x2 product for a layer of ``bs`` cells.  A compiled netlist
takes its factorization's plan, with the final ``diag`` as one more layer;
any other netlist is planned once, on first use, from an ASAP schedule that
puts each element one layer above the latest element on its ports (a
``diag`` is a barrier).  A mesh compiled from a dense n x n unitary has
depth 2n-2: 2n-3 layers of cells plus the final ``diag``.  Ports are 0-based
in memory and 1-based in files and rendered output.  Netlist files write
``"omega"``; a ``bs`` with only ``"T"`` (the older format) is still read.

A netlist is compiled from a factorization or read from a file, whose
format is the one documented way to write a mesh by hand; ``Netlist(dim,
elements)`` also builds one from ``Element`` objects.  Outside input is
checked once, where it enters: the file reader, ``Netlist(dim, elements)``
and ``Element`` all read their element records through ``_read_elements``,
which holds every rule:

* ``dim >= 1``;
* a ``bs`` has ports p < q and a ``ps`` a port p, each an integer in the
  reader's range (0 to dim - 1 in memory, 1 to dim in a file);
* a ``bs`` mixing angle lies in [0, pi/2] (an overshoot within 1e-12 is
  clamped);
* every angle and phase is a finite number, not a bool or a string, and
  every list of them an array;
* a ``bs``'s phases alpha, beta, phi are wrapped to (-pi, pi], as in
  ``BsParams``;
* each ``diag`` has exactly ``dim`` phases.

An ``Element`` obeys the same rules as the one element of the smallest
netlist that holds it.  ``netlist_from_factorization`` builds valid columns
from a factorization, whose own reader checked it, and checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .decompose import Factorization
from .devices import (
    ALL,
    MAX_FILE_DIM,
    ONE,
    TWO,
    _HALF_PI,
    _Mesh,
    _bs_block,
    _checked_mixings,
    _trusted,
    _wrap,
    apply_layers,
    omega_from_transmission,
    transmission,
)
from .numerics import as_vector, read_array, read_int, read_json, read_real, write_json

__all__ = [
    "Element",
    "Netlist",
    "netlist_from_factorization",
    "transfer_matrix",
    "simulate",
    "render_schematic",
    "save_netlist",
    "load_netlist",
]

# The fields each kind takes; those that default to None are required.
_TAKES = {"bs": ("p", "q", "omega", "alpha", "beta", "phi"), "ps": ("p", "phase"), "diag": ("phases",)}
_KINDS = tuple(_TAKES)


@dataclass(frozen=True)
class Element:
    """One optical element; ``kind`` decides which fields it takes, and the rest stay at their defaults."""

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
        takes = _TAKES.get(self.kind)
        if takes is None:
            raise ValueError(f"unknown element kind {self.kind!r}; expected one of {_KINDS}")
        need = [name for name in takes if _UNSET[name] is None]
        if any(getattr(self, name) is None for name in need):
            raise ValueError(f"{self.kind} element needs {', '.join(need)}")
        extra = [name for name, unset in _UNSET.items() if name not in takes and getattr(self, name) != unset]
        if extra:
            raise ValueError(f"{self.kind} element takes no {', '.join(extra)}")
        if self.kind == "diag":
            object.__setattr__(self, "phases", tuple(read_real(x) for x in read_array(self.phases)))
            dim = len(self.phases) or 1
        else:
            dim = max(self.p, self.q or 0) + 1
        angles = _read_elements(dim, [vars(self)], 0)["angles"]
        if self.kind == "bs":
            for name, value in zip(("omega", "alpha", "beta", "phi"), angles[0].tolist()):
                object.__setattr__(self, name, value)

    @property
    def T(self) -> Optional[float]:
        """Transmission cos^2(omega) of a ``bs``; None for the other kinds."""
        return None if self.omega is None else transmission(self.omega)


_UNSET = {f.name: f.default for f in fields(Element)[1:]}  # every field but kind, at its default


@dataclass(frozen=True, eq=False, init=False)
class Netlist(_Mesh):
    """Ordered elements on ``dim`` ports; all port references must fit.

    The elements are held as read-only columns: ``kind`` (0 bs, 1 ps, 2
    diag), ports ``p`` and ``q`` (-1 where a kind has none), ``angles``
    (omega, alpha, beta, phi of a bs; a ps's phase in the first column) and
    ``phases``, one row per diag element in order.  ``elements`` is a tuple
    of ``Element`` objects: the one ``Netlist(dim, elements)`` was given, or
    else one built from the columns on first read, as a ``cached_property``.
    """

    dim: int
    _COLUMNS = ("kind", "p", "q", "angles", "phases")

    def __init__(self, dim: int, elements):
        dim, elements = read_int(dim), tuple(elements)
        read = Netlist._from_columns(dim, **_read_elements(dim, [vars(e) for e in elements], 0))
        vars(self).update(vars(read), elements=elements)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(_trusted(Element, **{**_UNSET, **item}) for item in self._walk(0, tuple))

    def _walk(self, base: int, seq):
        """The fields of each element in order, ports offset by ``base``, each diag row a ``seq``.

        The one bs/ps/diag dispatch over the columns: the ``elements`` view,
        the file writer and both schematic renderers read it.
        """
        rows = iter(self.phases.tolist())
        for k, p, q, (omega, alpha, beta, phi) in zip(
            self.kind.tolist(), self.p.tolist(), self.q.tolist(), self.angles.tolist()
        ):
            if k == TWO:
                yield {
                    "kind": "bs", "p": p + base, "q": q + base, "omega": omega, "alpha": alpha, "beta": beta, "phi": phi
                }
            elif k == ONE:
                yield {"kind": "ps", "p": p + base, "phase": omega}
            else:
                yield {"kind": "diag", "phases": seq(next(rows))}

    def _coefficients(self) -> tuple:
        omega, alpha, beta, phi = self.angles.T
        (a, b), (c, d) = _bs_block(omega, alpha, beta, phi)
        a = np.where(self.kind == ONE, np.exp(1j * omega), a)  # a ps's phase sits in the omega column
        return ((a, b), (c, d)), np.exp(1j * self.phases)


def _read_elements(dim: int, items, base: int) -> dict:
    """The checked columns of a ``Netlist`` from its element records, ports counted from ``base``.

    The one reader of element records, and the one place their rules are
    checked: ``items`` are the dicts of a netlist file (``base`` 1) or the
    fields of ``Element`` objects (``base`` 0).  A ``bs`` record without
    ``"omega"`` takes it from ``"T"``; absent phases are 0.
    """
    if dim < 1:
        raise ValueError("netlist dimension must be >= 1")
    ports, angles, rows = [], [], []  # kind, p, q of each element, flat; its angles; each diag's phases
    for item in read_array(items):
        k = item.get("kind")
        if k == "bs":
            ports += (TWO, read_int(item["p"]), read_int(item["q"]))
            omega = read_real(item["omega"]) if "omega" in item else omega_from_transmission(read_real(item["T"]))
            get = item.get
            alpha, beta, phi = read_real(get("alpha", 0.0)), read_real(get("beta", 0.0)), read_real(get("phi", 0.0))
            angles.append((omega, alpha, beta, phi))
        elif k == "ps":
            ports += (ONE, read_int(item["p"]), base - 1)
            angles.append((read_real(item["phase"]), 0.0, 0.0, 0.0))
        elif k == "diag":
            row = [read_real(x) for x in read_array(item["phases"])]
            if len(row) != dim:
                raise ValueError(f"diag element has {len(row)} phases, expected {dim}")
            rows.append(row)
            ports += (ALL, base - 1, base - 1)
            angles.append((0.0, 0.0, 0.0, 0.0))
        else:
            raise ValueError(f"unknown element kind {k!r}; expected one of {_KINDS}")
    ports = np.array(ports, dtype=np.int64).reshape(-1, 3)
    kind, p, q = ports[:, 0].copy(), ports[:, 1] - base, ports[:, 2] - base
    two = kind == TWO
    bad = np.flatnonzero(two & ((p < 0) | (p >= q) | (q >= dim)))
    if bad.size:
        p0, q0 = p[bad[0]] + base, q[bad[0]] + base
        raise ValueError(f"bs ports ({p0}, {q0}) invalid for dim {dim}: need {base} <= p < q <= {dim - 1 + base}")
    bad = np.flatnonzero((kind == ONE) & ((p < 0) | (p >= dim)))
    if bad.size:
        raise ValueError(f"ps port {p[bad[0]] + base} invalid for dim {dim}: need {base} <= p <= {dim - 1 + base}")
    angles = np.array(angles, dtype=float).reshape(-1, 4)
    angles[two, 0] = _checked_mixings(angles[two, 0])
    phases = np.array(rows, dtype=float).reshape(-1, dim)
    if not (np.isfinite(angles).all() and np.isfinite(phases).all()):
        raise ValueError("angles and phases must be finite")
    angles[:, 1:] = _wrap(angles[:, 1:])  # a bs's alpha, beta, phi, as BsParams keeps them; zeros elsewhere
    return {"kind": kind, "p": p, "q": q, "angles": angles, "phases": phases}


def netlist_from_factorization(f: Factorization) -> Netlist:
    """Compile a factorization into a physical netlist.

    The compiled transfer matrix equals ``reconstruct(f)``: each factor's
    adjoint block becomes one beam splitter with the factor's own mixing angle,
    in passage order T_1 then T_2 ..., using the closed form
    T(omega, phi)^dagger = T_bs(omega, -phi - pi/2, phi + pi/2, -pi/2); one
    final diag layer realizes the adjoint of the factorization's diagonal.
    The diag layer is always present, even when every phase is zero, so the
    layout is uniform.  The whole compile is array arithmetic on the
    factorization's columns, which are valid, so nothing is checked again;
    the netlist takes the factorization's layer plan, with the diag as one
    more layer, rather than planning again.
    """
    k = f.p.size
    order, steps = f._plan
    angles = np.empty((k + 1, 4))
    angles[:k, 0] = f.omega
    angles[:k, 1] = _wrap(-f.phi - _HALF_PI)
    angles[:k, 2] = _wrap(f.phi + _HALF_PI)
    angles[:k, 3] = -_HALF_PI
    angles[k] = 0.0
    return Netlist._from_columns(
        f.dim, kind=np.append(np.full(k, TWO), ALL), p=np.append(f.p, -1), q=np.append(f.q, -1), angles=angles,
        phases=-f.diagonal[None, :], plan=(order, steps + [(f.depth + 1, ALL, slice(None), 0, 1)]),
    )


def transfer_matrix(nl: Netlist) -> np.ndarray:
    """Product of all element matrices in passage order, applied layer by layer."""
    out = np.eye(nl.dim, dtype=np.complex128)
    apply_layers(out, nl._steps)
    return out


def simulate(nl: Netlist, state) -> np.ndarray:
    """Push an input amplitude vector through every element in order (not in place)."""
    v = as_vector(state).copy()
    if v.size != nl.dim:
        raise ValueError(f"state dimension {v.size} does not match netlist dim {nl.dim}")
    apply_layers(v, nl._steps)
    return v


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def render_schematic(nl: Netlist, format: str = "text") -> str:
    """Deterministic schematic of a netlist as text or SVG.

    Ports are shown 1-based.  Byte-identical output for equal netlists.
    """
    if format == "text":
        lines = [f"netlist dim={nl.dim} elements={nl.kind.size}"]
        for e in nl._walk(1, tuple):
            if e["kind"] == "bs":
                lines.append(
                    f"BS {e['p']},{e['q']} T={_fmt(transmission(e['omega']))} alpha={_fmt(e['alpha'])} "
                    f"beta={_fmt(e['beta'])} phi={_fmt(e['phi'])}"
                )
            elif e["kind"] == "ps":
                lines.append(f"PS {e['p']} phi={_fmt(e['phase'])}")
            else:
                lines.append("DIAG " + " ".join(_fmt(x) for x in e["phases"]))
        return "\n".join(lines) + "\n"
    if format == "svg":
        return _render_svg(nl)
    raise ValueError(f"unknown schematic format {format!r}; use 'text' or 'svg'")


def _render_svg(nl: Netlist) -> str:
    col_w, row_h = 90, 50
    left, top = 70, 40
    width = left + col_w * max(1, nl.kind.size) + 40
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
    for i, e in enumerate(nl._walk(0, tuple)):
        x = left + col_w * i
        if e["kind"] == "bs":
            p, q = e["p"], e["q"]
            parts.append(f'<rect x="{x - 12}" y="{y(p) - 12}" width="24" height="{y(q) - y(p) + 24}"/>')
            parts.append(f'<text x="{x - 12}" y="{y(p) - 18}">T={_fmt(transmission(e["omega"]))}</text>')
        elif e["kind"] == "ps":
            parts.append(f'<rect x="{x - 10}" y="{y(e["p"]) - 10}" width="20" height="20"/>')
            parts.append(f'<text x="{x - 10}" y="{y(e["p"]) - 16}">ph={_fmt(e["phase"])}</text>')
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
    return {"dim": nl.dim, "elements": list(nl._walk(1, list))}


def netlist_from_payload(payload: dict) -> Netlist:
    """The columns of a netlist file, read and checked by ``_read_elements``; no ``Element`` is built."""
    dim = read_int(payload["dim"])
    if dim > MAX_FILE_DIM:
        raise ValueError(f"netlist dim {dim} exceeds the limit of {MAX_FILE_DIM}")
    return Netlist._from_columns(dim, **_read_elements(dim, payload["elements"], 1))


def save_netlist(path, nl: Netlist) -> None:
    write_json(path, netlist_to_payload(nl))


def load_netlist(path) -> Netlist:
    return read_json(path, netlist_from_payload)
