"""Command-line front end.

Verbs: decompose, prepare, predict, simulate, contexts.  Ports are 1-based
in all user-facing input and output; angles are decimal radians.  Numeric
text output uses 12 significant digits.  Setting the environment variable
REPORT_JSON=1 switches stdout to single JSON records (full float precision).

Exit codes: 0 success, 2 usage error, 3 missing or unreadable input file or
text that is not JSON, 4 numeric/validation failure or a file of the wrong
structure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .contexts import (
    BUILTIN_GRAPHS,
    _dot_text,
    builtin_graph,
    load_context_graph,
    validate_context_graph,
)
from .decompose import decompose, save_factorization
from .interferometer import (
    _fmt,
    load_netlist,
    netlist_from_factorization,
    render_schematic,
    save_netlist,
    simulate,
    transfer_matrix,
)
from .numerics import equal_up_to_global_phase, load_matrix, save_matrix, write_json
from .observables import analyzer_unitary, parse_obs_spec, predict_ports
from .states import STATE_NAMES, preparation_unitary, resolve_state

__all__ = ["main", "build_parser"]


def _json_mode() -> bool:
    return os.environ.get("REPORT_JSON") == "1"


def _emit(record: dict, lines: list[str]) -> None:
    if _json_mode():
        print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)


_STATE_HELP = f"state spec: {', '.join(STATE_NAMES)}, or @file.json"


def _write_text(path, text: str, key: str, lines: list[str], record: dict) -> None:
    """Write ``text`` to ``path`` and report the file under ``key``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    lines.append(f"wrote {path}")
    record[key] = path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Compile unitaries to beam-splitter netlists, predict analyzer "
        "port statistics, and export context diagrams.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_dec = sub.add_parser("decompose", help="factor a unitary matrix file into a netlist")
    p_dec.add_argument("--in", dest="infile", required=True, help="input matrix JSON file")
    p_dec.add_argument("--out", dest="outfile", required=True, help="output netlist JSON file")
    p_dec.add_argument("--factors", help="also write the raw factorization JSON here")
    p_dec.add_argument("--svg", help="also write an SVG schematic here")
    p_dec.set_defaults(func=_cmd_decompose)

    p_prep = sub.add_parser("prepare", help="netlist preparing a named state from one port")
    p_prep.add_argument("--state", required=True, help=_STATE_HELP)
    p_prep.add_argument("--port", type=int, default=1, help="input port, 1-based (default 1)")
    p_prep.add_argument("--out", dest="outfile", help="output netlist JSON file")
    p_prep.add_argument("--unitary", help="also write the preparation unitary matrix here")
    p_prep.add_argument("--svg", help="also write an SVG schematic here")
    p_prep.set_defaults(func=_cmd_prepare)

    p_pred = sub.add_parser("predict", help="output-port probabilities of an analyzer")
    p_pred.add_argument("--state", required=True, help=_STATE_HELP)
    p_pred.add_argument(
        "--obs",
        required=True,
        help="per-particle observable spec joined by '|': fields plane=a,b; "
        "theta=radians; labels=v1,v2[,v3]; or 'id'",
    )
    p_pred.add_argument(
        "--ordering",
        default="reversed_lex",
        choices=["reversed_lex", "forward_lex", "reversed", "forward"],
        help="analyzer row order (default reversed_lex)",
    )
    p_pred.add_argument("--out", dest="outfile", help="also write the distribution as JSON")
    p_pred.set_defaults(func=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="push one input port through a netlist")
    p_sim.add_argument("--net", required=True, help="netlist JSON file")
    p_sim.add_argument("--port", type=int, default=1, help="input port, 1-based (default 1)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ctx = sub.add_parser("contexts", help="validate a context graph and emit DOT")
    p_ctx.add_argument(
        "--graph",
        required=True,
        help=f"builtin graph name ({', '.join(BUILTIN_GRAPHS)}) or @file.json",
    )
    p_ctx.add_argument("--dot", help="write DOT text here instead of stdout")
    p_ctx.set_defaults(func=_cmd_contexts)

    return parser


def _cmd_decompose(args) -> int:
    u = load_matrix(args.infile)
    fact = decompose(u)
    net = netlist_from_factorization(fact)
    save_netlist(args.outfile, net)

    err = float(np.max(np.abs(transfer_matrix(net) - u)))
    lines = [
        f"dim {fact.dim}",
        f"factors {fact.p.size}",
        f"elements {net.kind.size}",
        f"max reconstruction error {_fmt(err)}",
        f"wrote {args.outfile}",
    ]
    record = {
        "verb": "decompose",
        "dim": fact.dim,
        "factors": fact.p.size,
        "elements": net.kind.size,
        "max_reconstruction_error": err,
        "netlist": args.outfile,
    }
    if args.factors:
        save_factorization(args.factors, fact)
        lines.append(f"wrote {args.factors}")
        record["factorization"] = args.factors
    if args.svg:
        _write_text(args.svg, render_schematic(net, format="svg"), "svg", lines, record)
    _emit(record, lines)
    return 0


def _cmd_prepare(args) -> int:
    psi = resolve_state(args.state)
    n = psi.size
    if not 1 <= args.port <= n:
        raise ValueError(f"port {args.port} out of range 1..{n}")
    u = preparation_unitary(psi, args.port - 1)
    fact = decompose(u)
    net = netlist_from_factorization(fact)

    basis_in = np.zeros(n, dtype=np.complex128)
    basis_in[args.port - 1] = 1.0
    out = simulate(net, basis_in)
    ok = equal_up_to_global_phase(out, psi, 1e-10)

    lines = [
        f"state {args.state} dim {n}",
        f"input port {args.port}",
        f"factors {fact.p.size}",
        f"prepared state matches target up to global phase: {'yes' if ok else 'NO'}",
    ]
    record = {
        "verb": "prepare",
        "state": args.state,
        "dim": n,
        "port": args.port,
        "factors": fact.p.size,
        "matches_up_to_phase": bool(ok),
    }
    if not ok:
        _emit(record, lines)
        raise ValueError("netlist does not reproduce the target state")
    if args.outfile:
        save_netlist(args.outfile, net)
        lines.append(f"wrote {args.outfile}")
        record["netlist"] = args.outfile
    if args.unitary:
        save_matrix(args.unitary, u)
        lines.append(f"wrote {args.unitary}")
        record["unitary"] = args.unitary
    if args.svg:
        _write_text(args.svg, render_schematic(net, format="svg"), "svg", lines, record)
    _emit(record, lines)
    return 0


_ORDERING_ALIASES = {"reversed": "reversed_lex", "forward": "forward_lex"}


def _cmd_predict(args) -> int:
    psi = resolve_state(args.state)
    parts = parse_obs_spec(args.obs, psi.size)
    ordering = _ORDERING_ALIASES.get(args.ordering, args.ordering)
    analyzer = analyzer_unitary(parts, ordering)
    dist = predict_ports(analyzer, psi)

    lines = [f"port {i + 1} {_fmt(p)}" for i, p in enumerate(dist.probabilities)]
    record = {
        "verb": "predict",
        "state": args.state,
        "obs": args.obs,
        "ordering": ordering,
        "probabilities": list(dist.probabilities),
        "amplitudes": [[a.real, a.imag] for a in dist.amplitudes],
    }
    if args.outfile:
        write_json(args.outfile, {"probabilities": list(dist.probabilities)})
        lines.append(f"wrote {args.outfile}")
        record["out"] = args.outfile
    _emit(record, lines)
    return 0


def _cmd_simulate(args) -> int:
    net = load_netlist(args.net)
    if not 1 <= args.port <= net.dim:
        raise ValueError(f"port {args.port} out of range 1..{net.dim}")
    basis_in = np.zeros(net.dim, dtype=np.complex128)
    basis_in[args.port - 1] = 1.0
    out = simulate(net, basis_in)
    probs = np.abs(out) ** 2

    lines = [
        f"port {i + 1} re {_fmt(a.real)} im {_fmt(a.imag)} p {_fmt(p)}"
        for i, (a, p) in enumerate(zip(out, probs))
    ]
    record = {
        "verb": "simulate",
        "net": args.net,
        "port": args.port,
        "amplitudes": [[a.real, a.imag] for a in out],
        "probabilities": [float(p) for p in probs],
    }
    _emit(record, lines)
    return 0


def _cmd_contexts(args) -> int:
    name = args.graph
    if name.startswith("@"):
        graph = load_context_graph(name[1:])
    else:
        graph = builtin_graph(name)
    report = validate_context_graph(graph)

    lines = [f"contexts {len(graph.contexts)}"]
    record = {
        "verb": "contexts",
        "graph": name,
        "contexts": len(graph.contexts),
        "ok": report.ok,
        "violations": list(report.violations),
    }
    if not report.ok:
        lines.append("invalid")
        lines.extend(f"violation: {v}" for v in report.violations)
        _emit(record, lines)
        return 4

    lines.append("ok")
    ctxs = graph.contexts
    record["links"] = [
        {"a": ctxs[a].name, "b": ctxs[b].name, "label": ctxs[a].rays[i].label}
        for a, b, i, _ in report.links
    ]
    lines.extend(f"link {x['a']} {x['b']} via {x['label']}" for x in record["links"])

    dot = _dot_text(graph)
    record["dot"] = dot
    if args.dot:
        _write_text(args.dot, dot, "dot_file", lines, record)
    else:
        lines.append(dot.rstrip("\n"))
    _emit(record, lines)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return int(code)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
