"""Command-line front end.

Verbs: decompose, prepare, predict, simulate, contexts.  Ports are 1-based
in all user-facing input and output; angles are decimal radians.  Numeric
text output uses 12 significant digits.  Setting the environment variable
REPORT_JSON=1 switches stdout to single JSON records (full float precision).

Exit codes: 0 success, 2 usage error, 3 missing or unreadable input file,
bytes that are not UTF-8 or text that is not JSON, 4 numeric/validation
failure or a file of the wrong structure.  Every exit 3 or 4, an invalid
context graph included, prints one ``error:`` line on stderr; under
REPORT_JSON=1 it also ends stdout with one failure record: verb, exit code,
error class and message.  A verb returns its report and the fault, if any,
found after the report was built; ``main`` alone prints both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .contexts import (
    BUILTIN_GRAPHS,
    builtin_graph,
    greechie_dot,
    load_context_graph,
    validate_context_graph,
)
from .decompose import decompose, load_factorization, reconstruct, save_factorization
from .interferometer import (
    _fmt,
    load_netlist,
    netlist_from_factorization,
    render_schematic,
    save_netlist,
    simulate,
    transfer_matrix,
)
from .numerics import _TOL, equal_up_to_global_phase, load_matrix, save_matrix, write_json, write_text
from .observables import ORDERINGS, analyzer_unitary, parse_obs_spec, predict_ports
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
_ORDERING_ALIASES = {"reversed": "reversed_lex", "forward": "forward_lex"}


def _wrote(path, key: str, lines: list[str], record: dict) -> None:
    """Report the file written at ``path``: a ``wrote`` line, and the path under ``key``."""
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
        default=ORDERINGS[0],
        choices=ORDERINGS + tuple(_ORDERING_ALIASES),
        help="analyzer row order (default %(default)s)",
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


def _compile(u, path):
    """Compile ``u`` into ``(fact, net, back)``: with a ``path``, ``back`` is the netlist written there, read back."""
    fact = decompose(u)
    net = netlist_from_factorization(fact)
    if not path:
        return fact, net, net
    save_netlist(path, net)
    return fact, net, load_netlist(path)


def _basis(n: int, port: int) -> np.ndarray:
    """The basis vector of 1-based input ``port`` of an ``n``-port mesh."""
    if not 1 <= port <= n:
        raise ValueError(f"port {port} out of range 1..{n}")
    v = np.zeros(n, dtype=np.complex128)
    v[port - 1] = 1.0
    return v


def _cmd_decompose(args) -> tuple[dict, list[str], str | None]:
    u = load_matrix(args.infile)
    fact, net, back = _compile(u, args.outfile)
    err = float(np.max(np.abs(transfer_matrix(back) - u)))  # of the file, as the user gets it
    lines = [
        f"dim {fact.dim}",
        f"factors {fact.p.size}",
        f"elements {net.kind.size}",
        f"max reconstruction error {_fmt(err)}",
    ]
    record = {
        "verb": "decompose",
        "dim": fact.dim,
        "factors": fact.p.size,
        "elements": net.kind.size,
        "max_reconstruction_error": err,
    }
    _wrote(args.outfile, "netlist", lines, record)
    misses = [f"netlist {args.outfile} misses it by {_fmt(err)}"] if err > _TOL else []
    if args.factors:
        save_factorization(args.factors, fact)
        ferr = float(np.max(np.abs(reconstruct(load_factorization(args.factors)) - u)))
        _wrote(args.factors, "factorization", lines, record)
        record["factorization_error"] = ferr
        if ferr > _TOL:
            misses.append(f"factorization {args.factors} misses it by {_fmt(ferr)}")
    if misses:
        return record, lines, f"a written file does not reproduce the input within {_TOL:g}: {'; '.join(misses)}"
    if args.svg:
        write_text(args.svg, render_schematic(net, format="svg"))
        _wrote(args.svg, "svg", lines, record)
    return record, lines, None


def _cmd_prepare(args) -> tuple[dict, list[str], str | None]:
    psi = resolve_state(args.state)
    n = psi.size
    basis_in = _basis(n, args.port)
    u = preparation_unitary(psi, args.port - 1)
    fact, net, back = _compile(u, args.outfile)
    ok = equal_up_to_global_phase(simulate(back, basis_in), psi)  # the file, when one is written

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
    if args.outfile:
        _wrote(args.outfile, "netlist", lines, record)
    if not ok:
        return record, lines, "netlist does not reproduce the target state"
    if args.unitary:
        save_matrix(args.unitary, u)
        _wrote(args.unitary, "unitary", lines, record)
    if args.svg:
        write_text(args.svg, render_schematic(net, format="svg"))
        _wrote(args.svg, "svg", lines, record)
    return record, lines, None


def _cmd_predict(args) -> tuple[dict, list[str], str | None]:
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
        _wrote(args.outfile, "out", lines, record)
    return record, lines, None


def _cmd_simulate(args) -> tuple[dict, list[str], str | None]:
    net = load_netlist(args.net)
    out = simulate(net, _basis(net.dim, args.port))
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
    return record, lines, None


def _cmd_contexts(args) -> tuple[dict, list[str], str | None]:
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
        return record, lines, f"invalid context graph: {len(report.violations)} violations"

    lines.append("ok")
    ctxs = graph.contexts
    record["links"] = [
        {"a": ctxs[a].name, "b": ctxs[b].name, "label": ctxs[a].rays[i].label}
        for a, b, i, _ in report.links
    ]
    lines.extend(f"link {x['a']} {x['b']} via {x['label']}" for x in record["links"])

    dot = greechie_dot(graph)
    record["dot"] = dot
    if args.dot:
        write_text(args.dot, dot)
        _wrote(args.dot, "dot_file", lines, record)
    else:
        lines.append(dot.rstrip("\n"))
    return record, lines, None


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
        record, lines, failure = args.func(args)
        _emit(record, lines)
        if failure is None:
            return 0
        raise ValueError(failure)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        code, error = 3, exc
    except ValueError as exc:
        code, error = 4, exc
    print(f"error: {error}", file=sys.stderr)
    if _json_mode():
        failed = {"verb": args.verb, "exit_code": code, "error_class": type(error).__name__, "message": str(error)}
        print(json.dumps(failed, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
