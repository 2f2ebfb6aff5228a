import json
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from multiport import (
    STATE_NAMES,
    analyzer_unitary,
    bell_state,
    builtin_graph,
    identity_spec,
    load_matrix,
    load_netlist,
    predict_ports,
    qutrit2_singlet,
    random_unitary,
    render_schematic,
    save_context_graph,
    save_matrix,
    transfer_matrix,
)
import multiport.cli
import multiport.contexts
import multiport.numerics
from multiport.cli import main
from multiport.contexts import Context, ContextGraph, Ray
from multiport.decompose import factorization_to_payload
from multiport.interferometer import netlist_to_payload
from multiport.observables import ObservableSpec

import refdata


@pytest.fixture(autouse=True)
def plain_text_output(monkeypatch):
    monkeypatch.delenv("REPORT_JSON", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- argument handling -------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["transmogrify"]) == 2
    assert main(["decompose"]) == 2  # missing --in/--out
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out


# --- decompose ----------------------------------------------------------------

def test_decompose_verb(tmp_path, capsys):
    mat = tmp_path / "u.json"
    save_matrix(mat, refdata.U2_4)
    net = tmp_path / "net.json"
    fac = tmp_path / "factors.json"
    svg = tmp_path / "schematic.svg"
    code, out, _ = run(capsys, "decompose", "--in", str(mat), "--out", str(net),
                       "--factors", str(fac), "--svg", str(svg))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim 4"
    n_factors = int(lines[1].split()[1])
    assert n_factors <= 6
    assert lines[3].startswith("max reconstruction error ")
    assert float(lines[3].split()[-1]) <= 1e-10
    assert net.exists() and fac.exists() and svg.exists()
    assert svg.read_text().startswith("<svg")
    back = load_netlist(net)
    assert np.max(np.abs(transfer_matrix(back) - refdata.U2_4)) <= 1e-10


def test_decompose_near_permutation_reports_error_within_contract(tmp_path, capsys):
    mat = tmp_path / "u.json"
    save_matrix(mat, refdata.near_permutation(np.random.default_rng(16), 16, 1e-9))
    code, out, _ = run(capsys, "decompose", "--in", str(mat), "--out", str(tmp_path / "net.json"))
    assert code == 0
    line = out.splitlines()[3]
    assert line.startswith("max reconstruction error ")
    assert float(line.split()[-1]) <= 1e-10


def test_decompose_reports_the_error_of_the_file_it_wrote(tmp_path, capsys, monkeypatch):
    def save_with_one_alpha_off(path, nl):
        payload = netlist_to_payload(nl)
        payload["elements"][0]["alpha"] += 1e-6
        multiport.numerics.write_json(path, payload)

    monkeypatch.setattr(multiport.cli, "save_netlist", save_with_one_alpha_off)
    mat = tmp_path / "u.json"
    save_matrix(mat, random_unitary(6, 21))
    code, out, err = run(capsys, "decompose", "--in", str(mat), "--out", str(tmp_path / "net.json"))
    assert code == 4
    line = out.splitlines()[3]
    assert line.startswith("max reconstruction error ")
    assert float(line.split()[-1]) > 1e-7
    assert err.startswith("error: a written file does not reproduce the input within 1e-10: netlist ")


def test_decompose_checks_the_factorization_file_it_wrote(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPORT_JSON", "1")
    mat, net, fac = tmp_path / "u.json", tmp_path / "net.json", tmp_path / "f.json"
    save_matrix(mat, random_unitary(6, 21))
    argv = ("decompose", "--in", str(mat), "--out", str(net), "--factors", str(fac))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["factorization_error"] <= 1e-10

    def save_with_one_phi_off(path, f):
        payload = factorization_to_payload(f)
        payload["factors"][0]["phi"] += 1e-6
        multiport.numerics.write_json(path, payload)

    monkeypatch.setattr(multiport.cli, "save_factorization", save_with_one_phi_off)
    code, out, err = run(capsys, *argv)
    assert code == 4
    record, failure = map(json.loads, out.splitlines())
    assert record["factorization_error"] > 1e-7 and record["max_reconstruction_error"] <= 1e-10
    assert failure["exit_code"] == 4 and f"factorization {fac} misses it by " in failure["message"]
    assert "error:" in err
    monkeypatch.delenv("REPORT_JSON")
    code, out, _ = run(capsys, *argv)
    assert code == 4 and out.splitlines()[-1] == f"wrote {fac}" and "factorization_error" not in out


def test_decompose_matrix_file_with_fractional_shape_exits_4(tmp_path, capsys):
    mat = tmp_path / "u.json"
    mat.write_text(json.dumps({"rows": 1.5, "cols": 1.5, "entries": [[1.0, 0.0]]}))
    code, out, err = run(capsys, "decompose", "--in", str(mat), "--out", str(tmp_path / "net.json"))
    assert (code, out) == (4, "")
    assert "error:" in err


def test_decompose_matrix_file_with_boolean_shape_exits_4(tmp_path, capsys):
    # JSON true is no integer, though Python's bool is an int.
    mat = tmp_path / "u.json"
    mat.write_text(json.dumps({"rows": True, "cols": True, "entries": [[1.0, 0.0]]}))
    code, out, err = run(capsys, "decompose", "--in", str(mat), "--out", str(tmp_path / "net.json"))
    assert (code, out) == (4, "")
    assert "error:" in err


def test_decompose_matrix_file_of_no_entries_exits_4(tmp_path, capsys):
    mat = tmp_path / "u.json"
    mat.write_text(json.dumps({"rows": 0, "cols": 0, "entries": []}))
    got = run(capsys, "decompose", "--in", str(mat), "--out", str(tmp_path / "net.json"))
    assert got == (4, "", "error: matrix payload must have positive shape\n")


def test_decompose_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "decompose", "--in", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "net.json"))
    assert code == 3
    assert "error:" in err


def test_decompose_non_unitary_exits_4(tmp_path, capsys):
    mat = tmp_path / "bad.json"
    save_matrix(mat, np.ones((3, 3)))
    code, _, err = run(capsys, "decompose", "--in", str(mat),
                       "--out", str(tmp_path / "net.json"))
    assert code == 4
    assert "error:" in err


# --- prepare -------------------------------------------------------------------

def test_prepare_bell_state(tmp_path, capsys):
    net = tmp_path / "net.json"
    uni = tmp_path / "u.json"
    code, out, _ = run(capsys, "prepare", "--state", "bell4",
                       "--out", str(net), "--unitary", str(uni))
    assert code == 0
    assert "prepared state matches target up to global phase: yes" in out
    u = load_matrix(uni)
    assert np.max(np.abs(u[:, 0] - bell_state(4))) <= 1e-12
    assert net.exists()


def test_prepare_checks_the_file_it_wrote(tmp_path, capsys, monkeypatch):
    def save_with_one_alpha_off(path, nl):
        payload = netlist_to_payload(nl)
        payload["elements"][-2]["alpha"] += 1e-6  # the last bs: the state is spread over its ports by then
        multiport.numerics.write_json(path, payload)

    monkeypatch.setattr(multiport.cli, "save_netlist", save_with_one_alpha_off)
    code, out, err = run(capsys, "prepare", "--state", "qutrit2-singlet", "--out", str(tmp_path / "net.json"))
    assert code == 4
    assert "prepared state matches target up to global phase: NO" in out
    assert "error:" in err


def test_failing_prepare_reports_the_netlist_it_left_on_disk(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multiport.cli, "equal_up_to_global_phase", lambda *args: False)
    net = tmp_path / "net.json"
    argv = ("prepare", "--state", "bell4", "--out", str(net))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (4, "error: netlist does not reproduce the target state\n")
    assert f"wrote {net}" in out.splitlines() and net.exists()
    monkeypatch.setenv("REPORT_JSON", "1")
    code, out, _ = run(capsys, *argv)
    record, failed = map(json.loads, out.splitlines())
    assert (code, record["netlist"], failed["exit_code"]) == (4, str(net), 4)


def test_prepare_writes_the_schematic_of_the_netlist_it_wrote(tmp_path, capsys):
    net, svg = tmp_path / "net.json", tmp_path / "prep.svg"
    code, out, _ = run(capsys, "prepare", "--state", "qutrit2-singlet", "--out", str(net), "--svg", str(svg))
    assert code == 0
    assert out.splitlines()[-1] == f"wrote {svg}"
    assert svg.read_text() == render_schematic(load_netlist(net), format="svg")


def test_prepare_other_port(tmp_path, capsys):
    uni = tmp_path / "u.json"
    code, out, _ = run(capsys, "prepare", "--state", "qutrit2-singlet",
                       "--port", "2", "--unitary", str(uni))
    assert code == 0
    u = load_matrix(uni)
    assert np.max(np.abs(u[:, 1] - qutrit2_singlet())) <= 1e-12


def test_prepare_bad_port_exits_4(capsys):
    code, _, err = run(capsys, "prepare", "--state", "bell1", "--port", "9")
    assert code == 4
    assert "error:" in err


def test_prepare_unknown_state_exits_4(capsys):
    code, _, _ = run(capsys, "prepare", "--state", "bell7")
    assert code == 4


@pytest.mark.parametrize("spec", ["bell 1", "bell01", "bell+1", "bell\u0663"])
def test_prepare_misspelled_state_exits_4(capsys, spec):
    code, _, err = run(capsys, "prepare", "--state", spec)
    assert code == 4
    assert "unknown state spec" in err


def test_state_help_lists_every_state_name(capsys):
    for verb in ("prepare", "predict"):
        assert main([verb, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ", ".join(STATE_NAMES) + ", or @file.json" in text


# --- predict ---------------------------------------------------------------------

QUARTER = "0.78539816339744831"  # pi/4, more digits than a double needs


def test_predict_counterdiagonal_distribution(capsys):
    code, out, _ = run(capsys, "predict", "--state", "bell4",
                       "--obs", "plane=1,2;theta=0|id")
    assert code == 0
    assert out.splitlines() == ["port 1 0", "port 2 0.5",
                                "port 3 0.5", "port 4 0"]


def test_predict_flat_distribution(capsys):
    code, out, _ = run(capsys, "predict", "--state", "bell4",
                       "--obs", f"id|plane=1,2;theta={QUARTER}")
    assert code == 0
    assert out.splitlines() == [f"port {i} 0.25" for i in range(1, 5)]


def test_predict_qutrit_distribution(capsys):
    code, out, _ = run(capsys, "predict", "--state", "qutrit2-singlet",
                       "--obs", f"id|plane=1,2;theta={QUARTER}")
    assert code == 0
    lines = out.splitlines()
    assert lines[6] == "port 7 0.333333333333"
    assert lines[0] == "port 1 0" and lines[3] == "port 4 0"


@pytest.mark.parametrize("obs, message", [
    ("id| ", "empty observable segment"),
    ("id;plane=1,2|id", "'id' cannot be combined with other fields"),
    ("plane|id", "malformed observable field 'plane'"),
    ("plane=1|id", "plane wants two comma-separated axes, got '1'"),
    ("plane=a,b|id", "plane wants two comma-separated axes, got 'a,b'"),
    ("plane=1,2;theta=nan|id", "theta must be finite"),
    ("plane=1,2;theta=-inf|id", "theta must be finite"),
    ("theta=nan|id", "theta needs plane"),
    ("theta=1.0|id", "theta needs plane"),
    ("plane=1,2;theta=0.3;plane=1,2|id", "repeated observable field 'plane'"),
    ("plane=1,2;theta=0.3;theta=1.2|id", "repeated observable field 'theta'"),
])
def test_predict_malformed_obs_spec_exits_4(capsys, obs, message):
    code, out, err = run(capsys, "predict", "--state", "bell4", "--obs", obs)
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_predict_ordering_aliases(capsys):
    _, rev, _ = run(capsys, "predict", "--state", "bell4",
                    "--obs", "plane=1,2;theta=0|id", "--ordering", "reversed")
    _, fwd, _ = run(capsys, "predict", "--state", "bell4",
                    "--obs", "plane=1,2;theta=0|id", "--ordering", "forward")
    rev_p = [l.split()[-1] for l in rev.splitlines()]
    fwd_p = [l.split()[-1] for l in fwd.splitlines()]
    assert rev_p == fwd_p[::-1]


def test_predict_out_file_round_trips_bitwise(tmp_path, capsys):
    out_json = tmp_path / "dist.json"
    code, _, _ = run(capsys, "predict", "--state", "qutrit2-singlet",
                     "--obs", f"id|plane=1,2;theta={QUARTER}",
                     "--out", str(out_json))
    assert code == 0
    got = json.loads(out_json.read_text())["probabilities"]

    theta = float(QUARTER)
    spec = ObservableSpec(dim=3,
                          rotation=np.array([
                              [np.cos(theta), np.sin(theta), 0.0],
                              [-np.sin(theta), np.cos(theta), 0.0],
                              [0.0, 0.0, 1.0]]),
                          labels=(1.0, 0.0, -1.0))
    want = predict_ports(analyzer_unitary([identity_spec(3), spec]),
                         qutrit2_singlet()).probabilities
    assert got == list(want)  # bitwise: json round trip must not perturb


def test_predict_bad_obs_exits_4(capsys):
    code, _, _ = run(capsys, "predict", "--state", "bell4", "--obs", "id|id|id")
    assert code == 4


# --- simulate ---------------------------------------------------------------------

def test_simulate_prepared_netlist(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert run(capsys, "prepare", "--state", "bell4", "--out", str(net))[0] == 0
    code, out, _ = run(capsys, "simulate", "--net", str(net), "--port", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("port 1 re ") and lines[0].endswith(" p 0")
    assert lines[1].endswith(" p 0.5")
    assert lines[2].endswith(" p 0.5")
    assert lines[3].endswith(" p 0")


def test_simulate_missing_net_exits_3(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--net", str(tmp_path / "nope.json"))
    assert code == 3


GARBLED_NETLISTS = {
    "ps-with-phi": {"dim": 2, "elements": [{"kind": "ps", "p": 1, "phi": 0.3}]},
    "bs-without-T": {"dim": 2, "elements": [{"kind": "bs", "p": 1, "q": 2}]},
    "bs-omega-out-of-range": {"dim": 2, "elements": [{"kind": "bs", "p": 1, "q": 2, "omega": 2.0}]},
    "bs-omega-not-finite": {"dim": 2, "elements": [{"kind": "bs", "p": 1, "q": 2, "omega": float("nan")}]},
    "bare-number-element": {"dim": 2, "elements": [0.5]},
    "diag-one-phase-short": {"dim": 3, "elements": [{"kind": "diag", "phases": [0.1, 0.2]}]},
    "diag-no-phases": {"dim": 2, "elements": [{"kind": "diag", "phases": []}]},
    "ps-phase-nan": {"dim": 2, "elements": [{"kind": "ps", "p": 1, "phase": float("nan")}]},
    "bs-alpha-infinite": {"dim": 2, "elements": [
        {"kind": "bs", "p": 1, "q": 2, "omega": 0.5, "alpha": float("inf")}]},
    "dim-zero": {"dim": 0, "elements": []},
    "bs-on-port-0": {"dim": 2, "elements": [{"kind": "bs", "p": 0, "q": 1, "omega": 0.5}]},
    "unknown-kind": {"dim": 2, "elements": [{"kind": "mirror", "p": 1}]},
    "fractional-dim-and-ports": {"dim": 2.9, "elements": [{"kind": "bs", "p": 1.9, "q": 2.2, "omega": 0.5}]},
    "fractional-dim": {"dim": 2.0, "elements": []},
    "string-port": {"dim": 2, "elements": [{"kind": "ps", "p": "2", "phase": 0.1}]},
    "boolean-dim-and-port": {"dim": True, "elements": [{"kind": "ps", "p": True, "phase": 0.5}]},
    "boolean-bs-port": {"dim": 2, "elements": [{"kind": "bs", "p": True, "q": 2, "omega": 0.5}]},
}


@pytest.mark.parametrize("payload", GARBLED_NETLISTS.values(), ids=GARBLED_NETLISTS.keys())
def test_simulate_garbled_netlist_exits_4(tmp_path, capsys, payload):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(payload))
    code, _, err = run(capsys, "simulate", "--net", str(net))
    assert code == 4
    assert "error:" in err


def test_simulate_element_with_a_field_its_kind_does_not_take_exits_4(tmp_path, capsys, monkeypatch):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"dim": 2, "elements": [{"kind": "ps", "p": 1, "q": 2, "phase": 0.1}]}))
    assert run(capsys, "simulate", "--net", str(net)) == (4, "", "error: ps element takes no q\n")
    monkeypatch.setenv("REPORT_JSON", "1")
    code, out, err = run(capsys, "simulate", "--net", str(net))
    assert (code, err) == (4, "error: ps element takes no q\n")
    failed = {"error_class": "ValueError", "exit_code": 4, "message": "ps element takes no q", "verb": "simulate"}
    assert out.splitlines()[-1] == json.dumps(failed, sort_keys=True)


def test_simulate_bad_port_exits_4(tmp_path, capsys):
    net = tmp_path / "net.json"
    run(capsys, "prepare", "--state", "bell1", "--out", str(net))
    code, _, _ = run(capsys, "simulate", "--net", str(net), "--port", "5")
    assert code == 4


# --- contexts ---------------------------------------------------------------------

def test_contexts_builtin_graph(tmp_path, capsys):
    code, out, _ = run(capsys, "contexts", "--graph", "two-tripods")
    assert code == 0
    assert "ok" in out.splitlines()
    assert "link E F via A" in out
    assert "graph contexts {" in out

    dot = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "contexts", "--graph", "three-chain",
                       "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("graph contexts {")
    assert f"wrote {dot}" in out


DOT_STRING = r'"((?:[^"\\]|\\.)*)"'  # a quoted DOT string: no bare " or \ inside


def _unquoted(s):
    return re.sub(r"\\(.)", r"\1", s)


def test_contexts_dot_quotes_labels_and_names(tmp_path, capsys):
    labels = ('a"b', "c\\d", "e\\", 'q"')  # e\ would close its string as "e\"
    g = builtin_graph("two-tripods")
    (b, c, a), (d, k, _) = g.contexts[0].rays, g.contexts[1].rays
    names = ('E" -- "x', "F\\")
    c1 = Context(names[0], (Ray(labels[0], b.vector), Ray(labels[1], c.vector), Ray("A", a.vector)))
    c2 = Context(names[1], (Ray(labels[2], d.vector), Ray(labels[3], k.vector), Ray("A", a.vector)))
    path = tmp_path / "graph.json"
    save_context_graph(path, ContextGraph(contexts=(c1, c2)))
    code, out, _ = run(capsys, "contexts", "--graph", f"@{path}")
    assert code == 0
    lines = out.splitlines()
    body = lines[lines.index("graph contexts {") + 1 : lines.index("}")]
    nodes, edges = [], []
    for line in body:
        node = re.fullmatch(rf"  {DOT_STRING};", line)
        edge = re.fullmatch(rf"  {DOT_STRING} -- {DOT_STRING} \[context={DOT_STRING}\];", line)
        assert node or edge, line
        if node:
            nodes.append(_unquoted(node[1]))
        else:
            edges.append(tuple(_unquoted(x) for x in edge.groups()))
    assert nodes == sorted(labels + ("A",))
    assert edges == [
        (labels[0], labels[1], names[0]), (labels[1], "A", names[0]),
        (labels[2], labels[3], names[1]), (labels[3], "A", names[1]),
    ]


def test_contexts_dot_of_plain_labels_is_unchanged(capsys):
    code, out, _ = run(capsys, "contexts", "--graph", "two-tripods")
    assert code == 0
    assert out.endswith(
        'graph contexts {\n  "A";\n  "B";\n  "C";\n  "D";\n  "K";\n'
        '  "B" -- "C" [context="E"];\n  "C" -- "A" [context="E"];\n'
        '  "D" -- "K" [context="F"];\n  "K" -- "A" [context="F"];\n}\n'
    )


def test_contexts_invalid_graph_exits_4(tmp_path, capsys):
    e3 = np.eye(3)
    c1 = Context(name="1", rays=tuple(
        Ray(label=l, vector=v) for l, v in zip("ABC", e3)))
    c2 = Context(name="2", rays=tuple(
        Ray(label=l, vector=v) for l, v in zip("ABD", e3)))
    path = tmp_path / "graph.json"
    save_context_graph(path, ContextGraph(contexts=(c1, c2)))
    code, out, _ = run(capsys, "contexts", "--graph", f"@{path}")
    assert code == 4
    assert "invalid" in out
    assert "violation:" in out


def test_contexts_unknown_name_exits_4(capsys):
    code, _, _ = run(capsys, "contexts", "--graph", "dodecahedron")
    assert code == 4


def test_contexts_json_links_in_context_pair_order(monkeypatch, capsys):
    monkeypatch.setenv("REPORT_JSON", "1")
    code, out, _ = run(capsys, "contexts", "--graph", "three-chain")
    assert code == 0
    assert json.loads(out)["links"] == [
        {"a": "E", "b": "F", "label": "x3"},
        {"a": "E", "b": "G", "label": "x1"},
    ]


def test_contexts_verb_validates_once_in_one_gram_pass(monkeypatch, capsys):
    calls = Counter()

    def counted(name):
        original = getattr(multiport.contexts, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    validate = counted("validate_context_graph")
    monkeypatch.setattr(multiport.contexts, "validate_context_graph", validate)
    monkeypatch.setattr(multiport.cli, "validate_context_graph", validate)
    monkeypatch.setattr(multiport.contexts, "_shared_rows", counted("_shared_rows"))
    code, out, _ = run(capsys, "contexts", "--graph", "three-chain")
    assert code == 0
    assert "link E G via x1" in out
    assert calls == {"validate_context_graph": 1, "_shared_rows": 1}


def test_contexts_file_over_ray_cap_exits_4(tmp_path, capsys):
    ray = {"label": "a", "vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps([{"name": f"C{k}", "rays": [ray] * 3} for k in range(683)]))
    code, _, err = run(capsys, "contexts", "--graph", f"@{path}")
    assert code == 4
    assert "2049 rays exceeds the limit of 2048" in err


# --- hostile files -----------------------------------------------------------------

DEEP_NESTING_ARGV = {
    "simulate": ("simulate", "--net", "{f}"),
    "decompose": ("decompose", "--in", "{f}", "--out", "{out}"),
    "contexts": ("contexts", "--graph", "@{f}"),
}


@pytest.mark.parametrize("argv", DEEP_NESTING_ARGV.values(), ids=DEEP_NESTING_ARGV.keys())
def test_deeply_nested_file_exits_4(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, _, err = run(capsys, *(a.format(f=deep, out=tmp_path / "net.json") for a in argv))
    assert code == 4
    assert err.startswith("error: ") and "Traceback" not in err


UNREADABLE_ARGV = {
    **DEEP_NESTING_ARGV,
    "predict": ("predict", "--state", "@{f}", "--obs", "id"),
}


@pytest.mark.parametrize("argv", UNREADABLE_ARGV.values(), ids=UNREADABLE_ARGV.keys())
def test_non_utf8_file_exits_3(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00x")
    code, _, err = run(capsys, *(a.format(f=bad, out=tmp_path / "net.json") for a in argv))
    assert code == 3
    assert err.startswith("error: ") and "utf-8" in err
    assert not (tmp_path / "net.json").exists()


def test_prepare_state_file_over_entry_cap_exits_4(tmp_path, capsys):
    path = tmp_path / "state.json"
    psi = np.zeros((1025, 1))
    psi[0] = 1.0
    save_matrix(path, psi)
    code, _, err = run(capsys, "prepare", "--state", f"@{path}")
    assert code == 4
    assert "1025 entries exceeds the limit of 1024" in err


HUGE_ENTRY = {
    "matrix": (("decompose", "--in", "{f}", "--out", "{tmp}/net.json"), 2,
               "input is not unitary (an entry exceeds 1 in modulus)"),
    "state-predict": (("predict", "--state", "@{f}", "--obs", "id"), 1, "state loaded from file is not normalized"),
    "state-prepare": (("prepare", "--state", "@{f}"), 1, "state loaded from file is not normalized"),
}


@pytest.mark.parametrize("argv, cols, message", HUGE_ENTRY.values(), ids=HUGE_ENTRY.keys())
def test_huge_file_entry_exits_4_without_a_warning(tmp_path, capsys, argv, cols, message):
    # 1e308 squared overflows: the entry must be refused before any product or norm.
    path = tmp_path / "in.json"
    entries = [[1e308, 0.0]] + [[0.0, 0.0]] * (2 * cols - 1)
    path.write_text(json.dumps({"rows": 2, "cols": cols, "entries": entries}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, *(a.format(f=path, tmp=tmp_path) for a in argv))
    assert got == (4, "", f"error: {message}\n")


# --- JSON reporting mode --------------------------------------------------------------

def test_json_mode_emits_single_record(monkeypatch, capsys):
    monkeypatch.setenv("REPORT_JSON", "1")
    code, out, _ = run(capsys, "predict", "--state", "bell4",
                       "--obs", f"id|plane=1,2;theta={QUARTER}")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["verb"] == "predict"
    np.testing.assert_allclose(record["probabilities"], [0.25] * 4, atol=1e-15)
    assert list(record) == sorted(record)


FAILURES = {
    "missing-netlist": (3, "simulate", "FileNotFoundError", ("simulate", "--net", "{tmp}/nope.json")),
    "garbled-matrix": (4, "decompose", "ValueError", ("decompose", "--in", "{tmp}/bad.json", "--out", "{tmp}/n.json")),
    "invalid-graph": (4, "contexts", "ValueError", ("contexts", "--graph", "@{tmp}/graph.json")),
}


@pytest.mark.parametrize("code, verb, error_class, argv", FAILURES.values(), ids=FAILURES.keys())
def test_json_mode_ends_a_failure_with_its_record(tmp_path, capsys, monkeypatch, code, verb, error_class, argv):
    (tmp_path / "bad.json").write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}))
    one_ray = [Context(name, (Ray(name, np.eye(3)[0]),)) for name in "AB"]  # too short, and one ray named twice
    save_context_graph(tmp_path / "graph.json", ContextGraph(contexts=tuple(one_ray)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    text = run(capsys, *argv)
    monkeypatch.setenv("REPORT_JSON", "1")
    got, out, err = run(capsys, *argv)
    assert got == text[0] == code
    record = json.loads(out.splitlines()[-1])
    assert list(record) == ["error_class", "exit_code", "message", "verb"]
    assert (record["verb"], record["exit_code"], record["error_class"]) == (verb, code, error_class)
    assert err == text[2]
    assert err == f"error: {record['message']}\n"
    if verb != "contexts":
        assert out.splitlines() == [out.splitlines()[-1]] and text[1] == ""


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "multiport", "predict", "--state", "bell4",
         "--obs", "plane=1,2;theta=0|id"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "port 1 0"
