"""Every file reader under one property: a garbled file fails cleanly.

A valid file of each format is mutated -- a value swapped for another type
or an extreme number, an entry deleted, a list item duplicated, a key
inserted into an object -- and run
through its reader: the matrix file by ``decompose --in``, the state file by
``predict --state @``, the netlist file by ``simulate --net``, the graph file
by ``contexts --graph @`` (all through ``cli.main`` in process), and the
factorization file by ``load_factorization``.  Numpy warnings are errors
here, so a warning that would leak to stderr fails the property.  A table
then holds every object of every format to its fields, through the same
readers: a field it does not take, a missing field, an array in its place
and a field given twice each exit 4 with a message naming the fault.
"""

import contextlib
import copy
import io
import json
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    Factorization,
    builtin_graph,
    decompose,
    load_factorization,
    netlist_from_factorization,
    random_unitary,
)
from multiport.cli import main
from multiport.contexts import context_graph_to_payload
from multiport.decompose import factorization_to_payload
from multiport.interferometer import netlist_to_payload
from multiport.numerics import matrix_to_payload

FAILURE_KEYS = {"verb", "exit_code", "error_class", "message"}

# Each format: a valid payload and the CLI arguments that read it ({f} is the file), or None for load_factorization.
FORMATS = {
    "matrix": (matrix_to_payload(random_unitary(3, 1)), ("decompose", "--in", "{f}", "--out", "{d}/net.json")),
    "state": (matrix_to_payload(np.array([[0.6], [0.8j]])), ("predict", "--state", "@{f}", "--obs", "id")),
    "netlist": (netlist_to_payload(netlist_from_factorization(decompose(random_unitary(3, 2)))),
                ("simulate", "--net", "{f}")),
    "graph": (context_graph_to_payload(builtin_graph("two-tripods")), ("contexts", "--graph", "@{f}")),
    "factorization": (factorization_to_payload(decompose(random_unitary(3, 3))), None),
}

SWAPS = st.sampled_from(
    [None, True, False, 0, -1, 2, 10**30, -1e30, 1e30, float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
     "x", "", "2", [], [1.0, 0.0], [[1.0, 0.0]], {}, {"kind": "bs"}]
).map(copy.deepcopy)  # a later mutation must not reach the strategy's own list or dict


def _paths(node, at=()):
    """The path of every node of a JSON tree, as a tuple of keys and indices, the root first."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, at + (key,))


# Keys to insert: fields of the formats, of other kinds or formats than the object's own, and a stranger.
KEYS = st.sampled_from(["kind", "p", "q", "omega", "T", "phase", "phases", "alpha", "name", "rows", "x"])


def _node(payload, path):
    """The node of ``payload`` at ``path``."""
    for key in path:
        payload = payload[key]
    return payload


@st.composite
def garbled(draw, payload):
    """The payload with one to three mutations: a type swap, a deletion, a duplicated list item, or an inserted key."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if isinstance(_node(payload, path), dict) and draw(st.booleans()):
            _node(payload, path)[draw(KEYS)] = draw(SWAPS)
            continue
        if not path:
            payload = draw(SWAPS)
            continue
        parent = _node(payload, path[:-1])
        key = path[-1]
        how = draw(st.sampled_from(("swap", "delete", "duplicate")))
        if how == "swap":
            parent[key] = draw(SWAPS)
        elif how == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return payload


def _run(argv, json_mode):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"REPORT_JSON": "1" if json_mode else "0"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("garbled")


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_garbled_file_fails_with_one_error_line_and_a_failure_record(name, workdir, data):
    payload, argv = FORMATS[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(data.draw(garbled(payload))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if argv is None:
            try:
                assert isinstance(load_factorization(path), Factorization)
            except ValueError:
                pass
            return
        args = [a.format(f=path, d=workdir) for a in argv]
        code, _, err = _run(args, json_mode=False)
        json_code, out, json_err = _run(args, json_mode=True)
    assert code in (0, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert (json_code, json_err) == (code, err)
    if code:
        failed = json.loads(out.splitlines()[-1])
        assert set(failed) == FAILURE_KEYS and failed["exit_code"] == code


def _with(payload, path, value):
    """A copy of ``payload`` with the node at ``path`` set to ``value``."""
    payload = copy.deepcopy(payload)
    _node(payload, path[:-1])[path[-1]] = value
    return payload


EYE2 = matrix_to_payload(np.eye(2))
NETLIST2 = netlist_to_payload(netlist_from_factorization(decompose(random_unitary(2, 2))))  # a bs, then a diag
FACTORIZATION2 = factorization_to_payload(decompose(random_unitary(2, 3)))
TRIPODS = FORMATS["graph"][0]

# A bool or a string where a real belongs, a string or an object where an array belongs.  Read
# with float() and iteration, each of these files is a valid one: true is 1, "10" is the pair
# [1, 0], and {"1": 0, "2": 0} is the phases [1, 2].
WRONG_TYPES = {
    "state-entry-string": ("state", {"rows": 2, "cols": 1, "entries": ["10", "00"]}, "an array, got str"),
    "matrix-real-true": ("matrix", _with(EYE2, ("entries", 0), [True, False]), "a number, got bool"),
    "matrix-real-string": ("matrix", _with(EYE2, ("entries", 1), ["0", 0]), "a number, got str"),
    "netlist-omega-true": ("netlist", _with(NETLIST2, ("elements", 0, "omega"), True), "a number, got bool"),
    "netlist-alpha-string": ("netlist", _with(NETLIST2, ("elements", 0, "alpha"), "0.5"), "a number, got str"),
    "netlist-phases-string": ("netlist", _with(NETLIST2, ("elements", 1, "phases"), "12"), "an array, got str"),
    "netlist-phases-object": (
        "netlist", _with(NETLIST2, ("elements", 1, "phases"), {"1": 0, "2": 0}), "an array, got dict"
    ),
    "graph-real-true": ("graph", _with(TRIPODS, (0, "rays", 0, "vector", 0), [True, 0]), "a number, got bool"),
    "graph-real-string": ("graph", _with(TRIPODS, (0, "rays", 0, "vector", 1), ["0", 0]), "a number, got str"),
    "factorization-omega-string": (
        "factorization", _with(FACTORIZATION2, ("factors", 0, "omega"), "0.3"), "a number, got str"
    ),
    "factorization-phi-false": (
        "factorization", _with(FACTORIZATION2, ("factors", 0, "phi"), False), "a number, got bool"
    ),
    "factorization-diagonal-string": (
        "factorization", _with(FACTORIZATION2, ("diagonal",), "00"), "an array, got str"
    ),
}


@pytest.mark.parametrize("where", [(0, "rays", 0, "label"), (0, "name")], ids=["label", "name"])
@pytest.mark.parametrize("value", [None, True, 3, 2.5, [1], {"a": 1}], ids=json.dumps)
def test_a_label_or_name_that_is_no_json_string_exits_4(where, value, workdir):
    # Read with str(), each of these files is a valid graph drawn under its Python text: "None", "True", "3".
    path = workdir / "not-a-string.json"
    path.write_text(json.dumps(_with(TRIPODS, where, value)))
    argv = ("contexts", "--graph", f"@{path}")
    code, out, err = _run(argv, json_mode=False)
    json_code, json_out, json_err = _run(argv, json_mode=True)
    assert (code, out, json_code, json_err) == (4, "", 4, err)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"(TypeError: expected a string, got {type(value).__name__})\n")
    failed = {"verb": "contexts", "exit_code": 4, "error_class": "ValueError", "message": err[len("error: "):-1]}
    assert json_out.splitlines() == [json.dumps(failed, sort_keys=True)]


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_a_bool_or_string_where_a_number_or_an_array_belongs_exits_4(name, workdir):
    fmt, payload, what = WRONG_TYPES[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(payload))
    message = f"TypeError: expected {what})"
    argv = FORMATS[fmt][1]
    if argv is None:
        with pytest.raises(ValueError, match=re.escape(message)):
            load_factorization(path)
        return
    code, _, err = _run([a.format(f=path, d=workdir) for a in argv], json_mode=False)
    assert code == 4 and err.endswith(f"{message}\n")



# Each object of each format, read through ``numerics.read_object``: the format, a valid payload, the path to the
# object in it, the object's name in refusals, and the fields it needs, in the order a refusal names them.
OBJECTS = {
    "matrix": ("matrix", FORMATS["matrix"][0], (), "matrix", ("rows", "cols", "entries")),
    "state": ("state", FORMATS["state"][0], (), "matrix", ("rows", "cols", "entries")),
    "netlist": ("netlist", NETLIST2, (), "netlist", ("dim", "elements")),
    "bs-element": ("netlist", NETLIST2, ("elements", 0), "bs element", ("p", "q", "omega")),
    "ps-element": ("netlist", {"dim": 2, "elements": [{"kind": "ps", "p": 1, "phase": 0.1}]}, ("elements", 0),
                   "ps element", ("p", "phase")),
    "diag-element": ("netlist", NETLIST2, ("elements", 1), "diag element", ("phases",)),
    "factorization": ("factorization", FACTORIZATION2, (), "factorization", ("dim", "factors", "diagonal")),
    "factor": ("factorization", FACTORIZATION2, ("factors", 0), "factor", ("p", "q", "omega", "phi")),
    "context": ("graph", TRIPODS, (0,), "context", ("name", "rays")),
    "ray": ("graph", TRIPODS, (0, "rays", 0), "ray", ("label", "vector")),
}


def _object_cases():
    """(id, format, file text, message) for each object: a field it does not take, a missing field, the object
    replaced by an array, and a field given twice in the text; ``{f}`` in a message is the file's path."""
    for name, (fmt, payload, path, what, needs) in OBJECTS.items():
        extra = copy.deepcopy(payload)
        _node(extra, path)["x"] = 1
        yield f"{name}-extra", fmt, json.dumps(extra), f"{what} takes no x"
        missing = copy.deepcopy(payload)
        del _node(missing, path)[needs[-1]]
        yield f"{name}-missing", fmt, json.dumps(missing), f"{what} needs {', '.join(needs)}"
        array = _with(payload, path, [1]) if path else [1]
        yield f"{name}-array", fmt, json.dumps(array), "malformed file {f} (TypeError: expected an object, got list)"
        twice = copy.deepcopy(payload)
        _node(twice, path)["TWICE"] = _node(payload, path)[needs[0]]
        text = json.dumps(twice).replace('"TWICE"', json.dumps(needs[0]))
        yield f"{name}-repeated", fmt, text, f"repeated field {needs[0]!r}"
    # A key of no format, on a ray and on its context, and on a matrix: each was once read past as if absent.
    graph = copy.deepcopy(TRIPODS)
    graph[0]["rays"][0]["weight"] = 2
    graph[0]["colour"] = "red"
    yield "graph-weight-colour", "graph", json.dumps(graph), "context takes no colour"
    yield "matrix-scale", "matrix", json.dumps(dict(FORMATS["matrix"][0], scale=3)), "matrix takes no scale"


OBJECT_CASES = {case[0]: case[1:] for case in _object_cases()}


@pytest.mark.parametrize("case", OBJECT_CASES)
def test_every_object_of_every_format_holds_to_its_fields(case, workdir):
    fmt, text, message = OBJECT_CASES[case]
    path = workdir / f"{case}.json"
    path.write_text(text)
    message = message.format(f=path)
    argv = FORMATS[fmt][1]
    if argv is None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_factorization(path)
        return
    args = [a.format(f=path, d=workdir) for a in argv]
    code, out, err = _run(args, json_mode=False)
    json_code, json_out, json_err = _run(args, json_mode=True)
    assert (code, out, err) == (4, "", f"error: {message}\n")
    assert (json_code, json_err) == (4, err)
    failed = {"verb": argv[0], "exit_code": 4, "error_class": "ValueError", "message": message}
    assert json_out.splitlines() == [json.dumps(failed, sort_keys=True)]
