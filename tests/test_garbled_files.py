"""Every file reader under one property: a garbled file fails cleanly.

A valid file of each format is mutated -- a value swapped for another type
or an extreme number, an entry deleted, a list item duplicated -- and run
through its reader: the matrix file by ``decompose --in``, the state file by
``predict --state @``, the netlist file by ``simulate --net``, the graph file
by ``contexts --graph @`` (all through ``cli.main`` in process), and the
factorization file by ``load_factorization``.  Numpy warnings are errors
here, so a warning that would leak to stderr fails the property.
"""

import contextlib
import copy
import io
import json
import os
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


@st.composite
def garbled(draw, payload):
    """The payload with one to three mutations: a type swap, a deletion, or a duplicated list item."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            payload = draw(SWAPS)
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
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
