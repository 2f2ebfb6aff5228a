"""Layered application against a sequential reference, and the shape of the mesh.

``transfer_matrix``, ``simulate`` and ``reconstruct`` group elements into
ASAP layers and apply each layer as one array step.  The reference below
applies the same elements one at a time, in list order, as dense 2x2 block
products; the two must agree to rounding.
"""

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    BsParams,
    Element,
    Netlist,
    decompose,
    load_factorization,
    load_netlist,
    netlist_from_factorization,
    random_unitary,
    reconstruct,
    save_factorization,
    simulate,
    t_bs,
    t_matrix,
    transfer_matrix,
)
from multiport import devices, interferometer
from multiport.decompose import factorization_from_payload, factorization_to_payload
from multiport.devices import TWO, layer_plan, plan_steps, schedule
from multiport.interferometer import netlist_from_payload, netlist_to_payload

DIFF_TOL = 1e-14


def sequential_transfer(nl):
    """Reference: every element of the netlist applied in order, one at a time."""
    out = np.eye(nl.dim, dtype=np.complex128)
    for e in nl.elements:
        if e.kind == "bs":
            rows = [e.p, e.q]
            out[rows] = t_bs(BsParams(e.omega, e.alpha, e.beta, e.phi)) @ out[rows]
        elif e.kind == "ps":
            out[e.p] *= np.exp(1j * e.phase)
        else:
            out *= np.exp(1j * np.asarray(e.phases))[:, None]
    return out


def sequential_reconstruct(f):
    """Reference: T_1^dagger first, then T_2^dagger, ..., then the diagonal's adjoint."""
    out = np.eye(f.dim, dtype=np.complex128)
    for fac in f.factors:
        rows = [fac.p, fac.q]
        out[rows] = t_matrix(fac.params).conj().T @ out[rows]
    return np.exp(-1j * np.asarray(f.diagonal))[:, None] * out


mixing = st.floats(0.0, np.pi / 2)
phase = st.floats(-np.pi, np.pi)


@st.composite
def netlists(draw):
    """Long-range and adjacent bs cells, ps elements and diag layers anywhere, dim 1 to 6."""
    dim = draw(st.integers(1, 6))
    kinds = ["ps", "diag"] + (["bs", "bs", "bs"] if dim > 1 else [])
    elements = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        if kind == "bs":
            p, q = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)))
            elements.append(Element("bs", p, q, draw(mixing), draw(phase), draw(phase), draw(phase)))
        elif kind == "ps":
            elements.append(Element("ps", draw(st.integers(0, dim - 1)), phase=draw(phase)))
        else:
            elements.append(Element("diag", phases=draw(st.lists(phase, min_size=dim, max_size=dim))))
    return Netlist(dim=dim, elements=tuple(elements))


@st.composite
def factorizations(draw):
    dim = draw(st.integers(1, 6))
    ports = st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)
    factors = []
    for _ in range(draw(st.integers(0, dim * (dim - 1) // 2))):
        p, q = sorted(draw(ports))
        factors.append({"p": p + 1, "q": q + 1, "omega": draw(mixing), "phi": draw(phase)})
    diagonal = draw(st.lists(phase, min_size=dim, max_size=dim))
    return factorization_from_payload({"dim": dim, "factors": factors, "diagonal": diagonal})


def near_permutation(rng, n, eps):
    """P exp(i eps H) for a random permutation P and Hermitian H."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(a + a.conj().T)
    return np.eye(n)[rng.permutation(n)] @ ((v * np.exp(1j * eps * w)) @ v.conj().T)


def block_diagonal(rng, sizes):
    """Direct sum of Haar blocks of the given sizes: the cells between blocks are skipped."""
    u = np.zeros((sum(sizes), sum(sizes)), dtype=np.complex128)
    at = 0
    for size in sizes:
        u[at : at + size, at : at + size] = random_unitary(size, int(rng.integers(2**31)))
        at += size
    return u


@st.composite
def skip_heavy_unitaries(draw):
    """Near-permutations and block-diagonal unitaries, n = 2..12; at eps = 0 most cells are skipped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return near_permutation(rng, draw(st.integers(2, 12)), draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.3])))
    return block_diagonal(rng, draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(skip_heavy_unitaries(), st.integers(0, 2**32 - 1))
def test_compiled_skip_heavy_mesh_matches_sequential_reference(u, seed):
    # Their layers mix regular runs of rows with gathered row pairs.
    f = decompose(u)
    assert np.max(np.abs(reconstruct(f) - sequential_reconstruct(f))) <= DIFF_TOL
    nl = netlist_from_factorization(f)
    want = sequential_transfer(nl)
    assert np.max(np.abs(transfer_matrix(nl) - want)) <= DIFF_TOL
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(nl.dim) + 1j * rng.standard_normal(nl.dim)
    assert np.max(np.abs(simulate(nl, v) - want @ v)) <= DIFF_TOL


@settings(max_examples=150, deadline=None)
@given(netlists(), st.integers(0, 2**32 - 1))
def test_layered_netlist_matches_sequential_reference(nl, seed):
    want = sequential_transfer(nl)
    assert np.max(np.abs(transfer_matrix(nl) - want), initial=0.0) <= DIFF_TOL
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(nl.dim) + 1j * rng.standard_normal(nl.dim)
    assert np.max(np.abs(simulate(nl, v) - want @ v)) <= DIFF_TOL


@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_one_checker_every_way_in(nl, data):
    payload = netlist_to_payload(nl)
    back = netlist_from_payload(json.loads(json.dumps(payload)))
    assert back.dim == nl.dim
    for name in ("kind", "p", "q", "angles", "phases"):
        np.testing.assert_array_equal(getattr(back, name), getattr(nl, name))
    assert json.dumps(netlist_to_payload(back)) == json.dumps(payload)
    # Only a bs reads columns 1-3 of ``angles``; the reader wraps them in every row.
    for built in (nl, back):
        assert not built.angles[built.kind != TWO, 1:].any()

    # The same bad element, in memory and in a file, at any place in the list.
    at = data.draw(st.integers(0, len(nl.elements)))
    dim = nl.dim
    bad = (
        (dict(kind="ps", p=dim, phase=0.5), {"kind": "ps", "p": dim + 1, "phase": 0.5}),
        (dict(kind="diag", phases=(0.5,) * (dim + 1)), {"kind": "diag", "phases": [0.5] * (dim + 1)}),
        (dict(kind="bs", p=0, q=dim, omega=0.5), {"kind": "bs", "p": 1, "q": dim + 1, "omega": 0.5}),
        (dict(kind="bs", p=0, q=1, omega=2.0), {"kind": "bs", "p": 1, "q": 2, "omega": 2.0}),
    )
    for kwargs, item in bad:
        with pytest.raises(ValueError):
            Netlist(dim, nl.elements[:at] + (Element(**kwargs),) + nl.elements[at:])
        items = payload["elements"][:at] + [item] + payload["elements"][at:]
        with pytest.raises(ValueError):
            netlist_from_payload({"dim": dim, "elements": items})


@settings(max_examples=100, deadline=None)
@given(factorizations())
def test_layered_reconstruct_matches_sequential_reference(f):
    assert np.max(np.abs(reconstruct(f) - sequential_reconstruct(f))) <= DIFF_TOL


def test_reference_cases_cover_mid_list_diag_and_width_one_layers():
    # A chain on ports (0, 1) gives layers of one cell; the diag in the middle
    # is a barrier that the ps and the long-range cell after it must wait for.
    nl = Netlist(dim=4, elements=(
        Element("bs", 0, 1, 0.3, 0.1, 0.2, 0.3),
        Element("bs", 0, 1, 1.1, -0.4, 0.5, 2.0),
        Element("bs", 2, 3, 0.7, 0.0, 1.0, -1.0),
        Element("diag", phases=(0.1, 0.2, 0.3, 0.4)),
        Element("ps", 3, phase=0.9),
        Element("bs", 0, 3, 0.2, 1.5, -2.5, 0.4),
        Element("bs", 1, 2, 1.4, 0.3, 0.3, 0.3),
    ))
    assert nl.depth == 5
    assert np.max(np.abs(transfer_matrix(nl) - sequential_transfer(nl))) <= DIFF_TOL
    for dim in (1, 2):
        nl = Netlist(dim=dim, elements=(Element("diag", phases=(0.5,) * dim), Element("ps", 0, phase=-1.0)))
        assert np.max(np.abs(transfer_matrix(nl) - sequential_transfer(nl))) <= DIFF_TOL


def long_range_factorization(n, seed):
    """A full triangle of cells (j, i), each sharing port i with its row: the older layout."""
    rng = np.random.default_rng(seed)
    factors = [
        {"p": j + 1, "q": i + 1, "omega": rng.uniform(0.1, 1.4), "phi": rng.uniform(-np.pi, np.pi)}
        for i in range(n - 1, 0, -1)
        for j in range(i)
    ]
    diagonal = rng.uniform(-np.pi, np.pi, n).tolist()
    return factorization_from_payload({"dim": n, "factors": factors, "diagonal": diagonal})


def test_long_range_transmission_file_still_loads(tmp_path):
    f = long_range_factorization(6, 5)
    u = reconstruct(f)
    payload = netlist_to_payload(netlist_from_factorization(f))
    for item in payload["elements"]:
        if item["kind"] == "bs":
            item["T"] = float(np.cos(item.pop("omega")) ** 2)
    assert any(item["q"] - item["p"] > 1 for item in payload["elements"] if item["kind"] == "bs")
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload))
    nl = load_netlist(path)
    assert np.max(np.abs(transfer_matrix(nl) - u)) <= 1e-10
    assert np.max(np.abs(simulate(nl, np.eye(6)[:, 4]) - u[:, 4])) <= 1e-10


@pytest.mark.parametrize("n", [5, 16])
def test_dense_unitary_gives_the_nearest_neighbour_triangle(n):
    f = decompose(random_unitary(n, 70 + n))
    assert len(f.factors) == n * (n - 1) // 2
    assert all(fac.q == fac.p + 1 for fac in f.factors)
    assert f.depth == 2 * n - 3
    assert netlist_from_factorization(f).depth == 2 * n - 2  # plus the final diag


def _factorization_file(tmp_path):
    path = tmp_path / "factors.json"
    save_factorization(path, long_range_factorization(7, 3))
    return load_factorization(path)


# The triangle's layers are regular runs of rows; skipped and long-range cells gather.
SCHEDULE_INPUTS = [
    pytest.param(lambda tmp_path: decompose(random_unitary(9, 4)), False, id="dense"),
    pytest.param(
        lambda tmp_path: decompose(near_permutation(np.random.default_rng(6), 12, 1e-3)), False, id="near-permutation"
    ),
    pytest.param(
        lambda tmp_path: decompose(block_diagonal(np.random.default_rng(7), [3, 4, 2, 3])), True, id="block-diagonal"
    ),
    pytest.param(_factorization_file, True, id="long-range-file"),
]


@pytest.mark.parametrize("make, gathers", SCHEDULE_INPUTS)
def test_compiled_netlist_inherits_the_factorization_schedule(make, gathers, tmp_path):
    f = make(tmp_path)
    nl = netlist_from_factorization(f)
    _same_plan(nl._plan, scheduled_plan(nl))
    assert nl.depth == f.depth + 1
    gathered = [not isinstance(where, slice) for where, coef in nl._steps if coef.ndim == 3]
    assert any(gathered) == gathers


PERMUTATIONS = [pytest.param(np.eye(n)[::-1], id=f"reversal{n}") for n in range(2, 9)]
PERMUTATIONS += [
    pytest.param(np.eye(n)[np.random.default_rng(n).permutation(n)], id=f"perm{n}") for n in range(2, 9)
]


@pytest.mark.parametrize("u", PERMUTATIONS)
def test_permutation_round_trips_through_swap_cells(u):
    n = len(u)
    f = decompose(u)
    assert len(f.factors) <= n * (n - 1) // 2
    assert np.all(f.omega == 0.0)  # every cell is a swap
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    assert np.max(np.abs(transfer_matrix(netlist_from_factorization(f)) - u)) <= 1e-10


def test_reversal_needs_a_swap_per_inversion():
    # Neighbouring swaps move a port one place at a time, so the reversal of
    # n ports takes all n(n-1)/2 cells.
    assert len(decompose(np.eye(8)[::-1]).factors) == 28


def scheduled_plan(mesh):
    """The plan of a mesh's own ASAP schedule, as a mesh without a handed plan builds it."""
    return layer_plan(schedule(mesh.kind, mesh.p, mesh.q, mesh.dim), mesh.kind, mesh.p, mesh.q)


def _same_where(where, want_where):
    if isinstance(want_where, slice):
        assert where == want_where
    else:
        np.testing.assert_array_equal(where, want_where)


def _same_plan(got, want):
    """The same steps on the same elements; an order of None is list order, and ALL elements sort last."""
    (order, steps), (want_order, want_steps) = got, want
    order = np.arange(len(want_order)) if order is None else order
    np.testing.assert_array_equal(order, want_order[: len(order)])
    assert [(layer, k, lo, hi) for layer, k, _, lo, hi in steps] == [
        (layer, k, lo, hi) for layer, k, _, lo, hi in want_steps
    ]
    for step, want_step in zip(steps, want_steps):
        _same_where(step[2], want_step[2])


def _same_step(got, want):
    (where, coef), (want_where, want_coef) = got, want
    _same_where(where, want_where)
    assert coef.flags.c_contiguous == want_coef.flags.c_contiguous
    assert np.array_equal(coef, want_coef)


# Inputs with the handed flag: decompose hands its layers over as the plan when it keeps
# every cell; a skipped cell leaves the mesh to plan its ASAP schedule.
REPLAY_INPUTS = [
    pytest.param(random_unitary(1, 3), True, id="n1"),
    pytest.param(random_unitary(2, 3), True, id="n2"),
    pytest.param(random_unitary(9, 4), True, id="dense9"),
    pytest.param(random_unitary(16, 5), True, id="dense16"),
    pytest.param(near_permutation(np.random.default_rng(6), 12, 1e-3), True, id="near-permutation"),
    pytest.param(near_permutation(np.random.default_rng(8), 10, 1e-9), True, id="near-permutation-1e-9"),
    pytest.param(np.eye(8)[::-1], True, id="reversal8"),
    pytest.param(block_diagonal(np.random.default_rng(7), [3, 4, 2, 3]), False, id="block-diagonal"),
    pytest.param(block_diagonal(np.random.default_rng(16), [4] * 4), False, id="block-diagonal16"),
    pytest.param(np.eye(7)[np.random.default_rng(7).permutation(7)], False, id="perm7"),
    pytest.param(np.eye(8)[np.random.default_rng(8).permutation(8)], False, id="perm8"),
    pytest.param(np.eye(6), False, id="identity6"),
]


@pytest.mark.parametrize("u, handed", REPLAY_INPUTS)
def test_plan_replays_the_layer_steps_bitwise(u, handed):
    f = decompose(u)
    assert (f._plan[0] is None) == handed
    nl = netlist_from_factorization(f)
    for mesh in (f, nl):
        want = scheduled_plan(mesh)
        _same_plan(mesh._plan, want)
        want = plan_steps(*want, *mesh._coefficients())
        assert len(mesh._steps) == len(want)
        for got, step in zip(mesh._steps, want):
            _same_step(got, step)
    # The same mesh through its files plans its own schedule, and gives the same bits.
    f_file = factorization_from_payload(json.loads(json.dumps(factorization_to_payload(f))))
    nl_file = netlist_from_payload(json.loads(json.dumps(netlist_to_payload(nl))))
    assert f_file._plan[0] is not None and nl_file._plan[0] is not None
    assert (f_file.depth, nl_file.depth) == (f.depth, nl.depth)
    v = np.random.default_rng(1).standard_normal(f.dim) + 0j
    assert np.array_equal(reconstruct(f), reconstruct(f_file))
    # A copy goes through the netlist's one attribute hook, which answers only for ``elements``.
    assert not hasattr(nl, "T")
    for compiled in (netlist_from_factorization(f_file), nl_file, copy.deepcopy(nl), pickle.loads(pickle.dumps(nl))):
        assert np.array_equal(transfer_matrix(nl), transfer_matrix(compiled))
        assert np.array_equal(simulate(nl, v), simulate(compiled, v))
        assert np.array_equal(simulate(nl, np.eye(f.dim)[:, 0]), simulate(compiled, np.eye(f.dim)[:, 0]))


def test_planned_mesh_is_never_scheduled_and_a_skipped_cell_drops_the_plan(monkeypatch):
    calls = []
    for name in ("schedule", "layer_plan"):
        real = getattr(devices, name)
        monkeypatch.setattr(devices, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    u = random_unitary(12, 9)
    f = decompose(u)
    nl = netlist_from_factorization(f)
    assert (f.depth, nl.depth) == (21, 22)
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    assert np.max(np.abs(transfer_matrix(nl) - u)) <= 1e-10
    assert np.max(np.abs(simulate(nl, np.eye(12)[:, 3]) - u[:, 3])) <= 1e-10
    assert calls == []
    # A block-diagonal input skips the cells between its blocks: its ASAP
    # schedule is shallower than the nominal layers, so it carries no plan.
    # It plans once, and its compiled netlist inherits that plan.
    f = decompose(block_diagonal(np.random.default_rng(7), [3, 4, 2, 3]))
    assert calls == []
    nl = netlist_from_factorization(f)
    assert f.depth < 2 * f.dim - 3
    reconstruct(f)
    transfer_matrix(nl)
    simulate(nl, np.eye(12)[:, 3])
    assert nl._plan[0] is f._plan[0]
    assert calls == ["schedule", "layer_plan"]


def test_each_mesh_replays_its_plan_once(monkeypatch):
    calls = []
    real = devices.plan_steps
    monkeypatch.setattr(devices, "plan_steps", lambda *args: calls.append(args) or real(*args))
    for u in (random_unitary(9, 4), block_diagonal(np.random.default_rng(7), [3, 4, 2, 3])):
        f = decompose(u)
        nl = netlist_from_factorization(f)
        v = np.eye(f.dim)[:, 2]
        assert np.array_equal(reconstruct(f), reconstruct(f))
        assert np.array_equal(transfer_matrix(nl), transfer_matrix(nl))
        assert np.array_equal(simulate(nl, v), simulate(nl, v))
    assert len(calls) == 4  # one factorization and one netlist per input


def test_compile_checks_no_mixing_angle_again(monkeypatch):
    # decompose and the factorization file reader hand over valid cells; only a netlist reader checks.
    fs = [decompose(random_unitary(12, 9)), decompose(block_diagonal(np.random.default_rng(7), [3, 4, 2, 3]))]
    fs.append(factorization_from_payload(json.loads(json.dumps(factorization_to_payload(fs[0])))))

    def refuse(*args):
        raise AssertionError("a mixing angle was checked again")

    monkeypatch.setattr(interferometer, "_checked_mixings", refuse)
    for f in fs:
        nl = netlist_from_factorization(f)
        assert np.max(np.abs(transfer_matrix(nl) - reconstruct(f))) <= DIFF_TOL
    with pytest.raises(AssertionError, match="checked again"):
        netlist_from_payload(netlist_to_payload(nl))
