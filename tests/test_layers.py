"""Layered application against a sequential reference, and the shape of the mesh.

``transfer_matrix``, ``simulate`` and ``reconstruct`` group elements into
ASAP layers and apply each layer as one array step.  The reference below
applies the same elements one at a time, in list order, as dense 2x2 block
products; the two must agree to rounding.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    BsParams,
    Element,
    Factorization,
    Netlist,
    TFactor,
    TParams,
    decompose,
    load_netlist,
    netlist_from_factorization,
    phase_layer,
    phase_shifter,
    random_unitary,
    reconstruct,
    simulate,
    t_bs,
    t_matrix,
    transfer_matrix,
)
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
            elements.append(phase_shifter(draw(st.integers(0, dim - 1)), draw(phase)))
        else:
            elements.append(phase_layer(draw(st.lists(phase, min_size=dim, max_size=dim))))
    return Netlist(dim=dim, elements=tuple(elements))


@st.composite
def factorizations(draw):
    dim = draw(st.integers(1, 6))
    ports = st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)
    factors = [
        TFactor(*sorted(draw(ports)), TParams(draw(mixing), draw(phase)))
        for _ in range(draw(st.integers(0, dim * (dim - 1) // 2)))
    ]
    return Factorization(dim, tuple(factors), tuple(draw(st.lists(phase, min_size=dim, max_size=dim))))


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

    # The same bad element, in memory and in a file, at any place in the list.
    at = data.draw(st.integers(0, len(nl.elements)))
    dim = nl.dim
    bad = (
        (phase_shifter(dim, 0.5), {"kind": "ps", "p": dim + 1, "phase": 0.5}),
        (phase_layer((0.5,) * (dim + 1)), {"kind": "diag", "phases": [0.5] * (dim + 1)}),
    )
    for element, item in bad:
        with pytest.raises(ValueError):
            Netlist(dim, nl.elements[:at] + (element,) + nl.elements[at:])
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
        phase_layer((0.1, 0.2, 0.3, 0.4)),
        phase_shifter(3, 0.9),
        Element("bs", 0, 3, 0.2, 1.5, -2.5, 0.4),
        Element("bs", 1, 2, 1.4, 0.3, 0.3, 0.3),
    ))
    assert nl.depth == 5
    assert np.max(np.abs(transfer_matrix(nl) - sequential_transfer(nl))) <= DIFF_TOL
    for dim in (1, 2):
        nl = Netlist(dim=dim, elements=(phase_layer((0.5,) * dim), phase_shifter(0, -1.0)))
        assert np.max(np.abs(transfer_matrix(nl) - sequential_transfer(nl))) <= DIFF_TOL


def long_range_factorization(n, seed):
    """A full triangle of cells (j, i), each sharing port i with its row: the older layout."""
    rng = np.random.default_rng(seed)
    factors = [
        TFactor(j, i, TParams(rng.uniform(0.1, 1.4), rng.uniform(-np.pi, np.pi)))
        for i in range(n - 1, 0, -1)
        for j in range(i)
    ]
    return Factorization(n, tuple(factors), tuple(rng.uniform(-np.pi, np.pi, n)))


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
