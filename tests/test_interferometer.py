import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    Netlist,
    TParams,
    beam_splitter,
    bell_state,
    decompose,
    element_matrix,
    equal_up_to_global_phase,
    load_netlist,
    netlist_from_factorization,
    phase_layer,
    phase_shifter,
    random_unitary,
    reconstruct,
    render_schematic,
    save_netlist,
    simulate,
    t_matrix,
    transfer_matrix,
    unitarity_deviation,
)

import refdata


def test_element_validation():
    with pytest.raises(ValueError):
        beam_splitter(p=2, q=1, T=0.5)
    with pytest.raises(ValueError):
        beam_splitter(p=0, q=1, T=1.5)
    with pytest.raises(ValueError):
        phase_layer(())
    with pytest.raises(ValueError):
        Netlist(dim=2, elements=(beam_splitter(p=0, q=2, T=0.5),))
    with pytest.raises(ValueError):
        Netlist(dim=3, elements=(phase_layer((0.0, 0.0)),))


def test_phase_shifter_matrix():
    m = element_matrix(phase_shifter(0, np.pi), 2)
    np.testing.assert_allclose(m, np.diag([-1.0, 1.0]), atol=1e-15)


def test_balanced_splitter_block():
    m = element_matrix(beam_splitter(p=0, q=1, T=0.5), 2)
    h = refdata.H
    np.testing.assert_allclose(m, h * np.array([[1j, 1.0], [1.0, 1j]]),
                               atol=1e-15)


def test_unbalanced_splitter_reflection_probability():
    m = element_matrix(beam_splitter(p=0, q=1, T=2.0 / 3.0), 2)
    out = m @ np.array([1.0, 0.0])
    assert abs(out[0]) ** 2 == pytest.approx(1.0 / 3.0)   # reflected arm
    assert abs(out[1]) ** 2 == pytest.approx(2.0 / 3.0)   # transmitted arm


def test_diag_layer_matrix():
    m = element_matrix(phase_layer((0.1, -0.2, 0.3)), 3)
    np.testing.assert_allclose(m, np.diag(np.exp(1j * np.array([0.1, -0.2, 0.3]))),
                               atol=1e-15)


def test_splitter_blocks_are_unitary():
    for T in (0.0, 0.25, 0.5, 1.0):
        e = beam_splitter(p=0, q=2, T=T, alpha=0.4, beta=-1.0, phi=2.2)
        assert unitarity_deviation(element_matrix(e, 3)) <= 1e-13


def test_simulate_single_splitter():
    nl = Netlist(dim=2, elements=(beam_splitter(p=0, q=1, T=0.5),))
    out = simulate(nl, [1.0, 0.0])
    h = refdata.H
    np.testing.assert_allclose(out, [1j * h, h], atol=1e-15)


def test_simulate_empty_netlist():
    nl = Netlist(dim=3, elements=())
    v = np.array([0.6, 0.0, 0.8])
    np.testing.assert_array_equal(simulate(nl, v), v)
    with pytest.raises(ValueError):
        simulate(nl, [1.0, 0.0])


def test_single_cell_compilation():
    f = decompose(t_matrix(TParams(np.pi / 4, 0.0)))
    nl = netlist_from_factorization(f)
    kinds = [e.kind for e in nl.elements]
    assert kinds == ["bs", "diag"]
    assert nl.elements[0].T == pytest.approx(0.5)
    assert np.max(np.abs(transfer_matrix(nl) - reconstruct(f))) <= 1e-12


def test_identity_compiles_to_bare_diag():
    nl = netlist_from_factorization(decompose(np.eye(3)))
    assert [e.kind for e in nl.elements] == ["diag"]
    np.testing.assert_array_equal(np.asarray(nl.elements[0].phases),
                                  np.zeros(3))
    np.testing.assert_allclose(transfer_matrix(nl), np.eye(3), atol=0)


def test_preparation_netlist_reaches_singlet():
    nl = netlist_from_factorization(decompose(refdata.UP_4))
    out = simulate(nl, [1.0, 0.0, 0.0, 0.0])
    assert equal_up_to_global_phase(out, bell_state(4), 1e-10)


COMPILE_INPUTS = [pytest.param(random_unitary(n, 500 + n), id=str(n)) for n in (2, 3, 4, 6)]
COMPILE_INPUTS += [pytest.param(u, id=k) for k, u in refdata.EDGE_UNITARIES.items()]


@pytest.mark.parametrize("u", COMPILE_INPUTS)
def test_compiled_transfer_matches_source_unitary(u):
    n = len(u)
    f = decompose(u)
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    nl = netlist_from_factorization(f)
    assert np.max(np.abs(transfer_matrix(nl) - u)) <= 1e-10
    for k in range(n):
        assert np.max(np.abs(simulate(nl, np.eye(n)[:, k]) - u[:, k])) <= 1e-10


def test_simulate_leaves_the_input_untouched():
    nl = netlist_from_factorization(decompose(random_unitary(4, 9)))
    v = np.array([0.6, 0.0, 0.8j, 0.0])
    simulate(nl, v)
    np.testing.assert_array_equal(v, [0.6, 0.0, 0.8j, 0.0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_simulation_conserves_norm(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(4, seed)
    nl = netlist_from_factorization(decompose(u))
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = v / np.linalg.norm(v)
    assert abs(np.linalg.norm(simulate(nl, v)) - 1.0) <= 1e-12


def test_text_schematic_layout():
    nl = Netlist(dim=2, elements=(beam_splitter(p=0, q=1, T=0.5),
                                  phase_shifter(1, np.pi)))
    text = render_schematic(nl, "text")
    lines = text.splitlines()
    assert lines[0] == "netlist dim=2 elements=2"
    assert lines[1].startswith("BS 1,2 T=0.5 ")
    assert lines[2] == "PS 2 phi=3.14159265359"
    assert render_schematic(nl, "text") == text  # deterministic


def test_empty_schematic_is_header_only():
    text = render_schematic(Netlist(dim=4, elements=()), "text")
    assert text == "netlist dim=4 elements=0\n"


def test_svg_schematic():
    nl = netlist_from_factorization(decompose(refdata.U2_4))
    svg = render_schematic(nl, "svg")
    assert svg.startswith("<svg")
    assert svg == render_schematic(nl, "svg")
    with pytest.raises(ValueError):
        render_schematic(nl, "png")


def test_netlist_file_round_trip(tmp_path):
    u = random_unitary(4, 321)
    nl = netlist_from_factorization(decompose(u))
    path = tmp_path / "net.json"
    save_netlist(path, nl)
    back = load_netlist(path)
    assert back.dim == nl.dim
    assert len(back.elements) == len(nl.elements)
    for a, b in zip(back.elements, nl.elements):
        assert a == b
    assert np.max(np.abs(transfer_matrix(back) - u)) <= 1e-10

    payload = json.loads(path.read_text())
    bs_entries = [e for e in payload["elements"] if e["kind"] == "bs"]
    assert bs_entries and all(e["p"] >= 1 and e["q"] >= 2 for e in bs_entries)


def test_netlist_file_dim_is_capped(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"dim": 10**12, "elements": []}))
    with pytest.raises(ValueError, match="dim"):
        load_netlist(path)
