import dataclasses
import importlib
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    BsParams,
    Netlist,
    TParams,
    bell_state,
    decompose,
    equal_up_to_global_phase,
    load_netlist,
    netlist_from_factorization,
    omega_from_transmission,
    random_unitary,
    reconstruct,
    render_schematic,
    save_netlist,
    simulate,
    t_matrix,
    transfer_matrix,
    transmission,
    unitarity_deviation,
)
from multiport.decompose import factorization_from_payload
from multiport.devices import _bs_block, _wrap
from multiport.interferometer import _Element, netlist_from_payload, netlist_to_payload

import refdata


def net(dim, *elements):
    """A netlist written by hand in the file format, ports 1-based."""
    return netlist_from_payload({"dim": dim, "elements": list(elements)})


def both_ways(dim, **fields):
    """Builders of the netlist of one element: from a record in memory, and from a file record (ports 1-based)."""
    ports = {name: fields[name] + 1 for name in ("p", "q") if name in fields}
    return lambda: Netlist(dim, (_Element(**fields),)), lambda: net(dim, {**fields, **ports})


def test_element_validation():
    half = omega_from_transmission(0.5)
    with pytest.raises(ValueError):
        net(2, {"kind": "bs", "p": 1, "q": 2, "T": 1.5})
    bad = [
        (3, dict(kind="bs", p=2, q=1, omega=half), r"^bs ports \(\d, \d\) invalid for dim 3"),
        (1, dict(kind="diag", phases=()), "^diag element has 0 phases, expected 1$"),
        (2, dict(kind="bs", p=0, q=2, omega=half), r"^bs ports \(\d, \d\) invalid for dim 2"),
        (3, dict(kind="diag", phases=(0.0, 0.0)), "^diag element has 2 phases, expected 3$"),
    ]
    for dim, fields, message in bad:
        for build in both_ways(dim, **fields):
            with pytest.raises(ValueError, match=message):
                build()
    with pytest.raises(ValueError, match="^ps element takes no T$"):
        net(2, {"kind": "ps", "p": 1, "phase": 0.1, "T": 0.5})


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="ps", p=0, phase=0.1, q=5, alpha=7.0), "ps element takes no q, alpha"),
    (dict(kind="diag", phases=(0.1,), p=3, omega=9.0), "diag element takes no p, omega"),
    (dict(kind="bs", p=0, q=1, omega=0.5, phase=0.2), "bs element takes no phase"),
    (dict(kind="bs", p=0, q=1, omega=0.5, phases=(0.0, 0.0)), "bs element takes no phases"),
])
def test_element_rejects_fields_its_kind_ignores(kwargs, message):
    # The field rule comes before any value is read, so the file's own port range does not matter here.
    for build in both_ways(2, **kwargs):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_phase_shifter_matrix():
    m = transfer_matrix(net(2, {"kind": "ps", "p": 1, "phase": np.pi}))
    np.testing.assert_allclose(m, np.diag([-1.0, 1.0]), atol=1e-15)


def test_balanced_splitter_block():
    m = transfer_matrix(net(2, {"kind": "bs", "p": 1, "q": 2, "T": 0.5}))
    h = refdata.H
    np.testing.assert_allclose(m, h * np.array([[1j, 1.0], [1.0, 1j]]),
                               atol=1e-15)


def test_unbalanced_splitter_reflection_probability():
    m = transfer_matrix(net(2, {"kind": "bs", "p": 1, "q": 2, "T": 2.0 / 3.0}))
    out = m @ np.array([1.0, 0.0])
    assert abs(out[0]) ** 2 == pytest.approx(1.0 / 3.0)   # reflected arm
    assert abs(out[1]) ** 2 == pytest.approx(2.0 / 3.0)   # transmitted arm


def test_diag_layer_matrix():
    m = transfer_matrix(net(3, {"kind": "diag", "phases": [0.1, -0.2, 0.3]}))
    np.testing.assert_allclose(m, np.diag(np.exp(1j * np.array([0.1, -0.2, 0.3]))),
                               atol=1e-15)


def test_splitter_blocks_are_unitary():
    for T in (0.0, 0.25, 0.5, 1.0):
        e = {"kind": "bs", "p": 1, "q": 3, "T": T, "alpha": 0.4, "beta": -1.0, "phi": 2.2}
        assert unitarity_deviation(transfer_matrix(net(3, e))) <= 1e-13


def test_simulate_single_splitter():
    nl = net(2, {"kind": "bs", "p": 1, "q": 2, "T": 0.5})
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
    assert transmission(nl.elements[0].omega) == pytest.approx(0.5)
    assert nl.elements is nl.elements  # built on the first read only
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


def assert_netlist_reproduces(u, path):
    """The compiled netlist, its simulated columns and its file copy are all within 1e-10 of u."""
    n = len(u)
    nl = netlist_from_factorization(decompose(u))
    assert np.max(np.abs(transfer_matrix(nl) - u)) <= 1e-10
    for k in range(n):
        assert np.max(np.abs(simulate(nl, np.eye(n)[:, k]) - u[:, k])) <= 1e-10
    save_netlist(path, nl)
    assert np.max(np.abs(transfer_matrix(load_netlist(path)) - u)) <= 1e-10


def mesh_unitary(n, omegas, seed):
    """reconstruct of a full triangle of cells whose mixing angles cycle through ``omegas``."""
    rng = np.random.default_rng(seed)
    ports = [(j, i) for i in range(n - 1, 0, -1) for j in range(i)]
    factors = [
        {"p": p + 1, "q": q + 1, "omega": w, "phi": rng.uniform(-np.pi, np.pi)}
        for (p, q), w in zip(ports, itertools.cycle(omegas))
    ]
    diagonal = rng.uniform(-np.pi, np.pi, n).tolist()
    return reconstruct(factorization_from_payload({"dim": n, "factors": factors, "diagonal": diagonal}))


SMALL_ANGLES = (1e-12, 1e-8, 1e-7)
COMPILE_INPUTS = [pytest.param(random_unitary(n, 500 + n), id=str(n)) for n in (2, 3, 4, 6)]
COMPILE_INPUTS += [pytest.param(u, id=k) for k, u in refdata.EDGE_UNITARIES.items()]
COMPILE_INPUTS += [
    pytest.param(refdata.near_permutation(np.random.default_rng(61), 6, eps), id=f"nearperm6-{eps:g}")
    for eps in (1e-9, 1e-6)
]
COMPILE_INPUTS += [
    pytest.param(mesh_unitary(5, SMALL_ANGLES, 7), id="angles-near-0"),
    pytest.param(mesh_unitary(5, [np.pi / 2 - d for d in SMALL_ANGLES], 8), id="angles-near-pi/2"),
    pytest.param(mesh_unitary(5, (1e-9, np.pi / 2 - 1e-9), 9), id="angles-near-both"),
]


@pytest.mark.parametrize("u", COMPILE_INPUTS)
def test_compiled_transfer_matches_source_unitary(u, tmp_path):
    f = decompose(u)
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    assert_netlist_reproduces(u, tmp_path / "net.json")

    # Each compiled phase is wrapped once, by the compiler, to what one wrap gives;
    # the final diag row keeps zeros in the bs-only columns.
    angles = netlist_from_factorization(f).angles
    k = f.p.size
    assert angles[:k, 1].tobytes() == _wrap(-f.phi - np.pi / 2).tobytes()
    assert angles[:k, 2].tobytes() == _wrap(f.phi + np.pi / 2).tobytes()
    assert not angles[k:, 1:].any()


@settings(max_examples=40, deadline=None)
@given(st.floats(-12.0, -3.0))
def test_near_swap_splitter_survives_compile_and_file(tmp_path_factory, log_eps):
    eps = 10.0**log_eps
    c = np.sqrt(1.0 - eps**2)
    u = np.array([[eps, c], [c, -eps]], dtype=np.complex128)
    assert_netlist_reproduces(u, tmp_path_factory.mktemp("net") / "net.json")


def test_round_trip_makes_one_unitarity_check_and_no_transmission_inversion(monkeypatch):
    counted = ("unitarity_deviation", "omega_from_transmission")
    calls = dict.fromkeys(counted, 0)

    def counter(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in ("decompose", "devices", "interferometer"):
        mod = importlib.import_module(f"multiport.{module}")
        for name in counted:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counter(name, getattr(mod, name)))
    for n in (4, 16):
        calls.update(dict.fromkeys(counted, 0))
        u = random_unitary(n, 40 + n)
        f = decompose(u)
        reconstruct(f)
        nl = netlist_from_factorization(f)
        transfer_matrix(nl)
        simulate(nl, np.eye(n)[:, 0])
        assert calls == {"unitarity_deviation": 1, "omega_from_transmission": 0}, n


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
    nl = net(2, {"kind": "bs", "p": 1, "q": 2, "T": 0.5}, {"kind": "ps", "p": 2, "phase": np.pi})
    text = render_schematic(nl, "text")
    lines = text.splitlines()
    assert lines[0] == "netlist dim=2 elements=2"
    assert lines[1].startswith("BS 1,2 T=0.5 ")
    assert lines[2] == "PS 2 phi=3.14159265359"
    assert render_schematic(nl, "text") == text  # deterministic


def test_empty_schematic_is_header_only():
    text = render_schematic(Netlist(dim=4, elements=()), "text")
    assert text == "netlist dim=4 elements=0\n"


def test_svg_schematic(tmp_path):
    nl = netlist_from_factorization(decompose(refdata.U2_4))
    svg = render_schematic(nl, "svg")
    assert svg.startswith("<svg")
    assert svg == render_schematic(nl, "svg")
    with pytest.raises(ValueError):
        render_schematic(nl, "png")
    # A phase shifter read from a file is one box on its port, labelled with its phase.
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"dim": 2, "elements": [{"kind": "ps", "p": 2, "phase": 0.5}]}))
    svg = render_schematic(load_netlist(path), "svg")
    assert '<rect x="60" y="80" width="20" height="20"/>\n<text x="60" y="74">ph=0.5</text>' in svg


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


def test_transmission_only_netlist_file_still_loads(tmp_path):
    u = random_unitary(4, 77)
    nl = netlist_from_factorization(decompose(u))
    payload = netlist_to_payload(nl)
    for item in payload["elements"]:
        if item["kind"] == "bs":
            item["T"] = float(np.cos(item.pop("omega")) ** 2)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload))
    back = load_netlist(path)
    assert np.max(np.abs(transfer_matrix(back) - u)) <= 1e-10
    assert np.max(np.abs(simulate(back, np.eye(4)[:, 2]) - u[:, 2])) <= 1e-10

    path.write_text(json.dumps({"dim": 2, "elements": [{"kind": "bs", "p": 1, "q": 2, "T": 0.5}]}))
    np.testing.assert_allclose(simulate(load_netlist(path), [1.0, 0.0]),
                               [1j * refdata.H, refdata.H], atol=1e-15)


def test_omega_wins_over_transmission_in_a_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"dim": 2, "elements": [
        {"kind": "bs", "p": 1, "q": 2, "T": 1.0, "omega": 0.25}]}))
    (e,) = load_netlist(path).elements
    assert e.omega == 0.25
    assert transmission(e.omega) == pytest.approx(np.cos(0.25) ** 2)


def test_bs_element_stores_omega_and_derives_transmission():
    (e,) = net(2, {"kind": "bs", "p": 1, "q": 2, "T": 0.25}).elements
    assert e.omega == pytest.approx(np.pi / 3)
    assert transmission(e.omega) == pytest.approx(0.25)
    assert not hasattr(e, "T")
    for build in both_ways(2, kind="bs", p=0, q=1, omega=-1e-13):
        assert build().elements[0].omega == 0.0
    for bad in (2.0, -0.1, float("nan"), float("inf")):
        for build in both_ways(2, kind="bs", p=0, q=1, omega=bad):
            with pytest.raises(ValueError, match="^mixing angle"):
                build()


def test_bs_element_wraps_its_phases_as_bs_params_does():
    for build in both_ways(2, kind="bs", p=0, q=1, omega=0.5, alpha=7.0, beta=-4.0, phi=np.pi):
        (e,) = build().elements
        assert e == _Element("bs", 0, 1, 0.5, 7.0 - 2 * np.pi, -4.0 + 2 * np.pi, np.pi)
    want = BsParams(0.5, 7.0, -4.0, np.pi)
    assert (e.omega, e.alpha, e.beta, e.phi) == (want.omega, want.alpha, want.beta, want.phi)
    assert e.alpha == 7.0 - 2 * np.pi and e.beta == -4.0 + 2 * np.pi and e.phi == np.pi
    unwrapped = np.array(_bs_block(0.5, 7.0, -4.0, np.pi))  # wrapping leaves the matrix alone
    np.testing.assert_allclose(transfer_matrix(Netlist(2, (e,))), unwrapped, atol=1e-15)


def test_loading_a_netlist_file_builds_no_element(tmp_path):
    u = random_unitary(27, 27)
    path = tmp_path / "net.json"
    save_netlist(path, netlist_from_factorization(decompose(u)))
    nl = load_netlist(path)
    assert np.max(np.abs(transfer_matrix(nl) - u)) <= 1e-10
    assert np.max(np.abs(simulate(nl, np.eye(27)[:, 3]) - u[:, 3])) <= 1e-10
    assert render_schematic(nl, "text").startswith("netlist dim=27 elements=352\n")
    assert render_schematic(nl, "svg").startswith("<svg")
    assert "elements" not in vars(nl)  # the record view is built only when it is read


def test_netlist_file_dim_is_capped(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"dim": 10**12, "elements": []}))
    with pytest.raises(ValueError, match="dim"):
        load_netlist(path)


def test_netlist_reads_its_dimension_as_an_integer():
    for bad in (2.0, True):
        with pytest.raises(TypeError, match=r"^expected an integer, got (bool|float)$"):
            Netlist(dim=bad, elements=())
    assert Netlist(dim=np.int64(2), elements=()).dim == 2


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "mirror"}, "unknown element kind 'mirror'; expected one of ('bs', 'ps', 'diag')"),
    ({"kind": "bs", "p": 0, "q": 1}, "bs element needs p, q, omega"),
], ids=["unknown-kind", "missing-field"])
def test_element_refusals_name_their_fault(kwargs, message):
    for build in both_ways(2, **kwargs):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    # A file's bs may give "T" in place of "omega", but not leave both out.
    with pytest.raises(ValueError, match="^bs element needs p, q, omega$"):
        net(2, {"kind": "bs", "p": 1, "q": 2, "alpha": 0.1})
    with pytest.raises(ValueError, match="^bs element needs p, q, omega$"):
        net(2, {"kind": "bs", "q": 2, "T": 0.5})


def test_numpy_scalars_and_tuples_still_build_elements():
    el = _Element("bs", np.int64(0), np.int64(1), omega=np.float64(0.3), alpha=np.float32(0.5), phi=1)
    diag = _Element("diag", phases=(np.float64(0.25), 0))
    nl = Netlist(2, (el, diag))
    assert nl.kind.tolist() == [0, 2]  # a bs, then a diag
    bs, diag = nl.elements
    assert (bs.omega, bs.alpha, bs.beta, bs.phi) == (0.3, float(np.float32(0.5)), 0.0, 1.0)
    assert diag.phases == (0.25, 0.0)
    # A ps reads back as the columns hold it: a plain int port and a float phase.
    for phase in (Fraction(1, 3), np.float64(1 / 3), 1 / 3):
        (ps,) = Netlist(2, (_Element("ps", np.int64(1), phase=phase),)).elements
        assert ps == _Element("ps", 1, phase=1 / 3) and type(ps.p) is int and type(ps.phase) is float


def test_replace_builds_a_netlist_of_new_elements():
    nl = netlist_from_factorization(decompose(random_unitary(4, 5)))
    # Rebuilt from its own records, a compiled netlist is the same netlist, with the same records.
    rebuilt = Netlist(nl.dim, nl.elements)
    assert rebuilt == nl and rebuilt.elements == nl.elements
    assert netlist_to_payload(rebuilt) == netlist_to_payload(nl)
    elements = list(nl.elements)
    elements[3] = dataclasses.replace(elements[3], alpha=elements[3].alpha + 1e-6)
    moved = dataclasses.replace(nl, elements=tuple(elements))
    assert moved != nl
    assert not np.array_equal(transfer_matrix(moved), transfer_matrix(nl))
    assert moved.elements == tuple(elements)
    elements[3] = dataclasses.replace(elements[3], alpha=7.0)
    assert dataclasses.replace(nl, elements=tuple(elements)).elements[3].alpha == 7.0 - 2 * np.pi
    ps = net(2, {"kind": "ps", "p": 1, "phase": 0.5}).elements[0]
    with pytest.raises(ValueError, match="^ps element takes no q$"):
        Netlist(2, (dataclasses.replace(ps, q=1),))
    assert [f.name for f in dataclasses.fields(Netlist)] == ["dim"] and repr(nl) == "Netlist(dim=4)"
    with pytest.raises(TypeError, match="unhashable"):
        hash(nl)
