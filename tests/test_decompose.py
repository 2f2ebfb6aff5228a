import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    Factorization,
    TFactor,
    TParams,
    decompose,
    load_factorization,
    netlist_from_factorization,
    random_unitary,
    reconstruct,
    save_factorization,
    simulate,
    solve_t_params,
    t_matrix,
    transfer_matrix,
    unitarity_deviation,
)
from multiport.decompose import embed_two_port

import refdata


def residual(a, b, params):
    """The elimination equation the solver is meant to null."""
    w, f = params.omega, params.phi
    return abs(np.sin(w) * a + np.exp(-1j * f) * np.cos(w) * b)


def test_solver_equal_amplitudes():
    p = solve_t_params(1.0, 1.0)
    assert p.omega == pytest.approx(np.pi / 4)
    assert abs(p.phi) == pytest.approx(np.pi)
    assert residual(1.0, 1.0, p) <= 1e-15


def test_solver_null_second_entry():
    p = solve_t_params(1.0, 0.0)
    assert (p.omega, p.phi) == (0.0, 0.0)


def test_solver_imaginary_first_entry():
    p = solve_t_params(1j, 1.0)
    assert p.omega == pytest.approx(np.pi / 4)
    assert p.phi == pytest.approx(np.pi / 2)
    assert residual(1j, 1.0, p) <= 1e-15


def test_solver_skips_already_null_entries():
    assert solve_t_params(0.0, 1.0) is None
    assert solve_t_params(5e-15, 1.0) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solver_nulls_random_pairs(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    p = solve_t_params(a, b)
    assert residual(a, b, p) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_embed_two_port_shape():
    block = t_matrix(TParams(0.3, 0.7))
    m = embed_two_port(4, 1, 3, block)
    assert m.shape == (4, 4)
    np.testing.assert_array_equal(m[np.ix_([1, 3], [1, 3])], block)
    assert m[0, 0] == 1.0 and m[2, 2] == 1.0
    assert unitarity_deviation(m) <= 1e-13


def test_identity_needs_no_factors():
    f = decompose(np.eye(4))
    assert f.factors == ()
    np.testing.assert_array_equal(f.diagonal, np.zeros(4))
    np.testing.assert_allclose(reconstruct(f), np.eye(4), atol=0)


def test_single_cell_matrix():
    u = t_matrix(TParams(np.pi / 4, 0.0))
    f = decompose(u)
    assert len(f.factors) == 1
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-12


def test_diagonal_unitary_yields_only_phases():
    phases = np.array([0.3, -1.2, 2.5])
    u = np.diag(np.exp(1j * phases))
    f = decompose(u)
    assert f.factors == ()
    np.testing.assert_allclose(f.diagonal, -phases, atol=1e-12)
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-14


def test_reference_analyzer_round_trip():
    f = decompose(refdata.U2_4)
    assert len(f.factors) <= 6
    assert np.max(np.abs(reconstruct(f) - refdata.U2_4)) <= 1e-10


def test_reference_preparation_round_trip():
    f = decompose(refdata.UP_9)
    assert np.max(np.abs(reconstruct(f) - refdata.UP_9)) <= 1e-10


ROUND_TRIP_INPUTS = [pytest.param(random_unitary(n, 1000 + n), id=str(n)) for n in (2, 3, 5, 9)]
ROUND_TRIP_INPUTS += [pytest.param(u, id=k) for k, u in refdata.EDGE_UNITARIES.items()]


@pytest.mark.parametrize("u", ROUND_TRIP_INPUTS)
def test_random_round_trip(u):
    n = len(u)
    f = decompose(u)
    assert len(f.factors) <= n * (n - 1) // 2
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    nl = netlist_from_factorization(f)
    assert np.max(np.abs(transfer_matrix(nl) - u)) <= 1e-10
    for k in range(n):
        assert np.max(np.abs(simulate(nl, np.eye(n)[:, k]) - u[:, k])) <= 1e-10


def test_rejects_non_unitary_input():
    with pytest.raises(ValueError):
        decompose(np.ones((3, 3)))


@pytest.mark.parametrize(
    "u", [random_unitary(6, 42), np.diag(np.exp(1j * np.arange(6.0)))], ids=["dense", "diagonal"]
)
def test_slightly_scaled_unitary_is_rejected_as_input(u):
    # One verdict and one message, whether or not the input needs cells.
    with pytest.raises(ValueError, match="input is not unitary"):
        decompose(u * (1 + 2.5e-9))


def test_corrupted_cell_is_caught(monkeypatch):
    # A cell off by 1e-6 in omega is still unitary, so no Gram check sees it;
    # the residual left after elimination does.
    module = importlib.import_module("multiport.decompose")
    solve = module.solve_t_params

    def off_by_1e6(a, b):
        t = solve(a, b)
        return None if t is None else TParams(t.omega + 1e-6, t.phi)

    monkeypatch.setattr(module, "solve_t_params", off_by_1e6)
    with pytest.raises(ValueError, match="residual"):
        decompose(random_unitary(6, 3))


def test_empty_factorization_reconstructs_identity():
    f = Factorization(dim=3, factors=(), diagonal=(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(reconstruct(f), np.eye(3))


def test_factor_port_validation():
    with pytest.raises(ValueError):
        TFactor(p=2, q=1, params=TParams(0.1, 0.0))
    with pytest.raises(ValueError):
        TFactor(p=1, q=1, params=TParams(0.1, 0.0))
    with pytest.raises(ValueError):
        Factorization(dim=2, factors=(), diagonal=(0.0,))


def test_factorization_file_round_trip(tmp_path):
    u = random_unitary(4, 7)
    f = decompose(u)
    path = tmp_path / "f.json"
    save_factorization(path, f)
    g = load_factorization(path)
    assert g.dim == f.dim
    assert len(g.factors) == len(f.factors)
    for a, b in zip(g.factors, f.factors):
        assert (a.p, a.q) == (b.p, b.q)
        assert a.params == b.params
    np.testing.assert_array_equal(np.asarray(g.diagonal),
                                  np.asarray(f.diagonal))
    assert np.max(np.abs(reconstruct(g) - u)) <= 1e-10


def test_factorization_file_ports_are_one_based(tmp_path):
    f = decompose(refdata.U2_4)
    path = tmp_path / "f.json"
    save_factorization(path, f)
    payload = json.loads(path.read_text())
    file_ports = {(e["p"], e["q"]) for e in payload["factors"]}
    mem_ports = {(t.p + 1, t.q + 1) for t in f.factors}
    assert file_ports == mem_ports
    assert all(e["p"] >= 1 for e in payload["factors"])


def test_factorization_file_without_omega_is_a_value_error(tmp_path):
    path = tmp_path / "f.json"
    factor = {"p": 1, "q": 2, "phi": 0.0}
    path.write_text(json.dumps({"dim": 2, "factors": [factor], "diagonal": [0.0, 0.0]}))
    with pytest.raises(ValueError):
        load_factorization(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_round_trip_property(n, seed):
    u = random_unitary(n, seed)
    f = decompose(u)
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    assert unitarity_deviation(reconstruct(f)) <= 1e-12
