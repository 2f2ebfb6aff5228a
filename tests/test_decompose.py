import importlib
import json
import warnings

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
    t_matrix,
    transfer_matrix,
    unitarity_deviation,
)
from multiport.decompose import factorization_from_payload, factorization_to_payload, solve_t_layer

import refdata


@pytest.mark.parametrize("check", [decompose, unitarity_deviation])
def test_an_empty_matrix_is_refused_with_the_package_message(check):
    with pytest.raises(ValueError, match=r"^dimension must be >= 1$"):
        check(np.zeros((0, 0)))


def residual(a, b, omega, phi):
    """The elimination equation the solver is meant to null."""
    return np.abs(np.sin(omega) * a + np.exp(-1j * phi) * np.cos(omega) * b)


# The explicit pairs, solved in one batched call: equal amplitudes, a null
# second entry, an imaginary first entry, and two first entries to skip.
PAIRS_A = np.array([1.0, 1.0, 1j, 0.0, 5e-15])
PAIRS_B = np.array([1.0, 0.0, 1.0, 1.0, 1.0], dtype=complex)
KEEP, OMEGA, PHI = solve_t_layer(PAIRS_A, PAIRS_B)


def test_solver_equal_amplitudes():
    assert KEEP[0]
    assert OMEGA[0] == pytest.approx(np.pi / 4)
    assert abs(PHI[0]) == pytest.approx(np.pi)
    assert residual(1.0, 1.0, OMEGA[0], PHI[0]) <= 1e-15


def test_solver_null_second_entry():
    assert KEEP[1]
    assert (OMEGA[1], PHI[1]) == (0.0, 0.0)


def test_solver_imaginary_first_entry():
    assert KEEP[2]
    assert OMEGA[2] == pytest.approx(np.pi / 4)
    assert PHI[2] == pytest.approx(np.pi / 2)
    assert residual(1j, 1.0, OMEGA[2], PHI[2]) <= 1e-15


def test_solver_skips_already_null_entries():
    assert KEEP.tolist() == [True, True, True, False, False]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solver_nulls_random_pairs(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    keep, omega, phi = solve_t_layer(a, b)
    assert keep.all()
    assert (residual(a, b, omega, phi) <= 1e-12 * np.maximum(1.0, np.maximum(abs(a), abs(b)))).all()
    # Each cell lies in the canonical ranges TParams holds it to.
    assert ((0.0 <= omega) & (omega <= np.pi / 2) & (-np.pi < phi) & (phi <= np.pi)).all()


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


@pytest.mark.parametrize("entry", [1e308, -1e308j, 0.9 + 0.9j], ids=["huge-real", "huge-imag", "parts-below-1"])
def test_entry_above_modulus_1_is_rejected_without_a_warning(entry):
    # A huge entry would overflow the Gram product; one whose parts stay within 1 meets the Gram check.
    u = np.eye(3, dtype=np.complex128)
    u[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^input is not unitary"):
            decompose(u)


def test_corrupted_cell_is_caught(monkeypatch):
    # A cell off by 1e-6 in omega is still unitary, so no Gram check sees it;
    # the residual left after elimination does.  Every layer is solved by
    # solve_t_layer, so every cell gets the offset.
    module = importlib.import_module("multiport.decompose")
    solve = module.solve_t_layer

    def off_by_1e6(a, b):
        keep, omega, phi = solve(a, b)
        return keep, omega + 1e-6, phi

    monkeypatch.setattr(module, "solve_t_layer", off_by_1e6)
    with pytest.raises(ValueError, match="residual"):
        decompose(random_unitary(6, 3))


def test_empty_factorization_reconstructs_identity():
    f = factorization_from_payload({"dim": 3, "factors": [], "diagonal": [0.0, 0.0, 0.0]})
    np.testing.assert_array_equal(reconstruct(f), np.eye(3))


def test_factor_port_validation():
    # A factorization comes only from decompose or the file format, whose reader checks the ports.
    with pytest.raises(ValueError):
        factorization_from_payload({"dim": 2, "factors": [], "diagonal": [0.0]})
    for p, q in ((2, 1), (1, 1), (0, 1), (1, 3)):
        factor = {"p": p, "q": q, "omega": 0.1, "phi": 0.0}
        with pytest.raises(ValueError, match="invalid for dim 2"):
            factorization_from_payload({"dim": 2, "factors": [factor], "diagonal": [0.0, 0.0]})
    with pytest.raises(TypeError):
        Factorization(2, (), (0.0, 0.0))


def test_factorization_file_with_dim_0_or_too_many_factors_is_refused():
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        factorization_from_payload({"dim": 0, "factors": [], "diagonal": []})
    factor = {"p": 1, "q": 2, "omega": 0.1, "phi": 0.0}
    with pytest.raises(ValueError, match=r"^2 factors exceed the n\(n-1\)/2 = 1 bound$"):
        factorization_from_payload({"dim": 2, "factors": [factor] * 2, "diagonal": [0.0, 0.0]})


def test_decompose_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="^can only decompose square matrices, got 2x3$"):
        decompose(np.eye(2, 3))


def test_factorization_file_dim_is_capped(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"dim": 4097, "factors": [], "diagonal": [0.0] * 4097}))
    with pytest.raises(ValueError, match="^factorization dim 4097 exceeds the limit of 4096$"):
        load_factorization(path)


@pytest.mark.parametrize("change", [
    pytest.param({"diagonal": [float("nan"), 0.0]}, id="nan-diagonal"),
    pytest.param({"diagonal": [0.0, float("inf")]}, id="infinite-diagonal"),
    pytest.param({"dim": 2.0}, id="fractional-dim"),
    pytest.param({"factors": [{"p": 1.0, "q": 2, "omega": 0.1, "phi": 0.0}]}, id="fractional-port"),
    pytest.param({"factors": [{"p": 1, "q": "2", "omega": 0.1, "phi": 0.0}]}, id="string-port"),
    pytest.param({"dim": True, "diagonal": [0.0]}, id="boolean-dim"),
    pytest.param({"factors": [{"p": True, "q": 2, "omega": 0.1, "phi": 0.0}]}, id="boolean-port"),
])
def test_garbled_factorization_file_is_a_value_error(tmp_path, change):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"dim": 2, "factors": [], "diagonal": [0.0, 0.0], **change}))
    with pytest.raises(ValueError):
        load_factorization(path)


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


def test_factorization_equality_compares_every_column():
    f = decompose(random_unitary(4, 7))
    payload = factorization_to_payload(f)
    assert factorization_from_payload(payload) == f
    payload["factors"][2]["phi"] += 1e-3
    assert factorization_from_payload(payload) != f
    assert (f == "x") is False


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


def test_factorization_arrays_follow_the_tparams_rules():
    # Cells built from arrays (decompose, files) are checked once per array,
    # with the clamping, wrapping and messages of TParams.
    omega, phi = [-1e-13, np.pi / 2 + 1e-13, 0.4], [4.0, -np.pi, np.pi]
    f = factorization_from_payload({
        "dim": 3,
        "factors": [{"p": 1, "q": 2, "omega": w, "phi": x} for w, x in zip(omega, phi)],
        "diagonal": [0.0, 0.0, 0.0],
    })
    assert f.factors == tuple(TFactor(0, 1, TParams(w, x)) for w, x in zip(omega, phi))
    for bad in (2.0, float("nan")):
        payload = {"dim": 2, "factors": [{"p": 1, "q": 2, "omega": bad, "phi": 0.0}], "diagonal": [0.0, 0.0]}
        with pytest.raises(ValueError) as want:
            TParams(bad, 0.0)
        with pytest.raises(ValueError) as got:
            factorization_from_payload(payload)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="phase must be finite"):
        factorization_from_payload(
            {"dim": 2, "factors": [{"p": 1, "q": 2, "omega": 0.1, "phi": float("inf")}], "diagonal": [0.0, 0.0]}
        )


def test_factors_view_is_a_read_only_sequence_equal_to_its_tuple(monkeypatch):
    empty = decompose(np.eye(1)).factors
    assert (len(empty), bool(empty), empty[:], hash(empty), repr(empty)) == (0, False, (), hash(()), "()")
    assert empty == () and () == empty
    for i in (0, -1):
        with pytest.raises(IndexError):
            empty[i]
    f = decompose(random_unitary(5, 3))
    view, cells = f.factors, f.factors[:]
    assert type(cells) is tuple and len(view) == len(cells) == f.p.size == 10
    assert (view[-1], view[-10], view[np.int64(2)]) == (cells[-1], cells[0], cells[2])
    for part in (slice(2, 7, 2), slice(None, None, -1), slice(8, 40), slice(-3, None)):
        assert view[part] == cells[part] and type(view[part]) is tuple
    for i in (10, -11):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = cells[0]
    assert view == cells and cells == view and view == decompose(random_unitary(5, 3)).factors
    assert view != cells[:-1] and view != list(cells) and view != decompose(random_unitary(5, 4)).factors
    assert (hash(view), repr(view)) == (hash(cells), repr(cells))
    assert not isinstance(view, tuple)
    monkeypatch.setattr(importlib.import_module("multiport.devices"), "_ROWS_STEP", 3)
    assert list(view) == list(cells)  # built three at a time, in order


def test_counting_the_factors_builds_no_cell(monkeypatch):
    def no_cell(*fields):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(importlib.import_module("multiport.decompose"), "_cell", no_cell)
    f = decompose(random_unitary(6, 2))
    assert len(f.factors) == 15 and f.factors
    with pytest.raises(AssertionError, match="a cell was built"):
        f.factors[0]


def cell_bits(cells):
    return [(type(c.p), c.p, type(c.q), c.q, c.params.omega.hex(), c.params.phi.hex()) for c in cells]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_factors_view_holds_the_cells_of_the_columns_bit_for_bit(n, seed, permutation):
    u = np.eye(n)[np.random.default_rng(seed).permutation(n)] if permutation else random_unitary(n, seed)
    f = decompose(u)
    columns = zip(f.p.tolist(), f.q.tolist(), f.omega.tolist(), f.phi.tolist())
    want = tuple(TFactor(p, q, TParams(w, x)) for p, q, w, x in columns)
    assert tuple(f.factors) == want
    assert cell_bits(f.factors) == cell_bits(want)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_round_trip_property(n, seed):
    u = random_unitary(n, seed)
    f = decompose(u)
    assert np.max(np.abs(reconstruct(f) - u)) <= 1e-10
    assert unitarity_deviation(reconstruct(f)) <= 1e-12
