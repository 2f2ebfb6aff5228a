import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    commutator,
    complete_to_unitary,
    dyadic,
    equal_up_to_global_phase,
    kron,
    load_matrix,
    random_unitary,
    save_matrix,
    unitarity_deviation,
)
from multiport.contexts import builtin_graph, context_graph_to_payload, save_context_graph
from multiport.decompose import decompose, factorization_to_payload, save_factorization
from multiport.interferometer import netlist_from_factorization, netlist_to_payload, save_netlist
from multiport.numerics import matrix_to_payload, rows_equal_up_to_global_phase
from multiport.observables import ObservableSpec, analyzer_unitary, identity_spec, predict_ports
from multiport.states import preparation_unitary, state_operator

import refdata


def test_kron_basis_vectors():
    e1 = np.array([1.0, 0.0])
    out = kron(e1, e1)
    np.testing.assert_array_equal(out, [1.0, 0.0, 0.0, 0.0])


def test_kron_diag_with_identity():
    a = np.diag([1.0, 2.0])
    out = kron(a, np.eye(2))
    np.testing.assert_array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_mixed_signs():
    h = refdata.H
    out = kron(np.array([0.0, 1.0]), np.array([-h, h]))
    np.testing.assert_allclose(out, [0.0, 0.0, -h, h], atol=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_is_bilinear(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    s = complex(rng.standard_normal(), rng.standard_normal())
    lhs = kron(a, s * b + c)
    rhs = s * kron(a, b) + kron(a, c)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_is_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)),
                               atol=1e-12)


def test_dyadic_basis_vector():
    np.testing.assert_array_equal(dyadic([1.0, 0.0]), [[1.0, 0.0], [0.0, 0.0]])


def test_dyadic_corner_pattern():
    h = refdata.H
    out = dyadic([h, 0.0, 0.0, h])
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_dyadic_uniform():
    h = refdata.H
    np.testing.assert_allclose(dyadic([h, h]), 0.5 * np.ones((2, 2)), atol=1e-15)


def test_dyadic_rejects_zero_vector():
    with pytest.raises(ValueError):
        dyadic([0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dyadic_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = v / np.linalg.norm(v)
    p = dyadic(v)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-15)


def test_unitarity_deviation_identity_is_zero():
    assert unitarity_deviation(np.eye(4)) == 0.0


def test_unitarity_deviation_of_reference_matrix():
    assert unitarity_deviation(refdata.UP_4) <= 1e-15


def test_unitarity_deviation_scaled_identity():
    assert unitarity_deviation(2.0 * np.eye(2)) == pytest.approx(3.0)


def test_unitarity_deviation_requires_square():
    with pytest.raises(ValueError):
        unitarity_deviation(np.ones((2, 3)))


def test_commutator_classic_pair():
    e = np.diag([1.0, -1.0])
    f = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(commutator(e, f), [[0.0, 2.0], [-2.0, 0.0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commutator_of_separate_slots_vanishes(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = kron(a, np.eye(2))
    rhs = kron(np.eye(2), b)
    assert np.max(np.abs(commutator(lhs, rhs))) <= 1e-12


def test_random_unitary_is_deterministic():
    a = random_unitary(6, 1234)
    b = random_unitary(6, 1234)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, random_unitary(6, 1235))


def test_random_unitary_single_entry():
    u = random_unitary(1, 7)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_random_unitary_is_unitary(n):
    u = random_unitary(n, 42 + n)
    assert unitarity_deviation(u) <= 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_complete_to_unitary_standard_basis():
    u = complete_to_unitary([1.0, 0.0, 0.0], 0)
    assert unitarity_deviation(u) <= 1e-10
    np.testing.assert_array_equal(u[:, 0], [1.0, 0.0, 0.0])


def test_complete_to_unitary_places_column():
    h = refdata.H
    psi = np.array([0.0, h, -h, 0.0])
    for pos in range(4):
        u = complete_to_unitary(psi, pos)
        assert unitarity_deviation(u) <= 1e-10
        assert np.max(np.abs(u[:, pos] - psi)) <= 1e-12


def test_complete_to_unitary_rejects_unnormalized():
    with pytest.raises(ValueError):
        complete_to_unitary([1.0, 1.0], 0)
    with pytest.raises(ValueError):
        complete_to_unitary([1.0, 0.0], 5)


HUGE = np.array([1e308, 0.0])  # its norm overflows
HUGE_ENTRY_CALLS = {
    "complete_to_unitary": (lambda: complete_to_unitary(HUGE, 0), "column must have unit norm"),
    "preparation_unitary": (lambda: preparation_unitary(HUGE), "column must have unit norm"),
    "state_operator": (lambda: state_operator(HUGE), "state must be normalized"),
    "predict_ports": (lambda: predict_ports(analyzer_unitary([identity_spec(2)]), HUGE), "state must be normalized"),
    "ObservableSpec": (lambda: ObservableSpec(2, rotation=[[1e308, 0.0], [0.0, 1.0]]), "rotation must be orthogonal"),
}


@pytest.mark.parametrize("call, message", HUGE_ENTRY_CALLS.values(), ids=HUGE_ENTRY_CALLS.keys())
def test_huge_entry_is_refused_before_any_norm_or_product(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}"):
            call()


def test_equal_up_to_global_phase_detects_i():
    v = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    assert equal_up_to_global_phase(v, 1j * v)


def test_equal_up_to_global_phase_rejects_orthogonal():
    assert not equal_up_to_global_phase([1.0, 0.0], [0.0, 1.0])


def test_rows_equal_up_to_global_phase_decides_each_row_alone():
    v = np.array([0.6, 0.8j])
    a = np.array([v, v, [1e-11, 0.0], [1.0, 0.0], v])
    b = np.array([np.exp(2.1j) * v, [0.8j, 0.6], [0.0, 1e-11], [0.0, 1.0], v + [1e-6, 0.0]])
    want = [True, False, True, False, False]
    assert rows_equal_up_to_global_phase(a, b, 1e-10).tolist() == want
    assert [equal_up_to_global_phase(x, y, 1e-10) for x, y in zip(a, b)] == want
    assert rows_equal_up_to_global_phase(np.zeros((2, 0)), np.zeros((2, 0))).tolist() == [True, True]
    with pytest.raises(ValueError):
        rows_equal_up_to_global_phase(v, v)


def test_equal_up_to_global_phase_tolerance():
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1e-12])
    assert equal_up_to_global_phase(v, w, 1e-10)
    assert not equal_up_to_global_phase(v, [1.0, 1e-6], 1e-10)


def test_matrix_file_round_trip_is_bitwise(tmp_path):
    m = random_unitary(4, 99)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    back = load_matrix(path)
    np.testing.assert_array_equal(back, m)
    payload = json.loads(path.read_text())
    assert payload["rows"] == 4 and payload["cols"] == 4
    assert len(payload["entries"]) == 16


def test_every_file_writer_writes_the_json_dumps_text(tmp_path):
    u = random_unitary(5, 11)
    f = decompose(u)
    nl = netlist_from_factorization(f)
    graph = builtin_graph("three-chain")
    cases = [
        (save_matrix, u, matrix_to_payload),
        (save_factorization, f, factorization_to_payload),
        (save_netlist, nl, netlist_to_payload),
        (save_context_graph, graph, context_graph_to_payload),
    ]
    for save, obj, to_payload in cases:
        path = tmp_path / f"{save.__name__}.json"
        save(path, obj)
        assert path.read_bytes() == json.dumps(to_payload(obj)).encode()
