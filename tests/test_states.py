import json

import numpy as np
import pytest

from multiport import (
    STATE_NAMES,
    bell_state,
    preparation_unitary,
    qutrit2_singlet,
    qutrit3_singlet,
    random_unitary,
    resolve_state,
    save_matrix,
    state_operator,
    unitarity_deviation,
)

from multiport.states import MAX_STATE_DIM

import refdata


def test_bell_vectors_are_exact():
    h = refdata.H
    np.testing.assert_array_equal(bell_state(1), np.array([h, 0, 0, h]))
    np.testing.assert_array_equal(bell_state(2), np.array([h, 0, 0, -h]))
    np.testing.assert_array_equal(bell_state(3), np.array([0, h, h, 0]))
    np.testing.assert_array_equal(bell_state(4), np.array([0, h, -h, 0]))


def test_bell_basis_is_orthonormal():
    basis = np.column_stack([bell_state(k) for k in (1, 2, 3, 4)])
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(4))) <= 1e-15


@pytest.mark.parametrize("k", [0, 5, -1])
def test_bell_state_rejects_bad_index(k):
    with pytest.raises(ValueError):
        bell_state(k)


def test_qutrit_pair_singlet_entries():
    v = qutrit2_singlet()
    r3 = refdata.R3
    want = np.zeros(9)
    want[2], want[4], want[6] = r3, -r3, r3
    np.testing.assert_array_equal(v, want)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


def test_qutrit_pair_singlet_matches_kron_build():
    e = np.eye(3)
    want = refdata.R3 * (np.kron(e[0], e[2]) - np.kron(e[1], e[1])
                         + np.kron(e[2], e[0]))
    np.testing.assert_array_equal(qutrit2_singlet(), want)


def test_qutrit_triple_singlet_entries():
    v = qutrit3_singlet()
    assert v.size == 27
    r6 = refdata.R6
    # 0-based positions of the six Levi-Civita terms, with v = -eps/sqrt(6)
    want = np.zeros(27)
    want[5] = -r6   # (1,2,3)
    want[7] = r6    # (1,3,2)
    want[11] = r6   # (2,1,3)
    want[15] = -r6  # (2,3,1)
    want[19] = -r6  # (3,1,2)
    want[21] = r6   # (3,2,1)
    np.testing.assert_array_equal(v, want)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15


def test_qutrit_triple_singlet_is_totally_antisymmetric():
    v = qutrit3_singlet().reshape(3, 3, 3)
    np.testing.assert_array_equal(np.swapaxes(v, 0, 1), -v)
    np.testing.assert_array_equal(np.swapaxes(v, 1, 2), -v)
    np.testing.assert_array_equal(np.swapaxes(v, 0, 2), -v)


def test_state_operator_singlet_pattern():
    m = state_operator(bell_state(4))
    want = np.zeros((4, 4))
    want[1, 1] = want[2, 2] = 0.5
    want[1, 2] = want[2, 1] = -0.5
    np.testing.assert_allclose(m, want, atol=1e-15)


def test_state_operator_triplet_pattern():
    m = state_operator(bell_state(3))
    want = np.zeros((4, 4))
    want[1:3, 1:3] = 0.5
    np.testing.assert_allclose(m, want, atol=1e-15)


def test_state_operator_basis_vector():
    np.testing.assert_array_equal(state_operator([1.0, 0.0]),
                                  [[1.0, 0.0], [0.0, 0.0]])


def test_state_operator_rejects_unnormalized():
    with pytest.raises(ValueError):
        state_operator([1.0, 1.0])


def test_state_operator_properties():
    m = state_operator(qutrit2_singlet())
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
    np.testing.assert_allclose(m @ m, m, atol=1e-14)
    assert np.trace(m).real == pytest.approx(1.0)


@pytest.mark.parametrize("state", [bell_state(4), qutrit2_singlet(),
                                   qutrit3_singlet()])
def test_preparation_unitary_places_state(state):
    u = preparation_unitary(state, 0)
    assert unitarity_deviation(u) <= 1e-10
    assert np.max(np.abs(u[:, 0] - state)) <= 1e-12
    out = u @ np.eye(state.size)[:, 0]
    assert np.max(np.abs(out - state)) <= 1e-12


def test_preparation_unitary_other_port():
    e2 = np.array([0.0, 1.0, 0.0])
    u = preparation_unitary(e2, 1)
    np.testing.assert_array_equal(u, np.eye(3))


def test_determinant_identity_two_particles():
    psi = bell_state(4)
    for seed in range(10):
        u = random_unitary(2, seed)
        out = np.kron(u, u) @ psi
        assert np.max(np.abs(out - np.linalg.det(u) * psi)) <= 1e-12


def test_determinant_identity_three_particles():
    delta = qutrit3_singlet()
    for seed in range(10):
        u = random_unitary(3, seed)
        out = np.kron(np.kron(u, u), u) @ delta
        assert np.max(np.abs(out - np.linalg.det(u) * delta)) <= 1e-12


def test_named_state_resolution():
    assert STATE_NAMES == ("bell1", "bell2", "bell3", "bell4",
                           "qutrit2-singlet", "qutrit3-singlet")
    np.testing.assert_array_equal(resolve_state("bell4"), bell_state(4))
    np.testing.assert_array_equal(resolve_state("qutrit2-singlet"),
                                  qutrit2_singlet())
    with pytest.raises(ValueError):
        resolve_state("bell9")


def test_state_resolution_from_file(tmp_path):
    path = tmp_path / "state.json"
    save_matrix(path, bell_state(2).reshape(-1, 1))
    np.testing.assert_array_equal(resolve_state(f"@{path}"), bell_state(2))

    bad = tmp_path / "bad.json"
    save_matrix(bad, np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError):
        resolve_state(f"@{bad}")


def test_state_file_with_a_nan_entry_is_refused(tmp_path):
    # NaN passes a norm check written as ``abs(norm - 1) > tol``; finiteness is checked first.
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"rows": 2, "cols": 1, "entries": [[float("nan"), 0.0], [1.0, 0.0]]}))
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        resolve_state(f"@{path}")


def test_state_file_entry_cap(tmp_path):
    path = tmp_path / "state.json"
    psi = np.zeros((MAX_STATE_DIM + 1, 1))
    psi[0] = 1.0
    save_matrix(path, psi[:-1])
    assert resolve_state(f"@{path}").size == MAX_STATE_DIM
    save_matrix(path, psi)
    with pytest.raises(ValueError, match="1025 entries exceeds the limit of 1024"):
        resolve_state(f"@{path}")


def test_state_integer_parameters_refuse_bools_and_floats():
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match=r"^expected an integer, got (bool|float)$"):
            bell_state(bad)
        with pytest.raises(TypeError, match=r"^expected an integer, got (bool|float)$"):
            preparation_unitary(np.array([0.6, 0.8, 0.0]), bad)
    np.testing.assert_array_equal(bell_state(np.int64(4)), bell_state(4))


def test_state_file_with_two_columns_is_refused(tmp_path):
    path = tmp_path / "two.json"
    save_matrix(path, np.eye(2))
    with pytest.raises(ValueError, match=r"^state file must hold a single column, got \(2, 2\)$"):
        resolve_state(f"@{path}")
