from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    ObservableSpec,
    analyzer_unitary,
    bell_state,
    default_labels,
    identity_spec,
    parse_obs_spec,
    predict_ports,
    qutrit2_singlet,
    rotated_observable,
    rotation_plane,
    tensor_observable,
    unitarity_deviation,
    verify_eigenbasis,
)
from multiport.numerics import kron
from multiport.observables import ORDERINGS

import refdata


def spec2(labels=(1.0, -1.0)):
    """Standard-basis qubit observable."""
    return ObservableSpec(dim=2, rotation=None, labels=labels)


def spec2_rot(labels=(1.0, -1.0)):
    """Qubit observable rotated by pi/4, built from exact constants."""
    return ObservableSpec(dim=2, rotation=refdata.ROT2_Q, labels=labels)


def spec3(labels=(1.0, 0.0, -1.0)):
    return ObservableSpec(dim=3, rotation=None, labels=labels)


def spec3_rot12(labels=(1.0, 0.0, -1.0)):
    return ObservableSpec(dim=3, rotation=refdata.ROT3_12_Q, labels=labels)


# --- rotations and single-particle observables ------------------------------

def test_rotation_plane_zero_angle():
    np.testing.assert_array_equal(rotation_plane(2, (1, 2), 0.0), np.eye(2))


def test_rotation_plane_quarter_turn_3d():
    got = rotation_plane(3, (1, 2), np.pi / 4)
    np.testing.assert_allclose(got, refdata.ROT3_12_Q, atol=1e-15)
    got23 = rotation_plane(3, (2, 3), np.pi / 4)
    np.testing.assert_allclose(got23, refdata.ROT3_23_Q, atol=1e-15)


def test_rotation_plane_inverse_pairs():
    r = rotation_plane(3, (2, 3), 0.9)
    rinv = rotation_plane(3, (2, 3), -0.9)
    np.testing.assert_allclose(r @ rinv, np.eye(3), atol=1e-15)


def test_rotation_plane_rejects_bad_axes():
    with pytest.raises(ValueError):
        rotation_plane(2, (2, 1), 0.1)
    with pytest.raises(ValueError):
        rotation_plane(2, (1, 3), 0.1)


def test_rotated_observable_qubit():
    a, b = 2.0, 3.0
    got = rotated_observable(spec2_rot((a, b)))
    want = 0.5 * np.array([[a + b, a - b], [a - b, a + b]])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_rotated_observable_qutrit():
    a, b, c = 1.0, 0.0, -1.0
    got = rotated_observable(spec3_rot12((a, b, c)))
    want = 0.5 * np.array([[a + b, a - b, 0.0],
                           [a - b, a + b, 0.0],
                           [0.0, 0.0, 2.0 * c]])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_identity_rotation_gives_diagonal():
    np.testing.assert_array_equal(rotated_observable(spec3((5.0, 7.0, 9.0))),
                                  np.diag([5.0, 7.0, 9.0]))


def test_observable_spec_validation():
    with pytest.raises(ValueError):
        ObservableSpec(dim=4)
    with pytest.raises(ValueError):
        ObservableSpec(dim=2, labels=(1.0, 1.0))       # not distinct
    with pytest.raises(ValueError):
        ObservableSpec(dim=2, labels=(1.0, 2.0, 3.0))  # wrong count
    with pytest.raises(ValueError):
        ObservableSpec(dim=2, rotation=np.ones((2, 2)))


def test_observable_spec_reads_dim_as_an_integer():
    for bad in (2.0, True):
        with pytest.raises(TypeError, match="integer"):
            ObservableSpec(dim=bad)
        with pytest.raises(TypeError, match="integer"):
            identity_spec(bad)
    spec = ObservableSpec(dim=np.int64(3))
    assert spec.dim == 3 and type(spec.dim) is int


def test_observable_spec_rotation_and_label_rules():
    with pytest.raises(ValueError, match=r"^rotation shape \(3, 3\) does not match dim 2$"):
        ObservableSpec(dim=2, rotation=np.eye(3))
    with pytest.raises(ValueError, match="^rotation must be real$"):
        ObservableSpec(dim=2, rotation=1j * np.eye(2))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^labels must be finite$"):
            ObservableSpec(dim=2, labels=(1.0, bad))


@pytest.mark.parametrize("slots", [0, 4])
def test_products_take_one_to_three_slots(slots):
    for build in (tensor_observable, analyzer_unitary):
        with pytest.raises(ValueError, match=f"^expected 1..3 tensor slots, got {slots}$"):
            build([spec2()] * slots)


def test_observable_spec_keeps_a_read_only_copy_of_its_rotation():
    r = rotation_plane(3, (1, 2), 0.3)
    spec = ObservableSpec(3, r, (1.0, 0.0, -1.0))
    before = rotated_observable(spec)
    r[0, 0] = 5.0  # a write to the caller's array, after the checks passed
    assert spec.rotation is not r and spec.rotation.dtype == np.complex128
    np.testing.assert_array_equal(rotated_observable(spec), before)
    with pytest.raises(ValueError):
        spec.rotation[0, 0] = 5.0


def test_default_labels():
    assert default_labels(2) == (1.0, 0.0)
    assert default_labels(3) == (1.0, 0.0, -1.0)


# --- tensor observables ------------------------------------------------------

def test_tensor_single_sided():
    obs = tensor_observable([spec2((2.0, 3.0)), identity_spec(2)])
    np.testing.assert_array_equal(obs.matrix, np.diag([2.0, 2.0, 3.0, 3.0]))
    assert obs.dim == 4


def test_tensor_joint_observable_block_matrix():
    a, b = 1.0, -1.0
    obs = tensor_observable([spec2((a, b)), spec2_rot((a, b))])
    f = 0.5 * np.array([[a + b, a - b], [a - b, a + b]])
    want = np.block([[a * f, np.zeros((2, 2))], [np.zeros((2, 2)), b * f]])
    np.testing.assert_allclose(obs.matrix, want, atol=1e-14)


def test_tensor_is_kron_of_parts():
    parts = [spec3(), spec3_rot12()]
    obs = tensor_observable(parts)
    want = np.kron(rotated_observable(parts[0]), rotated_observable(parts[1]))
    np.testing.assert_array_equal(obs.matrix, want)


def test_tensor_three_slots():
    obs = tensor_observable([
        spec3(),
        spec3_rot12(),
        ObservableSpec(dim=3, rotation=refdata.ROT3_23_Q,
                       labels=(1.0, 0.0, -1.0)),
    ])
    assert obs.dim == 27
    assert np.max(np.abs(obs.matrix - obs.matrix.conj().T)) <= 1e-12


# --- analyzers ----------------------------------------------------------------

def test_analyzer_counterdiagonal():
    an = analyzer_unitary([spec2(), identity_spec(2)])
    np.testing.assert_array_equal(an.matrix, refdata.U1_4)


def test_analyzer_reproduces_reference_4x4():
    an = analyzer_unitary([identity_spec(2), spec2_rot()])
    np.testing.assert_array_equal(an.matrix, refdata.U2_4)


def test_analyzer_reproduces_reference_9x9():
    an = analyzer_unitary([identity_spec(3), spec3_rot12()])
    np.testing.assert_array_equal(an.matrix, refdata.U2_9)


def test_forward_ordering_gives_block_rotation():
    an = analyzer_unitary([spec2(), spec2_rot()], ordering="forward_lex")
    h = refdata.H
    r = np.array([[h, h], [-h, h]])
    want = np.block([[r, np.zeros((2, 2))], [np.zeros((2, 2)), r]])
    np.testing.assert_array_equal(an.matrix, want)


def test_orderings_are_row_permutations():
    rev = analyzer_unitary([spec2(), spec2_rot()], ordering="reversed_lex")
    fwd = analyzer_unitary([spec2(), spec2_rot()], ordering="forward_lex")
    np.testing.assert_array_equal(rev.matrix, fwd.matrix[::-1])
    assert rev.ordering == "reversed_lex"
    with pytest.raises(ValueError):
        analyzer_unitary([spec2()], ordering="column_major")


def test_analyzer_outcome_labels():
    an = analyzer_unitary([spec2((1.0, -1.0)), spec2_rot((1.0, -1.0))])
    assert an.outcome_labels == ((-1.0, -1.0), (-1.0, 1.0),
                                 (1.0, -1.0), (1.0, 1.0))
    ident = analyzer_unitary([identity_spec(2), spec2_rot((1.0, -1.0))])
    assert ident.outcome_labels == ((1.0, -1.0), (1.0, 1.0),
                                    (1.0, -1.0), (1.0, 1.0))


def test_zero_angle_matches_unrotated_construction():
    zero = ObservableSpec(dim=2, rotation=rotation_plane(2, (1, 2), 0.0),
                          labels=(1.0, -1.0))
    a = analyzer_unitary([spec2(), zero])
    b = analyzer_unitary([spec2(), spec2()])
    np.testing.assert_array_equal(a.matrix, b.matrix)


def per_row_analyzer(parts, ordering):
    """The per-row construction that one Kronecker product replaced."""
    vecs = [p.rotation_or_identity().T for p in parts]
    labels = [p.label_values() for p in parts]
    indices = list(product(*[range(p.dim) for p in parts]))
    if ordering == "reversed_lex":
        indices.reverse()
    matrix = np.empty((len(indices), len(indices)), dtype=np.complex128)
    for r, multi in enumerate(indices):
        w = vecs[0][:, multi[0]]
        for k in range(1, len(parts)):
            w = kron(w, vecs[k][:, multi[k]])
        matrix[r, :] = w.conj()
    outcome = tuple(tuple(labels[k][m] for k, m in enumerate(multi)) for multi in indices)
    return matrix, outcome


@st.composite
def slots(draw):
    """An identity, standard-basis or rotated slot of dimension 2 or 3."""
    d = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("identity", "standard", "rotated")))
    if kind == "identity":
        return identity_spec(d)
    rotation = None
    if kind == "rotated":
        a, b = draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
        rotation = rotation_plane(d, (1, 2), a) @ rotation_plane(d, (d - 1, d), b)
    labels = tuple(draw(st.permutations(default_labels(d))))
    return ObservableSpec(dim=d, rotation=rotation, labels=labels)


@settings(max_examples=100, deadline=None)
@given(st.lists(slots(), min_size=1, max_size=3), st.sampled_from(ORDERINGS))
def test_analyzer_is_bitwise_the_per_row_construction(parts, ordering):
    an = analyzer_unitary(parts, ordering)
    matrix, outcome = per_row_analyzer(parts, ordering)
    assert an.matrix.tobytes() == matrix.tobytes()
    assert an.matrix.flags.c_contiguous
    assert an.outcome_labels == outcome
    assert an.dims == tuple(p.dim for p in parts)


def test_analyzers_are_unitary():
    for parts in ([spec2(), spec2_rot()],
                  [identity_spec(3), spec3_rot12()],
                  [spec3(), spec3_rot12(), spec3()]):
        an = analyzer_unitary(parts)
        assert unitarity_deviation(an.matrix) <= 1e-12


# --- predictions ---------------------------------------------------------------

def test_prediction_counterdiagonal_on_singlet():
    an = analyzer_unitary([spec2(), identity_spec(2)])
    dist = predict_ports(an, bell_state(4))
    np.testing.assert_allclose(dist.probabilities, [0.0, 0.5, 0.5, 0.0],
                               atol=1e-15)


def test_prediction_joint_on_singlet():
    an = analyzer_unitary([identity_spec(2), spec2_rot()])
    dist = predict_ports(an, bell_state(4))
    np.testing.assert_allclose(dist.probabilities, [0.25] * 4, atol=1e-15)
    np.testing.assert_allclose(np.asarray(dist.amplitudes), refdata.PSI4_OUT,
                               atol=1e-15)


def test_prediction_qutrit_singlet():
    an = analyzer_unitary([identity_spec(3), spec3_rot12()])
    dist = predict_ports(an, qutrit2_singlet())
    np.testing.assert_allclose(np.asarray(dist.amplitudes), refdata.PHI_OUT,
                               atol=1e-15)
    want = np.array([0, 1 / 6, 1 / 6, 0, 1 / 6, 1 / 6, 1 / 3, 0, 0])
    np.testing.assert_allclose(dist.probabilities, want, atol=1e-15)


def test_prediction_input_validation():
    an = analyzer_unitary([spec2(), spec2_rot()])
    with pytest.raises(ValueError):
        predict_ports(an, np.array([1.0, 0.0]))          # wrong dimension
    with pytest.raises(ValueError):
        predict_ports(an, np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized


# --- eigenbasis checks -----------------------------------------------------------

def test_eigenbasis_single_sided():
    obs = tensor_observable([identity_spec(2), spec2_rot((1.0, -1.0))])
    an = analyzer_unitary([identity_spec(2), spec2_rot((1.0, -1.0))])
    diag = verify_eigenbasis(obs, an)
    np.testing.assert_allclose(diag, [-1.0, 1.0, -1.0, 1.0], atol=1e-12)


def test_eigenbasis_joint():
    obs = tensor_observable([spec2((1.0, -1.0)), spec2_rot((1.0, -1.0))])
    an = analyzer_unitary([spec2((1.0, -1.0)), spec2_rot((1.0, -1.0))])
    diag = verify_eigenbasis(obs, an)
    np.testing.assert_allclose(diag, [1.0, -1.0, -1.0, 1.0], atol=1e-12)


def test_eigenbasis_trivial_diagonal():
    obs = tensor_observable([spec2((4.0, 9.0))])
    an = analyzer_unitary([spec2((4.0, 9.0))])
    diag = verify_eigenbasis(obs, an)
    np.testing.assert_allclose(diag, [9.0, 4.0], atol=0)


def test_eigenbasis_rejects_wrong_analyzer():
    obs = tensor_observable([spec2(), spec2_rot()])
    wrong = analyzer_unitary([spec2(), spec2()])
    with pytest.raises(ValueError):
        verify_eigenbasis(obs, wrong)


# --- CLI-facing spec strings -------------------------------------------------------

def test_parse_obs_spec_round_trip():
    parts = parse_obs_spec("id|plane=1,2;theta=0.5", state_dim=9)
    assert len(parts) == 2
    assert parts[0].labels is None and parts[0].dim == 3
    np.testing.assert_allclose(parts[1].rotation,
                               rotation_plane(3, (1, 2), 0.5), atol=0)


def test_parse_obs_spec_labels():
    (part,) = parse_obs_spec("plane=1,2;theta=0;labels=1,-1", state_dim=2)
    assert part.labels == (1.0, -1.0)


def test_parse_obs_spec_errors():
    with pytest.raises(ValueError):
        parse_obs_spec("id|id|id", state_dim=4)   # 4 != d**3
    with pytest.raises(ValueError):
        parse_obs_spec("spin=up", state_dim=2)
    with pytest.raises(ValueError):
        parse_obs_spec("id|id", state_dim=5)
