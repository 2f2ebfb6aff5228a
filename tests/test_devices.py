from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    BsParams,
    GATE_NAMES,
    MzParams,
    TParams,
    bridge_params,
    named_gate,
    omega_from_transmission,
    t_bs,
    t_bs_product,
    t_matrix,
    t_mz,
    t_mz_product,
    transmission,
    unitarity_deviation,
    wrap_angle,
)
from multiport.decompose import factorization_from_payload
from multiport.devices import TWO, _apply_pairs, _stack, _wrap, apply_layers, layer_plan, plan_steps
from multiport.interferometer import netlist_from_payload

import refdata

NOT = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

angles = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)


def grid(lo, hi, k=16):
    return np.linspace(lo, hi, k)


# --- angle bookkeeping ----------------------------------------------------

def test_wrap_angle_is_identity_in_range():
    for x in (-3.0, -0.5, 0.0, 1.0, np.pi):
        assert wrap_angle(x) == x  # bitwise


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_wrap_angle_rejects_non_finite(x):
    with pytest.raises(ValueError, match="phase must be finite"):
        wrap_angle(x)


def test_wrap_angle_folds_multiples():
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-15)


def test_tparams_clamps_tiny_negatives():
    p = TParams(-1e-13, 0.0)
    assert p.omega == 0.0


def test_tparams_rejects_out_of_range_mixing():
    with pytest.raises(ValueError):
        TParams(-0.2, 0.0)
    with pytest.raises(ValueError):
        TParams(2.0, 0.0)


# Both sides of every angle rule: the 1e-12 slop past 0 and pi/2, values out
# of range, and values that are not finite.
EDGE_ANGLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-3e-12, 3e-12),
    st.floats(np.pi / 2 - 3e-12, np.pi / 2 + 3e-12),
    st.sampled_from([-0.0, -1e-12, -1.0000001e-12, np.pi / 2 + 1e-12, np.pi / 2 + 1.0000001e-12,
                     -np.pi, np.pi, 7.0, np.nan, np.inf, -np.inf]),
)


def _accepted_or_message(build):
    """The values ``build`` stores, as bytes so that -0.0 and +0.0 differ, or its ValueError text."""
    try:
        return np.array(build(), dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(EDGE_ANGLES, EDGE_ANGLES)
def test_scalar_angle_rules_agree_with_the_cell_arrays(omega, phase):
    """TParams and BsParams accept, reject, clamp and wrap exactly as a one-cell mesh file does."""

    def cell():
        factor = {"p": 1, "q": 2, "omega": omega, "phi": phase}
        f = factorization_from_payload({"dim": 2, "factors": [factor], "diagonal": [0.0, 0.0]})
        return f.omega[0], f.phi[0]

    def netlist_cell():
        bs = {"kind": "bs", "p": 1, "q": 2, "omega": omega, "alpha": phase, "beta": -phase, "phi": 7.0 * phase}
        return netlist_from_payload({"dim": 2, "elements": [bs]}).angles[0]

    want = _accepted_or_message(cell)
    assert _accepted_or_message(lambda: astuple(TParams(omega, phase))) == want
    assert _accepted_or_message(lambda: astuple(BsParams(omega, phase, phase, phase))[:2]) == want
    bs = _accepted_or_message(lambda: astuple(BsParams(omega, phase, -phase, 7.0 * phase)))
    if bs == "phase must be finite":  # a netlist words its finiteness rule once for all angles
        bs = "angles and phases must be finite"
    assert _accepted_or_message(netlist_cell) == bs


def test_negative_zero_mixing_angle_is_stored_as_positive_zero():
    for omega in (TParams(-0.0, 0.0).omega, BsParams(-0.0, 0.0, 0.0, 0.0).omega):
        assert np.signbit(omega) == np.False_
    assert np.signbit(TParams(0.5, -0.0).phi)  # a phase keeps its sign


def test_angle_checks_convert_with_float_first():
    with pytest.raises(TypeError):
        TParams(None, 0.0)
    with pytest.raises(TypeError):
        BsParams(0.5, None, 0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.one_of(EDGE_ANGLES, st.floats(-10.0, 10.0))] * 4))
def test_mzparams_obeys_the_array_phase_rules(raw):
    """NaN or inf in any angle raises; the stored angles are bitwise what ``_wrap`` returns."""
    alpha, beta, omega, phi = raw
    if not np.isfinite(raw).all():
        with pytest.raises(ValueError, match="^phase must be finite$"):
            MzParams(alpha, beta, omega, phi)
        return
    p = MzParams(alpha, beta, omega, phi)
    w = _wrap(np.array(raw))
    if w[2] < 0.0:  # the matrix-preserving fold, then the same wrap
        w = _wrap(np.array([alpha - np.pi, beta + w[2] + np.pi, -w[2], phi - np.pi]))
    assert np.array(astuple(p)).tobytes() == w.tobytes()
    assert astuple(p) == tuple(wrap_angle(x) for x in astuple(p))  # canonical already
    assert 0.0 <= p.omega <= np.pi


def test_mzparams_flips_negative_mixing_angle():
    p = MzParams(alpha=0.3, beta=0.1, omega=-1.0, phi=0.2)
    assert p.omega == pytest.approx(1.0)
    # the flip is matrix-preserving, checked in test_mz_matches_raw_closed_form


# --- elementary transfer matrices ------------------------------------------

def test_t_matrix_swap_point():
    np.testing.assert_allclose(t_matrix(TParams(0.0, 0.0)), NOT, atol=1e-15)


def test_t_matrix_identity_point():
    np.testing.assert_allclose(t_matrix(TParams(np.pi / 2, np.pi)), np.eye(2),
                               atol=1e-15)


def test_t_matrix_balanced_point():
    want = refdata.H * np.array([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(t_matrix(TParams(np.pi / 4, 0.0)), want,
                               atol=1e-15)


def test_t_matrix_is_unitary_on_grid():
    for w in grid(0.0, np.pi / 2, 9):
        for f in grid(-np.pi, np.pi, 9):
            assert unitarity_deviation(t_matrix(TParams(w, f))) <= 1e-13


def test_bs_closed_form_equals_product_form():
    worst = 0.0
    for w in grid(0.0, np.pi / 2, 8):
        for a in grid(-np.pi, np.pi, 5):
            p = BsParams(w, a, 0.7, -1.1)
            worst = max(worst, np.max(np.abs(t_bs(p) - t_bs_product(p))))
    assert worst <= 1e-14


def test_mz_closed_form_equals_product_form():
    worst = 0.0
    for w in grid(0.0, np.pi, 8):
        for b in grid(-np.pi, np.pi, 5):
            p = MzParams(alpha=0.4, beta=b, omega=w, phi=-0.9)
            worst = max(worst, np.max(np.abs(t_mz(p) - t_mz_product(p))))
    assert worst <= 1e-14


@settings(max_examples=40, deadline=None)
@given(angles, angles, st.floats(-3 * np.pi, 3 * np.pi), angles)
def test_mz_matches_raw_closed_form(a, b, w, f):
    """Canonicalization (wrap + mixing-angle flip) must preserve the matrix."""
    got = t_mz(MzParams(alpha=a, beta=b, omega=w, phi=f))
    pref = 1j * np.exp(1j * (b + w / 2))
    want = pref * np.array([
        [-np.exp(1j * (a + f)) * np.sin(w / 2), np.exp(1j * f) * np.cos(w / 2)],
        [np.exp(1j * a) * np.cos(w / 2), np.sin(w / 2)],
    ])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_bridge_reproduces_t_matrix_on_grid():
    worst_bs = worst_mz = 0.0
    for w in grid(0.0, np.pi / 2, 8):
        for f in grid(-np.pi, np.pi, 8):
            p = TParams(w, f)
            target = t_matrix(p)
            pbs, pmz = bridge_params(p)
            worst_bs = max(worst_bs, np.max(np.abs(t_bs(pbs) - target)))
            worst_mz = max(worst_mz, np.max(np.abs(t_mz(pmz) - target)))
    assert worst_bs <= 1e-13
    assert worst_mz <= 1e-13


# --- the two-port kernel ----------------------------------------------------

def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# Each target with the cells of one layer.  A single cell takes the gathered
# path; cells (p, p+1) with p stepping by 2 are read as one strided view of
# the target, which for a transposed matrix or a vector is not contiguous.
KERNEL_TARGETS = {
    "matrix": (lambda rng: _complex(rng, (5, 4)), [(1, 3)]),
    "vector": (lambda rng: _complex(rng, 5), [(1, 3)]),
    "transposed-view": (lambda rng: _complex(rng, (4, 5)).T, [(1, 3)]),
    "regular-run-vector": (lambda rng: _complex(rng, 7), [(1, 2), (3, 4), (5, 6)]),
    "regular-run-transposed-view": (lambda rng: _complex(rng, (4, 7)).T, [(1, 2), (3, 4), (5, 6)]),
}


@pytest.mark.parametrize("as_tuple", [False, True], ids=["ndarray-block", "tuple-block"])
@pytest.mark.parametrize("make, cells", KERNEL_TARGETS.values(), ids=KERNEL_TARGETS.keys())
def test_apply_two_port_matches_block_product(make, cells, as_tuple):
    blocks = np.array([t_bs(BsParams(0.4 + 0.3 * k, 1.0 - k, -2.0, 0.3)) for k in range(len(cells))])
    want = make(np.random.default_rng(11))
    for (p, q), block in zip(cells, blocks):
        want[[p, q]] = block @ want[[p, q]]

    # One cell at a time: a one-pair slice of rows (p, p+1), or a one-row gather.
    m = make(np.random.default_rng(11))
    rows = m if m.ndim == 2 else m[:, None]
    for (p, q), block in zip(cells, blocks):
        where = slice(p, p + 2) if q == p + 1 else np.array([[p, q]])
        coef = _stack(tuple(tuple(x[None] for x in row) for row in block)) if as_tuple else block[None]
        _apply_pairs(rows, where, coef)
    assert np.max(np.abs(m - want)) <= 1e-15

    # The same cells as one layer: one batched product, written through the view.
    m = make(np.random.default_rng(11))
    p, q = np.array(cells).T
    steps = plan_steps(*layer_plan(np.ones_like(p), np.full_like(p, TWO), p, q), blocks.transpose(1, 2, 0), None)
    assert len(steps) == 1 and isinstance(steps[0][0], slice) == (len(cells) > 1)
    apply_layers(m, steps)
    assert np.max(np.abs(m - want)) <= 1e-15


# --- named gates ------------------------------------------------------------

def test_gate_table_contents():
    assert GATE_NAMES == ("identity", "not", "sqrt_i2", "sqrt_not")
    np.testing.assert_array_equal(named_gate("identity"), np.eye(2))
    np.testing.assert_array_equal(named_gate("not"), NOT)
    want = refdata.H * np.array([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(named_gate("sqrt_i2"), want, atol=0)
    np.testing.assert_allclose(named_gate("sqrt_not"),
                               0.5 * np.array([[1 + 1j, 1 - 1j],
                                               [1 - 1j, 1 + 1j]]), atol=0)
    with pytest.raises(ValueError):
        named_gate("hadamard")


def test_square_roots_square_to_their_gates():
    s = named_gate("sqrt_i2")
    assert np.max(np.abs(s @ s - np.eye(2))) <= 1e-14
    r = named_gate("sqrt_not")
    assert np.max(np.abs(r @ r - NOT)) <= 1e-14


def test_mz_settings_for_named_gates():
    table = {
        "identity": MzParams(alpha=np.pi, beta=-np.pi, omega=np.pi, phi=0.0),
        "not": MzParams(alpha=np.pi, beta=np.pi / 2, omega=0.0, phi=np.pi),
        "sqrt_i2": MzParams(alpha=np.pi, beta=np.pi / 4, omega=np.pi / 2,
                            phi=-np.pi),
    }
    for name, p in table.items():
        assert np.max(np.abs(t_mz(p) - named_gate(name))) <= 1e-14


def test_bs_setting_for_sqrt_not():
    p = BsParams(omega=np.pi / 4, alpha=0.0, beta=-np.pi / 4, phi=0.0)
    assert np.max(np.abs(t_bs(p) - named_gate("sqrt_not"))) <= 1e-14


def test_legacy_sqrt_not_setting_squares_to_minus_not():
    # The older published parameter tuple for sqrt(NOT) actually lands on a
    # matrix whose square is -NOT; kept as a regression pin so nobody
    # "fixes" the gate table to match it.
    m = t_bs(BsParams(omega=np.pi / 4, alpha=-np.pi, beta=3 * np.pi / 4,
                      phi=-np.pi))
    assert np.max(np.abs(m @ m + NOT)) <= 1e-14


def test_transmission_round_trip():
    for w in grid(0.0, np.pi / 2, 11):
        t = transmission(w)
        assert 0.0 <= t <= 1.0
        assert omega_from_transmission(t) == pytest.approx(w, abs=1e-12)
    assert transmission(0.0) == 1.0
    assert transmission(np.pi / 2) == pytest.approx(0.0, abs=1e-15)
