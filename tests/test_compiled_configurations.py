"""The paper's preparation and measurement configurations as compiled meshes.

A state is prepared by the compiled mesh of ``preparation_unitary`` from
port 1 and measured by the compiled mesh of an analyzer; the port law is
read off the simulated output, not off the ideal analyzer matrix.
"""

import numpy as np
import pytest

from multiport import (
    ObservableSpec,
    analyzer_unitary,
    context_of,
    decompose,
    links_between,
    netlist_from_factorization,
    predict_ports,
    preparation_unitary,
    resolve_state,
    rotation_plane,
    simulate,
)


def compiled(u):
    return netlist_from_factorization(decompose(u))


def random_rotation(rng, d):
    """A random real rotation of determinant 1."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("state, slots, d, distinct", [
    ("qutrit3-singlet", 3, 3, 1 / 6),
    ("bell4", 2, 2, 1 / 2),
])
def test_one_rotation_on_every_slot_through_compiled_meshes(state, slots, d, distinct):
    psi = resolve_state(state)
    n = psi.size
    prepared = simulate(compiled(preparation_unitary(psi, 0)), np.eye(n)[0])
    for seed in range(3):
        spec = ObservableSpec(dim=d, rotation=random_rotation(np.random.default_rng(seed), d),
                              labels=tuple(range(d)))
        an = analyzer_unitary((spec,) * slots)
        probs = np.abs(simulate(compiled(an.matrix), prepared)) ** 2
        want = [distinct if len(set(labels)) == slots else 0.0 for labels in an.outcome_labels]
        assert np.max(np.abs(probs - want)) <= 1e-10
        assert np.max(np.abs(probs - predict_ports(an, psi).probabilities)) <= 1e-10


def test_a_shared_ray_gets_one_probability_through_either_compiled_analyzer():
    rng = np.random.default_rng(7)
    q = random_rotation(rng, 3)
    # Turning rows 1 and 2 of q leaves row 3 in both contexts.
    specs = [ObservableSpec(dim=3, rotation=rotation_plane(3, (1, 2), t).real @ q, labels=(1.0, 0.0, -1.0))
             for t in (0.4, 1.1)]
    c1, c2 = (context_of(s, [f"{k}{i}" for i in range(3)], name=k) for s, k in zip(specs, "AB"))
    ((r1, r2),) = links_between(c1, c2)
    i, j = c1.rays.index(r1), c2.rays.index(r2)
    analyzers = [analyzer_unitary((s,)) for s in specs]
    nets = [compiled(an.matrix) for an in analyzers]
    ports = [an.outcome_labels.index((s.labels[k],)) for an, s, k in zip(analyzers, specs, (i, j))]
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = z / np.linalg.norm(z)
        p1, p2 = (abs(simulate(net, psi)[port]) ** 2 for net, port in zip(nets, ports))
        assert abs(p1 - p2) <= 1e-10
        assert abs(p1 - abs(np.vdot(r1.vector, psi)) ** 2) <= 1e-10
