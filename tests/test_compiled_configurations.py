"""The paper's preparation and measurement configurations as compiled meshes.

A state is prepared by the compiled mesh of ``preparation_unitary`` from
port 1 and measured by the compiled mesh of an analyzer; the port law is
read off the simulated output, not off the ideal analyzer matrix.
"""

import numpy as np
import pytest

from multiport import (
    Context,
    ContextGraph,
    ObservableSpec,
    Ray,
    analyzer_unitary,
    builtin_graph,
    context_of,
    decompose,
    links_between,
    load_netlist,
    netlist_from_factorization,
    predict_ports,
    preparation_unitary,
    resolve_state,
    rotation_plane,
    save_netlist,
    simulate,
    transfer_matrix,
    validate_context_graph,
)

from test_contexts import ceg18_graph

J = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])  # antidiag(1, -1, 1)


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


def qutrit(rotation):
    return ObservableSpec(dim=3, rotation=rotation, labels=(1.0, 0.0, -1.0))


def shared_ray_contexts():
    """Rotations a, b of two qutrit contexts A, B from ``context_of``; ray 2 of A is ray 0 of B, both named s."""
    q = random_rotation(np.random.default_rng(11), 3)
    a = rotation_plane(3, (1, 2), 0.4).real @ q  # keeps row 3 of q, as ray 2
    b = rotation_plane(3, (2, 3), 1.1).real @ np.roll(q, 1, axis=0)  # keeps it as ray 0
    return a, b, context_of(qutrit(a), ("a0", "a1", "s"), name="A"), context_of(qutrit(b), ("s", "b1", "b2"), name="B")


def test_two_contexts_read_at_once_on_two_particles_agree_on_their_shared_ray():
    # The two-qutrit singlet is sum_ab J[a, b] e_a e_b / sqrt3, so rotation R on slot 1 and R' J on slot 2
    # fire rays k and l of R and R' with probability |<r_k, r'_l>|^2 / 3.
    a, b, c1, c2 = shared_ray_contexts()
    ((r1, r2),) = links_between(c1, c2)
    i, j = c1.rays.index(r1), c2.rays.index(r2)
    assert (i, j) == (2, 0)
    prepared = simulate(compiled(preparation_unitary(resolve_state("qutrit2-singlet"), 0)), np.eye(9)[0])

    def joint(rotation2):
        """P[k, l] for ray k on slot 1 and ray l on slot 2, through one compiled 9-port analyzer."""
        an = analyzer_unitary((qutrit(a), qutrit(rotation2)))
        return (np.abs(simulate(compiled(an.matrix), prepared)) ** 2)[::-1].reshape(3, 3)  # reversed_lex

    p = joint(b @ J)
    assert abs(p[i, j] - 1 / 3) <= 1e-10
    assert np.max(np.delete(p[i], j)) <= 1e-10 and np.max(np.delete(p[:, j], i)) <= 1e-10
    # Slot 1's marginal does not depend on the analyzer of slot 2.
    for rotation2 in (b @ J, *(rotation_plane(3, (1, 3), t).real for t in (0.3, 1.2, 2.5))):
        assert np.max(np.abs(joint(rotation2).sum(axis=1) - 1 / 3)) <= 1e-10


@pytest.mark.parametrize("slots", [2, 3])
def test_slot_one_marginal_of_a_random_state_ignores_the_other_analyzers(slots):
    rng = np.random.default_rng(slots)
    z = rng.standard_normal(3**slots) + 1j * rng.standard_normal(3**slots)
    prepared = simulate(compiled(preparation_unitary(z / np.linalg.norm(z), 0)), np.eye(3**slots)[0])
    first = qutrit(random_rotation(rng, 3))
    marginals = []
    for _ in range(3):
        others = [qutrit(random_rotation(rng, 3)) for _ in range(slots - 1)]
        probs = np.abs(simulate(compiled(analyzer_unitary((first, *others)).matrix), prepared)) ** 2
        marginals.append(probs[::-1].reshape(3, -1).sum(axis=1))  # reversed_lex: slot 1's index runs slowest
    assert np.max(np.abs(np.array(marginals) - marginals[0])) <= 1e-10


def ideal_graph(name):
    if name == "ceg18":
        return ceg18_graph()
    if name == "context_of":
        return ContextGraph(contexts=shared_ray_contexts()[2:])
    return builtin_graph(name)


@pytest.mark.parametrize("name, links", [("ceg18", 18), ("two-tripods", 1), ("three-chain", 2), ("context_of", 1)])
def test_compiled_analyzers_realize_the_greechie_diagram(name, links, tmp_path):
    """Each context's analyzer, compiled, written and read back, gives back rays of the same graph."""
    ideal = ideal_graph(name)
    contexts = []
    for ctx in ideal.contexts:
        path = tmp_path / f"{ctx.name}.json"
        save_netlist(path, compiled(ctx.matrix.conj()))  # the analyzer's rows are the conjugated rays
        rays = transfer_matrix(load_netlist(path)).conj()
        contexts.append(Context(name=ctx.name, rays=tuple(Ray(r.label, v) for r, v in zip(ctx.rays, rays))))
    report = validate_context_graph(ContextGraph(contexts=tuple(contexts)))
    assert report.ok, report.violations
    assert len(report.links) == links and report.links == validate_context_graph(ideal).links
