import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiport import (
    BUILTIN_GRAPHS,
    Context,
    ContextGraph,
    ObservableSpec,
    Ray,
    builtin_graph,
    context_of,
    greechie_dot,
    identity_spec,
    links_between,
    load_context_graph,
    rotated_observable,
    rotation_plane,
    save_context_graph,
    validate_context_graph,
)
import multiport.contexts
from multiport.cli import main
from multiport.contexts import LINK_TOL, MAX_FILE_RAYS, context_graph_from_payload
from multiport.numerics import dyadic, equal_up_to_global_phase, rows_equal_up_to_global_phase

import refdata

E3 = np.eye(3)


def tripod(name, vectors, labels):
    rays = tuple(Ray(label=l, vector=v) for l, v in zip(labels, vectors))
    return Context(name=name, rays=rays)


def test_ray_requires_unit_norm():
    with pytest.raises(ValueError):
        Ray(label="x", vector=np.array([1.0, 1.0]))


def test_context_of_standard_qubit_observable():
    spec = ObservableSpec(dim=2, labels=(1.0, -1.0))
    ctx = context_of(spec, ["up", "down"])
    np.testing.assert_array_equal(ctx.rays[0].vector, [1.0, 0.0])
    np.testing.assert_array_equal(ctx.rays[1].vector, [0.0, 1.0])
    assert ctx.labels == ("up", "down")


def test_context_of_rotated_qutrit_observable():
    spec = ObservableSpec(dim=3, rotation=refdata.ROT3_12_Q,
                          labels=(1.0, 0.0, -1.0))
    ctx = context_of(spec, ["D", "K", "A"])
    h = refdata.H
    np.testing.assert_array_equal(ctx.rays[0].vector, [h, h, 0.0])
    np.testing.assert_array_equal(ctx.rays[1].vector, [-h, h, 0.0])
    np.testing.assert_array_equal(ctx.rays[2].vector, [0.0, 0.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.floats(-np.pi, np.pi, allow_nan=False))
def test_projector_sum_reconstructs_observable(theta):
    spec = ObservableSpec(dim=3, rotation=rotation_plane(3, (1, 2), theta),
                          labels=(2.0, -3.0, 5.0))
    ctx = context_of(spec, ["a", "b", "c"])
    total = sum(lab * dyadic(ray.vector)
                for lab, ray in zip(spec.labels, ctx.rays))
    np.testing.assert_allclose(total, rotated_observable(spec), atol=1e-12)


def test_links_between_rotated_tripods():
    e_ctx = tripod("E", E3, ["B", "C", "A"])
    h = refdata.H
    f_ctx = tripod("F", [np.array([h, h, 0]), np.array([-h, h, 0]), E3[2]],
                   ["D", "K", "A"])
    pairs = links_between(e_ctx, f_ctx)
    assert len(pairs) == 1
    r1, r2 = pairs[0]
    assert (r1.label, r2.label) == ("A", "A")
    np.testing.assert_array_equal(r1.vector, [0.0, 0.0, 1.0])


def test_links_between_qubit_contexts_is_empty():
    h = refdata.H
    e_ctx = tripod("E", np.eye(2), ["p", "m"])
    f_ctx = tripod("F", [np.array([h, h]), np.array([-h, h])], ["p'", "m'"])
    assert links_between(e_ctx, f_ctx) == []


def test_links_between_context_and_itself():
    ctx = tripod("E", E3, ["x1", "x2", "x3"])
    assert len(links_between(ctx, ctx)) == 3


def test_links_are_phase_invariant():
    ctx1 = tripod("E", E3, ["x1", "x2", "x3"])
    phased = [np.exp(1j * 0.7) * v for v in E3]
    ctx2 = tripod("E'", phased, ["y1", "y2", "y3"])
    assert len(links_between(ctx1, ctx2)) == 3


def test_builtin_two_tripods_validates():
    g = builtin_graph("two-tripods")
    report = validate_context_graph(g)
    assert report.ok, report.violations
    pairs = links_between(g.contexts[0], g.contexts[1])
    assert len(pairs) == 1
    np.testing.assert_allclose(np.abs(pairs[0][0].vector), [0.0, 0.0, 1.0],
                               atol=0)


def test_builtin_three_chain_validates():
    g = builtin_graph("three-chain")
    report = validate_context_graph(g)
    assert report.ok, report.violations
    assert len(g.contexts) == 3
    labels = {r.label for ctx in g.contexts for r in ctx.rays}
    assert len(labels) == 7
    e, f, gg = g.contexts
    assert len(links_between(e, f)) == 1
    assert len(links_between(e, gg)) == 1
    assert len(links_between(f, gg)) == 0


def test_builtin_graph_names():
    assert BUILTIN_GRAPHS == ("two-tripods", "three-chain")
    with pytest.raises(ValueError):
        builtin_graph("pentagon")


def test_six_label_configuration_is_rejected():
    """A chain {A,B,C}, {A,D,K}, {K,L,C} cannot close with distinct rays."""
    h = refdata.H
    first = tripod("1", E3, ["B", "C", "A"])
    second = tripod("2", [np.array([h, h, 0]), np.array([-h, h, 0]), E3[2]],
                    ["D", "K", "A"])
    # The third context must hold both K and C, but those rays are not
    # orthogonal; completing them drags in a ray that already carries A.
    third = tripod("3", [second.rays[1].vector,
                         np.array([0.0, 0.0, -1.0]), E3[1]],
                   ["K", "L", "C"])
    report = validate_context_graph(ContextGraph(contexts=(first, second, third)))
    assert not report.ok
    assert any("name the same ray" in v or "not orthogonal" in v
               for v in report.violations)


def test_label_naming_two_rays_is_flagged():
    c1 = tripod("1", E3, ["A", "B", "C"])
    h = refdata.H
    c2 = tripod("2", [np.array([h, h, 0]), np.array([-h, h, 0]), E3[2]],
                ["A", "D", "E"])  # "A" now names (h,h,0), not e3
    report = validate_context_graph(ContextGraph(contexts=(c1, c2)))
    assert not report.ok
    assert any("names different rays" in v for v in report.violations)


def test_excess_sharing_in_dimension_three_is_flagged():
    c1 = tripod("1", E3, ["A", "B", "C"])
    c2 = tripod("2", E3, ["A", "B", "C"])
    report = validate_context_graph(ContextGraph(contexts=(c1, c2)))
    assert not report.ok
    assert any("share at most one" in v for v in report.violations)


def test_non_orthogonal_context_is_flagged():
    h = refdata.H
    bad = tripod("bad", [E3[0], np.array([h, h, 0]), E3[2]], ["a", "b", "c"])
    report = validate_context_graph(ContextGraph(contexts=(bad,)))
    assert not report.ok
    assert any("not orthogonal" in v for v in report.violations)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 1.2))
def test_inconsistent_relabel_is_always_flagged(theta):
    r = rotation_plane(3, (1, 2), theta)
    c1 = tripod("1", E3, ["x1", "x2", "x3"])
    c2 = tripod("2", [r.T[:, 0], r.T[:, 1], E3[2]], ["y1", "y2", "renamed"])
    report = validate_context_graph(ContextGraph(contexts=(c1, c2)))
    assert not report.ok  # e3 appears under two labels


def test_greechie_dot_two_tripods():
    g = builtin_graph("two-tripods")
    dot = greechie_dot(g)
    assert dot == greechie_dot(g)  # deterministic
    assert dot.startswith("graph contexts {")
    node_lines = [l for l in dot.splitlines()
                  if l.strip().endswith('";') and "--" not in l]
    assert len(node_lines) == 5
    edge_lines = [l for l in dot.splitlines() if "--" in l]
    assert len(edge_lines) == 4  # two chains of two edges each
    assert any('context="E"' in l for l in edge_lines)
    assert any('context="F"' in l for l in edge_lines)


def test_greechie_dot_three_chain_has_seven_nodes():
    dot = greechie_dot(builtin_graph("three-chain"))
    node_lines = [l for l in dot.splitlines()
                  if l.strip().endswith('";') and "--" not in l]
    assert len(node_lines) == 7
    assert len([l for l in dot.splitlines() if "--" in l]) == 6


def test_greechie_dot_refuses_invalid_graph():
    c1 = tripod("1", E3, ["A", "B", "C"])
    c2 = tripod("2", E3, ["A", "B", "C"])
    with pytest.raises(ValueError):
        greechie_dot(ContextGraph(contexts=(c1, c2)))


def test_graph_file_round_trip(tmp_path):
    g = builtin_graph("three-chain")
    path = tmp_path / "graph.json"
    save_context_graph(path, g)
    back = load_context_graph(path)
    assert len(back.contexts) == len(g.contexts)
    for ca, cb in zip(back.contexts, g.contexts):
        assert ca.name == cb.name
        assert ca.labels == cb.labels
        for ra, rb in zip(ca.rays, cb.rays):
            np.testing.assert_array_equal(ra.vector, rb.vector)
    assert validate_context_graph(back).ok


def test_context_mixing_ray_sizes_raises(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError, match="^context 'x' mixes ray dimensions$"):
        Context(name="x", rays=(Ray("a", [1.0, 0.0, 0.0]), Ray("b", [0.0, 1.0])))
    # A graph file holding such a context fails as it is read, before any validation.
    ray = lambda label, v: {"label": label, "vector": [[x, 0.0] for x in v]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps([
        {"name": "D", "rays": [ray("a", [1, 0, 0]), ray("b", [0, 1, 0]), ray("c", [0, 0, 1])]},
        {"name": "E", "rays": [ray("a", [1, 0, 0]), ray("q", [0, 1])]},
    ]))
    failure = {"error_class": "ValueError", "exit_code": 4, "message": "context 'E' mixes ray dimensions",
               "verb": "contexts"}
    for report_json, stdout in (("0", ""), ("1", json.dumps(failure) + "\n")):
        monkeypatch.setenv("REPORT_JSON", report_json)
        assert main(["contexts", "--graph", f"@{path}"]) == 4
        out = capsys.readouterr()
        assert (out.out, out.err) == (stdout, "error: context 'E' mixes ray dimensions\n")
    # Contexts of different dimensions share no ray, and no Gram pass asks.
    monkeypatch.setattr(multiport.contexts, "_shared_rows", None)
    qubit = Context(name="Q", rays=(Ray("a", [1.0, 0.0]), Ray("b", [0.0, 1.0])))
    e_ctx = tripod("E", E3, ["a", "c", "d"])
    assert links_between(e_ctx, qubit) == [] and links_between(qubit, e_ctx) == []


def test_contexts_of_another_dimension_get_one_line_each():
    # Two dimension-4 contexts sharing two rays, which dimension 4 allows,
    # in a dimension-3 graph: flagged once each, with no links and no share line.
    e4 = np.eye(4)
    x = Context(name="X", rays=tuple(Ray(l, v) for l, v in zip("abcd", e4)))
    y = Context(name="Y", rays=(Ray("a", e4[0]), Ray("b", e4[1]),
                                Ray("e", (e4[2] + e4[3]) / np.sqrt(2)), Ray("f", (e4[2] - e4[3]) / np.sqrt(2))))
    g = ContextGraph(contexts=(tripod("E", E3, ["x1", "x2", "x3"]), x, y))
    report = validate_context_graph(g)
    assert report.violations == (
        "context 'X' lives in dimension 4, expected 3",
        "context 'Y' lives in dimension 4, expected 3",
    )
    assert report.links == ()


def test_report_lists_links_in_context_pair_order():
    assert validate_context_graph(builtin_graph("two-tripods")).links == ((0, 1, 2, 2),)
    # E-F via x3 (ray 2 of both), then E-G via x1 (ray 0 of both).
    assert validate_context_graph(builtin_graph("three-chain")).links == (
        (0, 1, 2, 2), (0, 2, 0, 0))
    # Two rays of one context that are equal up to phase make no link.
    twin = Context(name="X", rays=(Ray("a", E3[0]), Ray("a", 1j * E3[0]), Ray("c", E3[2])))
    report = validate_context_graph(ContextGraph(contexts=(twin, tripod("E", E3, "abc"))))
    assert report.links == ((0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 2, 2))


def test_validating_an_invalid_graph_builds_no_link(monkeypatch, tmp_path, capsys):
    def no_link(*fields):
        raise AssertionError("a link was built")

    monkeypatch.setattr(multiport.contexts, "_link", no_link)
    g = context_graph_from_payload(ray_payload(30))  # one ray 30 times: 405 links across contexts
    report = validate_context_graph(g)
    assert not report.ok and len(report.links) == 405
    path = tmp_path / "copies.json"
    save_context_graph(path, g)
    assert main(["contexts", "--graph", f"@{path}"]) == 4
    assert "violation:" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="a link was built"):
        report.links[0]


def test_links_view_is_one_read_only_int_array():
    report = validate_context_graph(builtin_graph("three-chain"))
    assert not isinstance(report.links, tuple)
    assert report.links[-1] == (0, 2, 0, 0) and report.links[:1] == ((0, 1, 2, 2),)
    assert all(type(x) is int for link in report.links for x in link)
    column = report.links._columns[0]
    assert column.base is report.links._columns[3].base and not column.flags.writeable
    assert report == validate_context_graph(builtin_graph("three-chain"))
    assert hash(report) == hash((True, (), ((0, 1, 2, 2), (0, 2, 0, 0))))  # the dataclass hash of its fields


def test_empty_context_empty_graph_and_a_non_list_payload_are_refused():
    with pytest.raises(ValueError, match="^a context needs at least one ray$"):
        Context(name="C", rays=())
    with pytest.raises(ValueError, match="^a context graph needs at least one context$"):
        ContextGraph(contexts=())
    with pytest.raises(ValueError, match="^context graph payload must be a list of contexts$"):
        context_graph_from_payload({"name": "C", "rays": []})


def ray_payload(count):
    """A graph payload of ``count`` copies of one ray, three to a context."""
    ray = {"label": "a", "vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    return [{"name": f"C{k}", "rays": [ray] * min(3, count - k)} for k in range(0, count, 3)]


def test_graph_payload_over_ray_cap_is_refused_before_any_ray(monkeypatch):
    assert len(context_graph_from_payload(ray_payload(MAX_FILE_RAYS)).contexts) == 683
    monkeypatch.setattr(multiport.contexts, "Ray", None)  # building a Ray would raise TypeError
    with pytest.raises(ValueError, match="2049 rays exceeds the limit of 2048"):
        context_graph_from_payload(ray_payload(MAX_FILE_RAYS + 1))


# --- dimension 4: the Cabello-Estebaranz-Garcia-Alcaine set -----------------

def ceg18_graph():
    labels = {}
    contexts = tuple(
        Context(name=f"C{k}", rays=tuple(
            Ray(labels.setdefault(v.tobytes(), f"r{len(labels)}"), v) for v in vecs))
        for k, vecs in enumerate(refdata.CEG18)
    )
    return ContextGraph(contexts=contexts)


def test_ceg18_set_validates_and_links_every_ray_twice():
    g = ceg18_graph()
    report = validate_context_graph(g)
    assert report.ok, report.violations
    ctxs = g.contexts
    per_label = Counter()
    for a in range(len(ctxs)):
        for b in range(a + 1, len(ctxs)):
            pairs = links_between(ctxs[a], ctxs[b])
            assert len(pairs) <= 1
            per_label.update(r1.label for r1, r2 in pairs if r1.label == r2.label)
    assert len(per_label) == 18 and set(per_label.values()) == {1}


def test_dimension_four_contexts_may_share_two_rays():
    first = ceg18_graph().contexts[0]  # e4, e3, (1, 1, 0, 0), (1, -1, 0, 0)
    e4 = np.eye(4)
    other = Context(name="std", rays=(first.rays[0], first.rays[1],
                                      Ray("e1", e4[0]), Ray("e2", e4[1])))
    assert validate_context_graph(ContextGraph(contexts=(first, other))).ok


def test_dimension_four_contexts_sharing_three_rays_are_flagged():
    first = ceg18_graph().contexts[0]
    three = Context(name="X", rays=tuple(
        Ray(r.label, np.exp(0.4j) * r.vector) for r in first.rays[:3]))
    report = validate_context_graph(ContextGraph(contexts=(first, three)))
    assert report.violations == (
        "context 'X' has 3 rays, expected 4",
        "contexts 'C0' and 'X' share 3 rays up to phase; distinct dimension-4 "
        "contexts may share at most 2",
    )


# --- the Gram-matrix validator against the pairwise one ---------------------

def reference_links(c1, c2, tol=LINK_TOL):
    """The pairwise link loop that the Gram-matrix prefilter replaced."""
    return [(r1, r2) for r1 in c1.rays for r2 in c2.rays
            if r1.vector.size == r2.vector.size
            and equal_up_to_global_phase(r1.vector, r2.vector, tol)]


def reference_violations(graph):
    """The pairwise validator, with the d - 2 sharing rule for every d >= 2."""
    violations = []
    contexts = graph.contexts
    dim = contexts[0].dim
    for ctx in contexts:
        if ctx.dim != dim:
            violations.append(
                f"context {ctx.name!r} lives in dimension {ctx.dim}, expected {dim}")
            continue
        if len(ctx.rays) != dim:
            violations.append(f"context {ctx.name!r} has {len(ctx.rays)} rays, expected {dim}")
        for i in range(len(ctx.rays)):
            for j in range(i + 1, len(ctx.rays)):
                ri, rj = ctx.rays[i], ctx.rays[j]
                ip = abs(np.vdot(ri.vector, rj.vector))
                if ip > 1e-10:
                    violations.append(
                        f"context {ctx.name!r}: rays {ri.label!r} and {rj.label!r} are not "
                        f"orthogonal (|<.,.>| = {ip:.3e})")
        seen = set()
        for r in ctx.rays:
            if r.label in seen:
                violations.append(f"context {ctx.name!r} repeats label {r.label!r}")
            seen.add(r.label)
    all_rays = [(ctx.name, r) for ctx in contexts for r in ctx.rays if ctx.dim == dim]
    for a in range(len(all_rays)):
        for b in range(a + 1, len(all_rays)):
            (na, ra), (nb, rb) = all_rays[a], all_rays[b]
            same_vec = equal_up_to_global_phase(ra.vector, rb.vector, LINK_TOL)
            if ra.label == rb.label and not same_vec:
                violations.append(
                    f"label {ra.label!r} names different rays in contexts {na!r} and {nb!r}")
            elif ra.label != rb.label and same_vec:
                violations.append(
                    f"labels {ra.label!r} ({na!r}) and {rb.label!r} ({nb!r}) name the same ray")
    if dim >= 2:
        most = "one" if dim == 3 else str(dim - 2)
        for a, b in combinations(range(len(contexts)), 2):
            if contexts[a].dim == contexts[b].dim == dim:
                shared = reference_links(contexts[a], contexts[b])
                if len(shared) > dim - 2:
                    violations.append(
                        f"contexts {contexts[a].name!r} and {contexts[b].name!r} share "
                        f"{len(shared)} rays up to phase; distinct dimension-{dim} contexts "
                        f"may share at most {most}")
    return tuple(violations)


def reference_link_indices(graph):
    """Every link ``(a, b, i, j)`` from the pairwise loop over pairs of
    contexts of the graph's dimension."""
    ctxs = graph.contexts
    dim = ctxs[0].dim
    return tuple(
        (a, b, i, j)
        for a, b in combinations(range(len(ctxs)), 2)
        if ctxs[a].dim == ctxs[b].dim == dim
        for i, r1 in enumerate(ctxs[a].rays)
        for j, r2 in enumerate(ctxs[b].rays)
        if equal_up_to_global_phase(r1.vector, r2.vector, LINK_TOL)
    )


NEAR_TOL = (1e-10, 3e-9, 7e-9, 9e-9, 1.1e-8, 1.5e-8, 3e-8, 1e-7)


def random_graph(rng, d):
    """Contexts that share rays with earlier ones, perturbed around LINK_TOL
    and rephased, with relabelled, reused and repeated labels mixed in."""
    def haar(n, first=None):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if first is not None:
            z[:, :first.shape[1]] = first
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def phase():
        return np.exp(2j * np.pi * rng.random())

    bases, names = [], []
    for k in range(int(rng.integers(2, 7))):
        roll = rng.random()
        same_dim = [i for i, b in enumerate(bases) if b.shape[0] == d]
        if roll < 0.08:  # wrong dimension
            n = max(1, d + int(rng.choice((-1, 1))))
            basis, labels = haar(n), [f"w{k}.{i}" for i in range(n)]
        elif same_dim and roll < 0.25:  # an earlier basis, permuted and rephased
            src = int(rng.choice(same_dim))
            perm = rng.permutation(d)
            basis = bases[src][:, perm] * np.array([phase() for _ in range(d)])
            labels = [names[src][i] for i in perm]
        elif same_dim and roll < 0.75:  # share some rays, perturbed near LINK_TOL
            src = int(rng.choice(same_dim))
            m = int(rng.integers(1, d + 1))
            cols = rng.permutation(d)[:m]
            delta = float(rng.choice(NEAR_TOL))
            kick = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            shared = bases[src][:, cols] + delta * kick / np.abs(kick)
            basis = haar(d, shared / np.linalg.norm(shared, axis=0))
            basis = basis * np.array([phase() for _ in range(d)])
            labels = [names[src][i] for i in cols] + [f"n{k}.{i}" for i in range(m, d)]
        else:
            basis, labels = haar(d), [f"n{k}.{i}" for i in range(d)]
        for i in range(len(labels)):  # label clashes
            u = rng.random()
            if u < 0.06:
                labels[i] = f"fresh{k}.{i}"
            elif u < 0.12 and names:
                labels[i] = str(rng.choice(names[int(rng.integers(len(names)))]))
            elif u < 0.15:
                labels[i] = labels[0]
        bases.append(basis)
        names.append(labels)
    contexts = tuple(
        Context(name=f"C{k}", rays=tuple(Ray(l, basis[:, i]) for i, l in enumerate(labels)))
        for k, (basis, labels) in enumerate(zip(bases, names))
    )
    return ContextGraph(contexts=contexts)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gram_validator_matches_pairwise_reference(d):
    rng = np.random.default_rng(1000 + d)
    kinds = Counter()
    for _ in range(60):
        g = random_graph(rng, d)
        report = validate_context_graph(g)
        got = report.violations
        assert got == reference_violations(g)
        assert report.links == reference_link_indices(g)
        kinds.update(v.split(" ")[0] for v in got)
        for c1 in g.contexts:
            for c2 in g.contexts:
                assert links_between(c1, c2) == reference_links(c1, c2)
    # The generator reaches every cross-context verdict ("contexts ... share").
    assert {"label", "labels", "contexts"} <= set(kinds), kinds


def non_transitive_chain():
    """Contexts A, B, C whose first rays e1 + k delta e2 (k = 0, 1, 2), all
    labelled x, are equal within LINK_TOL for A-B and B-C but not for A-C."""
    delta = 0.6 * LINK_TOL
    contexts = []
    for k, name in enumerate("ABC"):
        v = np.array([1.0, k * delta, 0.0])
        u = np.array([-k * delta, 1.0, 0.0])
        v, u, w = v / np.linalg.norm(v), u / np.linalg.norm(u), E3[2]
        t = 0.3 * k + 0.2  # the other two rays differ from context to context
        contexts.append(tripod(name, [v, np.cos(t) * u + np.sin(t) * w, np.cos(t) * w - np.sin(t) * u],
                               ["x", f"{name}2", f"{name}3"]))
    return ContextGraph(contexts=tuple(contexts))


def ray_copies(count):
    """``count`` contexts of three copies of one labelled ray: the capped 2048-ray file, scaled down."""
    return ContextGraph(contexts=tuple(tripod(f"C{k}", [E3[0]] * 3, ["a"] * 3) for k in range(count)))


@pytest.mark.parametrize("make, pinned, count", [
    pytest.param(non_transitive_chain, "label 'x' names different rays in contexts 'A' and 'C'", 1,
                 id="non-transitive-chain"),
    # Per context 3 non-orthogonal pairs and 2 repeated labels; each of the 435 pairs shares 9 rays.
    pytest.param(lambda: ray_copies(30), "contexts 'C0' and 'C29' share 9 rays up to phase; "
                 "distinct dimension-3 contexts may share at most one", 90 + 60 + 435, id="ray-copies"),
])
def test_validator_judges_each_ray_pair_on_its_own(make, pinned, count):
    g = make()
    report = validate_context_graph(g)
    assert report.violations == reference_violations(g)
    assert report.links == reference_link_indices(g)
    assert pinned in report.violations and len(report.violations) == count


def chain_graph(rng, length):
    """A valid chain of dimension-3 contexts, neighbours sharing one ray."""
    contexts, prev, prev_label = [], None, "s0"
    for k in range(length):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if prev is not None:
            z[:, 0] = prev
        q = np.linalg.qr(z)[0]
        if prev is not None:
            q[:, 0] = prev  # QR returns it up to sign
        labels = (prev_label, f"p{k}", f"s{k + 1}")
        contexts.append(Context(name=f"C{k}", rays=tuple(
            Ray(l, q[:, i]) for i, l in enumerate(labels))))
        prev, prev_label = q[:, 2], labels[2]
    return ContextGraph(contexts=tuple(contexts))


def test_validation_makes_linear_number_of_exact_comparisons(monkeypatch):
    rows = []

    def counting(a, b, tol):
        rows.append(len(a))
        return rows_equal_up_to_global_phase(a, b, tol)

    monkeypatch.setattr(multiport.contexts, "rows_equal_up_to_global_phase", counting)
    g = chain_graph(np.random.default_rng(20), 20)
    assert validate_context_graph(g).ok
    # 60 rays make 1770 pairs; only the 19 shared rays need the exact check.
    assert 0 < sum(rows) <= 4 * len(g.contexts)
    # A graph whose rays are all distinct has no candidates and confirms nothing.
    rows.clear()
    assert validate_context_graph(ContextGraph(contexts=g.contexts[:1])).ok
    assert rows == []


# --- stacked contexts: links against the brute-force loop ------------------

KICKS = (None, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0)  # multiples of LINK_TOL, None for none


@st.composite
def linked_graphs(draw):
    """Contexts of dimension 1..4 drawn from a small pool of rays, each ray
    repeated with a random phase and optionally kicked by a multiple of
    LINK_TOL."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit(n):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z / np.linalg.norm(z)

    pool = [unit(d) for _ in range(draw(st.integers(1, 4)))]
    contexts = []
    for k in range(draw(st.integers(1, 4))):
        rays = []
        for i in range(draw(st.integers(1, d + 1))):
            v = pool[draw(st.integers(0, len(pool) - 1))] * np.exp(2j * np.pi * rng.random())
            kick = draw(st.sampled_from(KICKS))
            if kick is not None and d > 1:
                # An entrywise kick of kick * LINK_TOL orthogonal to v, so the norm stays 1.
                w = unit(d)
                w -= v * np.vdot(v, w)
                v = v + kick * LINK_TOL * w / np.max(np.abs(w))
            rays.append(Ray(f"r{k}.{i}", v))
        contexts.append(Context(name=f"C{k}", rays=tuple(rays)))
    return ContextGraph(contexts=tuple(contexts))


@settings(max_examples=200, deadline=None)
@given(linked_graphs())
def test_stacked_links_match_the_pairwise_loop(g):
    for c1 in g.contexts:
        for c2 in g.contexts:
            assert links_between(c1, c2) == reference_links(c1, c2)
    assert validate_context_graph(g).links == reference_link_indices(g)


def test_kicks_just_inside_and_outside_link_tol():
    v = np.array([0.6, 0.8j, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    base = tripod("A", [v], ["v"])
    for kick, linked in ((0.99, True), (1.01, False)):
        other = tripod("B", [np.exp(0.3j) * (v + kick * LINK_TOL * w)], ["v"])
        assert bool(links_between(base, other)) is linked
        assert bool(validate_context_graph(ContextGraph(contexts=(base, other))).links) is linked


# --- read-only rays and contexts, and the stored report -------------------

def test_ray_vector_is_a_read_only_copy():
    v = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    r = Ray("a", v)
    v[0] = 5.0
    assert r.vector.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        r.vector[0] = 0.0


def test_context_matrix_is_read_only_and_stacks_the_rays():
    c = tripod("E", E3, ["a", "b", "c"])
    assert c.matrix.shape == (3, 3)
    assert np.array_equal(c.matrix, np.stack([r.vector for r in c.rays]))
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 0.0


def test_graph_keeps_its_report(monkeypatch):
    calls = Counter()
    gram = multiport.contexts._shared_rows

    def counted(*args):
        calls["gram"] += 1
        return gram(*args)

    monkeypatch.setattr(multiport.contexts, "_shared_rows", counted)
    g = builtin_graph("three-chain")
    report = validate_context_graph(g)
    assert calls["gram"] == 1
    greechie_dot(g)
    assert validate_context_graph(g) is report
    assert calls["gram"] == 1
    again = ContextGraph(contexts=g.contexts)
    assert validate_context_graph(again) == report
    assert calls["gram"] == 2


def test_greechie_dot_of_an_invalid_graph_reuses_the_report(monkeypatch):
    g = ContextGraph(contexts=(tripod("1", E3, ["A", "B", "C"]), tripod("2", E3, ["A", "B", "C"])))
    assert not validate_context_graph(g).ok
    # A Gram pass would now raise TypeError.
    monkeypatch.setattr(multiport.contexts, "_shared_rows", None)
    with pytest.raises(ValueError, match="share 3 rays"):
        greechie_dot(g)


# --- the chunked confirmation path -----------------------------------------

def test_one_row_confirmation_steps_match_the_default_steps(monkeypatch):
    three = builtin_graph("three-chain")
    copies = ContextGraph(contexts=tuple(Context(f"C{k}", three.contexts[0].rays) for k in range(20)))
    # Candidates that the exact check turns down: rays kicked just past LINK_TOL.
    v = np.array([0.6, 0.8j, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    kicked = ContextGraph(contexts=tuple(
        tripod(f"K{k}", [np.exp(0.3j * k) * (v + kick * LINK_TOL * w)], ["v"])
        for k, kick in enumerate((0.0, 1.01, 0.99, 1.01, 0.5))
    ))
    graphs = (ceg18_graph(), three, copies, kicked)
    rows = []

    def counting(a, b, tol):
        rows.append(len(a))
        return rows_equal_up_to_global_phase(a, b, tol)

    def results():
        rows.clear()
        return [
            (validate_context_graph(ContextGraph(contexts=g.contexts)),
             [links_between(c1, c2) for c1 in g.contexts for c2 in g.contexts])
            for g in graphs
        ]

    monkeypatch.setattr(multiport.contexts, "rows_equal_up_to_global_phase", counting)
    want = results()
    assert max(rows) > 1  # the 20 copies confirm their 1770 candidates in one call
    monkeypatch.setattr(multiport.contexts, "_CONFIRM_ENTRIES", 1)  # one row per step
    got = results()
    assert max(rows) == 1 and len(rows) > 1770
    assert got == want
    assert not want[2][0].ok  # the copies share all three rays


# --- contexts built from an observable -------------------------------------

@st.composite
def observable_specs(draw):
    """A spec of dimension 2 or 3: a random real orthogonal rotation, or the identity."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        return identity_spec(d), None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0].astype(np.complex128)
    return ObservableSpec(dim=d, rotation=rotation), rotation


@settings(max_examples=100, deadline=None)
@given(observable_specs())
def test_context_of_stores_one_matrix_with_ray_row_views(drawn):
    spec, rotation = drawn
    labels = [f"e{i}" for i in range(spec.dim)]
    ctx = context_of(spec, labels, name="K")
    vecs = spec.rotation_or_identity().T
    stacked = Context("K", tuple(Ray(l, vecs[:, i]) for i, l in enumerate(labels)))
    assert ctx.matrix.dtype == stacked.matrix.dtype and ctx.matrix.shape == stacked.matrix.shape
    assert ctx.matrix.tobytes() == stacked.matrix.tobytes()
    assert ctx.labels == stacked.labels and ctx.name == "K"
    for i, r in enumerate(ctx.rays):
        assert r.vector.base is ctx.matrix
        assert r.vector.tobytes() == ctx.matrix[i].tobytes() == stacked.rays[i].vector.tobytes()
        with pytest.raises(ValueError):
            r.vector[0] = 0.0
    with pytest.raises(ValueError):
        ctx.matrix[0, 0] = 0.0
    kept, held = ctx.matrix.copy(), spec.rotation_or_identity().copy()
    if rotation is not None:
        rotation[:] = 7.0  # a write to the caller's array reaches neither the spec nor the context
    assert ctx.matrix.tobytes() == kept.tobytes()
    assert spec.rotation_or_identity().tobytes() == held.tobytes()


def test_context_of_converts_ray_names_and_keeps_the_context_name():
    name = ("any", "object")
    ctx = context_of(identity_spec(3), [1, 2, 3], name=name)
    assert ctx.labels == ("1", "2", "3")
    assert ctx.name is name


def test_context_of_checks_the_ray_unit_norm_rule_on_every_row():
    spec = identity_spec(3)
    object.__setattr__(spec, "rotation", np.diag([1.0, 1.0 + 2e-10, 2.0]).astype(np.complex128))
    with pytest.raises(ValueError, match="^ray 'b' must have unit norm$"):
        context_of(spec, "abc")
    object.__setattr__(spec, "rotation", np.diag([1.0, 1.0 + 5e-11, 1.0]).astype(np.complex128))
    assert context_of(spec, "abc").labels == ("a", "b", "c")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_context_of_rejects_a_non_finite_rotation_entry_as_ray_does(bad):
    r = np.eye(3, dtype=np.complex128)
    spec = ObservableSpec(3, None, (1.0, 2.0, 3.0))
    object.__setattr__(spec, "rotation", r)  # a rotation that skipped the spec's checks
    r[1, 2] = bad
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        Ray("b", r[1])
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        context_of(spec, "abc")
    r[0, 0] = 2.0  # an earlier row off the unit norm is named first, as ray by ray
    with pytest.raises(ValueError, match="^ray 'a' must have unit norm$"):
        context_of(spec, "abc")


def test_context_of_needs_one_name_per_ray():
    with pytest.raises(ValueError, match="^need 3 ray names, got 2$"):
        context_of(identity_spec(3), ("a", "b"))
