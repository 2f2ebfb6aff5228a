"""The benchmark's three workloads: seeded inputs, one op each, and its check.

A workload builds every input from the seed in ``__init__`` and lists the
ops of one round-robin cycle in ``cycle``.  ``run(item)`` performs one op,
checks the program's output and returns an ``Outcome``; it never raises, so
a failed check or an exception is counted, not propagated.

The package is called through module attributes (``DEC.decompose(u)``), the
same attributes the tracer patches, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# ``multiport.decompose`` is shadowed by the function of the same name in
# the package namespace, so modules are looked up by their full name.
NUM = importlib.import_module("multiport.numerics")
DEC = importlib.import_module("multiport.decompose")
IFM = importlib.import_module("multiport.interferometer")
OBS = importlib.import_module("multiport.observables")
CTX = importlib.import_module("multiport.contexts")
CLI = importlib.import_module("multiport.cli")

TOL = 1e-10  # the package's accuracy contract for every artifact it returns


@dataclass
class Outcome:
    ok: bool
    info: dict  # what the op measured; printed as the failure record when not ok


def guarded(workload: str, run, item, describe) -> Outcome:
    """Run one op; an exception becomes a failed outcome, never a crash."""
    try:
        return run(item)
    except Exception as exc:  # the loop must keep running and count it
        info = {"workload": workload, **describe(item), "error": f"{type(exc).__name__}: {exc}"}
        return Outcome(False, info)


def max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def durations_by_op(spans: dict, name: str) -> list[tuple[int, float]]:
    """``(op id, duration)`` of every span called ``name``; empty if none."""
    return list(spans[name].by_op()) if name in spans else []


# --- seeded inputs ----------------------------------------------------------


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix with R's phases moved into Q."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def near_permutation(rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
    """P exp(i eps H): a port permutation times a small rotation.

    H is a GUE matrix with unit-variance entries, so the mixing angles the
    elimination meets are of order ``eps``.
    """
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    rotation = (v * np.exp(1j * eps * w)) @ v.conj().T
    return np.eye(n)[rng.permutation(n)] @ rotation


def block_diagonal(rng: np.random.Generator, n: int, block: int = 4) -> np.ndarray:
    """Direct sum of ``block`` x ``block`` Haar unitaries; most cells are skipped."""
    u = np.zeros((n, n), dtype=np.complex128)
    for k in range(0, n, block):
        u[k : k + block, k : k + block] = haar_unitary(rng, block)
    return u


def chain_bases(rng: np.random.Generator, length: int) -> list[np.ndarray]:
    """Real orthonormal bases (as rows) where consecutive bases share one ray.

    Basis k is (ray shared with k-1, private ray, ray shared with k+1); the
    next basis keeps the last ray and turns the other two by an angle in
    [0.2, 1.35] rad, so no ray of one basis comes near a ray of another.
    """
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    bases = [q.T.copy()]
    for _ in range(length - 1):
        p, r, s = bases[-1]
        t = rng.uniform(0.2, 1.35)
        c, si = math.cos(t), math.sin(t)
        bases.append(np.array([s, c * p + si * r, -si * p + c * r]))
    return bases


def chain_names(length: int) -> list[tuple[str, str, str]]:
    """Ray labels matching ``chain_bases``: a shared ray keeps its label."""
    names = [("r0", "r1", "r2")]
    for k in range(1, length):
        names.append((names[-1][2], f"r{2 * k + 1}", f"r{2 * k + 2}"))
    return names


def qutrit3_singlet() -> np.ndarray:
    """Totally antisymmetric three-qutrit state, built from the Levi-Civita symbol."""
    v = np.zeros(27, dtype=np.complex128)
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(3), 2))
        v[9 * perm[0] + 3 * perm[1] + perm[2]] = (-1) ** inversions / math.sqrt(6)
    return v


def singlet_port_probability(labels) -> float:
    """Port law for the singlet under one rotation on all three particles:
    1/6 on each port whose three outcomes are distinct, 0 elsewhere."""
    return 1 / 6 if len(set(labels)) == 3 else 0.0


# --- mesh -------------------------------------------------------------------

MESH_SIZES = (16, 32, 64)
# Per size, three Haar slots, one near-permutation and one block-diagonal
# slot: 15 ops a cycle.  Sorted by latency the ops form clusters: positions
# 0-6 the block-diagonal ops and dense n=16 (below 40 ms), 7-10 dense n=32,
# 11-14 dense n=64.  The harness's p50 over the 15 per-op figures sits at
# position 7.0, the fastest dense n=32 op, and p90 at 12.6, inside the dense
# n=64 cluster.
MESH_FAMILIES = ("haar", "haar", "haar", "nearperm", "blockdiag")
NEAR_PERM_EPS = 1e-3  # the netlist contract holds here (errors near 1e-13)
# At eps = 1e-9 the netlist breaks the 1e-10 contract (a known defect: the
# mixing angle is stored as T = cos^2 and lost near T = 1).  Those inputs are
# measured in the traced run only, so the defect stays visible without
# failing timed ops.  Values between 1e-8 and 1e-7 straddle the limit.
DEFECT_EPS = 1e-9


@dataclass(frozen=True)
class MeshInput:
    family: str
    n: int
    u: np.ndarray = field(repr=False)


DEFECT_FAMILY = "nearperm_1e-9"
MESH_MAKERS = {
    "haar": haar_unitary,
    "nearperm": lambda rng, n: near_permutation(rng, n, NEAR_PERM_EPS),
    "blockdiag": block_diagonal,
    DEFECT_FAMILY: lambda rng, n: near_permutation(rng, n, DEFECT_EPS),
}


def _mesh_input(rng, family: str, n: int) -> MeshInput:
    return MeshInput(family, n, MESH_MAKERS[family](rng, n))


class Mesh:
    """decompose -> reconstruct -> netlist -> transfer_matrix -> simulate(port 0)."""

    name = "mesh"
    trace_points = (
        ("multiport.decompose", "decompose", "decompose.decompose"),
        ("multiport.decompose", "reconstruct", "decompose.reconstruct"),
        ("multiport.decompose", "unitarity_deviation", "numerics.unitarity_deviation"),
        ("multiport.devices", "unitarity_deviation", "numerics.unitarity_deviation"),
        ("multiport.decompose", "embed_two_port", "decompose.embed_two_port"),
        ("multiport.interferometer", "embed_two_port", "decompose.embed_two_port"),
        (
            "multiport.interferometer",
            "netlist_from_factorization",
            "interferometer.netlist_from_factorization",
        ),
        ("multiport.interferometer", "transfer_matrix", "interferometer.transfer_matrix"),
        ("multiport.interferometer", "simulate", "interferometer.simulate"),
        ("multiport.interferometer", "element_matrix", "interferometer.element_matrix"),
        ("multiport.interferometer", "fit_bs", "devices.fit_bs"),
    )
    sized_spans = (
        "decompose.decompose",
        "decompose.reconstruct",
        "interferometer.netlist_from_factorization",
        "interferometer.transfer_matrix",
        "interferometer.simulate",
    )

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cycle = [_mesh_input(rng, fam, n) for fam in MESH_FAMILIES for n in MESH_SIZES]
        self.defect_inputs = [_mesh_input(rng, DEFECT_FAMILY, n) for n in MESH_SIZES]

    def warm_up(self) -> None:
        """Every family at n = 16 and one Haar op at n = 32."""
        for item in [it for it in self.cycle if it.n == MESH_SIZES[0]] + [self.cycle[1]]:
            self.run(item)

    def run(self, item: MeshInput) -> Outcome:
        return guarded(self.name, self._run, item, lambda it: {"family": it.family, "n": it.n})

    def _run(self, item: MeshInput) -> Outcome:
        u = item.u
        f = DEC.decompose(u)
        rebuilt = DEC.reconstruct(f)
        netlist = IFM.netlist_from_factorization(f)
        transfer = IFM.transfer_matrix(netlist)
        port0 = np.zeros(item.n, dtype=np.complex128)
        port0[0] = 1.0
        out = IFM.simulate(netlist, port0)
        artifact_err = max(max_abs(transfer - u), max_abs(out - u[:, 0]))
        err = max(max_abs(rebuilt - u), artifact_err)
        info = {
            "workload": self.name,
            "family": item.family,
            "n": item.n,
            "err": err,
            "artifact_err": artifact_err,
            "cells": len(f.factors),
        }
        return Outcome(err <= TOL, info)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def prepare_trace(self) -> tuple[dict, list[dict]]:
        """Netlist error on the eps = 1e-9 near-permutations, and their records."""
        records = [self.run(item).info for item in self.defect_inputs]
        worst = max((r["artifact_err"] for r in records if "artifact_err" in r), default=0.0)
        return {f"interferometer.artifact_err_max.{DEFECT_FAMILY}": worst}, records

    def layer_metrics(self, infos: list[dict], cycles: int, spans: dict) -> dict:
        out = {}
        for name in self.sized_spans:
            durations = durations_by_op(spans, name)
            for n in MESH_SIZES:
                out[f"{name}.ms_p50.n{n}"] = median_ms(
                    [d for op, d in durations if infos[op]["family"] == "haar" and infos[op]["n"] == n]
                )
            lo, hi = out[f"{name}.ms_p50.n32"], out[f"{name}.ms_p50.n64"]
            out[f"{name}.scaling_exp"] = math.log2(hi / lo) if lo > 0 and hi > 0 else 0.0
        done = [i for i in infos if "cells" in i]  # ops that raised carry no counts
        cells = sum(i["cells"] for i in done)
        out["decompose.cells"] = cells / cycles
        out["decompose.skipped_cells"] = (sum(i["n"] * (i["n"] - 1) // 2 for i in done) - cells) / cycles
        for fam in sorted({i["family"] for i in done}):
            out[f"interferometer.artifact_err_max.{fam}"] = max(
                i["artifact_err"] for i in done if i["family"] == fam
            )
        return out


# --- contexts ---------------------------------------------------------------

LABELS3 = (1.0, 0.0, -1.0)
SINGLET3 = qutrit3_singlet()
# Twelve graphs a cycle with chain lengths spread over 10..20; every fourth
# graph is broken in one of three ways, each yielding exactly one violation.
CHAIN_LENGTHS = tuple(10 + (10 * i) // 11 for i in range(12))
CORRUPTIONS = {3: "label_clash", 7: "shared_rays", 11: "non_orthogonal"}


@dataclass(frozen=True)
class ContextsInput:
    bases: tuple = field(repr=False)
    names: tuple
    corruption: str | None
    expected_violations: int

    @property
    def length(self) -> int:
        return len(self.bases)


def _spec(basis) -> "OBS.ObservableSpec":
    return OBS.ObservableSpec(dim=3, rotation=basis, labels=LABELS3)


def _corrupt(ctxs: list, kind: str) -> None:
    """Break the chain around its middle context ``m`` (rays: prev, private, next)."""
    m = len(ctxs) // 2
    prev, private, nxt = ctxs[m].rays
    if kind == "label_clash":  # one label names two different rays
        clash = CTX.Ray(ctxs[m + 2].rays[1].label, private.vector)
        ctxs[m] = CTX.Context(name=ctxs[m].name, rays=(prev, clash, nxt))
    elif kind == "shared_rays":
        # The next context repeats this one's rays up to a phase.  In
        # dimension 3 two shared rays force the third, so they share three.
        phase = np.exp(0.7j)
        rays = tuple(CTX.Ray(r.label, r.vector * phase) for r in (private, nxt, prev))
        ctxs[m + 1] = CTX.Context(name=ctxs[m + 1].name, rays=rays)
    else:  # non_orthogonal: tilt the private ray towards the previous one
        v = private.vector + 1e-3 * prev.vector
        tilted = CTX.Ray(private.label, v / np.linalg.norm(v))
        ctxs[m] = CTX.Context(name=ctxs[m].name, rays=(prev, tilted, nxt))


class Contexts:
    """Chain of dimension-3 contexts: validate, link, draw; plus a singlet analyzer."""

    name = "contexts"
    trace_points = (
        ("multiport.contexts", "context_of", "contexts.context_of"),
        ("multiport.contexts", "validate_context_graph", "contexts.validate_context_graph"),
        ("multiport.contexts", "links_between", "contexts.links_between"),
        ("multiport.contexts", "equal_up_to_global_phase", "numerics.equal_up_to_global_phase"),
        ("multiport.contexts", "greechie_dot", "contexts.greechie_dot"),
        ("multiport.observables", "analyzer_unitary", "observables.analyzer_unitary"),
        ("multiport.observables", "predict_ports", "observables.predict_ports"),
        ("multiport.observables", "verify_eigenbasis", "observables.verify_eigenbasis"),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cycle = []
        for i, length in enumerate(CHAIN_LENGTHS):
            corruption = CORRUPTIONS.get(i)
            self.cycle.append(
                ContextsInput(
                    bases=tuple(chain_bases(rng, length)),
                    names=tuple(chain_names(length)),
                    corruption=corruption,
                    expected_violations=0 if corruption is None else 1,
                )
            )

    def warm_up(self) -> None:
        for item in self.cycle[:4]:
            self.run(item)

    def run(self, item: ContextsInput) -> Outcome:
        return guarded(
            self.name, self._run, item, lambda it: {"length": it.length, "corruption": it.corruption}
        )

    def _run(self, item: ContextsInput) -> Outcome:
        ctxs = [
            CTX.context_of(_spec(basis), names, name=f"C{k}")
            for k, (basis, names) in enumerate(zip(item.bases, item.names))
        ]
        if item.corruption is not None:
            _corrupt(ctxs, item.corruption)
        graph = CTX.ContextGraph(contexts=tuple(ctxs))
        report = CTX.validate_context_graph(graph)
        links = {
            (a, b): CTX.links_between(ctxs[a], ctxs[b])
            for a, b in itertools.combinations(range(len(ctxs)), 2)
        }
        try:
            CTX.greechie_dot(graph)
            dot_raised = False
        except ValueError:
            dot_raised = True

        parts = (_spec(item.bases[0]),) * 3
        analyzer = OBS.analyzer_unitary(parts)
        dist = OBS.predict_ports(analyzer, SINGLET3)
        OBS.verify_eigenbasis(OBS.tensor_observable(parts), analyzer)

        valid = item.corruption is None
        problems = []
        if report.ok != valid or len(report.violations) != item.expected_violations:
            problems.append(f"validator: ok={report.ok}, {len(report.violations)} violations")
        if dot_raised == valid:
            problems.append("greechie_dot raised" if valid else "greechie_dot drew an invalid graph")
        if valid:
            for (a, b), pairs in links.items():
                want = 1 if b == a + 1 else 0
                if len(pairs) != want or any(r1.label != r2.label for r1, r2 in pairs):
                    problems.append(f"contexts {a} and {b}: {len(pairs)} links, expected {want}")
                    break
        port_err = max(
            abs(p - singlet_port_probability(labels))
            for p, labels in zip(dist.probabilities, analyzer.outcome_labels)
        )
        if port_err > TOL:
            problems.append(f"singlet port law off by {port_err:.3e}")
        rays = 3 * item.length
        info = {
            "workload": self.name,
            "length": item.length,
            "corruption": item.corruption,
            "violations": len(report.violations),
            "ray_pairs": rays * (rays - 1) // 2,
            "problems": problems,
        }
        return Outcome(not problems, info)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def prepare_trace(self) -> tuple[dict, list[dict]]:
        return {}, []

    def layer_metrics(self, infos: list[dict], cycles: int, spans: dict) -> dict:
        return {
            "contexts.ray_pairs": sum(i.get("ray_pairs", 0) for i in infos) / cycles,
            "contexts.violations": sum(i.get("violations", 0) for i in infos) / cycles,
        }


# --- cli --------------------------------------------------------------------

CLI_DIM = 27
CHAIN_FILE_LENGTH = 10
SPAWN_SAMPLES = 15  # per kind, for cli.spawn_ms_p50 and cli.import_ms_p50
SPAWN_TIMEOUT_S = 60


@dataclass(frozen=True)
class CliInput:
    verb: str
    argv: tuple[str, ...]
    check: object = field(repr=False, compare=False)  # record -> list of problems


def _close(values, expected) -> bool:
    return len(values) == len(expected) and max_abs(np.asarray(values) - expected) <= TOL


class Cli:
    """One `python -m multiport <verb>` subprocess per op; six ops cover the five verbs.

    ``in_process`` (set by the traced run) calls ``multiport.cli.main(argv)``
    in this process instead, so spans can be recorded inside the verbs.
    """

    name = "cli"
    trace_points = (
        ("multiport.cli", "main", "cli.main"),
        ("multiport.cli", "load_matrix", "numerics.load_matrix"),
        ("multiport.states", "load_matrix", "numerics.load_matrix"),
        ("multiport.cli", "equal_up_to_global_phase", "numerics.equal_up_to_global_phase"),
        ("multiport.cli", "save_netlist", "interferometer.save_netlist"),
        ("multiport.cli", "load_netlist", "interferometer.load_netlist"),
        ("multiport.cli", "preparation_unitary", "states.preparation_unitary"),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.in_process = False
        os.environ["REPORT_JSON"] = "1"
        self.env = dict(os.environ, PYTHONPATH=str(Path(CLI.__file__).parents[1]))
        self.workdir = workdir
        path = {k: str(workdir / f"{k}.json") for k in ("u", "net", "factors", "sim", "prep", "chain")}
        path["dot"] = str(workdir / "chain.dot")

        NUM.save_matrix(path["u"], haar_unitary(rng, CLI_DIM))
        u_sim = haar_unitary(rng, CLI_DIM)
        IFM.save_netlist(path["sim"], IFM.netlist_from_factorization(DEC.decompose(u_sim)))
        names = chain_names(CHAIN_FILE_LENGTH)
        chain = CTX.ContextGraph(
            contexts=tuple(
                CTX.context_of(_spec(b), nm, name=f"C{k}")
                for k, (b, nm) in enumerate(zip(chain_bases(rng, CHAIN_FILE_LENGTH), names))
            )
        )
        CTX.save_context_graph(path["chain"], chain)
        plane = ((1, 2), (1, 3), (2, 3))[int(rng.integers(3))]
        theta = float(rng.uniform(0.1, 1.4))
        obs = "|".join([f"plane={plane[0]},{plane[1]};theta={theta!r}"] * 3)
        # reversed_lex port order: port r holds multi-index r counted from (2, 2, 2) down.
        port_law = [
            singlet_port_probability(idx)
            for idx in reversed(list(itertools.product(range(3), repeat=3)))
        ]
        chain_links = [
            {"a": f"C{k}", "b": f"C{k + 1}", "label": names[k][2]} for k in range(CHAIN_FILE_LENGTH - 1)
        ]
        three_chain_links = [{"a": "E", "b": "F", "label": "x3"}, {"a": "E", "b": "G", "label": "x1"}]

        def check_decompose(r):
            return _problems(
                r.get("verb") == "decompose" and r.get("dim") == CLI_DIM,
                r.get("max_reconstruction_error", 1.0) <= TOL,
                0 < r.get("factors", 0) <= CLI_DIM * (CLI_DIM - 1) // 2,
                r.get("netlist") == path["net"] and r.get("factorization") == path["factors"],
                os.path.getsize(path["net"]) > 0 and os.path.getsize(path["factors"]) > 0,
            )

        def check_simulate(r):
            amps = [complex(re, im) for re, im in r.get("amplitudes", [])]
            return _problems(
                r.get("verb") == "simulate",
                _close(amps, u_sim[:, 0]),
                abs(sum(r.get("probabilities", [])) - 1.0) <= TOL,
            )

        def check_prepare(r):
            return _problems(
                r.get("verb") == "prepare" and r.get("dim") == CLI_DIM,
                r.get("matches_up_to_phase") is True,
                r.get("netlist") == path["prep"] and os.path.getsize(path["prep"]) > 0,
            )

        def check_predict(r):
            probs = r.get("probabilities", [])
            return _problems(
                r.get("verb") == "predict",
                _close(probs, port_law),
                abs(sum(probs) - 1.0) <= TOL,
            )

        def check_contexts(links, dot_file=None):
            def check(r):
                return _problems(
                    r.get("verb") == "contexts" and r.get("ok") is True and not r.get("violations"),
                    r.get("links") == links,
                    r.get("dot_file") == dot_file,
                )

            return check

        decompose_argv = ("--in", path["u"], "--out", path["net"], "--factors", path["factors"])
        chain_argv = ("--graph", "@" + path["chain"], "--dot", path["dot"])
        self.cycle = [
            CliInput("decompose", ("decompose", *decompose_argv), check_decompose),
            CliInput("simulate", ("simulate", "--net", path["sim"], "--port", "1"), check_simulate),
            CliInput("prepare", ("prepare", "--state", "qutrit3-singlet", "--out", path["prep"]),
                     check_prepare),
            CliInput("predict", ("predict", "--state", "qutrit3-singlet", "--obs", obs), check_predict),
            CliInput("contexts", ("contexts", "--graph", "three-chain"), check_contexts(three_chain_links)),
            CliInput("contexts", ("contexts", *chain_argv), check_contexts(chain_links, path["dot"])),
        ]
        self.net_path = path["net"]

    def warm_up(self) -> None:
        self.run(self.cycle[4])

    def run(self, item: CliInput) -> Outcome:
        return guarded(self.name, self._run, item, lambda it: {"verb": it.verb})

    def _run(self, item: CliInput) -> Outcome:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = CLI.main(list(item.argv))
            stdout = out.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "multiport", *item.argv],
                env=self.env,
                cwd=self.workdir,
                capture_output=True,
                text=True,
                timeout=SPAWN_TIMEOUT_S,
            )
            code, stdout = proc.returncode, proc.stdout
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            lines = stdout.strip().splitlines()
            problems = item.check(json.loads(lines[-1])) if lines else ["no output"]
        info = {"workload": self.name, "verb": item.verb, "exit_code": code, "problems": problems}
        if item.verb == "decompose" and not problems:
            info["netlist_bytes"] = os.path.getsize(self.net_path)
        return Outcome(not problems, info)

    def peak_rss_kb(self) -> int:
        """Largest child process so far (Linux reports the maximum, not a sum)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def _spawn_s(self, code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=SPAWN_TIMEOUT_S)
        return time.perf_counter() - t0

    def prepare_trace(self) -> tuple[dict, list[dict]]:
        """Time cold starts, then switch ops to in-process calls for tracing.

        Reports the median spawn of a bare interpreter and the median
        import of multiport.cli on top of it.
        """
        bare, imported = [], []
        for _ in range(SPAWN_SAMPLES):
            bare.append(self._spawn_s("pass"))
            imported.append(self._spawn_s("import multiport.cli"))
        spawn = median_ms(bare)
        self.in_process = True
        return {"cli.spawn_ms_p50": spawn, "cli.import_ms_p50": median_ms(imported) - spawn}, []

    def layer_metrics(self, infos: list[dict], cycles: int, spans: dict) -> dict:
        durations = durations_by_op(spans, "cli.main")
        out = {
            f"cli.{verb}.ms_p50": median_ms([d for op, d in durations if infos[op]["verb"] == verb])
            for verb in sorted({i["verb"] for i in infos})
        }
        sizes = [i["netlist_bytes"] for i in infos if "netlist_bytes" in i]
        out["interferometer.netlist_bytes"] = max(sizes) if sizes else 0
        return out


def _problems(*conditions) -> list[str]:
    return [f"check {k} failed" for k, ok in enumerate(conditions, 1) if not ok]


WORKLOADS = {w.name: w for w in (Mesh, Contexts, Cli)}
