"""Smoke test of the benchmark itself: it runs, reports, and its checks can fail.

    python3 -m pytest bench/test_bench.py

Takes about a minute: every workload runs briefly in both modes.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@functools.cache
def short_run(workload: str, trace: int):
    """One 1 s run per workload and mode, shared by the tests below."""
    return run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = short_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    table = "\n".join(lines[:-1])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f" {m['name']} " in table and f" {m['unit']} " in table
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_every_per_layer_metric_is_measured_by_some_workload():
    measured = set()
    for workload in WORKLOAD_NAMES:
        proc = short_run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        measured |= {name for name, m in metrics.items() if m["value"] != 0}
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_without_the_package_it_fails_without_a_result():
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        proc = run_bench("--workload", "mesh", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.Mesh(seed, BENCH) for seed in (1, 1, 2))
    assert all((x.u == y.u).all() for x, y in zip(a.cycle, b.cycle))
    assert not all((x.u == z.u).all() for x, z in zip(a.cycle, c.cycle))


def test_perturbed_netlist_element_is_a_failure(monkeypatch):
    mesh = workloads.Mesh(1, BENCH)
    item = mesh.cycle[0]
    assert mesh.run(item).ok
    compile_netlist = workloads.IFM.netlist_from_factorization

    def perturbed(f):
        nl = compile_netlist(f)
        elements = list(nl.elements)
        elements[3] = dataclasses.replace(elements[3], alpha=elements[3].alpha + 1e-6)
        return dataclasses.replace(nl, elements=tuple(elements))

    monkeypatch.setattr(workloads.IFM, "netlist_from_factorization", perturbed)
    outcome = mesh.run(item)
    assert not outcome.ok
    assert outcome.info["err"] > workloads.TOL and outcome.info["family"] == item.family


def test_known_defect_records_name_family_size_and_error():
    mesh = workloads.Mesh(1, BENCH)
    values, records = mesh.prepare_trace()
    assert [r["n"] for r in records] == list(workloads.MESH_SIZES)
    for item, rec in zip(mesh.defect_inputs, records):
        assert rec["family"] == workloads.DEFECT_FAMILY
        assert mesh.run(item).ok == (rec["err"] <= workloads.TOL)
    worst = max(r["artifact_err"] for r in records)
    assert values[f"interferometer.artifact_err_max.{workloads.DEFECT_FAMILY}"] == worst


def test_wrong_violation_count_is_a_failure():
    ctx = workloads.Contexts(1, BENCH)
    for item in (ctx.cycle[0], ctx.cycle[3], ctx.cycle[7], ctx.cycle[11]):
        assert ctx.run(item).ok
        wrong = dataclasses.replace(item, expected_violations=item.expected_violations + 1)
        outcome = ctx.run(wrong)
        assert not outcome.ok and outcome.info["problems"]


@pytest.mark.parametrize("in_process", [False, True])
def test_cli_nonzero_exit_and_wrong_output_are_failures(in_process):
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work))
    try:
        cli = workloads.Cli(1, workdir)
        cli.in_process = in_process
        simulate = cli.cycle[1]
        assert cli.run(simulate).ok
        missing = dataclasses.replace(simulate, argv=("simulate", "--net", str(workdir / "nope.json")))
        outcome = cli.run(missing)
        assert not outcome.ok and outcome.info["exit_code"] == 3
        other_port = dataclasses.replace(simulate, argv=simulate.argv[:-1] + ("2",))
        outcome = cli.run(other_port)
        assert not outcome.ok and outcome.info["exit_code"] == 0
    finally:
        shutil.rmtree(workdir)
