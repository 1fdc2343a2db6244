"""Tests of the benchmark itself, at toy radii: metrics printed, the exactness gate bites, spans nest."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workload
from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture
def toy(tmp_path):
    """Build a workload's toy task list; returns a function name -> (tasks, nilgrowth module)."""
    ng, ng_cli = workload.import_nilgrowth()

    def build(name, tracer=None):
        inp = workload.Inputs(ng, seed=5, scale="toy")
        return workload.WORKLOADS[name](ng, inp, workload.Cli(ng_cli, tmp_path), tracer), ng

    return build


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_toy_run_prints_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    text = "\n".join(lines[:-1])
    for metric, unit in {**expected, "fail_frac": "ratio"}.items():
        assert f"{metric} " in text and text.count(f" {unit}") > 0
    info = json.loads(lines[0].removeprefix("# "))
    assert {"seed", "nproc", "cpu", "python", "numpy"} <= set(info) and info["seed"] == 7


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_toy_tasks_pass_on_recorded_digests(toy, name):
    tasks, ng = toy(name)
    assert workload.run_tasks(tasks, workload.load_digests()) == []


def test_corrupted_digest_fails_one_task(toy):
    tasks, ng = toy("ball_classes")
    digests = workload.load_digests()
    digests[tasks[0].id] = "0" * 64
    failures = workload.run_tasks(tasks, digests)
    assert failures == [f"{tasks[0].id}: digest mismatch"]


def test_route_mismatch_fails(toy, monkeypatch):
    tasks, ng = toy("gcd_orbits")
    real = ng.cli.gcd_sum

    def off_by_one(ball, budget=None, method="direct"):
        return real(ball, budget=budget, method=method) + (method == "sieve")

    monkeypatch.setattr(ng.cli, "gcd_sum", off_by_one)
    failures = workload.run_tasks(tasks, workload.load_digests())
    assert [f.split(": ")[-1] for f in failures] == ["routes disagree", "routes disagree"]


def test_raised_error_fails_the_task(toy, monkeypatch):
    tasks, ng = toy("gcd_orbits")

    def refuse(*args, **kwargs):
        raise ng.StructuralError("forced")

    monkeypatch.setattr(ng, "conjugacy_growth_oracle", refuse)
    failures = workload.run_tasks(tasks, workload.load_digests())
    assert len(failures) == 4 and all("StructuralError: forced" in f for f in failures)


def test_scaling_cancels_the_host_speed():
    ref, alpha = workload.REF_S, workload.ALPHA
    assert workload.scaled([1.0, 4.0], [[ref] * 2] * 3) == 5.0
    slower = workload.scaled([2**alpha, 4 * 2**alpha], [[2 * ref] * 2] * 3)
    assert slower == pytest.approx(5.0)
    # Each task is scaled by the reference times on both sides of it.
    assert workload.scaled([1.0], [[ref], [3 * ref]]) == pytest.approx(2**-alpha)


def test_traced_spans_nest(toy):
    tracer = Tracer()
    tracer.install()
    try:
        tasks, ng = toy("gcd_orbits", tracer)
        cli_tasks, _ = toy("ball_classes", tracer)
        for task in tasks + cli_tasks:
            with tracer.span("bench"):
                assert workload.run_tasks([task], workload.load_digests()) == []
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def children(name):
        return {c.name for c in spans if c.parent is not None and spans[c.parent].name == name}

    assert "words.enumerate_ball" in children("conjugacy.oracle")
    assert "conjugacy.exact" in children("cli.main")
    assert {"words.enumerate_ball", "conjugacy.class_lengths"} <= children("conjugacy.exact")
    assert children("bench") >= {"conjugacy.oracle", "autos.twisted", "groups.multiply", "cli.main"}
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_frac"}
    assert metrics["conjugacy.oracle.calls"] == 4 and metrics["groups.multiply.calls"] > 0
    assert abs(sum(metrics[f"{m}.self_frac"] for m in ("words", "conjugacy", "gcdsums", "autos", "groups",
                                                        "series", "cli", "bench")) - 1) < 1e-9
    assert ng.conjugacy_growth_oracle.__module__ == "nilgrowth.conjugacy"
    assert ng.conjugacy.enumerate_ball is ng.words.enumerate_ball


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "gcd_orbits", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
