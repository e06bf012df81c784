"""Smoke test of the benchmark itself, at tiny input sizes.

  python3 -m pytest perfbench/tests -q

Each workload runs once timed and once traced through run.py.  The tests check
that every metric named in BENCHMARK.json is printed with its unit, that all
checks pass, and that the traced self times of each command, cli.other
included, add up to the command's traced wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402


def run_bench(workload: str, trace: int, workdir: Path, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--workdir", str(workdir)],
        capture_output=True, text=True, cwd=root, timeout=600)


def result_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return detail, result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload, tmp_path):
    detail, result = result_lines(run_bench(workload, 0, tmp_path))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    named = set(detail["named"])
    if workload == "incline":
        assert {"incline_s", "incline_verify_s", "frontier_s", "incline_best"} <= named
    else:
        assert {"build_s", "verify_s", "intersect_s"} <= named
    assert {"setup_s", "certs_per_s", "peak_rss_mb", "failed_share"} <= named
    assert {"python", "numpy", "blas", "blas_version", "blas_threads", "nproc",
            "git_commit"} <= set(detail["env"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_each_command(workload, tmp_path):
    _, result = result_lines(run_bench(workload, 1, tmp_path))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    saved = json.loads(next((tmp_path / "results").glob(f"{workload}-*-trace1.json")).read_text())
    ops = saved["trace"]["ops"]
    assert ops
    for op in ops:
        assert "cli.other" in op["self_s"]
        assert sum(op["self_s"].values()) == pytest.approx(op["wall_s"], abs=1e-3)
    spans = json.loads(next(tmp_path.glob(f"{workload}-*/spans.json")).read_text())
    assert {"name", "layer", "start", "end", "parent", "run_id"} <= set(spans[0])


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("incline", 0, tmp_path / "work", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_inputs_above_the_memory_cap_before_allocating(tmp_path, monkeypatch):
    monkeypatch.setitem(inputs.SCALES, "big", replace(inputs.SCALES["tiny"], toy_alphabets=(3, 3, 3)))
    with pytest.raises(inputs.InputRefused, match="MiB"):
        inputs.ensure_inputs(tmp_path, "family_toy", "big", SEED)
    assert not list(tmp_path.glob("family_toy-big-*/stage.json"))


def test_refuses_a_frontier_bound_the_search_could_reach(tmp_path, monkeypatch):
    monkeypatch.setitem(inputs.SCALES, "easy", replace(inputs.SCALES["tiny"], frontier_bound=0.9))
    with pytest.raises(inputs.InputRefused, match="floor"):
        inputs.ensure_inputs(tmp_path, "incline", "easy", SEED)
