import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_union_memory_benchmark_runs_one_small_step():
    env = _env()
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_union_memory.py"),
         "--nodes", "8", "48"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["nodes"] for r in records] == [8, 48]
    for record in records:
        n = record["nodes"]
        assert set(record) == {
            "nodes", "union_nodes", "union_edges", "chunks", "max_chunk_edges", "tape_nodes",
            "step_s", "rss_before_mb", "peak_rss_mb", "minor_faults",
        }
        assert record["tape_nodes"] > 0
        assert record["union_nodes"] == n * (n + 1) // 2
        assert record["union_edges"] > 0
        assert record["step_s"] > 0 and record["peak_rss_mb"] >= record["rss_before_mb"] > 0
        assert isinstance(record["minor_faults"], int) and record["minor_faults"] >= 0
    # 8 nodes fit the union edge budget in one pass, 48 do not
    assert records[0]["chunks"] == 1 and records[1]["chunks"] > 1
    assert records[0]["max_chunk_edges"] == records[0]["union_edges"]
    assert 0 < records[1]["max_chunk_edges"] < records[1]["union_edges"]
    assert records[1]["tape_nodes"] > records[0]["tape_nodes"]


def test_sample_benchmark_times_small_samples(tmp_path):
    path = tmp_path / "sample.json"
    env = _env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_sample.py"), "--nodes", "3", "20",
         "--seconds", "0.05", "--out", str(path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["nodes"] for r in records] == [3, 20]
    for r in records:
        assert set(r) == {
            "nodes", "samples", "sample_ms", "edges", "rss_before_mb", "peak_rss_mb",
        }
        assert r["samples"] >= 1 and r["sample_ms"] > 0
        assert 0 <= r["edges"] <= r["nodes"] * (r["nodes"] - 1) // 2
        assert r["peak_rss_mb"] >= r["rss_before_mb"] > 0
    # the pinned edge head gives about 2.2 x 20 / 2 = 22 expected edges
    assert records[1]["edges"] > 0
    saved = json.loads(path.read_text())
    assert saved["results"] == records
    assert saved["threads"]["OPENBLAS_NUM_THREADS"] == "2"


def test_stats_benchmark_times_both_corpora(tmp_path):
    path = tmp_path / "stats.json"
    env = _env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_stats.py"),
         "--graphs", "4", "--repeats", "1", "--out", str(path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["corpus"] for r in records] == ["nci1", "dense"]
    for r in records:
        assert set(r) == {
            "corpus", "graphs", "nodes", "edges", "seconds", "graphs_per_s",
            "rss_before_mb", "peak_rss_mb",
        }
        assert r["graphs"] == 4 and r["seconds"] > 0 and r["graphs_per_s"] > 0
        assert r["peak_rss_mb"] >= r["rss_before_mb"] > 0
    assert records[1]["nodes"] == 4 * 111
    saved = json.loads(path.read_text())
    assert saved["results"] == records
    assert saved["threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert saved["cpu_count"] == os.cpu_count()
    assert saved["commit"] is None or len(saved["commit"].split("-")[0]) == 40


def test_epoch_benchmark_trains_one_small_epoch(tmp_path):
    path = tmp_path / "epoch.json"
    env = _env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_epoch.py"), "--graphs", "4",
         "--out", str(path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    (record,) = [json.loads(line) for line in out.stdout.splitlines()]
    assert set(record) == {
        "graphs", "epoch_s", "graphs_per_s", "rss_before_mb", "peak_rss_mb", "minor_faults",
    }
    assert record["graphs"] == 4 and record["epoch_s"] > 0 and record["graphs_per_s"] > 0
    assert record["peak_rss_mb"] >= record["rss_before_mb"] > 0
    assert isinstance(record["minor_faults"], int) and record["minor_faults"] >= 0
    saved = json.loads(path.read_text())
    assert saved["results"] == record
    assert saved["threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert saved["cpu_count"] == os.cpu_count()
    # a git checkout records its commit, a copy without .git records None
    assert saved["commit"] is None or len(saved["commit"].split("-")[0]) == 40


def test_record_names_no_enclosing_repository_commit(tmp_path):
    # a copy of the tree without .git, as ``git archive`` makes, inside
    # another repository that has a commit
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    outer = tmp_path / "outer"
    (outer / "checkout" / "benchmarks").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=outer, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "outer"], cwd=outer, check=True)
    copy = outer / "checkout" / "benchmarks" / "record.py"
    shutil.copy(ROOT / "benchmarks" / "record.py", copy)
    spec = importlib.util.spec_from_file_location("record_copy", copy)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    assert record.commit() is None
