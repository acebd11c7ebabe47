"""Tests of the pipeline benchmark itself, in smoke mode (tiny inputs, one
set-up and one iteration per run).

Run from the repository root:

    python3 -m pytest -q pipebench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "pipebench")]

from condgraphgen import Graph, graph_stats  # noqa: E402
from corpus import even_sizes, lognormal_sizes, nci1_like_corpus  # noqa: E402
from oracle import oracle_stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV_KEYS = {"python", "numpy", "scipy", "numba", "nproc", "git_commit", "CCGG_BACKEND",
            "CCGG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "pipebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload: str, trace: int):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return info, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    info, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    assert set(info["environment"]) == ENV_KEYS
    if trace:
        assert info["traced_equals_untraced"] is True
        assert [run["iterations"] for run in info["runs"]] == [1, 1]
    else:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_traced_step(workload):
    _, result = smoke(workload, 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for stage in ("train", "sample"):
        layers = sum(
            v for k, v in values.items()
            if k.startswith(stage + ".") and k.endswith("_s") and ".trace." not in k
        )
        step = values[f"{stage}.trace.step_s"]
        unattributed = values[f"{stage}.trace.unattributed_s"]
        assert 0 < unattributed < 0.5 * step
        assert layers + unattributed == pytest.approx(step, rel=1e-9)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pipebench", tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_oracle_matches_hand_counts():
    # a triangle 0-1-2 with a tail 2-3 plus an isolated node 4
    g = Graph(5, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}), (0,) * 5, 0)
    s = oracle_stats(g)
    assert (s.lcc, s.tc, s.mean_d) == (4.0, 1.0, 8 / 5)
    assert s.cpl == pytest.approx((1 + 1 + 2 + 1 + 2 + 1) / 6)
    assert s.gini == graph_stats(g).gini


def test_nci1_like_corpus_is_seeded_and_molecule_shaped():
    make = lambda: nci1_like_corpus(  # noqa: E731
        lognormal_sizes(200, 8, 111, np.random.default_rng(5)), np.random.default_rng(6), "t")
    a, b = make(), make()
    assert [(g.num_nodes, g.edges, g.node_labels) for g in a] == \
        [(g.num_nodes, g.edges, g.node_labels) for g in b]
    sizes = np.array([g.num_nodes for g in a])
    assert sizes.min() >= 8 and sizes.max() <= 111 and 24 <= np.median(sizes) <= 34
    degree = 2 * sum(g.num_edges for g in a) / sizes.sum()
    assert 2.0 < degree < 2.4
    dense = [g for g in a if g.class_label == 1]
    sparse = [g for g in a if g.class_label == 0]
    assert np.mean([g.num_edges / g.num_nodes for g in dense]) > \
        np.mean([g.num_edges / g.num_nodes for g in sparse])
    assert even_sizes(5, 24, 48) == [24, 30, 36, 42, 48]
