"""Pipeline benchmark for condgraphgen: train, sample and evaluate workloads.

Run from the repository root:

    python3 pipebench/run.py --workload toy --seed 1 --seconds 40 --trace 0
    python3 pipebench/run.py --seconds 40          # every workload, one process each
    python3 pipebench/run.py --workload nci1 --smoke --trace 1

The workloads are described in ``workloads.py``; ``BENCHMARK.json`` at the
repository root lists them with the metric names, units and bounds, and
every run checks its output against that file.

``--trace 0`` sets up ``SETUP_REPEATS`` times (``setup_s`` is the median),
then repeats the pipeline iteration until ``--seconds`` have passed, trains
and samples the extra scoring probes for ``sample_class_acc`` (untimed, see
``workloads.py``) and prints the end-to-end metrics.  ``--trace 1`` sets up
twice and then alternates untraced and traced iterations (``spans.py``) for ``--seconds``,
so both kinds run under the same machine load; it checks that every set-up
and every iteration produced bit-identical outputs and prints the per-layer
metrics.  A per-layer metric ``<stage>.<layer>`` covers the spans of one
stage of the traced iterations, divided by that stage's operation count:
train steps, samples or evaluated graphs (``setup.*`` covers the traced
set-up).  Times are self times: span time minus the wrapped calls inside
it.  ``<stage>.trace.step_s`` is the traced stage time per operation,
``<stage>.trace.unattributed_s`` the part of it that no span on the main
thread covers (loop and bookkeeping code between the wrapped calls), and
``<stage>.trace.overhead_share`` the traced iterations' slowdown against the
untraced ones (median train-step and sample times, time per evaluated
graph).  In the train and sample stages the
layer self times plus the unattributed part add up to ``trace.step_s``; in
the eval stage the statistics kernels also run on the ``corpus_stats``
pool's threads.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment, tail sample counts and output digests.  ``--smoke`` uses tiny
inputs and one set-up and iteration per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def tail(values: list[float]) -> tuple[float, dict]:
    """Highest nearest-rank percentile with at least ten samples beyond it;
    the maximum when there are too few samples (``beyond`` says so)."""
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    info = {"n": len(ordered), "beyond": len(ordered) - 1 - idx,
            "percentile": round(100.0 * (idx + 1) / len(ordered), 1)}
    return ordered[idx], info


def environment() -> dict:
    import numpy
    import scipy

    from condgraphgen import backend

    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": backend.HAS_NUMBA,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        **{var: os.environ.get(var) for var in ("CCGG_BACKEND", "CCGG_THREADS", *BLAS_VARS)},
    }


class Pass:
    """Set up ``setups`` times, then repeat the pipeline iteration until the
    deadline.  Set-ups and iterations take the tracers in turn, each
    installed only for its own set-up or iteration, so with an untraced and a
    traced tracer both kinds of iteration run under the same machine load."""

    def __init__(self, build, seed: int, seconds: float, smoke: bool, scratch: str,
                 tracers: list, setups: int):
        from pipeline import OracleCheck, run_iteration, setup_digest

        self.setup_s: list[float] = []
        digests = set()
        for i in range(setups):
            with tracers[i % len(tracers)] as tracer:
                tracer.stage = "setup"
                start = time.perf_counter()
                self.setup = build(seed, smoke, scratch)
                self.setup_s.append(time.perf_counter() - start)
            digests.add(setup_digest(self.setup))

        # runs[k]: the iterations made under tracers[k]
        self.runs: list[list] = [[] for _ in tracers]
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(tracers) or (not smoke and time.perf_counter() < deadline):
            with tracers[i % len(tracers)] as tracer:
                self.runs[i % len(tracers)].append(run_iteration(self.setup, seed, tracer))
            i += 1
        iterations = [it for run in self.runs for it in run]
        oracle = OracleCheck(iterations[0].eval_graphs, seed, smoke)
        for it in iterations:
            it.failed["eval"] += oracle.failures(it)
        self.attempted = sum(sum(it.attempted.values()) for it in iterations)
        self.failed = sum(sum(it.failed.values()) for it in iterations)
        self.setup_digest = digests.pop() if len(digests) == 1 else None  # set-ups differ
        output_digests = {it.digest for it in iterations}
        self.digest = output_digests.pop() if len(output_digests) == 1 else None
        self.details = {
            "setup_s": self.setup_s,
            "setup_digest": self.setup_digest,
            "output_digest": self.digest,
            "runs": [summary(run) for run in self.runs],
        }

    @property
    def ok(self) -> bool:
        """Every set-up and every iteration, traced or not, gave the same result."""
        return self.setup_digest is not None and self.digest is not None


def stage_s(iterations, stage: str) -> float:
    return sum(it.stage_s[stage] for it in iterations)


def ops(iterations, stage: str) -> int:
    return sum(it.attempted[stage] for it in iterations)


def summary(iterations) -> dict:
    return {
        "iterations": len(iterations),
        "stage_s": [{k: round(v, 4) for k, v in it.stage_s.items()} for it in iterations],
        "ops": {stage: ops(iterations, stage) for stage in STAGES},
    }


def end_to_end(p: Pass, probe_accuracy: list[float]) -> tuple[dict, dict]:
    (its,) = p.runs
    step_s = [t for it in its for t in it.step_s]
    sample_s = [t for it in its for t in it.sample_s]
    step_tail, step_info = tail(step_s)
    sample_tail, sample_info = tail(sample_s)
    values = {
        "setup_s": statistics.median(p.setup_s),
        "train_graphs_per_s": sum(it.trained_graphs for it in its) / stage_s(its, "train"),
        "train_step_ms.p50": 1e3 * statistics.median(step_s),
        "train_step_ms.tail": 1e3 * step_tail,
        "samples_per_s": ops(its, "sample") / stage_s(its, "sample"),
        "sample_ms.p50": 1e3 * statistics.median(sample_s),
        "sample_ms.tail": 1e3 * sample_tail,
        "eval_graphs_per_s": ops(its, "eval") / stage_s(its, "eval"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss": its[0].history[-1]["total"] if its[0].history else None,
        "sample_class_acc": statistics.median(probe_accuracy),
    }
    return values, {"train_step_ms.tail": step_info, "sample_ms.tail": sample_info}


STAGES = ("train", "sample", "eval")
# spans whose self time each stage reports, per operation of the stage
STAGE_LAYERS = {
    "train": ("autodiff.backward", "autodiff.optimizer", "backend.segment_sum",
              "classifiers.conv", "classifiers.node_head", "generator.rounds",
              "training.train_step", "graphs.decompose"),
    "sample": ("backend.segment_sum", "classifiers.node_head", "generator.rounds",
               "generator.step_forward", "sampling.generate"),
    "eval": ("backend.csr", "backend.components", "backend.sp_pair_sum",
             "backend.triangle_count", "classifiers.conv"),
}
SELF_NAMES = {"training.train_step": "training.self", "sampling.generate": "sampling.self"}
STAGE_CALLS = {"train": ("backend.segment_sum",), "sample": ("generator.step_forward",), "eval": ()}


def per_op(iterations, stage: str) -> float:
    """Median train-step or sample time; mean time per graph for eval."""
    if stage == "train":
        return statistics.median(t for it in iterations for t in it.step_s)
    if stage == "sample":
        return statistics.median(t for it in iterations for t in it.sample_s)
    return stage_s(iterations, stage) / ops(iterations, stage)


def per_layer(tracer, traced: list, plain: list) -> dict:
    values = {}
    for stage in STAGES:
        n = ops(traced, stage)
        own, calls = tracer.self_times(stage), tracer.calls(stage)
        for span in STAGE_LAYERS[stage]:
            values[f"{stage}.{SELF_NAMES.get(span, span)}_s"] = own[span] / n
        for span in STAGE_CALLS[stage]:
            values[f"{stage}.{span}_calls"] = calls[span] / n
        values[f"{stage}.autodiff.tape_nodes"] = tracer.tape_nodes[stage] / n
        wall = stage_s(traced, stage)
        values[f"{stage}.trace.step_s"] = wall / n
        values[f"{stage}.trace.unattributed_s"] = (wall - tracer.main_thread_time(stage)) / n
        values[f"{stage}.trace.overhead_share"] = per_op(traced, stage) / per_op(plain, stage) - 1.0
    values["eval.evaluation.corpus_stats_s"] = (
        tracer.total_times("eval")["evaluation.corpus_stats"] / ops(traced, "eval")
    )
    values["eval.evaluation.stats_busy_share"] = tracer.busy_share(
        "eval", "evaluation.corpus_stats", "evaluation.graph_stats"
    )
    setup_own = tracer.self_times("setup")
    values["setup.checkpoint.save_s"] = setup_own["checkpoint.save"]
    values["setup.checkpoint.load_s"] = setup_own["checkpoint.load"]
    return values


def run_workload(args, scratch: str) -> tuple[dict, dict, Pass]:
    from pipeline import score_probes
    from spans import OP_TARGETS, Tracer
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    ops_only = Tracer(OP_TARGETS)
    if not args.trace:
        p = Pass(build, args.seed, args.seconds, args.smoke, scratch, [ops_only],
                 setups=1 if args.smoke else SETUP_REPEATS)
        scores = score_probes(p.setup, p.runs[0][0].samples, args.seed, args.smoke, scratch)
        p.attempted += scores.attempted
        p.failed += scores.failed
        values, tails = end_to_end(p, scores.accuracy)
        return values, {**p.details, "tail": tails, "probe_accuracy": scores.accuracy}, p

    tracer = Tracer()
    p = Pass(build, args.seed, args.seconds, args.smoke, scratch, [ops_only, tracer], setups=2)
    plain, traced = p.runs
    values = per_layer(tracer, traced, plain)
    return values, {**p.details, "traced_equals_untraced": p.ok}, p


def check_against_spec(spec: dict, trace: int, values: dict) -> dict:
    """Metric objects in the order BENCHMARK.json lists them; raises when the
    measured names differ from the declared ones."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_all(args) -> int:
    """Every workload in its own process, one result line each."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one iteration")
    args = parser.parse_args(argv)

    package = ROOT / "src" / "condgraphgen" / "__init__.py"
    if not package.is_file():
        print(f"condgraphgen sources not found at {package.parent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    with tempfile.TemporaryDirectory(prefix=".pipebench-", dir=ROOT) as scratch:
        values, details, p = run_workload(args, scratch)
    metrics = check_against_spec(spec, args.trace, values)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "environment": environment(), **details}
    print(json.dumps(info))
    print(json.dumps({"correct": p.ok and p.failed == 0, "attempted": p.attempted,
                      "failed": p.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
