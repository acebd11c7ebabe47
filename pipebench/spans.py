"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces a list of functions with timing wrappers at the
names their callers look up: module attributes such as
``condgraphgen.backend.segment_sum`` or ``condgraphgen.training.run_rounds``
and class attributes such as ``ConvLayer.__call__``.  Nothing under ``src/``
is edited; ``uninstall`` puts every original back.  An untraced iteration
installs only ``OP_TARGETS``, the two spans that time one train step and one
sample; a traced iteration installs ``SPAN_TARGETS``.

A span is ``[name, start, end, parent, stage, thread]``.  The parent is the
enclosing span on the same thread; the stage is the benchmark stage
(``setup``, ``train``, ``sample`` or ``eval``) that was current when the span
began, which also covers spans on the statistics pool's worker threads.
Spans stay in memory until the run ends.  Appending to a list is atomic in
CPython, and counters are updated under a lock, so the wrappers are safe
for the ``corpus_stats`` thread pool.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import condgraphgen.autodiff as autodiff
import condgraphgen.backend as backend
import condgraphgen.checkpoint as checkpoint
import condgraphgen.classifiers as classifiers
import condgraphgen.evaluation as evaluation
import condgraphgen.generator as generator
import condgraphgen.sampling as sampling
import condgraphgen.training as training

# (owner, attribute, span name).  A layer with two call sites appears twice
# under one span name: training and sampling import run_rounds,
# step_forward and classify_nodes by name, so the wrapper must sit where the
# caller looks it up.
OP_TARGETS = (
    (training, "train_step", "training.train_step"),
    (sampling, "generate", "sampling.generate"),
)
SPAN_TARGETS = OP_TARGETS + (
    (training, "decompose", "graphs.decompose"),
    (training, "run_rounds", "generator.rounds"),
    (generator, "run_rounds", "generator.rounds"),
    (training, "classify_nodes", "classifiers.node_head"),
    (sampling, "classify_nodes", "classifiers.node_head"),
    (training, "clip_gradients", "autodiff.optimizer"),
    (autodiff.Adam, "step", "autodiff.optimizer"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (classifiers.ConvLayer, "__call__", "classifiers.conv"),
    (sampling, "step_forward", "generator.step_forward"),
    (backend, "segment_sum", "backend.segment_sum"),
    (backend, "csr_from_edges", "backend.csr"),
    (backend, "components_labels", "backend.components"),
    (backend, "sp_pair_sum", "backend.sp_pair_sum"),
    (backend, "triangle_count", "backend.triangle_count"),
    (evaluation, "corpus_stats", "evaluation.corpus_stats"),
    (evaluation, "graph_stats", "evaluation.graph_stats"),
    (evaluation, "build_report", "evaluation.build_report"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)

NAME, START, END, PARENT, STAGE, THREAD = range(6)


class Tracer:
    def __init__(self, targets=SPAN_TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.tape_nodes: dict[str, int] = defaultdict(int)  # per stage
        self.stage = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.stage, threading.get_ident()]
            self.spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counting_make(self, fn):
        @functools.wraps(fn)
        def wrapper(value, parents, backward):
            out = fn(value, parents, backward)
            if out.requires_grad:
                with self._lock:
                    self.tape_nodes[self.stage] += 1
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in self.targets:
            self._replace(owner, attr, self.span(name, getattr(owner, attr)))
        if self.targets is SPAN_TARGETS:
            # every taped op goes through autodiff._make, looked up as a global
            self._replace(autodiff, "_make", self._counting_make(autodiff._make))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries --------------------------------------------------------

    def _child_durations(self) -> dict[int, float]:
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[id(s[PARENT])] += s[END] - s[START]
        return child

    def self_times(self, stage: str) -> dict[str, float]:
        """Summed self time per span name within a stage: each span's
        duration minus the durations of its direct children."""
        child = self._child_durations()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[STAGE] == stage:
                out[s[NAME]] += (s[END] - s[START]) - child[id(s)]
        return out

    def main_thread_time(self, stage: str) -> float:
        """Summed duration of the outermost spans of a stage on the main
        thread, which equals the summed self times of all its spans there."""
        main = threading.main_thread().ident
        return sum(s[END] - s[START] for s in self.spans
                   if s[STAGE] == stage and s[PARENT] is None and s[THREAD] == main)

    def durations(self, stage: str, name: str, since: int = 0) -> list[float]:
        """Durations of the spans named ``name`` in a stage, in call order,
        among the spans recorded after the first ``since``."""
        return [s[END] - s[START] for s in self.spans[since:]
                if s[STAGE] == stage and s[NAME] == name]

    def total_times(self, stage: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[STAGE] == stage:
                out[s[NAME]] += s[END] - s[START]
        return out

    def calls(self, stage: str) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s[STAGE] == stage:
                out[s[NAME]] += 1
        return out

    def busy_share(self, stage: str, outer: str, inner: str) -> float:
        """Time inside ``inner`` spans that start within an ``outer`` span,
        divided by the outer wall time times the number of threads that ran
        ``inner`` spans in it: the stats pool's busy share."""
        outers = [s for s in self.spans if s[STAGE] == stage and s[NAME] == outer]
        inners = [s for s in self.spans if s[STAGE] == stage and s[NAME] == inner]
        busy = capacity = 0.0
        for o in outers:
            mine = [s for s in inners if o[START] <= s[START] <= o[END]]
            busy += sum(s[END] - s[START] for s in mine)
            capacity += (o[END] - o[START]) * max(1, len({s[THREAD] for s in mine}))
        return busy / capacity if capacity else 0.0
