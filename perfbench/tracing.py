"""Instrumentation the benchmark installs around smat's public functions.

Nothing here edits smat's source. A function is wrapped at every place a
module binds it, because smat modules import names directly (``training``
imports ``head_logit_matrix`` and ``compute_static_saliency``, ``cli``
imports ``explain_parameterized``): a wrapper on the defining module alone
would count nothing for those callers. Methods are wrapped on their class.
Every wrapped name is put back by :meth:`Patcher.restore`.

Two instruments use this:

* :class:`StepClock` times training steps and samples the host speed
  (:class:`HostSpeed`) between them and inside per-example loops. It is on
  in every run, because the step-time metrics are end-to-end numbers.
* :class:`Tracer` records the per-layer counters. It is on only in the
  traced run.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import statistics
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from smat import autodiff, cli, data, explainers, metrics, model, training

# Public autodiff ops. Their top-level calls (an op called from inside
# another op is not counted twice) make ``autodiff.op_s``.
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "pow_const", "exp", "log", "sqrt",
    "relu", "clip", "matmul", "transpose", "reshape", "narrow", "concat",
    "stack", "tsum", "tmean", "broadcast_to", "gather_rows", "scatter_rows",
    "softmax", "logsumexp", "cross_entropy", "kl_divergence", "mse",
    "sparsemax",
)

# Graph-node kinds, as the engine names them when it records a node.
NODE_KINDS = (
    "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "relu", "clip",
    "matmul", "transpose", "reshape", "narrow", "embed", "concat", "sum",
    "broadcast", "gather_rows", "scatter_rows", "softmax", "sparsemax",
)

STATIC_NAMES = ("attn_all", "integrated_gradients")

CLI_COMMANDS = ("make_data", "train_teacher", "train_student", "evaluate", "explain", "trueskill")

TEACHER_CACHE_LOOKUPS = ("target", "probs", "head_logits", "static_saliency")


def _smat_modules() -> list[object]:
    return [m for name, m in list(sys.modules.items()) if name == "smat" or name.startswith("smat.")]


class Patcher:
    """Replaces every binding of a function in smat's modules, and undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        wrapper = make(original)
        for module in _smat_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# host speed

# On a shared host the same code ran up to 1.7x slower from one minute to the
# next, with user time equal to wall time: the CPU itself was slower, not
# busy with other work of ours. So the benchmark samples a fixed loop
# around every timed phase, between training steps, and about every
# SAMPLE_EVERY_S inside per-example loops (at the entry of a prediction or
# an explanation), and divides each time by the loop's slowdown against
# REFERENCE_MS, its median time on the fast state of a 2-core x86_64 host
# at 3.3 GHz. The loop never calls smat and runs with the collector off, so
# a change to smat cannot move it.
REFERENCE_MS = 0.8
CALIBRATION_REPEATS = 3
SAMPLE_EVERY_S = 0.05


def _calibration_loop() -> float:
    a = np.full((8, 8), 0.5, dtype=np.float32)
    acc = 0.0
    for _ in range(1000):
        acc += float((a @ a)[0, 0])
    return acc


class HostSpeed:
    """Samples of the host's slowdown, and the time spent taking them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.hold = False  # no samples from hooks inside a training step
        self.off = False  # report raw times (the traced run)
        self._last = 0.0

    def maybe_sample(self) -> None:
        """Sample if SAMPLE_EVERY_S have passed since the last sample."""
        if not self.hold and time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def sample(self) -> float:
        if self.off:
            self.samples.append(1.0)
            return 1.0
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            times = []
            for _ in range(CALIBRATION_REPEATS):
                t = time.perf_counter()
                _calibration_loop()
                times.append(time.perf_counter() - t)
        finally:
            self._last = time.perf_counter()
            self.spent_s += self._last - t0
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times) * 1000.0 / REFERENCE_MS)
        return self.samples[-1]


# ---------------------------------------------------------------------------
# collector pauses

# The autodiff graph holds reference cycles, so Python's cyclic collector
# runs inside training steps: about every third teacher step pays for a
# full (generation 2) collection, 100-150 ms on a step of 70-80 ms. That pause
# walks the whole heap, so its length follows the host's memory traffic,
# which the compute-bound calibration loop does not see: on a shared host
# it made a p90 over step times spread by 30-40% between runs of the same
# code. Step and phase times are therefore kept in two parts, the work's
# own time and the collector pauses inside it.


class CollectorPauses:
    """Seconds the cyclic collector ran, its full collections and the objects
    it freed, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.full = 0
        self.collected = 0
        self.paused = False  # a collection that starts while paused is not counted
        self._counting = False
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._counting = not self.paused
            self._t0 = time.perf_counter()
        elif self._counting:
            self.seconds += time.perf_counter() - self._t0
            self.full += info["generation"] == 2
            self.collected += info["collected"]

    def install(self) -> None:
        gc.callbacks.append(self)

    def restore(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)


# ---------------------------------------------------------------------------
# step clock


@dataclass
class Step:
    phase: str  # "setup" or "unit"
    kind: str  # "teacher" (train_supervised) or "student" (train)
    run: int  # which training run, counted from 1
    ms: float  # the step's own work: collector pauses left out, divided by the slowdown
    examples: int
    loss: float
    slowdown: float  # mean host slowdown sampled on either side of the step
    gc_ms: float = 0.0  # collector pauses inside the step, divided by the slowdown


class StepClock:
    """Wall time, batch size and loss of every training step.

    A student step is ``inner_step`` plus the ``outer_step`` that follows
    it. A teacher step is one iteration of ``train_supervised``; its
    boundaries are the returns from ``autodiff.backward``, which that loop
    calls once per step. The host speed is sampled between steps, outside
    their times, and at the entry of each prediction and explanation.
    Collector pauses inside a step are timed apart from its own work.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.phase = "setup"
        self.steps: list[Step] = []
        self.runs = 0
        self.speed = speed
        self.pauses = CollectorPauses()
        self._bounds: tuple[list[tuple[float, float]], list[tuple[float, float]],
                            list[float]] | None = None
        self._patcher = Patcher()

    def _now(self) -> tuple[float, float]:
        """Wall clock and collector-pause clock."""
        return time.perf_counter(), self.pauses.seconds

    def _record(self, kind: str, start: tuple[float, float], end: tuple[float, float],
                slowdown: float, examples: int, loss: float) -> None:
        gc_s = end[1] - start[1]
        work_s = end[0] - start[0] - gc_s
        self.steps.append(Step(self.phase, kind, self.runs, work_s * 1000.0 / slowdown, examples,
                               loss, slowdown, gc_s * 1000.0 / slowdown))

    def install(self) -> None:
        self.pauses.install()
        self._patcher.function(training, "train_supervised", self._wrap_supervised)
        self._patcher.function(training, "train", self._wrap_train)
        self._patcher.function(training, "inner_step", self._wrap_inner)
        self._patcher.function(training, "outer_step", self._wrap_outer)
        self._patcher.function(autodiff, "backward", self._wrap_backward)
        self._patcher.method(model.MiniTransformer, "predict", self._sampling)
        self._patcher.function(explainers, "compute_static_saliency", self._sampling)
        self._patcher.function(explainers, "explain_parameterized", self._sampling)

    def restore(self) -> None:
        self._patcher.restore()
        self.pauses.restore()

    def _sampling(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.speed.maybe_sample()
            return fn(*args, **kwargs)

        return wrapper

    def select(self, phase: str, kind: str) -> list[Step]:
        return [s for s in self.steps if s.phase == phase and s.kind == kind]

    def _wrap_supervised(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            batch = min(bound.arguments["batch_size"], len(bound.arguments["examples"]))
            self.runs += 1
            slowdowns = [self.speed.sample()]
            starts, ends = [self._now()], []
            self._bounds = (starts, ends, slowdowns)
            self.speed.hold = True
            try:
                losses = fn(*args, **kwargs)
            finally:
                self._bounds = None
                self.speed.hold = False
            if len(ends) != len(losses):
                raise RuntimeError(
                    f"step clock: {len(ends)} backward passes for {len(losses)} teacher steps"
                )
            # A step runs to the end of its backward pass; its update falls
            # into the next one.
            for i, loss in enumerate(losses):
                slowdown = (slowdowns[i] + slowdowns[i + 1]) / 2.0
                self._record("teacher", starts[i], ends[i], slowdown, batch, float(loss))
            return losses

        return wrapper

    def _wrap_backward(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._bounds is not None:
                starts, ends, slowdowns = self._bounds
                ends.append(self._now())
                slowdowns.append(self.speed.sample())
                starts.append(self._now())
            return out

        return wrapper

    def _wrap_train(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.runs += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_inner(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(state, batch, *args, **kwargs):
            slowdown = self.speed.sample()
            self.speed.hold = True
            start = self._now()
            try:
                out = fn(state, batch, *args, **kwargs)
            finally:
                self.speed.hold = False
            self._record("student", start, self._now(), slowdown, len(batch),
                         float(state.last_loss))
            return out

        return wrapper

    def _wrap_outer(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.speed.hold = True
            start = self._now()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.speed.hold = False
            end = self._now()
            gc_ms = (end[1] - start[1]) * 1000.0
            outer_ms = (end[0] - start[0]) * 1000.0 - gc_ms
            # Renormalize the whole step by the samples on both sides of it.
            step = self.steps[-1]
            raw_ms = step.ms * step.slowdown + outer_ms
            raw_gc_ms = step.gc_ms * step.slowdown + gc_ms
            step.slowdown = (step.slowdown + self.speed.sample()) / 2.0
            step.ms = raw_ms / step.slowdown
            step.gc_ms = raw_gc_ms / step.slowdown
            return out

        return wrapper


# ---------------------------------------------------------------------------
# per-layer tracer


class Tracer:
    """Call counts and inclusive seconds at each module's public functions.

    Within one group only the outermost call is counted and timed, so a
    function that calls another of its group (``forward`` calling
    ``forward_from_embeddings``, ``cross_entropy`` calling ``logsumexp``)
    is not counted twice.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.nodes: Counter[str] = Counter()
        self.examples = 0
        self.graph_nodes = 0
        self.cache_lookups = 0
        self.cache_hits = 0
        self.checkpoint_bytes = 0
        self.pauses = CollectorPauses()
        self.active = True
        self._depth: Counter[str] = Counter()
        self._patcher = Patcher()

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Let calls through unrecorded, for the benchmark's own checks."""
        self.active = False
        self.pauses.paused = True
        try:
            yield
        finally:
            self.active = True
            self.pauses.paused = False

    def _timed(self, key: str | Callable[..., str], group: str | None = None,
               on_call: Callable | None = None) -> Callable[[Callable], Callable]:
        """Wrapper maker; ``key`` may name the counter from the call's arguments."""
        group = group or key

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active or self._depth[group]:
                    return fn(*args, **kwargs)
                self._depth[group] += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    name = key(*args, **kwargs) if callable(key) else key
                    self.seconds[name] += time.perf_counter() - t0
                    self.calls[name] += 1
                    self._depth[group] -= 1
                    if on_call is not None:
                        on_call(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        self.pauses.install()
        p = self._patcher
        for name in AUTODIFF_OPS:
            p.function(autodiff, name, self._timed("autodiff.op", group="autodiff.op"))
        p.function(autodiff, "_from_op", self._count_node)
        p.function(autodiff, "_toposort", self._count_graph)
        p.function(autodiff, "backward", self._timed("autodiff.backward"))

        def count_examples(model_, inputs, *args, **kwargs):
            self.examples += _examples_in(inputs)

        for name in ("forward", "forward_from_embeddings"):
            p.method(model.MiniTransformer, name,
                     self._timed("model.forward", group="model.forward", on_call=count_examples))
        p.method(model.MiniTransformer, "predict", self._timed("model.predict"))

        for name in ("train_supervised", "inner_step", "outer_step", "student_loss", "simulability"):
            p.function(training, name, self._timed(f"training.{name}"))
        for name in TEACHER_CACHE_LOOKUPS:
            p.method(training.TeacherContext, name, self._cache_lookup)

        p.function(explainers, "head_logit_matrix", self._timed("explainers.head_logit_matrix"))
        p.function(explainers, "explain_parameterized", self._timed("explainers.parameterized"))
        p.function(explainers, "compute_static_saliency", self._timed(
            lambda model_, token_ids, name, *a, **k: f"explainers.static_saliency.{name}",
            group="explainers.static_saliency"))

        p.function(data, "load_tsv", self._timed("data.load_tsv"))
        p.function(data, "load_model", self._timed("data.load_model"))
        p.function(data, "save_model", self._timed("data.save_model"))
        p.function(data, "export_explanations", self._timed("data.export", group="data.export"))
        p.function(data, "render_html_report", self._timed("data.export", group="data.export"))
        p.function(data, "save_checkpoint", self._count_checkpoint)

        p.function(metrics, "corpus_auc", self._timed("metrics.corpus_auc"))
        for name in CLI_COMMANDS:
            p.function(cli, f"cmd_{name}", self._timed(f"cli.{name}"))

    def restore(self) -> None:
        self._patcher.restore()
        self.pauses.restore()

    def _count_node(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(data_, parents, vjp, op):
            if self.active:
                self.nodes[op] += 1
            return fn(data_, parents, vjp, op)

        return wrapper

    def _count_graph(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(root):
            order = fn(root)
            if self.active:
                self.graph_nodes += len(order)
            return order

        return wrapper

    def _cache_lookup(self, fn: Callable) -> Callable:
        # A lookup that runs no model forward pass was served from the cache.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls["model.forward"]
            out = fn(*args, **kwargs)
            if self.active:
                self.cache_lookups += 1
                self.cache_hits += self.calls["model.forward"] == before
            return out

        return wrapper

    def _count_checkpoint(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(tensors, path, *args, **kwargs):
            out = fn(tensors, path, *args, **kwargs)
            if self.active:
                self.checkpoint_bytes += os.path.getsize(path)
            return out

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer values, named as in BENCHMARK.json's ``per_layer``."""
        c, s = self.calls, self.seconds
        forwards = c["model.forward"]
        out: dict[str, float] = {
            "autodiff.op_calls": float(sum(self.nodes.values())),
            "autodiff.op_s": s["autodiff.op"],
            "autodiff.backward_calls": float(c["autodiff.backward"]),
            "autodiff.backward_s": s["autodiff.backward"],
            "autodiff.graph_nodes": self.graph_nodes / c["autodiff.backward"] if c["autodiff.backward"] else 0.0,
        }
        for kind in NODE_KINDS:
            out[f"autodiff.op_calls.{kind}"] = float(self.nodes[kind])
        out.update({
            "model.forward_calls": float(forwards),
            "model.forward_s": s["model.forward"],
            "model.predict_calls": float(c["model.predict"]),
            "model.predict_s": s["model.predict"],
            "model.examples_per_forward": self.examples / forwards if forwards else 0.0,
        })
        for name in ("train_supervised", "inner_step", "outer_step", "student_loss", "simulability"):
            out[f"training.{name}_s"] = s[f"training.{name}"]
        out["training.teacher_cache_hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
        )
        out.update({
            "explainers.head_logit_matrix_calls": float(c["explainers.head_logit_matrix"]),
            "explainers.head_logit_matrix_s": s["explainers.head_logit_matrix"],
        })
        for name in STATIC_NAMES:
            out[f"explainers.static_saliency_s.{name}"] = s[f"explainers.static_saliency.{name}"]
        out["explainers.parameterized_s"] = s["explainers.parameterized"]
        out.update({
            "data.load_tsv_s": s["data.load_tsv"],
            "data.load_model_s": s["data.load_model"],
            "data.save_model_s": s["data.save_model"],
            "data.export_s": s["data.export"],
            "data.checkpoint_bytes": float(self.checkpoint_bytes),
            "metrics.corpus_auc_s": s["metrics.corpus_auc"],
            "gc.pause_s": self.pauses.seconds,
            "gc.full_collections": float(self.pauses.full),
            "gc.collected_objects": float(self.pauses.collected),
        })
        for name in CLI_COMMANDS:
            out[f"cli.{name}_s"] = s[f"cli.{name}"]
        return out


def _examples_in(inputs: object) -> int:
    """Sequences in one forward call: 1 for one sequence, else the batch size."""
    if isinstance(inputs, autodiff.Tensor):  # embeddings, (L, D) or (B, L, D)
        return 1 if inputs.ndim <= 2 else inputs.shape[0]
    return len(inputs) if hasattr(inputs[0], "__len__") else 1
