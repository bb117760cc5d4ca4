"""Tests of the benchmark's own machinery: tracer, checks and exit paths.

    python3 -m pytest perfbench/test_perfbench.py

The workloads run here at toy sizes; the numbers they produce are not
benchmark results.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_smat()

import tracing  # noqa: E402
import workloads  # noqa: E402
from smat import cli, explainers, model, training  # noqa: E402

TOY = workloads.Sizes(teacher_steps=3, cli_teacher_steps=3, student_steps=2, eval_examples=6,
                      ig_examples=1, cli_students=1, cli_student_steps=1, rankings=3)

# Per-layer counters each workload must move. The rest may read zero there.
EXPECTED_NONZERO = {
    "teacher_fit": (
        "autodiff.op_calls", "autodiff.op_s", "autodiff.backward_calls", "autodiff.graph_nodes",
        "autodiff.op_calls.matmul", "autodiff.op_calls.softmax", "model.forward_calls",
        "model.predict_calls", "training.train_supervised_s", "explainers.static_saliency_s.attn_all",
        "gc.pause_s", "gc.full_collections", "gc.collected_objects",
    ),
    "smat_student": (
        "autodiff.op_calls.sparsemax", "autodiff.backward_s", "model.forward_s",
        "training.inner_step_s", "training.outer_step_s", "training.student_loss_s",
        "training.simulability_s", "training.teacher_cache_hit_ratio",
        "explainers.head_logit_matrix_calls", "explainers.parameterized_s",
    ),
    "explain_eval": (
        "model.predict_s", "explainers.static_saliency_s.attn_all",
        "explainers.static_saliency_s.integrated_gradients", "explainers.parameterized_s",
        "data.load_tsv_s", "data.load_model_s", "data.save_model_s", "data.export_s",
        "data.checkpoint_bytes", "metrics.corpus_auc_s", "cli.make_data_s", "cli.train_teacher_s",
        "cli.train_student_s", "cli.evaluate_s", "cli.explain_s", "cli.trueskill_s",
    ),
}


def _context(tmp_path: Path, sizes: workloads.Sizes = TOY, seed: int = 0) -> workloads.Context:
    ctx = workloads.Context(seed=seed, sizes=sizes, workdir=tmp_path / "work")
    ctx.clock.install()
    return ctx


def _bindings() -> dict[tuple[str, str], object]:
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "smat" or name.startswith("smat."):
            found.update({(name, k): v for k, v in vars(module).items()})
    for cls in (model.MiniTransformer, training.TeacherContext):
        found.update({(cls.__name__, k): v for k, v in cls.__dict__.items()})
    return found


def test_tracer_wraps_names_where_callers_bind_them_and_restores_them():
    before = _bindings()
    original = explainers.head_logit_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.head_logit_matrix is explainers.head_logit_matrix is not original
        assert training.compute_static_saliency is explainers.compute_static_saliency
        assert cli.explain_parameterized is explainers.explain_parameterized
        assert cli.compute_static_saliency is explainers.compute_static_saliency
        assert model.MiniTransformer.forward is not before[("MiniTransformer", "forward")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_a_call_through_the_importing_module_is_counted():
    config = model.ModelConfig(vocab_size=12, max_len=6, num_layers=1, heads_per_layer=2,
                               model_dim=8, head_dim=4, ffn_dim=16)
    teacher = model.MiniTransformer(config, seed=0)
    tctx = training.TeacherContext(teacher, training.TrainConfig(mode="smat"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tctx.head_logits([3, 4, 5])  # training calls its own binding
        tctx.head_logits([3, 4, 5])  # served from the cache
    finally:
        tracer.restore()
    values = tracer.metrics()
    assert values["explainers.head_logit_matrix_calls"] == 1
    assert values["model.forward_calls"] == 1
    assert values["training.teacher_cache_hit_ratio"] == 0.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_counter_and_matches_untraced_quality(name, tmp_path):
    sizes = TOY
    if name == "smat_student":  # its set-up requires a teacher that clears the bar
        sizes = workloads.Sizes(**{**vars(TOY), "teacher_steps": 60})
    ctx = _context(tmp_path, sizes)
    try:
        values = run.measure_traced(workloads.WORKLOADS[name], ctx)
    finally:
        ctx.clock.restore()
    assert ctx.checks.failed == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    zero = [k for k in EXPECTED_NONZERO[name] if not values[k] > 0]
    assert zero == [], f"{name}: counters read zero: {zero}"
    assert values["model.examples_per_forward"] == 1.0


def test_measure_reports_every_end_to_end_metric(tmp_path):
    ctx = _context(tmp_path)
    try:
        values = run.measure(workloads.WORKLOADS["teacher_fit"], ctx, seconds=0.0)
    finally:
        ctx.clock.restore()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    added_by_main = {"peak_rss_mb", "success_frac"}
    assert set(values) | added_by_main == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in values.values())
    assert ctx.checks.failed == 0


def test_collector_pauses_are_timed_apart_from_step_work(tmp_path):
    ctx = _context(tmp_path)
    try:
        run.measure(workloads.WORKLOADS["teacher_fit"], ctx, seconds=0.0)
    finally:
        ctx.clock.restore()
    assert ctx.clock.pauses not in gc.callbacks
    steps = ctx.clock.select("unit", "teacher")
    assert steps and all(s.ms > 0 and s.gc_ms >= 0 for s in steps)
    assert sum(s.gc_ms for s in steps) > 0


def test_collector_pauses_skip_collections_started_while_paused():
    pauses = tracing.CollectorPauses()
    pauses.install()
    try:
        gc.collect()
        pauses.paused = True
        gc.collect()
    finally:
        pauses.restore()
    gc.collect()
    assert pauses.full == 1 and pauses.seconds > 0
    assert pauses not in gc.callbacks


class _Drifting:
    """A workload whose second pass gives a different answer."""

    name = "drifting"
    step_source = ("unit", "teacher")

    def __init__(self) -> None:
        self.passes = 0

    def setup(self, ctx, index):
        return {"digest": "same"}

    def unit(self, ctx, state):
        self.passes += 1
        ctx.clock.steps.append(tracing.Step("unit", "teacher", 1, 1.0, 1, 0.5, 1.0))
        return workloads.Unit(1.0, workloads.Phase(1, 1.0), workloads.Phase(1, 1.0),
                              {"final_loss": float(self.passes)}, "d")


def test_determinism_guard_counts_a_differing_repeat(tmp_path):
    ctx = _context(tmp_path)
    try:
        run.measure(_Drifting(), ctx, seconds=0.0)
    finally:
        ctx.clock.restore()
    assert ctx.checks.failed == 1


def test_heldout_seed_prints_its_quality(tmp_path, capsys):
    ctx = _context(tmp_path)
    try:
        run.heldout(workloads.WORKLOADS["teacher_fit"], ctx, 1001)
    finally:
        ctx.clock.restore()
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("perfbench: heldout ")
    assert json.loads(line.split(" ", 2)[2])["seed"] == 1001


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "teacher_fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
