"""The benchmark's workloads: how each sets up, what one measured pass does,
and the output checks.

Shapes follow the acceptance experiment (``tests/test_acceptance.py``):
the cue-token corpus, a 2x4-head teacher and a 1x2-head student. Why each
workload exists, and which metric each layer should move on it, is in
``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import statistics
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smat import autodiff, cli, data, explainers, metrics, model, training

from tracing import HostSpeed, StepClock, Tracer

CORPUS = {"seed": 7, "vocab_size": 200, "noise_ratio": 0.75, "min_len": 5, "max_len": 10}
CORPUS_SIZE = 1600
SPLIT_SEED = 0
TEACHER_SHAPE = {"max_len": 10, "num_layers": 2, "heads_per_layer": 4, "model_dim": 32,
                 "head_dim": 8, "ffn_dim": 64, "task": "classification", "num_classes": 2}
STUDENT_SHAPE = {"max_len": 10, "num_layers": 1, "heads_per_layer": 2, "model_dim": 8,
                 "head_dim": 4, "ffn_dim": 16, "task": "classification", "num_classes": 2}
TEACHER_RECIPE = {"lr": 0.1, "momentum": 0.9, "batch_size": 32}
# Training never takes the workload seed; the seed draws the evaluation
# sample. The quality of a training run depends chaotically on its seeds:
# at lr 0.1 with momentum 0.9 some teacher seeds overflow within 100 steps
# (init/batch seeds 1/1 and 2/2 raise NonFiniteError), and over five
# student seeds a 40-step smat run's test simulability spread by 16% and
# its final loss by 31% (interquartile range over median). Those spreads
# would swamp the quality metrics' bounds. These are the acceptance
# experiment's seeds.
TEACHER_INIT_SEED = 1
TEACHER_BATCH_SEED = 0
STUDENT_SEED = 0
CLI_TEACHER_SEED = 0  # the CLI uses one seed for init and batches
STUDENT_POOL = 200
BATCH_SIZE = 32
ETA_OUTER = 0.2
TEACHER_ACC_BAR = 0.95
SALIENCY_SUM_TOL = 1e-5
RANKED_METHODS = ("smat", "attn_all", "integrated_gradients", "none")


@dataclass
class Sizes:
    """Work per set-up and per measured pass. Tests shrink these."""

    teacher_steps: int = 60
    student_steps: int = 40
    cli_teacher_steps: int = 40
    eval_examples: int = 200
    ig_examples: int = 6
    cli_students: int = 2
    cli_student_steps: int = 3
    rankings: int = 40


class Checks:
    """Counts output checks; a failed one is reported, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return bool(ok)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    workdir: Path
    checks: Checks = field(default_factory=Checks)
    speed: HostSpeed = field(default_factory=HostSpeed)
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        self.clock = StepClock(self.speed)

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        """The benchmark's own bookkeeping, kept out of the per-layer numbers."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.suspended():
                yield

    def timed(self, fn: Callable, *args, **kwargs) -> tuple[object, Span]:
        """Call ``fn``; return its result and its host-normalized time.

        The heap is collected first, so a phase does not pay for the cyclic
        garbage the one before it left (the autodiff graph holds reference
        cycles, and a full collection costs about as much as a step). The
        time, less the time spent sampling, is divided by the mean host
        slowdown sampled from just before to just after the call.
        """
        gc.collect()
        first = len(self.speed.samples)
        self.speed.sample()
        spent, paused = self.speed.spent_s, self.clock.pauses.seconds
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0 - (self.speed.spent_s - spent)
        paused = self.clock.pauses.seconds - paused
        self.speed.sample()
        slowdown = statistics.mean(self.speed.samples[first:])
        return out, Span(elapsed / slowdown, paused / slowdown)


@dataclass
class Span:
    """Seconds of one timed call, and the collector pauses inside them.

    Passes are measured by ``own``: the pauses' length follows the host's
    memory traffic, and with them in, teacher_fit's ``wall_s`` spread by
    15% between runs of the same code (see ``tracing.CollectorPauses``).
    ``setup_s`` uses ``total``, so collector work still shows end to end.
    """

    total: float
    pauses: float

    @property
    def own(self) -> float:
        return self.total - self.pauses


@dataclass
class Phase:
    examples: int = 0
    seconds: float = 0.0


@dataclass
class Unit:
    """One measured pass: its timings, its quality and a digest of its outputs."""

    wall_s: float
    predict: Phase
    explain: Phase
    quality: dict[str, float]
    digest: str


def final_loss(losses: list[float]) -> float:
    """Mean training loss over the last quarter of a run's steps."""
    tail = losses[-max(1, len(losses) // 4):]
    return float(np.mean(np.asarray(tail, dtype=np.float64)))


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _build_corpus() -> tuple[dict[str, int], data.Splits]:
    dataset = data.generate_synthetic(data.SyntheticSpec(**CORPUS), CORPUS_SIZE)
    vocab = data.build_vocab(dataset.examples)
    data.attach_token_ids(dataset, vocab)
    return vocab, data.split_dataset(dataset, seed=SPLIT_SEED)


def _model_config(shape: dict, vocab: dict[str, int]) -> model.ModelConfig:
    return model.ModelConfig(vocab_size=len(vocab), **shape)


def _sample(examples: list[data.Example], n: int, seed: int) -> list[data.Example]:
    """``n`` examples drawn without replacement by the workload seed."""
    idx = np.random.default_rng([seed, 3]).choice(len(examples), size=min(n, len(examples)),
                                                  replace=False)
    return [examples[int(i)] for i in idx]


def _train_teacher(vocab: dict[str, int], splits: data.Splits,
                   steps: int) -> tuple[model.MiniTransformer, list[float]]:
    teacher = model.MiniTransformer(_model_config(TEACHER_SHAPE, vocab), seed=TEACHER_INIT_SEED)
    losses = training.train_supervised(teacher, splits.train, steps=steps,
                                       seed=TEACHER_BATCH_SEED, **TEACHER_RECIPE)
    return teacher, losses


def check_saliency(checks: Checks, scores: object, n_tokens: int, where: str) -> None:
    s = np.asarray(scores, dtype=np.float64)
    checks.check(s.shape == (n_tokens,) and abs(float(s.sum()) - 1.0) <= SALIENCY_SUM_TOL,
                 f"{where}: saliency of shape {s.shape} summing to {s.sum():.8f}, "
                 f"expected {n_tokens} scores summing to 1")


def _checked_auc(ctx: Context, sals: list, explained: list[data.Example],
                 sample: list[data.Example], where: str) -> float:
    """Check every saliency row; plausibility AUC over the trailing sample."""
    for ex, sal in zip(explained, sals):
        check_saliency(ctx.checks, sal.scores, len(ex.token_ids), where)
    tail = sals[len(sals) - len(sample):]
    return metrics.corpus_auc([(s.scores, ex.rationale) for s, ex in zip(tail, sample)])[0]


# ---------------------------------------------------------------------------
# teacher_fit


class TeacherFit:
    """Supervised teacher training, then its accuracy and attention AUC on test.

    Explanations cover train + dev + sample: over dev + sample alone the
    phase lasted 0.3 s and its rate spread by 6% between runs.
    """

    name = "teacher_fit"
    step_source = ("unit", "teacher")

    def setup(self, ctx: Context, index: int) -> dict:
        vocab, splits = _build_corpus()
        sample = _sample(splits.test, ctx.sizes.eval_examples, ctx.seed)
        return {"vocab": vocab, "splits": splits, "sample": sample,
                "digest": _digest([ex.token_ids for ex in sample])}

    def unit(self, ctx: Context, state: dict) -> Unit:
        splits, sample = state["splits"], state["sample"]
        explained = splits.train + splits.dev + sample
        (teacher, losses), train = ctx.timed(_train_teacher, state["vocab"], splits,
                                             ctx.sizes.teacher_steps)
        # train and test accuracy, as train-teacher reports them
        (_, acc), predict = ctx.timed(lambda: (training.gold_accuracy(teacher, splits.train),
                                               training.gold_accuracy(teacher, sample)))
        sals, explain = ctx.timed(lambda: [
            explainers.compute_static_saliency(teacher, ex.token_ids, "attn_all") for ex in explained
        ])
        wall = train.own + predict.own + explain.own

        with ctx.untraced():
            auc = _checked_auc(ctx, sals, explained, sample, "attn_all")
            # No student here: test_sim is how often the teacher's no-grad
            # prediction agrees with its recorded forward pass, the one that
            # explanations and students are built from. 1.0 unless they diverge.
            with autodiff.no_grad():
                recorded = [int(np.argmax(teacher.forward(ex.token_ids, record=True)[0].data))
                            for ex in sample]
            predicted = [teacher.predict(ex.token_ids) for ex in sample]
            test_sim = metrics.simulability_accuracy(predicted, recorded)
        quality = {"final_loss": final_loss(losses), "teacher_acc": acc,
                   "test_sim": test_sim, "auc": auc}
        return Unit(wall, Phase(len(splits.train) + len(sample), predict.own),
                    Phase(len(explained), explain.own), quality,
                    _digest(quality, [p.data.tobytes() for p in teacher.param_list()]))


# ---------------------------------------------------------------------------
# smat_student


class SmatStudent:
    """One smat student run against a teacher trained in set-up."""

    name = "smat_student"
    step_source = ("unit", "student")

    def setup(self, ctx: Context, index: int) -> dict:
        vocab, splits = _build_corpus()
        teacher, _ = _train_teacher(vocab, splits, ctx.sizes.teacher_steps)
        acc = training.gold_accuracy(teacher, splits.test)
        ctx.checks.check(acc >= TEACHER_ACC_BAR,
                         f"set-up teacher gold accuracy {acc:.4f} < {TEACHER_ACC_BAR}")
        pool = data.Splits(train=splits.train[:STUDENT_POOL], dev=splits.dev,
                           test=splits.test, task=splits.task)
        sample = _sample(splits.test, ctx.sizes.eval_examples, ctx.seed)
        return {"vocab": vocab, "teacher": teacher, "teacher_acc": acc, "pool": pool,
                "sample": sample,
                "digest": _digest(acc, [p.data.tobytes() for p in teacher.param_list()])}

    def unit(self, ctx: Context, state: dict) -> Unit:
        teacher, pool, sample = state["teacher"], state["pool"], state["sample"]
        held_out = pool.dev + sample
        config = training.TrainConfig(mode="smat", steps=ctx.sizes.student_steps,
                                      batch_size=BATCH_SIZE, seed=STUDENT_SEED, eta_outer=ETA_OUTER,
                                      eval_every=ctx.sizes.student_steps)
        first_step = len(ctx.clock.steps)
        result, train = ctx.timed(training.train, config, teacher, pool,
                                  _model_config(STUDENT_SHAPE, state["vocab"]))
        # dev and test simulability, as train-student reports them
        tctx = training.TeacherContext(teacher, config)
        (_, sim), predict = ctx.timed(lambda: (
            training.simulability(result.student, tctx, pool.dev),
            training.simulability(result.student, tctx, sample)))
        params = explainers.ExplainerParams(phi=autodiff.Tensor(result.phi_t.data),
                                            normalize=config.normalize, scope="all")
        sals, explain = ctx.timed(lambda: [
            explainers.explain_parameterized(teacher, ex.token_ids, params) for ex in held_out
        ])
        wall = train.own + predict.own + explain.own

        with ctx.untraced():
            auc = _checked_auc(ctx, sals, held_out, sample, "parameterized")
        losses = [s.loss for s in ctx.clock.steps[first_step:]]
        quality = {"final_loss": final_loss(losses), "teacher_acc": state["teacher_acc"],
                   "test_sim": sim, "auc": auc}
        return Unit(wall, Phase(len(held_out), predict.own), Phase(len(held_out), explain.own),
                    quality,
                    _digest(quality, result.phi_t.data.tobytes()))


# ---------------------------------------------------------------------------
# explain_eval


def run_cli(ctx: Context, argv: list[str]) -> tuple[str, Span]:
    """One in-process ``smat`` call; a nonzero exit is a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, span = ctx.timed(cli.main, argv)
    ctx.checks.check(code == 0, f"smat {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), span


def _printed(text: str, key: str) -> dict[int, str]:
    """``seed=<n> <key>=<value>`` lines of ``evaluate`` output, by seed."""
    return {int(s): v for s, v in re.findall(rf"^seed=(\d+) {key}=(\S+)", text, flags=re.M)}


class ExplainEval:
    """The read side through the CLI: evaluate, explain and rank saved models."""

    name = "explain_eval"
    # No training in the measured pass: step metrics come from the
    # set-up's train-teacher call.
    step_source = ("setup", "teacher")

    def setup(self, ctx: Context, index: int) -> dict:
        sz = ctx.sizes
        root = ctx.workdir / f"setup{index}"
        root.mkdir(parents=True)
        config = {
            "data": {"path": "corpus.tsv", "synthetic": CORPUS, "n": CORPUS_SIZE,
                     "split_seed": SPLIT_SEED, "student_train_size": STUDENT_POOL},
            "model": TEACHER_SHAPE,
            "student_model": STUDENT_SHAPE,
            "teacher_train": {**TEACHER_RECIPE, "steps": sz.cli_teacher_steps,
                              "seed": CLI_TEACHER_SEED},
            "train": {"steps": sz.cli_student_steps, "batch_size": BATCH_SIZE,
                      "eta_outer": ETA_OUTER, "eval_every": sz.cli_student_steps, "seed": 0},
        }
        (root / "config.json").write_text(json.dumps(config))
        p = {name: str(root / name) for name in (
            "config.json", "corpus.tsv", "teacher.smat", "students", "eval.tsv", "ig.tsv",
            "rankings.txt", "attn.jsonl", "ig.jsonl", "report.html")}
        run_cli(ctx, ["make-data", "--config", p["config.json"], "--out", p["corpus.tsv"]])
        teacher_out, _ = run_cli(ctx, ["train-teacher", "--config", p["config.json"],
                                       "--out", p["teacher.smat"]])
        first_step = len(ctx.clock.steps)
        run_cli(ctx, ["train-student", "--config", p["config.json"], "--teacher", p["teacher.smat"],
                      "--mode", "smat", "--seeds", str(sz.cli_students), "--out", p["students"]])
        student_steps = [s for s in ctx.clock.steps[first_step:] if s.kind == "student"]

        with ctx.untraced():
            dataset = data.load_tsv(p["corpus.tsv"])
            test = data.split_dataset(dataset, seed=SPLIT_SEED).test
            sample = _sample(test, sz.eval_examples, ctx.seed)
            data.save_tsv(data.Dataset(sample), p["eval.tsv"])
            data.save_tsv(data.Dataset(sample[: sz.ig_examples]), p["ig.tsv"])
            rng = np.random.default_rng([ctx.seed, 4])
            lines = [",".join(RANKED_METHODS[i] for i in rng.permutation(len(RANKED_METHODS)))
                     for _ in range(sz.rankings)]
            Path(p["rankings.txt"]).write_text("\n".join(lines) + "\n")
            teacher, echo = data.load_model(p["teacher.smat"])
            vocab = echo["vocab"]
            for ex in sample:
                ex.token_ids = data.encode_tokens(ex.tokens, vocab)
            summary = json.loads((root / "students" / "summary.json").read_text())

        acc = re.search(r"test_acc=(\S+)", teacher_out)
        per_run = {}
        for s in student_steps:
            per_run.setdefault(s.run, []).append(s.loss)
        files = [p["teacher.smat"]] + [str(root / "students" / r[k]) for r in summary["runs"]
                                       for k in ("student", "phi_t")]
        state = {
            "paths": p, "root": root, "teacher": teacher, "sample": sample, "summary": summary,
            "teacher_acc": float(acc.group(1)) if acc else float("nan"),
            "final_loss": float(np.mean([final_loss(v) for v in per_run.values()])),
        }
        state["digest"] = _digest(state["teacher_acc"], state["final_loss"],
                                  [Path(f).read_bytes() for f in files])
        return state

    def unit(self, ctx: Context, state: dict) -> Unit:
        p, sample, summary = state["paths"], state["sample"], state["summary"]
        students = [dict(r) for r in summary["runs"]]
        n, m = len(sample), min(ctx.sizes.ig_examples, len(sample))
        phi = str(state["root"] / "students" / students[0]["phi_t"])
        common = ["--students", p["students"], "--teacher", p["teacher.smat"], "--data", p["eval.tsv"]]
        sim_out, predict = run_cli(ctx, ["evaluate", *common, "--metric", "sim"])
        auc_out, auc = run_cli(ctx, ["evaluate", *common, "--metric", "auc"])
        explain = Span(0.0, 0.0)
        for argv in (
            ["--explainer", "attn_all", "--data", p["eval.tsv"], "--format", "jsonl", "--out", p["attn.jsonl"]],
            ["--explainer", "integrated_gradients", "--data", p["ig.tsv"], "--format", "jsonl",
             "--out", p["ig.jsonl"]],
            ["--explainer", "parameterized", "--phi", phi, "--data", p["eval.tsv"], "--format", "html",
             "--out", p["report.html"]],
        ):
            _, span = run_cli(ctx, ["explain", "--model", p["teacher.smat"], *argv])
            explain = Span(explain.total + span.total, explain.pauses + span.pauses)
        rank_out, rank = run_cli(ctx, ["trueskill", "--rankings", p["rankings.txt"]])
        wall = predict.own + auc.own + explain.own + rank.own

        with ctx.untraced():
            quality = self._verify(ctx, state, students, sim_out, auc_out)
        outputs = [Path(p[k]).read_bytes() for k in ("attn.jsonl", "ig.jsonl", "report.html")]
        return Unit(wall, Phase(n * len(students), predict.own), Phase(2 * n + m, explain.own),
                    quality, _digest(quality, sim_out, auc_out, rank_out, outputs))

    def _verify(self, ctx: Context, state: dict, students: list[dict], sim_out: str,
                auc_out: str) -> dict[str, float]:
        p, sample, teacher = state["paths"], state["sample"], state["teacher"]
        m = min(ctx.sizes.ig_examples, len(sample))
        for key, expected in (("attn.jsonl", sample), ("ig.jsonl", sample[:m])):
            rows = Path(p[key]).read_text().splitlines()
            ctx.checks.check(len(rows) == len(expected),
                             f"{key}: {len(rows)} lines for {len(expected)} examples")
            for row, ex in zip(rows, expected):
                check_saliency(ctx.checks, json.loads(row)["scores"], len(ex.token_ids), key)
        html_rows = Path(p["report.html"]).read_text().count('<div class="ex">')
        ctx.checks.check(html_rows == len(sample),
                         f"report.html: {html_rows} examples for {len(sample)}")

        # evaluate's printed values against the same computation in-process
        printed_sim, printed_auc = _printed(sim_out, "sim"), _printed(auc_out, "auc")
        sims, aucs = [], []
        tctx = training.TeacherContext(teacher, training.TrainConfig(mode="smat"))
        for run in students:
            student, _ = data.load_model(str(state["root"] / "students" / run["student"]))
            sims.append(training.simulability(student, tctx, sample))
            phi = data.load_checkpoint(str(state["root"] / "students" / run["phi_t"]))["phi_t"]
            params = explainers.ExplainerParams(phi=autodiff.Tensor(phi), normalize="sparsemax",
                                                scope="all")
            pairs = [(explainers.explain_parameterized(teacher, ex.token_ids, params).scores,
                      ex.rationale) for ex in sample]
            aucs.append(metrics.corpus_auc(pairs)[0])
            ctx.checks.check(printed_sim.get(run["seed"]) == f"{sims[-1]:.4f}",
                             f"evaluate sim for seed {run['seed']}: printed "
                             f"{printed_sim.get(run['seed'])}, in-process {sims[-1]:.4f}")
            ctx.checks.check(printed_auc.get(run["seed"]) == f"{aucs[-1]:.4f}",
                             f"evaluate auc for seed {run['seed']}: printed "
                             f"{printed_auc.get(run['seed'])}, in-process {aucs[-1]:.4f}")
        return {"final_loss": state["final_loss"], "teacher_acc": state["teacher_acc"],
                "test_sim": metrics.aggregate_median_iqr(sims).median,
                "auc": metrics.aggregate_median_iqr(aucs).median}


WORKLOADS = {w.name: w for w in (TeacherFit(), SmatStudent(), ExplainEval())}
