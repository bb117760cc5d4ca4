"""Command-line interface.

Subcommands cover the full experiment pipeline: materialize a synthetic
corpus, train a teacher, train students under a chosen explanation mode
over several seeds, evaluate simulability or plausibility, export
explanations, and rank methods from tournament files.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict

from . import data as dio
from . import metrics, training
from .explainers import (
    NORMALIZATIONS,
    SCOPES,
    STATIC_EXPLAINERS,
    ExplainerParams,
    compute_static_saliency,
    explain_and_predict,
    explain_parameterized,
    scope_head_indices,
)
from .autodiff import Tensor
from .model import FieldError, MiniTransformer, ModelConfig, _count, _number


class ConfigurationError(Exception):
    """A problem with a config file or derived configuration (exit 2)."""


# ---------------------------------------------------------------------------
# config plumbing


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    part = cfg.get(name)
    if part is None:
        if required:
            raise ConfigurationError(f"config is missing the {name!r} section")
        return {}
    if not isinstance(part, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return part


def _checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)`` for the ``where`` config section: a
    FieldError it raises is a config error naming ``where.<field>``, any
    other TypeError or ValueError one naming the section."""
    try:
        return build(*args, **kwargs)
    except FieldError as err:
        raise ConfigurationError(f"bad {where}.{err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"bad {where} section: {err}") from err


def _ratios(name: str, value) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise FieldError(name, value, "must be a list of numbers")
    for ratio in value:
        _number(name, ratio)
    return [float(ratio) for ratio in value]


def _model_config(section: dict, vocab_size: int, where: str) -> ModelConfig:
    """The ``where`` section as a ModelConfig; an absent or null vocab_size
    is the data's, and a declared one must be at least that."""
    body = dict(section)
    if body.get("vocab_size") is None:
        body["vocab_size"] = vocab_size
    config = _checked(where, ModelConfig, **body)
    if config.vocab_size < vocab_size:
        raise ConfigurationError(
            f"{where}.vocab_size {config.vocab_size} is smaller than the data vocabulary {vocab_size}"
        )
    return config


def _synthetic_dataset(data_cfg: dict) -> dio.Dataset:
    """``data.n`` examples of the ``data.synthetic`` corpus."""
    spec = _checked("data.synthetic", lambda: dio.SyntheticSpec(**data_cfg["synthetic"]))
    return dio.generate_synthetic(spec, _checked("data", _count, "n", data_cfg.get("n", 1000)))


def _data_path(data_cfg: dict, config_path: str) -> str | None:
    """``data.path`` resolved against the config file's directory, or None."""
    path = data_cfg.get("path")
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path) if path else None


def _resolve_dataset(data_cfg: dict, config_path: str) -> dio.Dataset:
    """``data.path`` (relative to the config file's directory) or ``data.synthetic``."""
    path = _data_path(data_cfg, config_path)
    if path:
        return dio.load_tsv(path)
    if "synthetic" in data_cfg:
        return _synthetic_dataset(data_cfg)
    raise ConfigurationError("data section needs either 'path' or 'synthetic'")


def _resolve_splits(data_cfg: dict, dataset: dio.Dataset, needed: Sequence[str]) -> dio.Splits:
    """The dataset split by ``data.ratios`` and ``data.split_seed``; a split
    named in ``needed`` that comes out empty is a config error, and so is a
    regression dev or test split of one example, whose Pearson correlation
    is undefined."""
    ratios = _checked("data", _ratios, "ratios", data_cfg.get("ratios", dio.SPLIT_RATIOS))
    split_seed = _checked("data", _count, "split_seed", data_cfg.get("split_seed", 0), 0)
    try:
        splits = dio.split_dataset(dataset, ratios=ratios, seed=split_seed)
    except dio.DataError as err:
        raise ConfigurationError(str(err)) from err
    for name in needed:
        least = 2 if name != "train" and dataset.task == "regression" else 1
        size = len(getattr(splits, name))
        if size < least:
            raise ConfigurationError(f"data.ratios {ratios} leave the {name} split {size} of "
                                     f"{len(dataset)} examples; it needs {least}")
    return splits


def _check_fits(path: str, examples, model: MiniTransformer, name: str) -> None:
    """Raise DataError naming the data file ``path``, its first example
    longer than ``model``'s max_len, and ``name``, the model's checkpoint."""
    limit = model.config.max_len
    for i, ex in enumerate(examples, start=1):
        if len(ex.token_ids) > limit:
            raise dio.DataError(f"{path}: example {i} has {len(ex.token_ids)} tokens, "
                                f"more than the max_len {limit} of {name}")


def _config_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands


def cmd_make_data(args: argparse.Namespace) -> int:
    cfg = dio.read_json(args.config, ConfigurationError)
    data_cfg = _section(cfg, "data")
    if "synthetic" not in data_cfg:
        raise ConfigurationError("make-data needs a data.synthetic section")
    dataset = _synthetic_dataset(data_cfg)
    dio.save_tsv(dataset, args.out)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def cmd_train_teacher(args: argparse.Namespace) -> int:
    cfg = dio.read_json(args.config, ConfigurationError)
    data_cfg = _section(cfg, "data")
    dataset = _resolve_dataset(data_cfg, args.config)
    min_freq = _checked("data", _count, "min_freq", data_cfg.get("min_freq", 1))
    vocab = dio.build_vocab(dataset.examples, min_freq=min_freq)
    dio.attach_token_ids(dataset, vocab)
    splits = _resolve_splits(data_cfg, dataset, ("train",))  # an empty test split is reported as nan

    model_cfg = _model_config(_section(cfg, "model"), len(vocab), "model")
    if model_cfg.task != dataset.task:
        raise ConfigurationError(
            f"model task {model_cfg.task!r} does not match data task {dataset.task!r}"
        )
    longest = max(len(ex.token_ids) for ex in dataset.examples)
    if longest > model_cfg.max_len:
        raise ConfigurationError(f"model.max_len {model_cfg.max_len} is less than the "
                                 f"longest sequence of the data, {longest} tokens")
    if dataset.task == "classification":  # a label past the head fails only once a batch draws it
        source = _data_path(data_cfg, args.config) or "data.synthetic"
        for i, ex in enumerate(dataset.examples, start=1):
            if not 0 <= ex.label < model_cfg.num_classes:
                raise dio.DataError(f"{source}: example {i} has label {ex.label}, outside the "
                                    f"{model_cfg.num_classes} classes of model.num_classes")
    hyper = dict(_section(cfg, "teacher_train", required=False))
    unknown = sorted(set(hyper) - {"lr", "momentum", "steps", "batch_size", "seed"})
    if unknown:
        raise ConfigurationError(f"bad teacher_train section: unknown fields {unknown}")
    # train_supervised checks the rest (and has their defaults) before its first step
    try:
        seed = _count("seed", hyper.pop("seed", 0), 0)  # the teacher's init reads it first
        teacher = MiniTransformer(model_cfg, seed=seed)
        training.train_supervised(teacher, splits.train, seed=seed, **hyper)
    except FieldError as err:
        raise ConfigurationError(f"bad teacher_train.{err}") from err
    if dataset.task == "classification":
        train_acc = training.gold_accuracy(teacher, splits.train)
        test_acc = training.gold_accuracy(teacher, splits.test) if splits.test else float("nan")
        print(f"teacher: train_acc={train_acc:.4f} test_acc={test_acc:.4f}")
    dio.save_model(teacher, args.out, extra_echo={"vocab": vocab, "task": dataset.task})
    print(f"saved teacher to {args.out}")
    return 0


def _load_teacher(path: str) -> tuple[MiniTransformer, dict]:
    teacher, echo = dio.load_model(path)
    teacher.freeze()
    vocab = echo.get("vocab")
    if not isinstance(vocab, dict):
        raise dio.CheckpointError(f"{path}: teacher sidecar has no vocabulary")
    return teacher, vocab


def _load_phi(path: str, teacher: MiniTransformer) -> ExplainerParams:
    """A learned phi_T with the normalization and scope from its sidecar, one
    entry per in-scope head of ``teacher``."""
    echo = dio.load_config_echo(path, "phi")
    normalize, scope = echo.get("normalize", "sparsemax"), echo.get("scope", "all")
    for field, value, allowed in (("normalize", normalize, NORMALIZATIONS), ("scope", scope, SCOPES)):
        if value not in allowed:
            raise dio.CheckpointError(f"{path}: sidecar {field} {value!r} is not one of {allowed}")
    tensors = dio.load_checkpoint(path)
    if "phi_t" not in tensors:
        raise dio.CheckpointError(f"{path}: no 'phi_t' tensor")
    heads = len(scope_head_indices(teacher, scope))
    if tensors["phi_t"].shape != (heads,):
        raise dio.CheckpointError(f"{path}: 'phi_t' has shape {tensors['phi_t'].shape}, not ({heads},)"
                                  f" for the teacher's heads in scope {scope!r}")
    return ExplainerParams(Tensor(tensors["phi_t"]), normalize, scope)


def cmd_train_student(args: argparse.Namespace) -> int:
    cfg = dio.read_json(args.config, ConfigurationError)
    teacher, vocab = _load_teacher(args.teacher)

    data_cfg = _section(cfg, "data")
    dataset = _resolve_dataset(data_cfg, args.config)
    dio.attach_token_ids(dataset, vocab)
    splits = _resolve_splits(data_cfg, dataset, ("train", "dev", "test"))  # test: reported simulability
    size = data_cfg.get("student_train_size")  # null or absent: the whole split
    limit = None if size is None else _checked("data", _count, "student_train_size", size)
    run_splits = dio.Splits(train=splits.train[:limit], dev=splits.dev, test=splits.test,
                            task=splits.task)

    base = _checked("train", training.TrainConfig,
                    **{**_section(cfg, "train", required=False), "mode": args.mode})
    student_cfg = _model_config(_section(cfg, "student_model"), len(vocab), "student_model")
    try:
        training.check_run(base, teacher, run_splits, student_cfg)
    except ValueError as err:
        raise ConfigurationError(str(err)) from err
    if args.seeds < 1:
        raise ConfigurationError("--seeds must be >= 1")

    os.makedirs(args.out, exist_ok=True)
    # every seed shares the mode, scope and normalization
    tctx = training.TeacherContext(teacher, base)
    runs = []
    for i in range(args.seeds):
        seed = base.seed + i
        # a copy, not dataclasses.replace: rebuilding would rerun the config's
        # checks and log its warnings once more per seed
        run_cfg = copy.copy(base)
        run_cfg.seed = seed
        result = training.train(run_cfg, teacher, run_splits, student_cfg, tctx=tctx)
        run_dir = os.path.join(args.out, f"seed_{seed}")
        os.makedirs(run_dir, exist_ok=True)
        student_path = os.path.join(run_dir, "student.smat")
        dio.save_model(result.student, student_path, extra_echo={"seed": seed})
        phi_path = None
        if run_cfg.mode_kind() == "smat":
            phi_path = os.path.join(run_dir, "phi_t.smat")
            dio.save_checkpoint(
                {"phi_t": result.phi_t.data},
                phi_path,
                config_echo={
                    "kind": "phi",
                    "normalize": run_cfg.normalize,
                    "scope": run_cfg.explainer_scope(),
                },
            )
        stats = {
            "test_simulability": training.simulability(result.student, tctx, splits.test),
            "dev_simulability": training.simulability(result.student, tctx, splits.dev),
            "active_heads": training.count_active_heads(result.phi_t, run_cfg.normalize),
        }
        dio.write_json(os.path.join(run_dir, "run.json"),
                       {"seed": seed, "log": [asdict(rec) for rec in result.log], **stats})
        runs.append(
            {
                "seed": seed,
                "dir": f"seed_{seed}",
                "student": os.path.join(f"seed_{seed}", "student.smat"),
                "phi_t": os.path.join(f"seed_{seed}", "phi_t.smat") if phi_path else None,
                "run_log": os.path.join(f"seed_{seed}", "run.json"),
                **stats,
            }
        )
        print(f"seed={seed} test_simulability={stats['test_simulability']:.4f} "
              f"active_heads={stats['active_heads']}")

    agg = metrics.aggregate_median_iqr([run["test_simulability"] for run in runs])
    summary = {
        "mode": args.mode,
        "normalize": base.normalize,
        "scope": base.explainer_scope(),
        "config_sha256": _config_sha256(args.config),
        "teacher": os.path.abspath(args.teacher),
        "base_seed": base.seed,
        "seeds": [base.seed + i for i in range(args.seeds)],
        "task": splits.task,
        "runs": runs,
        "test_simulability": agg.to_dict(),
    }
    dio.write_json(os.path.join(args.out, "summary.json"), summary)
    print(
        f"mode={args.mode} median={agg.median:.4f} "
        f"iqr=[{agg.iqr_low:.4f}, {agg.iqr_high:.4f}] -> {args.out}"
    )
    return 0


def _load_summary(students_dir: str, metric: str) -> tuple[training.TrainConfig, list[dict]]:
    """The mode and runs of ``summary.json``, checked for what ``evaluate``
    reads; a malformed file raises DataError naming it and the field."""
    path = os.path.join(students_dir, "summary.json")
    summary = dio.read_json(path)
    try:
        config = training.TrainConfig(mode=summary.get("mode"))
    except ValueError as err:
        raise dio.DataError(f"{path}: {err}") from err
    runs = summary.get("runs")
    if not isinstance(runs, list) or not runs:
        raise dio.DataError(f"{path}: runs must be a non-empty list")
    fields = {"seed": int, "student": str}
    if metric == "auc" and config.mode == "smat":
        fields["phi_t"] = str  # the learned teacher explainer it scores
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise dio.DataError(f"{path}: runs[{i}] must be an object")
        for name, kind in fields.items():
            value = run.get(name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise dio.DataError(f"{path}: runs[{i}].{name} {value!r} is not of type {kind.__name__}")
    return config, runs


def cmd_evaluate(args: argparse.Namespace) -> int:
    teacher, vocab = _load_teacher(args.teacher)
    dataset = dio.load_tsv(args.data)
    dio.attach_token_ids(dataset, vocab)
    _check_fits(args.data, dataset.examples, teacher, f"the teacher {args.teacher}")
    config, runs = _load_summary(args.students, args.metric)

    values = []
    if args.metric == "sim":
        tctx = training.TeacherContext(teacher, config)
        for run in runs:
            student_path = os.path.join(args.students, run["student"])
            student, _ = dio.load_model(student_path)
            _check_fits(args.data, dataset.examples, student, f"the student {student_path}")
            sim = training.simulability(student, tctx, dataset.examples)
            values.append(sim)
            print(f"seed={run['seed']} sim={sim:.4f}")
    else:
        # plausibility AUC against gold rationales
        if not any(ex.rationale is not None for ex in dataset.examples):
            raise ValueError(
                "plausibility AUC requires rationale masks in the data file "
                "(third TSV column of 0/1 flags)"
            )
        with_masks = [ex for ex in dataset.examples if ex.rationale is not None]
        ids = [ex.token_ids for ex in with_masks]
        static = None  # a static teacher explanation is the same for every seed
        if config.mode_kind() == "static":
            static = compute_static_saliency(teacher, ids, config.static_name())
        elif config.mode_kind() != "smat":
            raise ValueError(f"mode {config.mode!r} trains without a teacher explainer; nothing to score")
        for run in runs:
            saliencies = static if static is not None else explain_parameterized(
                teacher, ids, _load_phi(os.path.join(args.students, run["phi_t"]), teacher))
            pairs = [(sal.scores, ex.rationale) for sal, ex in zip(saliencies, with_masks)]
            auc, used, skipped = metrics.corpus_auc(pairs)
            values.append(auc)
            print(f"seed={run['seed']} auc={auc:.4f} used={used} skipped={skipped}")
    agg = metrics.aggregate_median_iqr(values)
    print(f"aggregate median={agg.median:.4f} iqr=[{agg.iqr_low:.4f}, {agg.iqr_high:.4f}]")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    model, vocab = _load_teacher(args.model)
    dataset = dio.load_tsv(args.data)
    dio.attach_token_ids(dataset, vocab)
    _check_fits(args.data, dataset.examples, model, f"the model {args.model}")

    params = None
    if args.explainer == "parameterized":
        if not args.phi:
            raise ConfigurationError("--explainer parameterized requires --phi")
        params = _load_phi(args.phi, model)
    elif args.phi:
        raise ConfigurationError("--phi applies only to --explainer parameterized")
    # each prediction comes from the forward that explains its sequence
    explained = explain_and_predict(model, [ex.token_ids for ex in dataset.examples],
                                    args.explainer, params)
    records = []
    for ex, (sal, prediction) in zip(dataset.examples, explained):
        record = {
            "tokens": ex.tokens,
            "scores": [float(s) for s in sal.scores],
            "prediction": prediction,
        }
        if ex.label is not None:
            record["gold_label"] = ex.label
        if ex.score is not None:
            record["gold_score"] = ex.score
        if ex.rationale is not None:
            record["gold_mask"] = list(ex.rationale)
        records.append(record)

    out = args.out or ("explanations.jsonl" if args.format == "jsonl" else "report.html")
    if args.format == "jsonl":
        dio.export_explanations(records, out)
    else:
        dio.render_html_report(records, out, title=f"{args.explainer} explanations")
    print(f"wrote {len(records)} explanations to {out}")
    return 0


def cmd_trueskill(args: argparse.Namespace) -> int:
    lines = [(lineno, line.strip()) for lineno, line in
             enumerate(dio.read_lines(args.rankings), start=1) if line.strip()]
    if not lines:
        raise ValueError(f"{args.rankings}: no rankings")
    rankings: list[tuple[int, list[object]]] = []
    names: dict[str, None] = {}  # in first-seen order
    for lineno, line in lines:
        groups: list[object] = []
        for part in line.split(","):
            tied = [p.strip() for p in part.split("=") if p.strip()]
            if not tied:
                raise ValueError(f"{args.rankings}:{lineno}: malformed ranking line {line!r}")
            names.update(dict.fromkeys(tied))
            groups.append(tied[0] if len(tied) == 1 else tied)
        rankings.append((lineno, groups))
    ratings = metrics.fresh_ratings(names)
    for lineno, ranking in rankings:
        try:
            ratings = metrics.trueskill_update(ratings, ranking)
        except ValueError as err:  # a method repeated within one ranking
            raise ValueError(f"{args.rankings}:{lineno}: {err}") from err
    ranks = metrics.rank_with_confidence(ratings)
    for name in sorted(ratings, key=lambda n: -ratings[n].mu):
        r = ratings[name]
        lo, hi = r.interval()
        print(
            f"{name}: mu={r.mu:.3f} sigma={r.sigma:.3f} "
            f"interval=[{lo:.3f}, {hi:.3f}] rank={metrics.format_rank(ranks[name])}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smat",
        description="Train and evaluate students scaffolded by teacher explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="materialize the synthetic corpus to TSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("train-teacher", help="train the teacher on gold labels")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("train-student", help="train students under an explanation mode")
    p.add_argument("--config", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--mode", required=True, help="none, static:<name>, or smat")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_student)

    p = sub.add_parser("evaluate", help="score trained students")
    p.add_argument("--students", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True, choices=["sim", "auc"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="export explanations for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--phi", default=None)
    p.add_argument(
        "--explainer",
        required=True,
        choices=list(STATIC_EXPLAINERS) + ["parameterized"],
    )
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, choices=["jsonl", "html"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("trueskill", help="rank methods from tournament rankings")
    p.add_argument("--rankings", required=True)
    p.set_defaults(func=cmd_trueskill)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
