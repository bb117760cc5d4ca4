"""End-to-end pipeline through the command-line entry point.

Everything runs in process through main(argv) against a miniature
synthetic corpus so the whole file stays inside a few seconds.
"""

import hashlib
import json
import logging
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from smat import cli
from smat.cli import main
from smat.data import (
    Dataset,
    attach_token_ids,
    export_explanations,
    load_checkpoint,
    load_model,
    load_tsv,
    save_checkpoint,
    save_model,
    save_tsv,
)
from smat.autodiff import Tensor, no_grad
from smat.explainers import (
    ATTENTION_EXPLAINERS,
    NORMALIZATIONS,
    SCOPES,
    STATIC_EXPLAINERS,
    ExplainerParams,
    compute_static_saliency,
    explain_parameterized,
    saliency_from_internals,
)
from smat.model import MiniTransformer


BASE_CONFIG = {
    "data": {
        "path": "corpus.tsv",
        "split_seed": 0,
        "student_train_size": 40,
        "synthetic": {"seed": 0, "min_len": 5, "max_len": 8, "vocab_size": 40},
        "n": 160,
    },
    "model": {
        "max_len": 8,
        "num_layers": 2,
        "heads_per_layer": 2,
        "model_dim": 8,
        "head_dim": 4,
        "ffn_dim": 16,
        "task": "classification",
        "num_classes": 2,
    },
    "student_model": {
        "max_len": 8,
        "num_layers": 1,
        "heads_per_layer": 2,
        "model_dim": 8,
        "head_dim": 4,
        "ffn_dim": 16,
        "task": "classification",
        "num_classes": 2,
    },
    "teacher_train": {"lr": 0.05, "momentum": 0.9, "steps": 100, "batch_size": 16, "seed": 0},
    "train": {"steps": 4, "batch_size": 4, "eval_every": 2, "seed": 0},
}


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Shared workspace: data materialized, teacher trained, students trained."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    corpus = root / "corpus.tsv"
    assert main(["make-data", "--config", str(config_path), "--out", str(corpus)]) == 0
    teacher = root / "teacher.smat"
    assert main(["train-teacher", "--config", str(config_path), "--out", str(teacher)]) == 0
    outs = {}
    for mode in ("none", "static:attn_all", "smat"):
        out = root / ("students_" + mode.replace(":", "_"))
        code = main([
            "train-student", "--config", str(config_path), "--teacher", str(teacher),
            "--mode", mode, "--seeds", "2", "--out", str(out),
        ])
        assert code == 0
        outs[mode] = out
    return {"root": root, "config": config_path, "corpus": corpus,
            "teacher": teacher, "students": outs}


def test_make_data_writes_labeled_rationales(pipeline):
    dataset = load_tsv(str(pipeline["corpus"]))
    assert len(dataset) == 160
    assert dataset.task == "classification"
    assert all(ex.rationale is not None for ex in dataset.examples)
    assert all(len(ex.rationale) == len(ex.tokens) for ex in dataset.examples)


def test_teacher_training_is_reproducible(pipeline, tmp_path):
    again = tmp_path / "teacher2.smat"
    assert main(["train-teacher", "--config", str(pipeline["config"]),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == pipeline["teacher"].read_bytes()
    with open(str(again) + ".json", "rb") as a, \
            open(str(pipeline["teacher"]) + ".json", "rb") as b:
        assert a.read() == b.read()


def test_a_teacher_on_in_memory_synthetic_data_is_the_teacher_on_its_tsv(pipeline, tmp_path):
    """With no data.path, data.synthetic is generated in memory: the same
    corpus make-data writes, so the same teacher, byte for byte."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "data": {
        k: v for k, v in BASE_CONFIG["data"].items() if k != "path"}}))
    teacher = tmp_path / "teacher.smat"
    assert main(["train-teacher", "--config", str(config), "--out", str(teacher)]) == 0
    for suffix in ("", ".json"):
        with open(f"{teacher}{suffix}", "rb") as a, open(f"{pipeline['teacher']}{suffix}", "rb") as b:
            assert a.read() == b.read()


def test_train_student_mode_none_warns_once_about_beta(pipeline, tmp_path, caplog):
    cfg = json.loads(pipeline["config"].read_text())
    cfg["train"]["beta"] = 5.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    out = tmp_path / "none"
    with caplog.at_level(logging.WARNING):
        assert main(["train-student", "--config", str(config), "--teacher", str(pipeline["teacher"]),
                     "--mode", "none", "--seeds", "2", "--out", str(out)]) == 0
    lines = [rec.getMessage() for rec in caplog.records if "forces beta" in rec.getMessage()]
    assert lines == ["mode 'none' forces beta to 0 (config had 5.0)"]
    for seed in ("seed_0", "seed_1"):  # beta is 0 either way
        for name in ("run.json", "student.smat"):
            assert (out / seed / name).read_bytes() == \
                (pipeline["students"]["none"] / seed / name).read_bytes()


def test_student_summary_shape(pipeline):
    for mode, out in pipeline["students"].items():
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == mode
        assert summary["seeds"] == [0, 1]
        assert len(summary["runs"]) == 2
        agg = summary["test_simulability"]
        assert set(agg) == {"values", "median", "iqr"}
        # with two runs the low-biased median can sit below the interpolated
        # 25th percentile, so only the bracket itself is ordered
        assert agg["iqr"][0] <= agg["iqr"][1]
        assert min(agg["values"]) <= agg["median"] <= max(agg["values"])
        for run in summary["runs"]:
            assert 0.0 <= run["test_simulability"] <= 1.0
            assert run["active_heads"] >= 1
            assert (out / run["student"]).exists()
            assert (out / run["run_log"]).exists()


def test_phi_checkpoint_only_for_learned_explainer(pipeline):
    smat_summary = json.loads((pipeline["students"]["smat"] / "summary.json").read_text())
    for run in smat_summary["runs"]:
        assert run["phi_t"] is not None
        assert (pipeline["students"]["smat"] / run["phi_t"]).exists()
    none_summary = json.loads((pipeline["students"]["none"] / "summary.json").read_text())
    assert all(run["phi_t"] is None for run in none_summary["runs"])


def test_evaluate_simulability(pipeline, capsys):
    code = main([
        "evaluate", "--students", str(pipeline["students"]["smat"]),
        "--teacher", str(pipeline["teacher"]),
        "--data", str(pipeline["corpus"]), "--metric", "sim",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("seed=") == 2
    assert "aggregate median=" in out


def test_evaluate_plausibility(pipeline, capsys):
    for mode in ("smat", "static:attn_all"):
        code = main([
            "evaluate", "--students", str(pipeline["students"][mode]),
            "--teacher", str(pipeline["teacher"]),
            "--data", str(pipeline["corpus"]), "--metric", "auc",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "auc=" in out and "aggregate median=" in out


def test_evaluate_auc_needs_rationales(pipeline, tmp_path, capsys):
    bare = tmp_path / "bare.tsv"
    lines = []
    for ex in load_tsv(str(pipeline["corpus"])).examples[:10]:
        lines.append(" ".join(ex.tokens) + "\t" + str(ex.label))
    bare.write_text("\n".join(lines) + "\n")
    code = main([
        "evaluate", "--students", str(pipeline["students"]["smat"]),
        "--teacher", str(pipeline["teacher"]),
        "--data", str(bare), "--metric", "auc",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "rationale" in err


def test_evaluate_mode_none_has_no_explainer(pipeline, capsys):
    code = main([
        "evaluate", "--students", str(pipeline["students"]["none"]),
        "--teacher", str(pipeline["teacher"]),
        "--data", str(pipeline["corpus"]), "--metric", "auc",
    ])
    assert code == 1
    assert "explainer" in capsys.readouterr().err


def test_evaluate_static_auc_explains_the_teacher_once(pipeline, capsys, monkeypatch):
    """A static teacher explanation is the same for every seed, so one call serves all."""
    calls = []
    compute = cli.compute_static_saliency

    def counting(model, token_ids, name, *args, **kwargs):
        calls.append(len(token_ids))
        return compute(model, token_ids, name, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_static_saliency", counting)
    code = main([
        "evaluate", "--students", str(pipeline["students"]["static:attn_all"]),
        "--teacher", str(pipeline["teacher"]),
        "--data", str(pipeline["corpus"]), "--metric", "auc",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert calls == [160]  # every example with a rationale mask, in one call
    aucs = [line.split()[1] for line in out.splitlines() if line.startswith("seed=")]
    assert len(aucs) == 2 and aucs[0] == aucs[1]


def _smat_students(tmp_path, pipeline, phis):
    """A smat students directory whose runs reuse the pipeline's students
    (by absolute path), with one phi_t file per (normalize, scope, values)."""
    runs = json.loads((pipeline["students"]["smat"] / "summary.json").read_text())["runs"]
    students = tmp_path / "students"
    students.mkdir()
    out = []
    for seed, (normalize, scope, values) in enumerate(phis):
        phi = students / f"phi_{seed}.smat"
        save_checkpoint({"phi_t": np.asarray(values, dtype=np.float32)}, str(phi),
                        config_echo={"kind": "phi", "normalize": normalize, "scope": scope})
        student = str(pipeline["students"]["smat"] / runs[seed % len(runs)]["student"])
        out.append({"seed": seed, "student": student, "phi_t": phi.name})
    (students / "summary.json").write_text(json.dumps({"mode": "smat", "runs": out}))
    return students


def _evaluate_auc(students, pipeline):
    return main(["evaluate", "--students", str(students), "--teacher", str(pipeline["teacher"]),
                 "--data", str(pipeline["corpus"]), "--metric", "auc"])


@pytest.mark.parametrize("seeds", [1, 2, 5])
def test_evaluate_smat_auc_runs_one_teacher_prefix_per_length(pipeline, tmp_path, capsys,
                                                              monkeypatch, seeds):
    """The head logits do not depend on phi_T: every seed mixes the same
    prefix, one attention_internals call per length group."""
    calls = []
    internals = MiniTransformer.attention_internals

    def counting(self, token_ids, *args, **kwargs):
        calls.append(len(token_ids))
        return internals(self, token_ids, *args, **kwargs)

    monkeypatch.setattr(MiniTransformer, "attention_internals", counting)
    rng = np.random.default_rng(seeds)
    students = _smat_students(tmp_path, pipeline, [("sparsemax", "all", rng.normal(size=4))
                                                   for _ in range(seeds)])
    assert _evaluate_auc(students, pipeline) == 0
    assert capsys.readouterr().out.count("seed=") == seeds
    lengths = [len(ex.tokens) for ex in load_tsv(str(pipeline["corpus"])).examples]
    assert sorted(calls) == sorted(lengths.count(n) for n in set(lengths))


def test_evaluate_smat_auc_scores_each_seeds_own_explanation(pipeline, tmp_path, capsys, monkeypatch):
    """Seeds of every normalization and both scopes in one call: each seed's
    saliencies are the ones its phi_T alone gives, by bytes, from the list
    form and from the attention prefix of each length group."""
    rng = np.random.default_rng(5)
    phis = [(normalize, scope, rng.normal(size=4 if scope == "all" else 2))
            for normalize in NORMALIZATIONS for scope in SCOPES]
    students = _smat_students(tmp_path, pipeline, phis)
    scored = []
    corpus_auc = cli.metrics.corpus_auc

    def recording(pairs):
        scored.append([np.asarray(scores) for scores, _ in pairs])
        return corpus_auc(pairs)

    monkeypatch.setattr(cli.metrics, "corpus_auc", recording)
    assert _evaluate_auc(students, pipeline) == 0
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("seed=")]
    teacher, vocab = cli._load_teacher(str(pipeline["teacher"]))
    dataset = load_tsv(str(pipeline["corpus"]))
    attach_token_ids(dataset, vocab)
    ids = [ex.token_ids for ex in dataset.examples]
    assert len(scored) == len(phis) == len(printed)
    for (normalize, scope, values), got, line in zip(phis, scored, printed):
        params = ExplainerParams(Tensor(np.asarray(values, dtype=np.float32)), normalize, scope)
        alone = explain_parameterized(teacher, ids, params)
        assert [s.tobytes() for s in got] == [sal.scores.tobytes() for sal in alone]
        for n in {len(seq) for seq in ids}:
            group = [i for i, seq in enumerate(ids) if len(seq) == n]
            with no_grad():
                rows = saliency_from_internals(
                    teacher.attention_internals([ids[i] for i in group]), params).data
            assert [got[i].tobytes() for i in group] == [row.tobytes() for row in rows]
        auc = corpus_auc([(s, ex.rationale) for s, ex in zip(got, dataset.examples)])[0]
        assert line == f"auc={auc:.4f}"


def test_evaluate_smat_auc_checks_every_phi_before_printing(pipeline, tmp_path, capsys):
    """A bad phi_T in the last seed exits 1 before any seed's line is
    printed (each seed used to print before the next phi_T was loaded)."""
    phis = [("sparsemax", "all", np.zeros(4)), ("sparsemax", "all", np.zeros(4)),
            ("sparsemax", "all", np.zeros(5))]
    students = _smat_students(tmp_path, pipeline, phis)
    assert _evaluate_auc(students, pipeline) == 1
    captured = capsys.readouterr()
    assert "seed=" not in captured.out
    assert str(students / "phi_2.smat") in captured.err and "'phi_t'" in captured.err


def test_explain_rejects_a_student_checkpoint_as_phi(pipeline, tmp_path, capsys):
    smat = pipeline["students"]["smat"]
    student = smat / json.loads((smat / "summary.json").read_text())["runs"][0]["student"]
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "parameterized",
        "--phi", str(student), "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert str(student) in err and "kind" in err.replace(str(student), "")


@pytest.mark.parametrize("tensor,echo,field", [
    ("phi_t", {"kind": "model"}, "kind"),
    ("phi", {}, "phi_t"),
    ("phi_t", {"normalize": "bogus"}, "normalize"),
    ("phi_t", {"scope": "first"}, "scope"),
])
def test_explain_rejects_a_bad_phi_file_naming_it(pipeline, tmp_path, capsys, tensor, echo, field):
    smat = pipeline["students"]["smat"]
    good = smat / json.loads((smat / "summary.json").read_text())["runs"][0]["phi_t"]
    phi = tmp_path / "bad.smat"
    save_checkpoint({tensor: load_checkpoint(str(good))["phi_t"]}, str(phi),
                    config_echo={"kind": "phi", "normalize": "sparsemax", "scope": "all", **echo})
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "parameterized",
        "--phi", str(phi), "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert str(phi) in err and field in err.replace(str(phi), "")
    assert not (tmp_path / "x.jsonl").exists()


def test_explain_rejects_a_non_finite_phi_file_naming_it(pipeline, tmp_path, capsys):
    smat = pipeline["students"]["smat"]
    good = smat / json.loads((smat / "summary.json").read_text())["runs"][0]["phi_t"]
    phi = tmp_path / "nan.smat"
    blob = bytearray(good.read_bytes())
    blob[-4:] = struct.pack("<f", float("nan"))  # the last value of phi_t
    phi.write_bytes(bytes(blob))
    (tmp_path / "nan.smat.json").write_bytes(open(f"{good}.json", "rb").read())
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "parameterized",
        "--phi", str(phi), "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert str(phi) in err and "'phi_t' holds NaN or Inf" in err
    assert not (tmp_path / "x.jsonl").exists()


def save_phi(path, entries, scope="all"):
    save_checkpoint({"phi_t": np.zeros(entries, dtype=np.float32)}, str(path),
                    config_echo={"kind": "phi", "normalize": "sparsemax", "scope": scope})


# The teacher has 2 layers x 2 heads: 4 in scope "all", 2 in scope "last".
@pytest.mark.parametrize("entries,scope", [(3, "all"), (4, "last")])
def test_explain_rejects_a_phi_for_other_heads_naming_it(pipeline, tmp_path, capsys, entries, scope):
    phi = tmp_path / "other.smat"
    save_phi(phi, entries, scope)
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "parameterized",
        "--phi", str(phi), "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert str(phi) in err and "'phi_t'" in err.replace(str(phi), "")
    assert not (tmp_path / "x.jsonl").exists()


def test_evaluate_auc_rejects_a_phi_for_other_heads_naming_it(pipeline, tmp_path, capsys):
    summary = json.loads((pipeline["students"]["smat"] / "summary.json").read_text())
    students = tmp_path / "students"
    students.mkdir()
    (students / "summary.json").write_text(json.dumps(summary))
    for run in summary["runs"]:
        (students / run["phi_t"]).parent.mkdir()
        save_phi(students / run["phi_t"], 5)
    code = main([
        "evaluate", "--students", str(students), "--teacher", str(pipeline["teacher"]),
        "--data", str(pipeline["corpus"]), "--metric", "auc",
    ])
    err = capsys.readouterr().err
    first = students / summary["runs"][0]["phi_t"]
    assert code == 1
    assert str(first) in err and "'phi_t'" in err.replace(str(first), "")


def test_explain_static_explainer_rejects_phi(pipeline, tmp_path, capsys):
    smat = pipeline["students"]["smat"]
    phi = smat / json.loads((smat / "summary.json").read_text())["runs"][0]["phi_t"]
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "attn_all",
        "--phi", str(phi), "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert "--phi" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


def test_explain_names_a_data_file_that_is_not_utf8(pipeline, tmp_path, capsys):
    data = tmp_path / "latin.tsv"
    data.write_bytes(b"good \xff movie\t1\n")
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "attn_all",
        "--data", str(data), "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {data}: not valid UTF-8: ")
    assert not (tmp_path / "x.jsonl").exists()


def test_explain_reads_the_word_pad_as_an_unknown_token(pipeline, tmp_path):
    data = tmp_path / "reserved.tsv"
    data.write_text("good <pad> movie\t1\nbad film <PAD>\t0\n<pad>\t1\n")
    out = tmp_path / "x.jsonl"
    code = main([
        "explain", "--model", str(pipeline["teacher"]), "--explainer", "attn_all",
        "--data", str(data), "--format", "jsonl", "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["tokens"] for rec in records] == [
        ["good", "<pad>", "movie"], ["bad", "film", "<pad>"], ["<pad>"]]
    for rec in records:
        assert len(rec["scores"]) == len(rec["tokens"])


def test_explain_jsonl(pipeline, tmp_path):
    out = tmp_path / "expl.jsonl"
    code = main([
        "explain", "--model", str(pipeline["teacher"]),
        "--explainer", "attn_all", "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 160
    for rec in records:
        assert len(rec["tokens"]) == len(rec["scores"])
        assert rec["prediction"] in (0, 1)
        assert abs(sum(rec["scores"]) - 1.0) < 1e-5
        assert "gold_mask" in rec


def test_explain_integrated_gradients_matches_unfrozen_library_run(pipeline, tmp_path):
    data = tmp_path / "few.tsv"
    save_tsv(Dataset(load_tsv(str(pipeline["corpus"])).examples[:4]), str(data))
    out = tmp_path / "ig.jsonl"
    assert main([
        "explain", "--model", str(pipeline["teacher"]),
        "--explainer", "integrated_gradients", "--data", str(data),
        "--format", "jsonl", "--out", str(out),
    ]) == 0

    model, echo = load_model(str(pipeline["teacher"]))
    assert all(t.requires_grad for t in model.params.values())
    dataset = load_tsv(str(data))
    attach_token_ids(dataset, echo["vocab"])
    records = []
    for ex in dataset.examples:
        sal = compute_static_saliency(model, ex.token_ids, "integrated_gradients")
        records.append({
            "tokens": ex.tokens,
            "scores": [float(s) for s in sal.scores],
            "prediction": model.predict(ex.token_ids),
            "gold_label": ex.label,
            "gold_mask": list(ex.rationale),
        })
    want = tmp_path / "library.jsonl"
    export_explanations(records, str(want))
    assert out.read_bytes() == want.read_bytes()


def test_explain_parameterized_requires_phi(pipeline, tmp_path, capsys):
    code = main([
        "explain", "--model", str(pipeline["teacher"]),
        "--explainer", "parameterized", "--data", str(pipeline["corpus"]),
        "--format", "jsonl", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert "--phi" in capsys.readouterr().err


def test_explain_parameterized_with_learned_phi(pipeline, tmp_path):
    summary = json.loads((pipeline["students"]["smat"] / "summary.json").read_text())
    phi = pipeline["students"]["smat"] / summary["runs"][0]["phi_t"]
    out = tmp_path / "learned.jsonl"
    code = main([
        "explain", "--model", str(pipeline["teacher"]),
        "--explainer", "parameterized", "--phi", str(phi),
        "--data", str(pipeline["corpus"]), "--format", "jsonl", "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 160


def test_explain_html_report(pipeline, tmp_path):
    out = tmp_path / "report.html"
    code = main([
        "explain", "--model", str(pipeline["teacher"]),
        "--explainer", "grad_x_input", "--data", str(pipeline["corpus"]),
        "--format", "html", "--out", str(out),
    ])
    assert code == 0
    html = out.read_text()
    first = load_tsv(str(pipeline["corpus"])).examples[0]
    for token in first.tokens:
        assert token in html
    assert "http://" not in html and "https://" not in html


# Each line is one tournament; the members of a tie group ("b=c") draw.
TRUESKILL_RANKINGS = ["alpha,beta,gamma,delta"] * 12 + [
    "beta=gamma,alpha,delta", "alpha,gamma=beta=delta", "alpha,beta,delta=gamma"]
TRUESKILL_STDOUT = """\
alpha: mu=0.584 sigma=0.178 interval=[0.236, 0.932] rank=1
beta: mu=-0.012 sigma=0.118 interval=[-0.243, 0.219] rank=2-3
gamma: mu=-0.179 sigma=0.113 interval=[-0.400, 0.043] rank=2-4
delta: mu=-0.660 sigma=0.158 interval=[-0.969, -0.351] rank=3-4
"""


def test_trueskill_command(tmp_path, capsys):
    rankings = tmp_path / "rankings.txt"
    rankings.write_text("\n".join(TRUESKILL_RANKINGS) + "\n")
    assert main(["trueskill", "--rankings", str(rankings)]) == 0
    assert capsys.readouterr().out == TRUESKILL_STDOUT


def test_trueskill_empty_file_fails(tmp_path, capsys):
    empty = tmp_path / "none.txt"
    empty.write_text("")
    assert main(["trueskill", "--rankings", str(empty)]) == 1
    assert "no rankings" in capsys.readouterr().err


def test_trueskill_names_a_rankings_file_that_is_not_utf8(tmp_path, capsys):
    rankings = tmp_path / "latin.txt"
    rankings.write_bytes(b"alpha,b\xffta\n")
    assert main(["trueskill", "--rankings", str(rankings)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {rankings}: not valid UTF-8: ")


def test_trueskill_names_the_line_that_repeats_a_method(tmp_path, capsys):
    rankings = tmp_path / "rankings.txt"
    rankings.write_text("alpha,beta\n\nbeta,gamma=beta\n")
    assert main(["trueskill", "--rankings", str(rankings)]) == 1
    assert capsys.readouterr() == ("", f"error: {rankings}:3: ranking repeats a method\n")
    rankings.write_text("alpha,beta\nalpha,,beta\n")
    assert main(["trueskill", "--rankings", str(rankings)]) == 1
    assert capsys.readouterr().err == f"error: {rankings}:2: malformed ranking line 'alpha,,beta'\n"


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["make-data", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x.tsv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1]"])
def test_a_config_that_is_not_a_json_object_exits_2_naming_it(tmp_path, capsys, text):
    """The config's reader is the one for sidecars and summary.json, and puts the path first."""
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "x.tsv"
    assert main(["make-data", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}: ")
    assert not out.exists()


def test_unknown_mode_exits_2(pipeline, tmp_path, capsys):
    code = main([
        "train-student", "--config", str(pipeline["config"]),
        "--teacher", str(pipeline["teacher"]),
        "--mode", "distill", "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["smat:x", "none:x", "static", "static:lime"])
def test_a_mode_that_is_not_exact_exits_2_before_any_output(pipeline, tmp_path, capsys, mode):
    """Only the part before ':' used to be checked: "smat:x" and "none:x"
    trained (exit 0) and wrote their mode into summary.json."""
    out = tmp_path / "students"
    assert main(["train-student", "--config", str(pipeline["config"]),
                 "--teacher", str(pipeline["teacher"]), "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: bad train section: unknown mode {mode!r}")
    assert not out.exists()


def test_bad_usage_exits_2(capsys):
    assert main(["evaluate", "--metric", "confidence"]) == 2
    capsys.readouterr()


def test_missing_summary_exits_1(pipeline, tmp_path, capsys):
    code = main([
        "evaluate", "--students", str(tmp_path),
        "--teacher", str(pipeline["teacher"]),
        "--data", str(pipeline["corpus"]), "--metric", "sim",
    ])
    assert code == 1
    assert "summary.json" in capsys.readouterr().err


# Each used to fail with a message that named neither the file nor the field
# ("error: 'mode'", "error: cannot aggregate an empty value list", ...), or,
# for a suffixed mode or a string seed, to exit 0. A string is the file's text.
@pytest.mark.parametrize("metric, summary, named", [
    ("sim", [], "must hold a JSON object"),
    ("sim", "{not json", "not valid JSON: "),
    ("sim", {"runs": [{"seed": 0, "student": "s.smat"}]}, "unknown mode None"),
    ("sim", {"mode": "smat:x", "runs": [{"seed": 0, "student": "s.smat"}]}, "unknown mode 'smat:x'"),
    ("sim", {"mode": "smat"}, "runs must be a non-empty list"),
    ("sim", {"mode": "smat", "runs": []}, "runs must be a non-empty list"),
    ("sim", {"mode": "smat", "runs": ["seed_0"]}, "runs[0] must be an object"),
    ("sim", {"mode": "none", "runs": [{"student": "s.smat"}]}, "runs[0].seed None"),
    ("sim", {"mode": "none", "runs": [{"seed": "0", "student": "s.smat"}]}, "runs[0].seed '0'"),
    ("sim", {"mode": "none", "runs": [{"seed": True, "student": "s.smat"}]}, "runs[0].seed True"),
    ("auc", {"mode": "static:attn_all", "runs": [{"seed": 0}]}, "runs[0].student None"),
    ("auc", {"mode": "smat", "runs": [{"seed": 0, "student": "s.smat", "phi_t": None}]},
     "runs[0].phi_t None"),
])
def test_evaluate_a_malformed_summary_exits_1_naming_the_file_and_the_field(
        pipeline, tmp_path, capsys, metric, summary, named):
    path = tmp_path / "summary.json"
    path.write_text(summary if isinstance(summary, str) else json.dumps(summary))
    code = main(["evaluate", "--students", str(tmp_path), "--teacher", str(pipeline["teacher"]),
                 "--data", str(pipeline["corpus"]), "--metric", metric])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {named}")


def test_explain_names_a_checkpoint_whose_model_section_is_bad(pipeline, tmp_path, capsys):
    model = tmp_path / "bad.smat"
    model.write_bytes(pipeline["teacher"].read_bytes())
    with open(str(pipeline["teacher"]) + ".json") as fh:
        echo = json.load(fh)
    echo["model"]["max_len"] = "x"
    with open(str(model) + ".json", "w") as fh:
        json.dump(echo, fh)
    code = main(["explain", "--model", str(model), "--explainer", "attn_all",
                 "--data", str(pipeline["corpus"]), "--format", "jsonl",
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {model}: bad model.max_len 'x': ")


@pytest.mark.parametrize("sidecar", ["[1]", "{bad", None])
def test_explain_names_a_model_sidecar_that_is_not_a_json_object(pipeline, tmp_path, capsys, sidecar):
    """[1] used to fail with "'list' object has no attribute 'get'", and
    invalid JSON with json's message alone."""
    model = tmp_path / "t.smat"
    model.write_bytes(pipeline["teacher"].read_bytes())
    if sidecar is not None:
        (tmp_path / "t.smat.json").write_text(sidecar)
    code = main(["explain", "--model", str(model), "--explainer", "attn_all",
                 "--data", str(pipeline["corpus"]), "--format", "jsonl",
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {model}.json: ")
    assert not (tmp_path / "out.jsonl").exists()


def test_config_task_mismatch_exits_2(pipeline, tmp_path, capsys):
    cfg = json.loads(pipeline["config"].read_text())
    cfg["model"]["task"] = "regression"
    del cfg["model"]["num_classes"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    corpus_copy = tmp_path / "corpus.tsv"
    corpus_copy.write_bytes(pipeline["corpus"].read_bytes())
    code = main(["train-teacher", "--config", str(bad), "--out", str(tmp_path / "t.smat")])
    assert code == 2
    assert "task" in capsys.readouterr().err


def test_student_task_mismatch_exits_2(pipeline, tmp_path, capsys):
    cfg = json.loads(pipeline["config"].read_text())
    cfg["student_model"]["task"] = "regression"
    del cfg["student_model"]["num_classes"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    code = main(["train-student", "--config", str(bad), "--teacher", str(pipeline["teacher"]),
                 "--mode", "none", "--out", str(tmp_path / "students")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "regression" in err and "classification" in err
    assert not (tmp_path / "students").exists()


@pytest.mark.parametrize("soft_targets", [False, True])
def test_a_student_with_other_num_classes_than_the_teacher_exits_2_before_any_output(
        pipeline, tmp_path, capsys, soft_targets):
    """It used to train a 3-class student of the 2-class teacher (hard
    targets), or exit 1 with "operands could not be broadcast together with
    shapes (32,2) (32,3)" leaving an empty --out (soft targets)."""
    cfg = json.loads(pipeline["config"].read_text())
    cfg["student_model"]["num_classes"] = 3
    cfg["train"]["soft_targets"] = soft_targets
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    out = tmp_path / "students"
    assert main(["train-student", "--config", str(config), "--teacher", str(pipeline["teacher"]),
                 "--mode", "none", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: student num_classes 3 does not match "
                                       "teacher num_classes 2\n")
    assert not out.exists()


def regression_config(pipeline, tmp_path, **train):
    """A regression copy of the pipeline's config, with ``train`` set in its
    train section, beside a regression corpus and a teacher trained on it."""
    cfg = json.loads(pipeline["config"].read_text())
    for section in ("model", "student_model"):
        cfg[section]["task"] = "regression"
        del cfg[section]["num_classes"]
    cfg["train"].update(train)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    corpus = load_tsv(str(pipeline["corpus"]))
    scores = [replace(ex, label=None, score=ex.label - 0.5) for ex in corpus.examples]
    save_tsv(Dataset(examples=scores, task="regression"), str(tmp_path / "corpus.tsv"))
    teacher = tmp_path / "teacher.smat"
    assert main(["train-teacher", "--config", str(config), "--out", str(teacher)]) == 0
    return config, teacher


def test_a_regression_config_trains_without_a_sim_loss_field(pipeline, tmp_path, capsys):
    """The student's task picks its simulation loss: squared error here."""
    config, teacher = regression_config(pipeline, tmp_path)
    out = tmp_path / "students"
    assert main(["train-student", "--config", str(config), "--teacher", str(teacher),
                 "--mode", "smat", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["task"] == "regression"
    capsys.readouterr()


def test_soft_targets_for_a_regression_student_exit_2_before_any_output(pipeline, tmp_path, capsys):
    config, teacher = regression_config(pipeline, tmp_path, soft_targets=True)
    capsys.readouterr()
    out = tmp_path / "students"
    code = main(["train-student", "--config", str(config), "--teacher", str(teacher),
                 "--mode", "smat", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "soft_targets" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("sim_loss", "cross_entropy"),
                                          ("kl_direction", "teacher_to_student"), ("ig_steps", 10)])
def test_a_train_section_that_sets_a_removed_field_exits_2(pipeline, tmp_path, capsys, field, value):
    """The student's task picks its simulation loss, the explanation term is
    always KL(E_T || E_S), and a static teacher explanation always takes
    IG_STEPS_TRAINING path points: none is a train field, even at the value
    it used to default to."""
    cfg = json.loads(pipeline["config"].read_text())
    cfg["train"][field] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    code = main(["train-student", "--config", str(config), "--teacher", str(pipeline["teacher"]),
                 "--mode", "none", "--out", str(tmp_path / "students")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert not (tmp_path / "students").exists()


@pytest.mark.parametrize("command, section, field, value", [
    ("make-data", "data", "n", "many"),
    ("train-teacher", "data", "split_seed", "first"),
    ("train-teacher", "data", "ratios", 0.7),
    ("train-teacher", "data", "ratios", ["a", "b", "c"]),
    ("train-teacher", "data", "min_freq", [1]),
    ("train-student", "data", "student_train_size", "forty"),
    # each of these used to be truncated or converted silently, and ran (exit 0)
    ("make-data", "data", "n", 2.7),
    ("train-teacher", "data", "min_freq", True),
    ("train-teacher", "data", "split_seed", 2.5),
    ("train-teacher", "data", "ratios", [True, 0, 0]),
    ("train-teacher", "data", "ratios", ["0.7", "0.15", "0.15"]),
    ("train-student", "data", "student_train_size", 40.5),
    ("train-student", "data", "student_train_size", 0),
    ("make-data", "data.synthetic", "vocab_size", 40.5),
    ("make-data", "data.synthetic", "min_len", True),
    ("make-data", "data.synthetic", "max_len", "8"),
    ("make-data", "data.synthetic", "noise_ratio", "0.5"),
    ("make-data", "data.synthetic", "seed", 2.5),
    # True == 1 and -1.0 == -1, so these used to generate labels
    ("make-data", "data.synthetic", "cue_lexicon", {"good": True, "bad": -1}),
    ("make-data", "data.synthetic", "cue_lexicon", {"good": 1, "bad": -1.0}),
    # used to exit 1 with "'list' object has no attribute 'items'"
    ("make-data", "data.synthetic", "cue_lexicon", ["good", "bad"]),
    ("train-teacher", "teacher_train", "lr", "fast"),
    ("train-teacher", "teacher_train", "momentum", None),
    ("train-teacher", "teacher_train", "steps", "many"),
    ("train-teacher", "teacher_train", "batch_size", {}),
    ("train-teacher", "teacher_train", "seed", "s"),
    ("train-teacher", "teacher_train", "seed", True),  # trained with seed 1
    ("train-teacher", "teacher_train", "seed", 2.5),  # trained with seed 2
    ("train-teacher", "teacher_train", "seed", -1),
    ("train-teacher", "teacher_train", "steps", -1),
    ("train-teacher", "teacher_train", "steps", 2.5),
    ("train-teacher", "teacher_train", "batch_size", 0),
    ("train-teacher", "teacher_train", "batch_size", True),
    ("train-teacher", "teacher_train", "lr", True),
    ("train-teacher", "teacher_train", "momentum", False),
    ("train-teacher", "model", "vocab_size", "big"),
    ("train-student", "student_model", "vocab_size", [40]),
    # json reads NaN and Infinity: these used to exit 1 naming an autodiff op
    # ("non-finite values produced by 'gather_rows'"), or, for the ratios, train
    ("train-teacher", "teacher_train", "lr", float("nan")),
    ("train-teacher", "teacher_train", "momentum", float("inf")),
    ("train-student", "train", "eta_inner", float("nan")),
    ("train-student", "train", "eta_outer", float("-inf")),
    ("train-student", "train", "beta", float("nan")),
    ("train-student", "train", "beta", float("inf")),
    ("train-teacher", "data", "ratios", [float("nan"), 0.15, 0.15]),
    ("make-data", "data.synthetic", "noise_ratio", float("nan")),
])
def test_a_malformed_number_in_a_config_section_exits_2_naming_it(
        pipeline, tmp_path, capsys, command, section, field, value):
    assert_exits_2_naming(pipeline, tmp_path, capsys, command, section, field, value)


# A wrong type in the train section, each once; "soft_targets": "no" used to
# train with soft targets, because the field was read by truthiness.
@pytest.mark.parametrize("field, value", [
    ("soft_targets", "no"),
    ("soft_targets", 1),
    ("steps", True),
    ("steps", 2.5),
    ("batch_size", 4.5),
    ("seed", True),
    ("eval_every", False),
    ("beta", True),
    ("beta", "5"),
    ("eta_inner", "0.1"),
    ("eta_outer", True),
])
def test_a_train_field_of_the_wrong_type_exits_2_naming_it(pipeline, tmp_path, capsys, field, value):
    assert_exits_2_naming(pipeline, tmp_path, capsys, "train-student", "train", field, value)


# Each integer field of both model sections, each wrong once: true and 2.5
# used to reach numpy (exit 1, after --out was made), and "2" exited 2 with a
# message that named the section, not the field.
@pytest.mark.parametrize("value", ["2", True, 2.5, 0])
@pytest.mark.parametrize("field", ["vocab_size", "max_len", "num_layers", "heads_per_layer",
                                   "model_dim", "head_dim", "ffn_dim", "num_classes"])
@pytest.mark.parametrize("command, section", [("train-teacher", "model"),
                                              ("train-student", "student_model")])
def test_a_model_field_of_the_wrong_type_exits_2_naming_it(
        pipeline, tmp_path, capsys, command, section, field, value):
    assert_exits_2_naming(pipeline, tmp_path, capsys, command, section, field, value)


def assert_exits_2_naming(pipeline, tmp_path, capsys, command, section, field, value):
    """``command`` on the pipeline's config with ``section.field`` set to
    ``value`` exits 2 naming the field, before it writes its output. A
    dotted ``section`` names a nested one."""
    cfg = json.loads(pipeline["config"].read_text())
    part = cfg
    for name in section.split("."):
        part = part[name]
    part[field] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "train-student":
        argv += ["--teacher", str(pipeline["teacher"]), "--mode", "none"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f" {section}.{field} " in err
    assert not out.exists()


def test_a_synthetic_seed_that_is_not_an_integer_exits_2_naming_it(pipeline, tmp_path, capsys):
    cfg = json.loads(pipeline["config"].read_text())
    cfg["data"]["synthetic"]["seed"] = "x"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "corpus.tsv"
    assert main(["make-data", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad data.synthetic.seed 'x': must be an integer")
    assert not out.exists()


@pytest.mark.parametrize("synthetic", [[0], {"seed": 0, "min_len": 9, "max_len": 8},
                                       {"seed": 0, "cues": {"good": 1}}])
def test_a_non_field_synthetic_error_exits_2_naming_the_section(pipeline, tmp_path, capsys,
                                                                 synthetic):
    cfg = json.loads(pipeline["config"].read_text())
    cfg["data"]["synthetic"] = synthetic
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "corpus.tsv"
    assert main(["make-data", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad data.synthetic section: ")
    assert not out.exists()


@pytest.mark.parametrize("command, section", [("train-teacher", "teacher_train"),
                                              ("train-teacher", "model"),
                                              ("train-student", "train"),
                                              ("train-student", "student_model")])
def test_an_unknown_field_exits_2_naming_the_section(pipeline, tmp_path, capsys, command, section):
    """teacher_train used to keep only the fields it knew, and trained (exit 0)."""
    cfg = json.loads(pipeline["config"].read_text())
    cfg[section]["lr_typo"] = 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "train-student":
        argv += ["--teacher", str(pipeline["teacher"]), "--mode", "none"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {section} section: ") and "lr_typo" in err
    assert not out.exists()


def test_a_label_out_of_the_models_range_is_a_runtime_error(pipeline, tmp_path, capsys):
    """A label the model has no class for is in the data, not the config: exit 1."""
    corpus = load_tsv(str(pipeline["corpus"]))
    save_tsv(Dataset(examples=[replace(ex, label=2) for ex in corpus.examples]),
             str(tmp_path / "corpus.tsv"))
    config = tmp_path / "config.json"
    config.write_bytes(pipeline["config"].read_bytes())
    out = tmp_path / "teacher.smat"
    assert main(["train-teacher", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'corpus.tsv'}: example 1 has label 2, "
                                       f"outside the 2 classes of model.num_classes\n")
    assert not out.exists()


@pytest.mark.parametrize("label", [-1, 2])
def test_train_teacher_names_the_file_and_the_first_label_out_of_range_before_training(
        pipeline, tmp_path, capsys, monkeypatch, label):
    """It used to fail only once a batch drew such an example, with "target
    [2, 2, 2, 0, ...] out of range for 2 classes", naming neither the file
    nor the example."""
    corpus = load_tsv(str(pipeline["corpus"]))
    examples = list(corpus.examples)
    examples[2] = replace(examples[2], label=label)
    save_tsv(Dataset(examples=examples), str(tmp_path / "corpus.tsv"))
    config = tmp_path / "config.json"
    config.write_bytes(pipeline["config"].read_bytes())
    monkeypatch.setattr(cli.training, "train_supervised", lambda *a, **k: pytest.fail("trained"))
    out = tmp_path / "teacher.smat"
    assert main(["train-teacher", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'corpus.tsv'}: example 3 has label "
                                       f"{label}, outside the 2 classes of model.num_classes\n")
    assert not out.exists()


def with_ratios(pipeline, tmp_path, ratios):
    """A copy of the pipeline's config with ``data.ratios`` set, beside its corpus."""
    cfg = json.loads(pipeline["config"].read_text())
    cfg["data"]["ratios"] = ratios
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    (tmp_path / "corpus.tsv").write_bytes(pipeline["corpus"].read_bytes())
    return config


@pytest.mark.parametrize("ratios, empty", [([1, 0, 0], "dev"), ([0.7, 0.3, 0], "test"),
                                           ([0.7, 0, 0.3], "dev")])
def test_train_student_on_an_empty_split_exits_2_before_any_output(
        pipeline, tmp_path, capsys, ratios, empty):
    """It used to exit 1, leaving an empty --out ([1, 0, 0]) or a seed_0
    student with no run.json or summary.json ([0.7, 0.3, 0])."""
    config = with_ratios(pipeline, tmp_path, ratios)
    out = tmp_path / "students"
    assert main(["train-student", "--config", str(config), "--teacher", str(pipeline["teacher"]),
                 "--mode", "smat", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: data.ratios ") and f" the {empty} split " in err
    assert not out.exists()


def test_train_teacher_on_an_empty_train_split_exits_2_and_allows_an_empty_test_split(
        pipeline, tmp_path, capsys):
    out = tmp_path / "teacher.smat"
    config = with_ratios(pipeline, tmp_path, [0, 0.5, 0.5])
    assert main(["train-teacher", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: data.ratios ") and " the train split " in err
    assert not out.exists()
    config = with_ratios(pipeline, tmp_path, [0.7, 0.3, 0])
    assert main(["train-teacher", "--config", str(config), "--out", str(out)]) == 0
    assert "test_acc=nan" in capsys.readouterr().out


@pytest.mark.parametrize("ratios, short", [([0.9, 0.09, 0.01], "test"), ([0.9, 0.01, 0.09], "dev")])
def test_a_regression_train_student_with_one_dev_or_test_example_exits_2_before_any_output(
        pipeline, tmp_path, capsys, ratios, short):
    """Pearson correlation needs two examples: it used to train, write
    seed_0/student.smat and exit 1 with "a side has zero variance"."""
    config, teacher = regression_config(pipeline, tmp_path)
    cfg = json.loads(config.read_text())
    cfg["data"]["ratios"] = ratios
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    out = tmp_path / "students"
    assert main(["train-student", "--config", str(config), "--teacher", str(teacher),
                 "--mode", "none", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: data.ratios {ratios} leave the {short} split 1 of "
                   "160 examples; it needs 2\n")
    assert not out.exists()


def with_a_long_line(pipeline, tmp_path, tokens, **student_model):
    """A copy of the pipeline's config, ``student_model`` set in its
    student_model section and the whole train split used, beside its corpus
    with one more line of ``tokens`` tokens."""
    cfg = json.loads(pipeline["config"].read_text())
    cfg["data"]["student_train_size"] = None
    cfg["student_model"].update(student_model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    corpus = pipeline["corpus"].read_text() + " ".join(["good"] * tokens) + "\t1\n"
    (tmp_path / "corpus.tsv").write_text(corpus)
    return config


@pytest.mark.parametrize("student_max_len, model, limit", [(9, "student", 9), (12, "teacher", 8)])
def test_train_student_on_a_sequence_longer_than_a_max_len_exits_2_naming_the_split_and_model(
        pipeline, tmp_path, capsys, student_max_len, model, limit):
    """It used to exit 1 with "sequence length 10 exceeds max_len", after
    --out was made."""
    config = with_a_long_line(pipeline, tmp_path, 10, max_len=student_max_len)
    out = tmp_path / "students"
    assert main(["train-student", "--config", str(config), "--teacher", str(pipeline["teacher"]),
                 "--mode", "smat", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"config error: the (train|dev|test) split holds a sequence of 10 tokens, "
                    rf"more than the {model}'s max_len {limit}\n", err), err
    assert not out.exists()


def test_train_teacher_on_a_sequence_longer_than_max_len_exits_2_naming_it(
        pipeline, tmp_path, capsys):
    config = with_a_long_line(pipeline, tmp_path, 10)
    out = tmp_path / "teacher.smat"
    assert main(["train-teacher", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: model.max_len 8 is less than the longest "
                                       "sequence of the data, 10 tokens\n")
    assert not out.exists()


def test_explain_and_evaluate_name_the_data_file_and_the_first_example_too_long(
        pipeline, tmp_path, capsys):
    """They used to exit 1 with "sequence length 10 exceeds max_len 8",
    naming neither the file nor the example."""
    data = tmp_path / "long.tsv"
    data.write_text("good movie\t1\t1 0\n" + " ".join(["bad"] * 10) + "\t0\t" +
                    " ".join(["1"] * 10) + "\n")
    teacher = pipeline["teacher"]
    out = tmp_path / "x.jsonl"
    assert main(["explain", "--model", str(teacher), "--explainer", "attn_all",
                 "--data", str(data), "--format", "jsonl", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {data}: example 2 has 10 tokens, more than the "
                                       f"max_len 8 of the model {teacher}\n")
    assert not out.exists()
    for metric in ("sim", "auc"):
        assert main(["evaluate", "--students", str(pipeline["students"]["smat"]),
                     "--teacher", str(teacher), "--data", str(data), "--metric", metric]) == 1
        assert capsys.readouterr().err == (f"error: {data}: example 2 has 10 tokens, more than "
                                           f"the max_len 8 of the teacher {teacher}\n")


def test_evaluate_sim_names_a_student_whose_max_len_a_sequence_exceeds(pipeline, tmp_path, capsys):
    student = MiniTransformer(replace(
        load_model(str(pipeline["students"]["none"] / "seed_0" / "student.smat"))[0].config,
        max_len=6), seed=0)
    save_model(student, str(tmp_path / "student.smat"))
    (tmp_path / "summary.json").write_text(json.dumps(
        {"mode": "none", "runs": [{"seed": 0, "student": "student.smat"}]}))
    data = tmp_path / "seven.tsv"
    data.write_text(" ".join(["good"] * 7) + "\t1\n")
    assert main(["evaluate", "--students", str(tmp_path), "--teacher", str(pipeline["teacher"]),
                 "--data", str(data), "--metric", "sim"]) == 1
    assert capsys.readouterr().err == (f"error: {data}: example 1 has 7 tokens, more than the "
                                       f"max_len 6 of the student {tmp_path / 'student.smat'}\n")


# ---------------------------------------------------------------------------
# explain: one teacher forward per length group gives scores and predictions

EXPLAINERS = [*STATIC_EXPLAINERS, "parameterized"]

# sha256 of `smat explain`'s output for the explain_inputs cases, recorded
# from the two-pass export (explain, then a separate `predict` call): an
# oracle independent of the one-pass path. Like the acceptance criteria,
# they rest on float32 rounding with OpenBLAS 0.3.31.
EXPLAIN_SHA256 = {
    "classification/attn_all.html": "9dad2c29d5dda10b54897f2aa3957255b9cddf97c9c7025c47ccde409332e52a",
    "classification/attn_all.jsonl": "dc0ed7f0a3a7e3c81b48d6bc4e474ceec5c776879a9f0702f4b47e59bdb88237",
    "classification/attn_last.html": "4b5be3732e880ee31427af07c92465af99e01fcc63e994d8a3ab1f5ce9d5c742",
    "classification/attn_last.jsonl": "4542ba458937b25283d07db662ab24acd5d35958a70f1c244039ea9070b923a4",
    "classification/grad_l2.html": "1c9c430c29574d679a969dc399f9a4dde69378c28c8c89fea021e0f1cb15c4bc",
    "classification/grad_l2.jsonl": "e9679c8208d107fb2bd65bd0c42bfb7256bbe237b6ed640deeb2da06e7601acb",
    "classification/grad_x_input.html": "d9f24bda7edd1bd21bc5de15a401d7daf9a9461ec371aa9cfd1d5733b7f86499",
    "classification/grad_x_input.jsonl": "5fc960bfd8088a4c8cdc11d67fc73d13f7f7511e24fd53164ab51558b979ca2e",
    "classification/integrated_gradients.html": "0a5e605c2f3341d55ef3fd04f8723f640677d712b3958b6f3e10b78f6c552d11",
    "classification/integrated_gradients.jsonl": "46fbfc913ba572c4b87d2df8ab5b8941edb1b12247481e079da6a87be021dbfe",
    "classification/parameterized.html": "e54a6243f265654631f9a81dc6740ec205fab9cea252dac823696dada175066f",
    "classification/parameterized.jsonl": "78e9199dd8f89d63baadc526a1de5f41d7198cbc72bb01d626d1e0de0ed070fe",
    "regression/attn_all.html": "a807befcafb9911b89f05f34e05eccefa218573131afee7b6807764b0ece37c5",
    "regression/attn_all.jsonl": "e9685483dfcb3beaf2bc580f7851f9708090fd8b159972d263318a4c3867eb9f",
    "regression/attn_last.html": "599195c3770b22ec56481cb244c7850f6a7a17acfaac8fa1aa8b067a57008a5b",
    "regression/attn_last.jsonl": "b128fb0741e4340acda20466ca052dfacf2abcfdaeb713024f697e8687cee873",
    "regression/grad_l2.html": "0a8d875d04e06e2fc6ae044ca7606a3633f9fb49619de84bb1fac59a8ec06a09",
    "regression/grad_l2.jsonl": "07877f00cb2a2635f5cbd6c8b3e9a69039d9438c3f11911225e8c1c074acbfb6",
    "regression/grad_x_input.html": "6303c1dd9530678cb1fe7f0f63c657e56e9eeafef1c42ffd2f7f15df5fcd3d21",
    "regression/grad_x_input.jsonl": "2a7d66b6e35051d04a49849ec1bd0f1e2d1214417d9daf14e13347d830224313",
    "regression/integrated_gradients.html": "df0f8fe6be9ba1cdc4c954532e9d5a1a8b3f73b53675971decd0ae55dbaedd25",
    "regression/integrated_gradients.jsonl": "f5fe41018a02bac8a703b482e0e5ec6e9bab53cfc60d7b2680f7f905f9b3da64",
    "regression/parameterized.html": "4944d4a4856f3fab75689d5f1cdac822b796541c8d37c669da57a3764f341495",
    "regression/parameterized.jsonl": "47e4a3bfb9a8926f88b25f5b53ef387655d739834cbca1df600bc46e14f588d3",
}


@pytest.fixture(scope="module")
def explain_inputs(pipeline, tmp_path_factory):
    """Per task: its teacher, a 48-example data file in 4 lengths and a phi_T."""
    root = tmp_path_factory.mktemp("explain")
    (root / "regression").mkdir()
    _, regression_teacher = regression_config(pipeline, root / "regression")
    cases = {}
    for task, teacher, corpus in (
            ("classification", pipeline["teacher"], pipeline["corpus"]),
            ("regression", regression_teacher, root / "regression" / "corpus.tsv")):
        data, phi = root / f"{task}.tsv", root / f"{task}_phi.smat"
        save_tsv(Dataset(load_tsv(str(corpus)).examples[:48], task=task), str(data))
        save_checkpoint({"phi_t": np.array([0.4, -0.2, 0.1, 0.3], dtype=np.float32)}, str(phi),
                        config_echo={"kind": "phi", "normalize": "sparsemax", "scope": "all"})
        cases[task] = {"teacher": teacher, "data": data, "phi": phi}
    return cases


def explain_argv(case, explainer, fmt, out):
    phi = ["--phi", str(case["phi"])] if explainer == "parameterized" else []
    return ["explain", "--model", str(case["teacher"]), "--explainer", explainer, *phi,
            "--data", str(case["data"]), "--format", fmt, "--out", str(out)]


@pytest.mark.parametrize("explainer", EXPLAINERS)
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_explain_output_has_its_recorded_bytes(explain_inputs, tmp_path, task, explainer):
    got, want = {}, {}
    for fmt in ("jsonl", "html"):
        out = tmp_path / f"out.{fmt}"
        assert main(explain_argv(explain_inputs[task], explainer, fmt, out)) == 0
        key = f"{task}/{explainer}.{fmt}"
        got[key], want[key] = hashlib.sha256(out.read_bytes()).hexdigest(), EXPLAIN_SHA256.get(key)
    assert got == want


@pytest.mark.parametrize("explainer", EXPLAINERS)
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_explain_takes_each_prediction_from_the_forward_that_explains_it(
        explain_inputs, tmp_path, monkeypatch, task, explainer):
    """No predict call; an attention explainer runs one full forward per
    length group, and a gradient explainer only its path graphs."""
    calls = dict.fromkeys(("predict", "forward", "attention_internals"), 0)
    for name in calls:
        def counting(self, *args, _name=name, _run=getattr(MiniTransformer, name), **kwargs):
            calls[_name] += 1
            return _run(self, *args, **kwargs)
        monkeypatch.setattr(MiniTransformer, name, counting)
    case = explain_inputs[task]
    assert main(explain_argv(case, explainer, "jsonl", tmp_path / "out.jsonl")) == 0
    lengths = {len(ex.tokens) for ex in load_tsv(str(case["data"])).examples}
    assert len(lengths) == 4
    forwards = len(lengths) if explainer in ATTENTION_EXPLAINERS else 0
    assert calls == {"predict": 0, "forward": forwards, "attention_internals": 0}
