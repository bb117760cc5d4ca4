"""Synthetic corpus, TSV loading, checkpoint format, exports, splitting."""

import json
import math
import re
import struct

import numpy as np
import pytest

from smat.data import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    DataError,
    Example,
    SyntheticSpec,
    attach_token_ids,
    build_vocab,
    encode_tokens,
    export_explanations,
    generate_synthetic,
    load_checkpoint,
    load_config_echo,
    load_model,
    load_tsv,
    read_json,
    render_html_report,
    save_checkpoint,
    save_model,
    save_tsv,
    split_dataset,
)
from smat.model import FieldError
from conftest import tiny_model


def default_spec(seed=0, **overrides):
    return SyntheticSpec(seed=seed, **overrides)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthetic_is_deterministic():
    a = generate_synthetic(default_spec(seed=3), 50)
    b = generate_synthetic(default_spec(seed=3), 50)
    assert [ex.tokens for ex in a.examples] == [ex.tokens for ex in b.examples]
    assert [ex.label for ex in a.examples] == [ex.label for ex in b.examples]
    c = generate_synthetic(default_spec(seed=4), 50)
    assert [ex.tokens for ex in a.examples] != [ex.tokens for ex in c.examples]


def test_synthetic_labels_masks_consistent():
    """Label is the sign of the summed cue polarities; mask marks the cues."""
    spec = default_spec(seed=1)
    data = generate_synthetic(spec, 200)
    for ex in data.examples:
        polarity = sum(spec.cue_lexicon.get(tok, 0) for tok in ex.tokens)
        assert polarity != 0
        assert ex.label == (1 if polarity > 0 else 0)
        want_mask = [1 if tok in spec.cue_lexicon else 0 for tok in ex.tokens]
        assert ex.rationale == want_mask
        assert sum(want_mask) >= 1
        assert spec.min_len <= len(ex.tokens) <= spec.max_len


def test_synthetic_flipping_cues_flips_label():
    """Swapping every cue for an opposite-polarity cue negates the sum."""
    spec = default_spec(seed=2)
    pos = sorted(t for t, v in spec.cue_lexicon.items() if v > 0)
    neg = sorted(t for t, v in spec.cue_lexicon.items() if v < 0)
    swap = dict(zip(pos, neg)) | dict(zip(neg, pos))
    data = generate_synthetic(spec, 100)
    for ex in data.examples:
        flipped = [swap.get(tok, tok) for tok in ex.tokens]
        polarity = sum(spec.cue_lexicon.get(tok, 0) for tok in flipped)
        flipped_label = 1 if polarity > 0 else 0
        assert flipped_label == 1 - ex.label


def test_synthetic_class_balance():
    for seed in range(5):
        data = generate_synthetic(default_spec(seed=seed), 10000)
        rate = sum(ex.label for ex in data.examples) / len(data.examples)
        assert 0.45 <= rate <= 0.55, f"seed {seed}: positive rate {rate}"


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(cue_lexicon={"good": 2})  # polarity must be +-1
    with pytest.raises(ValueError):
        SyntheticSpec(min_len=0)
    with pytest.raises(ValueError):
        SyntheticSpec(min_len=8, max_len=4)
    with pytest.raises(ValueError):
        SyntheticSpec(vocab_size=6)  # too small to fit cues plus noise


@pytest.mark.parametrize("seed", ["x", 1.5, None, True, [1, 2]])
def test_synthetic_spec_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(FieldError, match=r"^seed .*: must be an integer$"):
        SyntheticSpec(seed=seed)
    assert SyntheticSpec(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("field, value", [("vocab_size", 40.5), ("min_len", True),
                                          ("max_len", "8"), ("seed", -1), ("noise_ratio", "0.5"),
                                          ("noise_ratio", False)])
def test_synthetic_spec_checks_each_number_field_by_type(field, value):
    with pytest.raises(FieldError, match=rf"^{field} "):
        SyntheticSpec(**{field: value})
    spec = SyntheticSpec(vocab_size=40.0, max_len=np.int64(8))
    assert (spec.vocab_size, spec.max_len) == (40, 8) and type(spec.vocab_size) is int


@pytest.mark.parametrize("lexicon, word", [({"good": True, "bad": -1}, "good"),
                                           ({"good": 1, "bad": -1.0}, "bad"),
                                           ({"good": 1, "bad": "-1"}, "bad")])
def test_a_cue_polarity_must_be_the_integer_1_or_minus_1(lexicon, word):
    """True == 1 and -1.0 == -1, so both used to pass as polarities."""
    with pytest.raises(FieldError, match="^" + re.escape(f"cue_lexicon {{{word!r}: ")):
        SyntheticSpec(cue_lexicon=lexicon, vocab_size=20)
    assert SyntheticSpec(cue_lexicon={"good": np.int64(1), "bad": -1}, vocab_size=20)


def test_a_cue_lexicon_that_is_not_a_mapping_is_a_field_error():
    """A list used to fail in generation with "'list' object has no attribute 'items'"."""
    with pytest.raises(FieldError, match="^" + re.escape("cue_lexicon ['good', 'bad']: ")):
        SyntheticSpec(cue_lexicon=["good", "bad"])


def test_example_validates_rationale_length():
    with pytest.raises(ValueError):
        Example(tokens=["a", "b"], label=1, rationale=[1, 0, 0])


# ---------------------------------------------------------------------------
# vocabulary and TSV


def test_build_vocab_reserves_special_ids():
    data = generate_synthetic(default_spec(), 30)
    vocab = build_vocab(data.examples)
    assert vocab["<pad>"] == 0
    assert vocab["<unk>"] == 1
    assert len(set(vocab.values())) == len(vocab)


def test_encode_maps_unseen_to_unk():
    vocab = {"<pad>": 0, "<unk>": 1, "good": 2}
    assert encode_tokens(["good", "zebra"], vocab) == [2, 1]


def test_reserved_words_in_the_data_keep_their_ids_and_never_encode_as_padding(tmp_path):
    path = tmp_path / "reserved.tsv"
    path.write_text("good <pad> film\t1\n<PAD> movie <unk>\t0\ngood movie <pad>\t1\n")
    data = load_tsv(str(path))
    vocab = build_vocab(data.examples)
    assert vocab == {"<pad>": 0, "<unk>": 1, "good": 2, "movie": 3, "film": 4}
    assert len(set(vocab.values())) == len(vocab)
    attach_token_ids(data, vocab)
    assert [ex.token_ids for ex in data.examples] == [[2, 1, 4], [1, 3, 1], [2, 3, 1]]
    assert encode_tokens(["<pad>", "<unk>", "good"], vocab) == [1, 1, 2]


def test_tsv_round_trip(tmp_path):
    data = generate_synthetic(default_spec(seed=5), 20)
    path = str(tmp_path / "data.tsv")
    save_tsv(data, path)
    back = load_tsv(path)
    assert [ex.tokens for ex in back.examples] == [ex.tokens for ex in data.examples]
    assert [ex.label for ex in back.examples] == [ex.label for ex in data.examples]
    assert [ex.rationale for ex in back.examples] == [ex.rationale for ex in data.examples]


def test_tsv_basic_line(tmp_path):
    path = tmp_path / "mini.tsv"
    path.write_text("Good movie\t1\n", encoding="utf-8")
    data = load_tsv(str(path))
    assert data.examples[0].tokens == ["good", "movie"]
    assert data.examples[0].label == 1


def test_tsv_rationale_length_checked(tmp_path):
    ok = tmp_path / "ok.tsv"
    ok.write_text("good movie\t1\t1 0\n", encoding="utf-8")
    assert load_tsv(str(ok)).examples[0].rationale == [1, 0]
    bad = tmp_path / "bad.tsv"
    bad.write_text("good movie\t1\t1 0 1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.tsv:1: "):
        load_tsv(str(bad))


def test_tsv_malformed_line_reports_number(tmp_path):
    path = tmp_path / "broken.tsv"
    path.write_text("good\t1\nbad line without tab\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"broken\.tsv:2: "):
        load_tsv(str(path))


def test_tsv_that_is_not_utf8_names_its_file(tmp_path):
    path = tmp_path / "latin.tsv"
    path.write_bytes(b"good \xff movie\t1\n")
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: not valid UTF-8: ")):
        load_tsv(str(path))


def test_tsv_crlf_and_cr_line_ends_read_as_newlines(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"good movie\t1\r\nbad one\t0\rfine film\t1\r\n")
    data = load_tsv(str(path))
    assert [ex.tokens for ex in data.examples] == [["good", "movie"], ["bad", "one"], ["fine", "film"]]
    assert [ex.label for ex in data.examples] == [1, 0, 1]


def test_tsv_float_labels_mean_regression(tmp_path):
    path = tmp_path / "reg.tsv"
    path.write_text("good movie\t0.75\nbad one\t-0.2\n", encoding="utf-8")
    data = load_tsv(str(path))
    assert data.task == "regression"
    assert data.examples[0].score == pytest.approx(0.75)


def test_attach_token_ids():
    data = generate_synthetic(default_spec(), 10)
    vocab = build_vocab(data.examples)
    with_ids = attach_token_ids(data, vocab)
    for ex in with_ids.examples:
        assert ex.token_ids == encode_tokens(ex.tokens, vocab)


# ---------------------------------------------------------------------------
# dataset splitting


def test_split_partitions_exactly():
    data = generate_synthetic(default_spec(seed=6), 100)
    splits = split_dataset(data, seed=0)
    assert len(splits.train) == 70
    assert len(splits.dev) == 15
    assert len(splits.test) == 15
    seen = [tuple(ex.tokens) for part in (splits.train, splits.dev, splits.test) for ex in part]
    assert len(seen) == 100


def test_split_is_pure_function_of_seed():
    data = generate_synthetic(default_spec(seed=7), 60)
    a = split_dataset(data, seed=1)
    b = split_dataset(data, seed=1)
    c = split_dataset(data, seed=2)
    assert [ex.tokens for ex in a.train] == [ex.tokens for ex in b.train]
    assert [ex.tokens for ex in a.train] != [ex.tokens for ex in c.train]


def test_split_custom_ratios():
    data = generate_synthetic(default_spec(seed=8), 40)
    splits = split_dataset(data, seed=0, ratios=(0.5, 0.25, 0.25))
    assert (len(splits.train), len(splits.dev), len(splits.test)) == (20, 10, 10)
    with pytest.raises(ValueError):
        split_dataset(data, seed=0, ratios=(0.9, 0.2, 0.2))


@pytest.mark.parametrize("ratios", [(math.nan, 0.15, 0.15), (0.7, math.nan, 0.15),
                                    (math.inf, 0.15, 0.15)])
def test_a_non_finite_split_ratio_is_refused(ratios):
    """(nan, 0.15, 0.15) used to split 112/24/24: the sum check is false for
    NaN, and the train share is never read."""
    data = generate_synthetic(default_spec(seed=8), 40)
    with pytest.raises(DataError, match="three finite non-negatives"):
        split_dataset(data, seed=0, ratios=ratios)


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    tensors = {
        "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "b.bias": rng.normal(size=5).astype(np.float32),
        "c.scalar": np.float32(2.5).reshape(()),
    }
    path = str(tmp_path / "model.smat")
    save_checkpoint(tensors, path)
    back = load_checkpoint(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].shape == np.asarray(arr).shape
        assert np.array_equal(back[name], np.asarray(arr, dtype=np.float32))


def test_checkpoint_saves_exact_casts(tmp_path):
    tensors = {"ids": np.arange(6, dtype=np.int64).reshape(2, 3), "half": np.full(3, 0.5)}
    path = str(tmp_path / "exact.smat")
    save_checkpoint(tensors, path)
    back = load_checkpoint(path)
    for name, arr in tensors.items():
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name], arr)


def test_checkpoint_refuses_lossy_cast(tmp_path):
    path = tmp_path / "lossy.smat"
    tensors = {"ok": np.ones(2, dtype=np.float32), "w": np.array([1.0, 1.0 + 1e-12])}
    with pytest.raises(CheckpointError, match="'w'.*float64"):
        save_checkpoint(tensors, str(path))
    assert not path.exists()
    with pytest.raises(CheckpointError, match="'big'.*int64"):
        save_checkpoint({"big": np.array([2**24 + 1], dtype=np.int64)}, str(path))
    with pytest.raises(CheckpointError, match="float64"):
        save_model(tiny_model(seed=11, dtype=np.float64), str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_to_save_non_finite_values(tmp_path, bad):
    path = tmp_path / "bad.smat"
    tensors = {"ok": np.ones(2, dtype=np.float32), "w": np.array([1.0, bad], dtype=np.float32)}
    with pytest.raises(CheckpointError, match="'w'") as err:
        save_checkpoint(tensors, str(path), config_echo={"kind": "test"})
    assert str(path) in str(err.value) and "'ok'" not in str(err.value)
    assert not path.exists() and not (tmp_path / "bad.smat.json").exists()


def test_model_save_refuses_non_finite_parameters(tmp_path):
    model = tiny_model(seed=11, dtype=np.float32)
    name = model.param_names()[-1]
    model.params[name].data[...] = np.nan  # as an overflowing update would leave it
    path = tmp_path / "enc.smat"
    with pytest.raises(CheckpointError, match=repr(name)):
        save_model(model, str(path))
    assert not path.exists() and not (tmp_path / "enc.smat.json").exists()


def _write_non_finite_value(path, bad):
    """Overwrite a checkpoint's last float32 value in place."""
    blob = bytearray(open(path, "rb").read())
    blob[-4:] = struct.pack("<f", bad)
    open(path, "wb").write(bytes(blob))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_to_load_non_finite_values(tmp_path, bad):
    path = str(tmp_path / "model.smat")
    save_checkpoint({"a": np.ones(3, dtype=np.float32), "w": np.ones((2, 2), dtype=np.float32)}, path)
    _write_non_finite_value(path, bad)
    with pytest.raises(CheckpointError, match=f"{path}: tensor 'w' holds NaN or Inf"):
        load_checkpoint(path)


def test_model_load_refuses_non_finite_parameters(tmp_path):
    model = tiny_model(seed=11, dtype=np.float32)
    path = str(tmp_path / "enc.smat")
    save_model(model, path)
    _write_non_finite_value(path, np.nan)
    last = model.param_names()[-1]
    with pytest.raises(CheckpointError, match=f"{path}: tensor {last!r}"):
        load_model(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = str(tmp_path / "model.smat")
    save_checkpoint({"w": np.ones((2, 2), dtype=np.float32)}, path)
    blob = open(path, "rb").read()
    for cut in (len(blob) - 1, len(blob) // 2, 3):
        clipped = tmp_path / f"cut{cut}.smat"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(clipped))


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = str(tmp_path / "model.smat")
    save_checkpoint({"w": np.ones(2, dtype=np.float32)}, path)
    blob = bytearray(open(path, "rb").read())
    wrong_magic = tmp_path / "magic.smat"
    wrong_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(wrong_magic))
    wrong_version = tmp_path / "version.smat"
    bad = bytearray(blob)
    bad[4:8] = struct.pack("<I", 99)
    wrong_version.write_bytes(bytes(bad))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(wrong_version))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = str(tmp_path / "model.smat")
    save_checkpoint({"w": np.ones(2, dtype=np.float32)}, path)
    blob = open(path, "rb").read() + b"\x00"
    (tmp_path / "extra.smat").write_bytes(blob)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(tmp_path / "extra.smat"))


def test_checkpoint_empty_is_valid(tmp_path):
    path = str(tmp_path / "empty.smat")
    save_checkpoint({}, path)
    assert load_checkpoint(path) == {}
    assert open(path, "rb").read()[:4] == CHECKPOINT_MAGIC


def test_checkpoint_sidecar_echo(tmp_path):
    path = str(tmp_path / "model.smat")
    save_checkpoint({"w": np.ones(1, dtype=np.float32)}, path, config_echo={"kind": "test", "z": 1})
    echo = load_config_echo(path, "test")
    assert echo == {"kind": "test", "z": 1}
    raw = open(path + ".json", "r", encoding="utf-8").read()
    assert raw == json.dumps({"kind": "test", "z": 1}, sort_keys=True) + "\n"


def test_model_save_load_round_trip(tmp_path):
    model = tiny_model(seed=11, dtype=np.float32)
    path = str(tmp_path / "enc.smat")
    save_model(model, path, extra_echo={"vocab": {"<pad>": 0}})
    back, echo = load_model(path)
    assert back.config == model.config
    assert echo["vocab"] == {"<pad>": 0}
    for name in model.param_names():
        assert np.array_equal(back.params[name].data, model.params[name].data)


@pytest.mark.parametrize("edit, named", [
    (lambda echo: echo["model"].update(max_len="x"), "bad model.max_len 'x': must be an integer"),
    (lambda echo: echo["model"].pop("ffn_dim"), "bad model section: "),
    (lambda echo: echo["model"].update(task="ranking"), "bad model section: unknown task"),
    (lambda echo: echo.update(model=[8]), "bad model section: "),
], ids=["max_len", "no_ffn_dim", "task", "not_an_object"])
def test_load_model_names_the_checkpoint_whose_model_section_is_bad(tmp_path, edit, named):
    path = str(tmp_path / "enc.smat")
    save_model(tiny_model(seed=11, dtype=np.float32), path)
    echo = load_config_echo(path, "model")
    edit(echo)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(echo, fh)
    with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: {named}")):
        load_model(path)


def test_model_save_is_deterministic(tmp_path):
    model = tiny_model(seed=12, dtype=np.float32)
    p1, p2 = str(tmp_path / "a.smat"), str(tmp_path / "b.smat")
    save_model(model, p1)
    save_model(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


# ---------------------------------------------------------------------------
# exports


def sample_records():
    return [
        {"tokens": ["good", "movie"], "scores": [0.8, 0.2], "prediction": 1},
        {"tokens": ["dull", "plot", "twist"], "scores": [0.5, 0.3, 0.2], "prediction": 0},
    ]


def test_jsonl_export(tmp_path):
    path = str(tmp_path / "out.jsonl")
    export_explanations(sample_records(), path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["tokens"] == ["good", "movie"]
    assert len(first["tokens"]) == len(first["scores"])


def test_html_report_is_self_contained(tmp_path):
    path = str(tmp_path / "report.html")
    render_html_report(sample_records(), path)
    html = open(path, encoding="utf-8").read()
    assert "http://" not in html and "https://" not in html
    assert "<script src" not in html
    for record in sample_records():
        for tok in record["tokens"]:
            assert tok in html


def test_html_report_max_score_at_full_intensity(tmp_path):
    path = str(tmp_path / "report.html")
    render_html_report(sample_records(), path)
    html = open(path, encoding="utf-8").read()
    assert "1.000)" in html  # alpha of the top-scoring token


def test_config_loading(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"num_layers": 2}}), encoding="utf-8")
    assert read_json(str(cfg))["model"]["num_layers"] == 2
    missing = str(tmp_path / "missing.json")
    with pytest.raises(DataError, match="^" + re.escape(f"{missing}: No such file or directory")):
        read_json(missing)
    with pytest.raises(DataError, match="^" + re.escape(f"{tmp_path}: Is a directory")):
        read_json(str(tmp_path))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="^" + re.escape(f"{bad}: not valid JSON: ")):
        read_json(str(bad))
    bad.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(DataError, match="^" + re.escape(f"{bad}: not valid JSON: ")):
        read_json(str(bad))
    bad.write_text("[1]", encoding="utf-8")
    with pytest.raises(CheckpointError, match="^" + re.escape(f"{bad}: must hold a JSON object")):
        read_json(str(bad), CheckpointError)
