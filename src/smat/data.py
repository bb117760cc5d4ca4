"""Datasets, serialization, and report rendering.

Covers the synthetic cue-token corpus generator, TSV loading with
optional gold rationales, vocabulary construction, deterministic splits,
a small binary checkpoint format for named float32 tensors, JSONL
explanation export, and a self-contained HTML report.
"""

from __future__ import annotations

import html
import json
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .autodiff import Tensor, all_finite
from .model import PAD_ID, FieldError, MiniTransformer, ModelConfig, _count, _number

UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

CHECKPOINT_MAGIC = b"SMAT"
CHECKPOINT_VERSION = 1

SPLIT_RATIOS = (0.70, 0.15, 0.15)


class DataError(ValueError):
    """Malformed data file or infeasible dataset specification."""


class CheckpointError(ValueError):
    """Invalid, truncated, or corrupt checkpoint bytes."""


@dataclass
class Example:
    """One labelled sequence, optionally with a gold rationale mask."""

    tokens: list[str]
    label: int | None = None
    score: float | None = None
    rationale: list[int] | None = None
    token_ids: list[int] | None = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise DataError("example has no tokens")
        if self.rationale is not None and len(self.rationale) != len(self.tokens):
            raise DataError(
                f"rationale length {len(self.rationale)} != token count {len(self.tokens)}"
            )


@dataclass
class Dataset:
    """A list of examples plus the task they are labelled for."""

    examples: list[Example]
    task: str = "classification"

    def __len__(self) -> int:
        return len(self.examples)


@dataclass
class Splits:
    train: list[Example]
    dev: list[Example]
    test: list[Example]
    task: str = "classification"


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SyntheticSpec:
    """Recipe for the cue-token classification corpus.

    ``vocab_size`` counts the whole vocabulary including pad, unk, and
    the cue words; the remainder are noise words. Each position is a cue
    with probability ``1 - noise_ratio``; at least one cue is planted and
    draws with zero net polarity are rejected, so the label (1 iff the
    summed cue polarity is positive) is always well defined.
    ``vocab_size``, ``min_len``, ``max_len`` (each >= 1) and ``seed`` (>= 0)
    must be integers, ``noise_ratio`` a number, ``cue_lexicon`` a mapping
    and each of its polarities the integer 1 or -1 (not a bool or a float), or a
    ``model.FieldError`` names the field; an integral float becomes its int.
    """

    vocab_size: int = 60
    cue_lexicon: dict[str, int] = field(
        default_factory=lambda: {
            "good": 1,
            "great": 1,
            "solid": 1,
            "fresh": 1,
            "bad": -1,
            "poor": -1,
            "stale": -1,
            "weak": -1,
        }
    )
    min_len: int = 5
    max_len: int = 10
    noise_ratio: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("vocab_size", 1), ("min_len", 1), ("max_len", 1), ("seed", 0)):
            setattr(self, name, _count(name, getattr(self, name), low))
        _number("noise_ratio", self.noise_ratio)
        if not isinstance(self.cue_lexicon, Mapping):
            raise FieldError("cue_lexicon", self.cue_lexicon, "must be an object of word polarities")
        if not self.cue_lexicon:
            raise DataError("cue lexicon is empty")
        for word, pol in self.cue_lexicon.items():
            if isinstance(pol, bool) or not isinstance(pol, numbers.Integral) or pol not in (-1, 1):
                raise FieldError("cue_lexicon", {word: pol}, "polarity must be the integer 1 or -1")
        if self.min_len > self.max_len:
            raise DataError(f"invalid length range [{self.min_len}, {self.max_len}]")
        if not 0.0 <= self.noise_ratio < 1.0:
            raise DataError("noise_ratio must be in [0, 1)")
        if self.num_noise_words < 1:
            raise DataError(
                f"vocab_size {self.vocab_size} leaves no room for noise words "
                f"beyond pad, unk, and {len(self.cue_lexicon)} cues"
            )

    @property
    def num_noise_words(self) -> int:
        return self.vocab_size - 2 - len(self.cue_lexicon)

    def noise_words(self) -> list[str]:
        width = len(str(self.num_noise_words - 1))
        return [f"w{idx:0{width}d}" for idx in range(self.num_noise_words)]


def generate_synthetic(spec: SyntheticSpec, n: int) -> Dataset:
    """Sample ``n`` labelled examples, fully determined by (spec.seed, n)."""
    if n < 1:
        raise DataError("need n >= 1 examples")
    rng = np.random.default_rng(spec.seed)
    cue_words = sorted(spec.cue_lexicon)
    noise = spec.noise_words()
    examples: list[Example] = []
    for _ in range(n):
        while True:
            length = int(rng.integers(spec.min_len, spec.max_len + 1))
            is_cue = rng.random(length) >= spec.noise_ratio
            tokens: list[str] = []
            mask: list[int] = []
            polarity = 0
            for flag in is_cue:
                if flag:
                    word = cue_words[int(rng.integers(len(cue_words)))]
                    polarity += spec.cue_lexicon[word]
                    tokens.append(word)
                    mask.append(1)
                else:
                    tokens.append(noise[int(rng.integers(len(noise)))])
                    mask.append(0)
            if not any(mask) or polarity == 0:
                continue
            examples.append(
                Example(tokens=tokens, label=1 if polarity > 0 else 0, rationale=mask)
            )
            break
    return Dataset(examples=examples, task="classification")


# ---------------------------------------------------------------------------
# tokenization and TSV


def normalize_text(text: str) -> list[str]:
    """Lowercased whitespace tokenization."""
    return text.lower().split()


def build_vocab(examples: Iterable[Example], min_freq: int = 1) -> dict[str, int]:
    """Token -> id map: pad 0, unk 1 (reserved), then frequency desc, ties lexicographic."""
    counts: dict[str, int] = {}
    for ex in examples:
        for tok in ex.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    vocab = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for word, count in ordered:
        if count >= min_freq and word not in vocab:
            vocab[word] = len(vocab)
    return vocab


def encode_tokens(tokens: Sequence[str], vocab: Mapping[str, int]) -> list[int]:
    """Token ids, UNK_ID for a word not in ``vocab`` and for ``<pad>``: no data token is padding."""
    return [UNK_ID if tok == PAD_TOKEN else vocab.get(tok, UNK_ID) for tok in tokens]


def attach_token_ids(dataset: Dataset, vocab: Mapping[str, int]) -> Dataset:
    for ex in dataset.examples:
        ex.token_ids = encode_tokens(ex.tokens, vocab)
    return dataset


def load_tsv(path: str) -> Dataset:
    """Load ``text<TAB>label[<TAB>rationale]`` rows.

    Labels that all parse as integers make a classification dataset;
    otherwise the column is read as regression scores. The optional
    rationale column is space-separated 0/1 flags, one per token.
    """
    rows: list[tuple[list[str], str, list[int] | None]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise DataError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        tokens = normalize_text(parts[0])
        if not tokens:
            raise DataError(f"{path}:{lineno}: empty text field")
        rationale = None
        if len(parts) == 3 and parts[2].strip() != "":
            bits = parts[2].split()
            if any(b not in ("0", "1") for b in bits):
                raise DataError(f"{path}:{lineno}: rationale must be 0/1 flags")
            if len(bits) != len(tokens):
                raise DataError(
                    f"{path}:{lineno}: rationale has {len(bits)} flags "
                    f"for {len(tokens)} tokens"
                )
            rationale = [int(b) for b in bits]
        rows.append((tokens, parts[1].strip(), rationale))
    if not rows:
        raise DataError(f"{path}: no examples")

    def _is_int(s: str) -> bool:
        try:
            int(s)
            return True
        except ValueError:
            return False

    classification = all(_is_int(label) for _, label, _ in rows)
    examples = []
    for lineno_zero, (tokens, label, rationale) in enumerate(rows):
        try:
            if classification:
                examples.append(Example(tokens=tokens, label=int(label), rationale=rationale))
            else:
                examples.append(Example(tokens=tokens, score=float(label), rationale=rationale))
        except ValueError as err:
            raise DataError(f"{path}: bad label {label!r}: {err}") from err
    return Dataset(examples=examples, task="classification" if classification else "regression")


def save_tsv(dataset: Dataset, path: str) -> None:
    lines = []
    for ex in dataset.examples:
        label = str(ex.label) if ex.label is not None else repr(ex.score)
        row = [" ".join(ex.tokens), label]
        if ex.rationale is not None:
            row.append(" ".join(str(b) for b in ex.rationale))
        lines.append("\t".join(row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def split_dataset(
    dataset: Dataset,
    ratios: Sequence[float] = SPLIT_RATIOS,
    seed: int = 0,
) -> Splits:
    """Deterministic disjoint train/dev/test split by shuffled indices."""
    if (len(ratios) != 3 or not all(math.isfinite(r) and r >= 0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise DataError(f"split ratios must be three finite non-negatives summing to 1, got {ratios}")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_dev = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_dev - n_test
    idx_train = order[:n_train]
    idx_dev = order[n_train : n_train + n_dev]
    idx_test = order[n_train + n_dev :]
    ex = dataset.examples
    return Splits(
        train=[ex[i] for i in idx_train],
        dev=[ex[i] for i in idx_dev],
        test=[ex[i] for i in idx_test],
        task=dataset.task,
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    tensors: Mapping[str, np.ndarray | Tensor],
    path: str,
    config_echo: dict | None = None,
) -> None:
    """Write named tensors in the binary checkpoint layout.

    Layout: magic "SMAT", u32 version, u32 tensor count, then per tensor
    a u16 name length, UTF-8 name, u8 rank, u64 extents, and raw
    little-endian float32 values in row-major order. A tensor that
    float32 cannot hold exactly, or that holds NaN or Inf, raises
    :class:`CheckpointError` naming the path and the tensor, and nothing
    is written. An optional config echo goes to a deterministic JSON
    sidecar at ``path + ".json"``.
    """
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(tensors))
    for name, value in tensors.items():
        given = value.data if isinstance(value, Tensor) else np.asarray(value)
        arr = given.astype("<f4", copy=False)  # ascontiguousarray would promote 0-d to 1-d
        if arr is not given and not np.array_equal(arr, given, equal_nan=True):
            raise CheckpointError(
                f"{path}: tensor {name!r} of dtype {given.dtype} does not fit float32 without loss"
            )
        if not all_finite(arr):
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or Inf values")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"tensor rank too large: {arr.ndim}")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.tobytes(order="C")
    _atomic_write_bytes(path, bytes(blob))
    if config_echo is not None:
        write_json(path + ".json", config_echo)


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint, validating structure, exact length and finite values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    offset = 0

    def take(count: int, what: str) -> memoryview:
        nonlocal offset
        if offset + count > len(view):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        piece = view[offset : offset + count]
        offset += count
        return piece

    if bytes(take(4, "magic")) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = bytes(take(name_len, "name")).decode("utf-8")
        if name in out:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "shape"))
        n_values = 1
        for extent in shape:
            n_values *= extent
        raw = take(4 * n_values, f"values of {name!r}")
        values = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if not all_finite(values):
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or Inf values")
        out[name] = values.copy()
    if offset != len(view):
        raise CheckpointError(f"{path}: {len(view) - offset} trailing bytes after last tensor")
    return out


def load_config_echo(path: str, kind: str) -> dict:
    """The JSON sidecar of checkpoint ``path``, which must describe a ``kind``;
    otherwise a CheckpointError names the sidecar or the checkpoint."""
    echo = read_json(path + ".json", CheckpointError)
    if echo.get("kind") != kind:
        raise CheckpointError(f"{path}: sidecar kind {echo.get('kind')!r} is not {kind!r}")
    return echo


def save_model(model: MiniTransformer, path: str, extra_echo: dict | None = None) -> None:
    """Persist model weights plus a config echo sidecar."""
    echo = {"kind": "model", "model": asdict(model.config)}
    if extra_echo:
        echo.update(extra_echo)
    save_checkpoint(model.params, path, config_echo=echo)


def load_model(path: str) -> tuple[MiniTransformer, dict]:
    """Rebuild a model from a checkpoint and its config echo; a ``model``
    section ModelConfig rejects raises CheckpointError naming the path."""
    echo = load_config_echo(path, "model")
    try:
        config = ModelConfig(**echo.get("model", {}))
    except FieldError as err:
        raise CheckpointError(f"{path}: bad model.{err}") from err
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: bad model section: {err}") from err
    model = MiniTransformer(config, seed=0)
    model.load_param_data(load_checkpoint(path))
    return model, echo


# ---------------------------------------------------------------------------
# exports


def export_explanations(records: Sequence[dict], path: str) -> None:
    """Write one JSON object per example: tokens, scores, predictions."""
    lines = []
    for rec in records:
        if len(rec["tokens"]) != len(rec["scores"]):
            raise DataError("record has mismatched tokens and scores")
        lines.append(json.dumps(rec, sort_keys=True))
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def render_html_report(records: Sequence[dict], path: str, title: str = "Explanations") -> None:
    """Write a dependency-free HTML page highlighting tokens by score.

    Non-negative scores shade a single hue with opacity proportional to
    score / max score; signed scores use a second hue for negatives.
    """
    body: list[str] = []
    for i, rec in enumerate(records):
        tokens = rec["tokens"]
        scores = np.asarray(rec["scores"], dtype=np.float64)
        if len(tokens) != scores.size:
            raise DataError("record has mismatched tokens and scores")
        peak = float(np.abs(scores).max()) or 1.0
        spans = []
        for tok, s in zip(tokens, scores):
            alpha = abs(float(s)) / peak
            color = "255,140,0" if s >= 0 else "30,110,240"
            spans.append(
                f'<span class="tok" style="background: rgba({color},{alpha:.3f})">'
                f"{html.escape(tok)}</span>"
            )
        meta = []
        for key in ("prediction", "gold_mask"):
            if key in rec and rec[key] is not None:
                meta.append(f"{key}={rec[key]}")
        body.append(
            f'<div class="ex"><div class="meta">#{i} {html.escape(" ".join(map(str, meta)))}</div>'
            f'<div class="text">{" ".join(spans)}</div></div>'
        )
    page = (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        "<style>"
        "body{font-family:sans-serif;margin:2rem;background:#fff;color:#222}"
        ".ex{margin-bottom:1rem;padding:.5rem;border:1px solid #ddd;border-radius:4px}"
        ".meta{font-size:.8rem;color:#666;margin-bottom:.3rem}"
        ".tok{padding:.1rem .25rem;margin:0 .1rem;border-radius:3px;display:inline-block}"
        "</style></head><body>"
        f"<h1>{html.escape(title)}</h1>\n" + "\n".join(body) + "</body></html>\n"
    )
    _atomic_write_text(path, page)


# ---------------------------------------------------------------------------
# text and JSON files


def read_lines(path: str) -> Iterator[str]:
    """The lines of ``path`` as UTF-8, one at a time; invalid UTF-8 raises DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not valid UTF-8: {err}") from err


def read_json(path: str, error: type[Exception] = DataError) -> dict:
    """The JSON object in ``path``; a file that cannot be read, is not valid
    UTF-8 JSON or whose top level is not an object raises ``error`` naming
    the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except OSError as err:
        raise error(f"{path}: {err.strerror or err}") from err
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{path}: not valid JSON: {err}") from err
    if not isinstance(value, dict):
        raise error(f"{path}: must hold a JSON object")
    return value


def write_json(path: str, value) -> None:
    """``value`` as JSON with sorted keys and a final newline, written atomically."""
    _atomic_write_text(path, json.dumps(value, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# atomic writes


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _atomic_write_text(path: str, payload: str) -> None:
    _atomic_write_bytes(path, payload.encode("utf-8"))
