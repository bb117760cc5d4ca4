"""A small transformer classifier/regressor with inspectable attention.

The encoder is deliberately tiny: token plus learned positional
embeddings, pre-norm blocks with ReLU feed-forwards, and a softmax
scalar mix over mean-pooled per-layer outputs feeding the task head.
Forward passes can record per-layer attention internals (pre-softmax
scores and attention weights), which downstream saliency code consumes.
``attention_internals`` records the same tensors from a prefix of the
forward that stops once the last layer's scores are recorded, so it holds
no last-layer attention weights; every caller that reads only the scores
uses it (the attention explainers, the teacher head-logit cache and the
phi_T probes), while the training losses keep the full forward.

A forward pass takes one sequence or a batch, and builds one graph over
(B, L, model_dim) tensors with the heads split by reshape to
(B, H, L, head_dim); one sequence runs the same ops without the batch
axis. A batch is a list of sequences of any lengths, or a 2-D array of
one length. No sequence holds the pad id 0: only :class:`PreparedIds`
writes pads, right-padding a batch to its longest sequence, and it
rejects a pad id in the input. Pad keys get a large finite negative
added to their scores, so they receive exactly zero attention, and
pooling and the per-head saliency rows average over valid positions
only. A valid position's outputs therefore match the unpadded
sequence's; the attention softmax sums only the valid keys, so they
round alike too (see ``autodiff.softmax``).

Every forward prepares its ids once, as a :class:`PreparedIds`: the
validated ids and their :class:`PadMask`, which builds each mask a forward
derives from the padding (the attention key bias and length groups, the
mean rows of pooling and of the saliency logits, the saliency pad bias and
length groups) on first use and keeps it. Raw ids are prepared on entry,
so a one-off forward builds what it did before; a caller that runs several
forwards over one batch (a smat training step runs five) prepares it once
and passes the PreparedIds to each. A PreparedIds is the one place a
PadMask is built: ``forward_from_embeddings`` takes one as its ``mask``.

The embeddings, the encoder and head, and the head-logit mean are each
one body over ``ops`` (see ``autodiff.run_forward``). A forward that
records no graph (grad disabled, or no input requiring grad, as for a
frozen teacher) runs them on bare arrays, with the recorded forward's
bits. It checks each layer norm's variance, the attention and layer-mix
softmax inputs, the relu input and what it returns; if a check fails,
the body is replayed on the tape, which raises naming the op a recorded
forward names.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD_ID = 0

LAYER_NORM_EPS = 1e-5

# Added to the scores of pad keys: finite (the engine rejects inf), and far
# enough below any real score that softmax gives them exactly zero weight.
MASK_BIAS = -1e9

# Largest batch one no-grad prediction forward takes.
PREDICT_CHUNK = 256

TASKS = ("classification", "regression")


class FieldError(ValueError):
    """A config field or argument of the wrong type, or out of its range."""

    def __init__(self, name: str, value: object, problem: str) -> None:
        super().__init__(f"{name} {value!r}: {problem}")


def _count(name: str, value, low: int = 1) -> int:
    """``value`` as an int of at least ``low``: an integer or an integral
    float, not a bool; otherwise a FieldError naming ``name``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise FieldError(name, value, "must be an integer")
    if value < low:
        raise FieldError(name, value, f"must be >= {low}")
    return int(value)


def _number(name: str, value) -> None:
    """A FieldError naming ``name`` unless ``value`` is a finite real number,
    not a bool (JSON's NaN and Infinity are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise FieldError(name, value, "must be a number")
    if not math.isfinite(value):
        raise FieldError(name, value, "must be a finite number")


@dataclass
class ModelConfig:
    """Architecture hyperparameters. model_dim must equal heads * head_dim.

    Every integer field must be an integer >= 1 (an integral float becomes
    its int; a bool is not one), or a :class:`FieldError` names it.
    """

    vocab_size: int
    max_len: int
    num_layers: int
    heads_per_layer: int
    model_dim: int
    head_dim: int
    ffn_dim: int
    task: str = "classification"
    num_classes: int = 2

    def __post_init__(self) -> None:
        for name in ("vocab_size", "max_len", "num_layers", "heads_per_layer", "model_dim",
                     "head_dim", "ffn_dim", "num_classes"):
            setattr(self, name, _count(name, getattr(self, name), 1))
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.model_dim != self.heads_per_layer * self.head_dim:
            raise ValueError(
                f"model_dim {self.model_dim} != heads_per_layer {self.heads_per_layer}"
                f" * head_dim {self.head_dim}"
            )
        if self.task == "classification" and self.num_classes < 2:
            raise ValueError("classification needs at least 2 classes")

    @property
    def total_heads(self) -> int:
        return self.num_layers * self.heads_per_layer

    @property
    def output_dim(self) -> int:
        return self.num_classes if self.task == "classification" else 1


@dataclass
class AttentionInternals:
    """Recorded attention internals of one forward pass, one entry per layer.

    ``MiniTransformer.forward(..., record=True)`` returns them beside the
    output; ``MiniTransformer.attention_internals`` returns the same
    tensors alone, from a forward that stops once the last layer's scores
    are recorded, so its ``attention`` holds every layer but the last.

    Shapes are (..., H, L, .), where ``...`` is empty for one sequence and
    (B,) for a batch. ``mask`` is the batch's :class:`PadMask`, or None when
    no position is padding.
    """

    mask: PadMask | None = None
    scores: list[Tensor] = field(default_factory=list)  # (..., H, L, L), pre-softmax, unmasked
    attention: list[Tensor] = field(default_factory=list)  # (..., H, L, L), rows on the simplex


def is_batch(token_ids: object) -> bool:
    """True for a batch of sequences: a 2-D array, or a list of sequences,
    which an empty list is (an empty batch, not one empty sequence)."""
    if isinstance(token_ids, np.ndarray):
        return token_ids.ndim == 2
    return len(token_ids) == 0 or hasattr(token_ids[0], "__len__")


def pad_bias(valid: np.ndarray, dtype) -> np.ndarray:
    """0 at valid positions and MASK_BIAS at pads, to add before a softmax."""
    return np.where(valid, 0.0, MASK_BIAS).astype(dtype)


class PadMask:
    """The padding of a (B, L) batch, and the masks every forward over it reads.

    ``lengths`` holds each row's valid prefix and ``valid`` is the (B, L)
    mask of non-pad positions. Each mask derived from them is built on its
    first use and kept, so every forward, explanation and E_T over one batch
    shares it: the attention key bias and the length groups of the score
    rows, the mean rows of pooling and of the saliency logits, and the
    saliency pad bias and length groups.
    """

    __slots__ = ("lengths", "valid", "_kept")

    def __init__(self, lengths: np.ndarray, width: int) -> None:
        self.lengths = np.asarray(lengths)
        self.valid = np.arange(width) < self.lengths[:, None]
        self._kept: dict[tuple, object] = {}

    def _keep(self, key: tuple, build):
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build()
        return value

    def key_bias(self, dtype) -> Tensor:
        """(B, 1, 1, L) constant to add to attention scores: MASK_BIAS at pad keys."""
        return self._keep(("key_bias", dtype), lambda: ad.constant(
            pad_bias(self.valid, dtype)[:, None, None, :]))

    def score_groups(self, heads: int) -> ad.LengthGroups:
        """The (B, heads, L, L) attention score rows grouped by key length."""
        batch, width = self.valid.shape
        return self._keep(("score_groups", heads), lambda: ad.LengthGroups(
            self.lengths[:, None, None], (batch, heads, width, width)))

    def mean_rows(self, dtype) -> np.ndarray:
        """(B, 1, L) row weights of a mean over each row's valid positions."""
        return self._keep(("mean_rows", dtype), lambda: (
            self.valid / self.valid.sum(axis=-1, keepdims=True)).astype(dtype)[:, None, :])

    def saliency_bias(self, dtype) -> Tensor:
        """(B, L) constant to add to saliency logits: MASK_BIAS at pads."""
        return self._keep(("saliency_bias", dtype),
                          lambda: ad.constant(pad_bias(self.valid, dtype)))

    def saliency_groups(self) -> ad.LengthGroups:
        """The (B, L) saliency rows grouped by valid length."""
        return self._keep(("saliency_groups",), lambda: ad.LengthGroups(
            self.valid.sum(axis=-1), self.valid.shape))


class PreparedIds:
    """Token ids prepared once, for every forward that reads them.

    ``ids`` is (L,) for one sequence or (B, L) for a batch, right-padded
    with PAD_ID to its longest sequence; ``mask`` is its :class:`PadMask`,
    or None when the lengths are equal. Preparing checks what no model
    setting decides: the shape, empty sequences and pad ids, which no
    input holds; ``low`` and ``high`` are the smallest and largest id,
    which a model checks against its vocabulary. Like the ids it is built
    from, it is a sequence of id rows.
    """

    __slots__ = ("ids", "mask", "low", "high", "_sequences")

    def __init__(self, token_ids: Sequence[int] | Sequence[Sequence[int]] | np.ndarray) -> None:
        self.mask = self._sequences = None
        if is_batch(token_ids) and not isinstance(token_ids, np.ndarray):
            if not token_ids:
                raise ValueError("empty batch (no sequences)")
            sizes = np.fromiter(map(len, token_ids), dtype=np.int64, count=len(token_ids))
            flat = np.fromiter(itertools.chain.from_iterable(token_ids), dtype=np.int64,
                               count=int(sizes.sum()))
            shortest, width = int(sizes.min()), int(sizes.max())
            if shortest == width:
                self.ids = flat.reshape(len(sizes), width)
            else:
                # every id in one pass; the length mask takes them in row-major order
                self.ids = np.full((len(sizes), width), PAD_ID, dtype=np.int64)
                self.ids[np.arange(width) < sizes[:, None]] = flat
                self.mask = PadMask(sizes, width)
        else:
            flat = self.ids = np.asarray(token_ids, dtype=np.int64)
            if flat.ndim not in (1, 2):
                raise ValueError(f"token ids must be one sequence or a batch, got shape {flat.shape}")
            shortest = flat.size  # an array's rows share one length: none if it holds no id
        if shortest == 0:
            raise ValueError("empty sequence (no tokens)")
        self.low, self.high = int(flat.min()), int(flat.max())
        if self.low <= PAD_ID and (flat == PAD_ID).any():
            raise ValueError(f"pad id {PAD_ID} found in a token sequence")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        return self.ids[index]

    def sequences(self) -> list[tuple[int, ...]]:
        """Each sequence as a tuple of ints, without the pads its row was
        filled with (one sequence gives a list of one), built once."""
        if self._sequences is None:
            if self.ids.ndim == 1:
                self._sequences = [tuple(self.ids.tolist())]
            elif self.mask is None:
                self._sequences = [tuple(row) for row in self.ids.tolist()]
            else:
                self._sequences = [tuple(row[:n]) for row, n in
                                   zip(self.ids.tolist(), self.mask.lengths.tolist())]
        return self._sequences


def _mean_weights(mask: PadMask | None, lead: tuple[int, ...], length: int, dtype) -> np.ndarray:
    """(..., 1, L) row weights of a mean over the valid positions."""
    if mask is None:
        return np.full(lead + (1, length), 1.0 / length, dtype=dtype)
    return mask.mean_rows(dtype)


@functools.cache
def _head_swap(ndim: int) -> tuple[int, ...]:
    """The axis order that swaps (..., L, H, d) and (..., H, L, d)."""
    return (*range(ndim - 3), ndim - 2, ndim - 3, ndim - 1)


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class MiniTransformer:
    """Pre-norm transformer encoder with a pooled task head.

    Parameters live in ``self.params``, an ordered name -> Tensor map.
    ``forward`` accepts an override map so uncommitted parameter values
    (lookahead steps, finite-difference probes) can be evaluated without
    touching the committed weights.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32) -> None:
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        c = config
        params: dict[str, np.ndarray] = {}
        params["embed.tok"] = _uniform_init(rng, (c.vocab_size, c.model_dim), c.model_dim, self.dtype)
        params["embed.pos"] = _uniform_init(rng, (c.max_len, c.model_dim), c.model_dim, self.dtype)
        for layer in range(c.num_layers):
            p = f"layers.{layer}"
            params[f"{p}.attn.norm.gain"] = np.ones(c.model_dim, dtype=self.dtype)
            params[f"{p}.attn.norm.bias"] = np.zeros(c.model_dim, dtype=self.dtype)
            for proj in ("wq", "wk", "wv", "wo"):
                params[f"{p}.attn.{proj}"] = _uniform_init(
                    rng, (c.model_dim, c.model_dim), c.model_dim, self.dtype
                )
            params[f"{p}.ffn.norm.gain"] = np.ones(c.model_dim, dtype=self.dtype)
            params[f"{p}.ffn.norm.bias"] = np.zeros(c.model_dim, dtype=self.dtype)
            params[f"{p}.ffn.w1"] = _uniform_init(rng, (c.model_dim, c.ffn_dim), c.model_dim, self.dtype)
            params[f"{p}.ffn.b1"] = np.zeros(c.ffn_dim, dtype=self.dtype)
            params[f"{p}.ffn.w2"] = _uniform_init(rng, (c.ffn_dim, c.model_dim), c.ffn_dim, self.dtype)
            params[f"{p}.ffn.b2"] = np.zeros(c.model_dim, dtype=self.dtype)
        params["mix.scalars"] = np.zeros(c.num_layers, dtype=self.dtype)
        params["head.weight"] = _uniform_init(
            rng, (c.model_dim, c.output_dim), c.model_dim, self.dtype
        )
        params["head.bias"] = np.zeros(c.output_dim, dtype=self.dtype)
        self.params: dict[str, Tensor] = {
            name: Tensor(arr, requires_grad=True, name=name) for name, arr in params.items()
        }

    # -- parameter plumbing ------------------------------------------------

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def param_list(self) -> list[Tensor]:
        return list(self.params.values())

    def clone_param_data(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_param_data(self, values: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(values)
        extra = set(values) - set(self.params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, t in self.params.items():
            arr = np.ascontiguousarray(values[name], dtype=self.dtype)
            if arr.shape != t.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {t.shape}")
            t.data = arr

    def freeze(self) -> "MiniTransformer":
        """Mark all parameters constant and their storage read-only."""
        for t in self.params.values():
            t.requires_grad = False
            t.data.setflags(write=False)
        return self

    # -- forward -----------------------------------------------------------

    def _batch_ids(self, token_ids) -> PreparedIds:
        """``token_ids`` prepared (a :class:`PreparedIds` passes through as
        it is), with every id in this model's vocabulary and at most
        ``max_len`` per sequence."""
        prepared = token_ids if isinstance(token_ids, PreparedIds) else PreparedIds(token_ids)
        c = self.config
        width = prepared.ids.shape[-1]
        if width > c.max_len:
            raise ValueError(f"sequence length {width} exceeds max_len {c.max_len}")
        if prepared.low < 0 or prepared.high >= c.vocab_size:
            ids = prepared.ids
            bad = (ids < 0) | (ids >= c.vocab_size)
            raise ValueError(f"token id {int(ids[bad][0])} out of range for vocab size {c.vocab_size}")
        return prepared

    def _embed(self, ids: np.ndarray, params: dict[str, Tensor] | None) -> Tensor:
        p = params if params is not None else self.params
        return ad.run_forward(_embedding, p["embed.tok"], p["embed.pos"], ids=ids)

    def input_embeddings(self, token_ids) -> Tensor:
        """Token + position embeddings: (L, D) for one sequence, (B, L, D) for a batch
        of sequences of one length (no pad mask)."""
        prepared = self._batch_ids(token_ids)
        if prepared.mask is not None:
            raise ValueError(f"input embeddings need one sequence length, "
                             f"got {np.unique(prepared.mask.lengths)}")
        return self._embed(prepared.ids, None)

    def forward(self, token_ids, record: bool = False, params: dict[str, Tensor] | None = None):
        """Task output for one sequence or a batch; optionally also attention internals.

        ``token_ids`` is one sequence, a list of sequences, a 2-D id array or
        a :class:`PreparedIds`. Returns logits (classification) or a score
        (regression), shaped (C,) or () for one sequence and (B, C) or (B,)
        for a batch, or an ``(output, AttentionInternals)`` pair when
        ``record`` is set.
        """
        prepared = self._batch_ids(token_ids)
        return self.forward_from_embeddings(
            self._embed(prepared.ids, params), record=record, params=params, mask=prepared.mask
        )

    def attention_internals(
        self, token_ids, params: dict[str, Tensor] | None = None
    ) -> AttentionInternals:
        """The attention internals ``forward(token_ids, record=True)`` records,
        but for the last layer's attention weights.

        Runs the same layer loop, stopping once the last layer's scores are
        recorded: no last-layer key bias, attention softmax, value
        projection, attention output or feed-forward, and no pooling, layer
        mix or head, whose parameters it never reads. So ``attention`` holds
        every layer but the last, while ``scores`` holds every layer. Each
        recorded tensor comes from the same ops on the same inputs, so it
        matches the full forward's bit for bit.
        """
        prepared = self._batch_ids(token_ids)
        return self.forward_from_embeddings(
            self._embed(prepared.ids, params), params=params, mask=prepared.mask, _scores_only=True
        )

    def forward_from_embeddings(
        self,
        embeddings: Tensor,
        record: bool = False,
        params: dict[str, Tensor] | None = None,
        mask: PadMask | None = None,
        *,
        _scores_only: bool = False,
    ):
        """Run the encoder on (L, model_dim) or (B, L, model_dim) embeddings.

        ``mask`` is the batch's :class:`PadMask` (a :class:`PreparedIds`
        builds it), whose kept masks this forward reads; None means no
        padding. ``_scores_only`` (for :meth:`attention_internals`) returns
        the internals as soon as the last layer has recorded its scores.
        """
        p = params if params is not None else self.params
        c = self.config
        if embeddings.ndim not in (2, 3):
            raise ValueError(f"embeddings must be (L, D) or (B, L, D), got {embeddings.shape}")
        lead, length = embeddings.shape[:-2], embeddings.shape[-2]
        if length < 1 or length > c.max_len:
            raise ValueError(f"embedding rows {length} outside [1, {c.max_len}]")
        if mask is not None and mask.valid.shape != lead + (length,):
            raise ValueError(f"pad mask of shape {mask.valid.shape} for embeddings {embeddings.shape}")
        key_bias = None if mask is None else mask.key_bias(embeddings.dtype)
        return ad.run_forward(self._encode, embeddings, p, key_bias, mask=mask, record=record,
                              scores_only=_scores_only)

    def _encode(self, ops, h, p, key_bias, *, mask: PadMask | None, record: bool, scores_only: bool):
        """The encoder and head over ``ops``, ``autodiff`` or ``autodiff.bare``
        (see ``autodiff.run_forward``); ``key_bias`` is the mask's, or None."""
        c = self.config
        lead, length = h.shape[:-2], h.shape[-2]
        dt = h.dtype
        # one grouping of the (..., H, L) score rows by key length, shared by
        # every layer's attention softmax and its gradient
        key_lengths = None if mask is None else mask.score_groups(c.heads_per_layer)
        internals = AttentionInternals(mask=mask) if record or scores_only else None
        scale = ops.scalar(1.0 / math.sqrt(c.head_dim), dt)
        pool = None if scores_only else ops.constant(_mean_weights(mask, lead, length, dt))
        split = lead + (length, c.heads_per_layer, c.head_dim)
        swap = _head_swap(len(split))

        def heads(u, weight):  # (..., L, D) -> (..., H, L, head_dim)
            return ops.transpose(ops.reshape(ops.matmul(u, weight), split), swap)

        layer_pools = []
        for layer in range(c.num_layers):
            prefix = f"layers.{layer}"
            u = _layer_norm(ops, h, p[f"{prefix}.attn.norm.gain"], p[f"{prefix}.attn.norm.bias"])
            q, k = heads(u, p[f"{prefix}.attn.wq"]), heads(u, p[f"{prefix}.attn.wk"])
            scores = ops.mul(ops.matmul(q, ops.transpose(k)), scale)
            if internals is not None:
                internals.scores.append(ops.result(ops.checked(scores)))
            if scores_only and layer == c.num_layers - 1:
                return internals
            logits = scores if key_bias is None else ops.add(scores, key_bias)
            attn = ops.softmax(ops.checked(logits), axis=-1, lengths=key_lengths)
            if internals is not None:
                # unchecked: from a finite input the softmax gives finite
                # weights, or NaN rows that reach the output or the next
                # layer's variance, both checked
                internals.attention.append(ops.result(attn))
            v = heads(u, p[f"{prefix}.attn.wv"])
            ctx = ops.reshape(ops.transpose(ops.matmul(attn, v), swap), lead + (length, c.model_dim))
            h = ops.add(h, ops.matmul(ctx, p[f"{prefix}.attn.wo"]))
            u2 = _layer_norm(ops, h, p[f"{prefix}.ffn.norm.gain"], p[f"{prefix}.ffn.norm.bias"])
            f = ops.add(ops.matmul(u2, p[f"{prefix}.ffn.w1"]), p[f"{prefix}.ffn.b1"])
            f = ops.add(ops.matmul(ops.relu(ops.checked(f)), p[f"{prefix}.ffn.w2"]),
                        p[f"{prefix}.ffn.b2"])
            h = ops.add(h, f)
            if pool is not None:
                layer_pools.append(ops.matmul(pool, h))  # (..., 1, D)

        # One softmax per example, so the scalars' gradient sums per-example
        # terms in order, as for a sequence forwarded alone.
        mix = ops.broadcast_to(p["mix.scalars"], lead + (c.num_layers,))
        mix = ops.reshape(ops.softmax(ops.checked(mix), axis=-1), lead + (1, c.num_layers))
        pooled = ops.matmul(mix, ops.concat(layer_pools, axis=-2))  # (..., 1, D)
        out = ops.add(ops.matmul(pooled, p["head.weight"]), p["head.bias"])
        out = ops.result(ops.checked(
            ops.reshape(out, lead + ((c.output_dim,) if c.task == "classification" else ()))))
        if internals is not None:
            return out, internals
        return out

    # -- prediction ----------------------------------------------------------

    def predict(self, token_ids):
        """Predicted class index (classification) or score (regression).

        One sequence gives one value, a batch a list of them (an empty
        batch, an empty list), computed in no-grad forwards of at most
        PREDICT_CHUNK sequences. Argmax ties break toward the lowest index.
        """
        if is_batch(token_ids) and len(token_ids) == 0:
            return []
        with ad.no_grad():
            if is_batch(token_ids):
                out = np.concatenate([
                    self.forward(token_ids[i : i + PREDICT_CHUNK]).data
                    for i in range(0, len(token_ids), PREDICT_CHUNK)
                ])
            else:
                out = self.forward(token_ids).data
        return task_predictions(self.config.task, out)


def task_predictions(task: str, outputs: np.ndarray):
    """:meth:`MiniTransformer.predict`'s values for task outputs: the argmax
    class index (classification) or the score (regression), one value for
    one output, a list for a batch."""
    if task == "classification":
        outputs = np.argmax(outputs, axis=-1)
    return outputs.tolist()


def _embedding(ops, tok, pos, *, ids: np.ndarray):
    """Token plus position embeddings of ``ids`` over ``ops``."""
    return ops.result(ops.checked(
        ops.add(ops.gather_rows(tok, ids), ops.narrow(pos, 0, 0, ids.shape[-1]))))


def _layer_norm(ops, x, gain, bias):
    """Layer norm over the last axis, scaled by ``gain`` and shifted by ``bias``,
    over ``ops``. Over bare arrays the variance is checked: an Inf there
    would divide the row to a finite zero."""
    mu = ops.tmean(x, axis=-1, keepdims=True)
    centered = ops.sub(x, mu)
    var = ops.checked(ops.tmean(ops.mul(centered, centered), axis=-1, keepdims=True))
    denom = ops.sqrt(ops.add(var, ops.scalar(LAYER_NORM_EPS, x.dtype)))
    return ops.add(ops.mul(ops.div(centered, denom), gain), bias)


def head_saliency_logits(internals: AttentionInternals, first_layer: int = 0) -> Tensor:
    """Mean unnormalized attention logit row per head, (..., heads, L).

    For each recorded head from ``first_layer`` on, in layer-major order,
    averages the pre-softmax score rows over the valid query positions.
    Columns of pad keys hold unmasked scores; combine them under a mask.
    """
    scores = internals.scores[first_layer:]
    if not scores:
        raise ValueError("internals contain no recorded heads")
    lead, length = scores[0].shape[:-3], scores[0].shape[-1]
    rows = _mean_weights(internals.mask, lead, length, scores[0].dtype)[..., None, :, :]
    return ad.run_forward(_head_logits, scores, rows=rows)


def _head_logits(ops, scores, *, rows: np.ndarray):
    stacked = scores[0] if len(scores) == 1 else ops.concat(scores, axis=-3)  # (..., heads, L, L)
    mean = ops.matmul(ops.constant(rows), stacked)  # (..., heads, 1, L)
    return ops.result(ops.checked(ops.reshape(mean, stacked.shape[:-2] + (stacked.shape[-1],))))


def task_loss(model: MiniTransformer, token_ids, target) -> Tensor:
    """Supervised loss, averaged over a batch: cross-entropy or squared error."""
    out = model.forward(token_ids)
    if model.config.task == "classification":
        loss = ad.cross_entropy(out, target)
        return ad.tmean(loss) if loss.ndim else loss
    return ad.mse(out, ad.constant(np.asarray(target, dtype=out.dtype)))
