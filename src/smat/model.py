"""A small transformer classifier/regressor with inspectable attention.

The encoder is deliberately tiny: token plus learned positional
embeddings, pre-norm blocks with ReLU feed-forwards, and a softmax
scalar mix over mean-pooled per-layer outputs feeding the task head.
Forward passes can record per-head attention internals (post-projection
query/key rows, pre-softmax score matrices, attention weights), which
downstream saliency code consumes.

Sequences are right-padded with id 0. Pad positions receive no
attention mass and are excluded from pooling, which makes the padded
and pad-stripped computations identical; the forward pass therefore
validates the padding and strips it. A pad id in the interior of a
sequence is rejected as malformed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD_ID = 0

LAYER_NORM_EPS = 1e-5

TASKS = ("classification", "regression")


@dataclass
class ModelConfig:
    """Architecture hyperparameters. model_dim must equal heads * head_dim."""

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
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.model_dim != self.heads_per_layer * self.head_dim:
            raise ValueError(
                f"model_dim {self.model_dim} != heads_per_layer {self.heads_per_layer}"
                f" * head_dim {self.head_dim}"
            )
        if min(self.vocab_size, self.max_len, self.num_layers, self.heads_per_layer) < 1:
            raise ValueError("vocab_size, max_len, num_layers, heads_per_layer must be >= 1")
        if self.task == "classification" and self.num_classes < 2:
            raise ValueError("classification needs at least 2 classes")

    @property
    def total_heads(self) -> int:
        return self.num_layers * self.heads_per_layer

    @property
    def output_dim(self) -> int:
        return self.num_classes if self.task == "classification" else 1

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "max_len": self.max_len,
            "num_layers": self.num_layers,
            "heads_per_layer": self.heads_per_layer,
            "model_dim": self.model_dim,
            "head_dim": self.head_dim,
            "ffn_dim": self.ffn_dim,
            "task": self.task,
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class HeadRecord:
    """Recorded internals of one attention head on one input."""

    layer: int
    head: int
    queries: Tensor  # (L, head_dim), post-projection
    keys: Tensor  # (L, head_dim), post-projection
    scores: Tensor  # (L, L), pre-softmax logits
    attention: Tensor  # (L, L), rows on the simplex


@dataclass
class AttentionInternals:
    """Per-head records for one forward pass, layer-major order."""

    seq_len: int
    heads: list[HeadRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.heads)


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

    def _strip_padding(self, token_ids: Sequence[int]) -> list[int]:
        ids = [int(i) for i in token_ids]
        while ids and ids[-1] == PAD_ID:
            ids.pop()
        if not ids:
            raise ValueError("empty sequence (no non-pad tokens)")
        if len(ids) > self.config.max_len:
            raise ValueError(f"sequence length {len(ids)} exceeds max_len {self.config.max_len}")
        for i in ids:
            if i == PAD_ID:
                raise ValueError("pad id found in the interior of a sequence")
            if not 0 <= i < self.config.vocab_size:
                raise ValueError(f"token id {i} out of range for vocab size {self.config.vocab_size}")
        return ids

    def input_embeddings(self, token_ids: Sequence[int], params: dict[str, Tensor] | None = None) -> Tensor:
        """Combined token + position embeddings for the non-pad prefix."""
        p = params if params is not None else self.params
        ids = self._strip_padding(token_ids)
        tok = ad.gather_rows(p["embed.tok"], ids)
        pos = ad.narrow(p["embed.pos"], 0, 0, len(ids))
        return ad.add(tok, pos)

    def forward(
        self,
        token_ids: Sequence[int],
        record: bool = False,
        params: dict[str, Tensor] | None = None,
    ):
        """Task output for one sequence; optionally also attention internals.

        Returns a logit vector (classification) or scalar (regression),
        or a ``(output, AttentionInternals)`` pair when ``record`` is set.
        """
        x = self.input_embeddings(token_ids, params=params)
        return self.forward_from_embeddings(x, record=record, params=params)

    def forward_from_embeddings(
        self,
        embeddings: Tensor,
        record: bool = False,
        params: dict[str, Tensor] | None = None,
    ):
        """Run the encoder on a prepared (L, model_dim) embedding matrix."""
        p = params if params is not None else self.params
        c = self.config
        length = embeddings.shape[0]
        if length < 1 or length > c.max_len:
            raise ValueError(f"embedding rows {length} outside [1, {c.max_len}]")
        internals = AttentionInternals(seq_len=length) if record else None
        scale = 1.0 / math.sqrt(c.head_dim)

        h = embeddings
        layer_pools: list[Tensor] = []
        pool_row = ad.constant(
            np.full((1, length), 1.0 / length, dtype=h.dtype), dtype=h.dtype
        )
        for layer in range(c.num_layers):
            prefix = f"layers.{layer}"
            u = _layer_norm(h, p[f"{prefix}.attn.norm.gain"], p[f"{prefix}.attn.norm.bias"])
            q_all = ad.matmul(u, p[f"{prefix}.attn.wq"])
            k_all = ad.matmul(u, p[f"{prefix}.attn.wk"])
            v_all = ad.matmul(u, p[f"{prefix}.attn.wv"])
            contexts: list[Tensor] = []
            for head in range(c.heads_per_layer):
                start = head * c.head_dim
                q = ad.narrow(q_all, 1, start, c.head_dim)
                k = ad.narrow(k_all, 1, start, c.head_dim)
                v = ad.narrow(v_all, 1, start, c.head_dim)
                scores = ad.mul(
                    ad.matmul(q, ad.transpose(k)),
                    ad.constant(np.asarray(scale, dtype=h.dtype)),
                )
                attn = ad.softmax(scores, axis=-1)
                contexts.append(ad.matmul(attn, v))
                if internals is not None:
                    internals.heads.append(
                        HeadRecord(layer=layer, head=head, queries=q, keys=k, scores=scores, attention=attn)
                    )
            ctx = ad.concat(contexts, axis=1)
            h = ad.add(h, ad.matmul(ctx, p[f"{prefix}.attn.wo"]))
            u2 = _layer_norm(h, p[f"{prefix}.ffn.norm.gain"], p[f"{prefix}.ffn.norm.bias"])
            f = ad.add(ad.matmul(u2, p[f"{prefix}.ffn.w1"]), p[f"{prefix}.ffn.b1"])
            f = ad.add(ad.matmul(ad.relu(f), p[f"{prefix}.ffn.w2"]), p[f"{prefix}.ffn.b2"])
            h = ad.add(h, f)
            layer_pools.append(ad.matmul(pool_row, h))

        mix = ad.softmax(p["mix.scalars"], axis=-1)
        stacked = ad.concat(layer_pools, axis=0)  # (num_layers, model_dim)
        pooled = ad.matmul(ad.reshape(mix, (1, c.num_layers)), stacked)
        out = ad.add(ad.matmul(pooled, p["head.weight"]), p["head.bias"])
        out = ad.reshape(out, (c.output_dim,))
        if c.task == "regression":
            out = ad.reshape(out, ())
        if internals is not None:
            return out, internals
        return out

    # -- prediction ----------------------------------------------------------

    def predict(self, token_ids: Sequence[int]):
        """Predicted class index (classification) or score (regression).

        Argmax ties break toward the lowest index.
        """
        with ad.no_grad():
            out = self.forward(token_ids)
        if self.config.task == "classification":
            return int(np.argmax(out.data))
        return float(out.data)


def _layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    mu = ad.tmean(x, axis=1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=1, keepdims=True)
    denom = ad.sqrt(ad.add(var, ad.constant(np.asarray(LAYER_NORM_EPS, dtype=x.dtype))))
    return ad.add(ad.mul(ad.div(centered, denom), gain), bias)


def head_saliency_logits(internals: AttentionInternals) -> list[Tensor]:
    """Mean unnormalized attention logit row per head.

    For each recorded head, averages the pre-softmax score rows over all
    (non-pad) query positions, yielding one length-L vector per head.
    """
    if not internals.heads:
        raise ValueError("internals contain no recorded heads")
    length = internals.seq_len
    out: list[Tensor] = []
    for rec in internals.heads:
        row = ad.constant(
            np.full((1, length), 1.0 / length, dtype=rec.scores.dtype)
        )
        out.append(ad.reshape(ad.matmul(row, rec.scores), (length,)))
    return out


def task_loss(model: MiniTransformer, token_ids: Sequence[int], target, params: dict[str, Tensor] | None = None) -> Tensor:
    """Supervised loss for one example: cross-entropy or squared error."""
    out = model.forward(token_ids, params=params)
    if model.config.task == "classification":
        return ad.cross_entropy(out, int(target))
    target_t = ad.constant(np.asarray(target, dtype=out.dtype))
    diff = ad.sub(out, target_t)
    return ad.mul(diff, diff)
