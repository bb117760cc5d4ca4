"""Token saliency explainers for the mini transformer.

Two families share one output contract, a simplex vector over the
non-pad tokens of one input. Each takes one sequence (one ``Saliency``) or
a list (a list of them); the differentiable attention form gives a batch
one row per input, with pad positions exactly 0:

* attention-based: per-head mean score rows, combined either uniformly
  (static attention mean) or through learned head coefficients that are
  projected by sparsemax, softmax, or a clamped identity;
* gradient-based: embedding-gradient L2 norms, gradient-times-input,
  and integrated gradients on the model's own predicted label.

Raw scores are always projected onto the simplex with a softmax and no
top-k truncation is applied anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import AttentionInternals, MiniTransformer, head_saliency_logits, is_batch, pad_bias

NORMALIZATIONS = ("sparsemax", "softmax", "none")

SCOPES = ("all", "last")

# Head coefficients under the identity normalization stay in this box.
NONE_CLIP = 10.0

STATIC_EXPLAINERS = (
    "grad_l2",
    "grad_x_input",
    "integrated_gradients",
    "attn_all",
    "attn_last",
)

ATTENTION_EXPLAINERS = ("attn_all", "attn_last", "parameterized")

# Default weight of the explanation-matching loss by explainer family.
BETA_ATTENTION = 5.0
BETA_GRADIENT = 0.2

IG_STEPS_TRAINING = 10
IG_STEPS_EVAL = 50


@dataclass
class Saliency:
    """Token-level explanation: a simplex vector over non-pad positions."""

    scores: np.ndarray
    raw: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores)
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("saliency scores must be a non-empty vector")


@dataclass
class ExplainerParams:
    """Learnable head-combination parameters for one model."""

    phi: Tensor
    normalize: str = "sparsemax"
    scope: str = "all"

    def __post_init__(self) -> None:
        if self.normalize not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalize!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.phi.ndim != 1:
            raise ValueError("phi must be a vector with one entry per in-scope head")


def normalize_coefficients(phi: Tensor, kind: str) -> Tensor:
    """Map raw head parameters to combination coefficients."""
    if kind == "sparsemax":
        return ad.sparsemax(phi)
    if kind == "softmax":
        return ad.softmax(phi, axis=-1)
    if kind == "none":
        return ad.clip(phi, -NONE_CLIP, NONE_CLIP)
    raise ValueError(f"unknown normalization {kind!r}")


def default_beta(explainer: str) -> float:
    """Explanation-loss weight default, keyed by explainer family."""
    name = explainer.split(":", 1)[-1]
    if name in ATTENTION_EXPLAINERS:
        return BETA_ATTENTION
    if name in STATIC_EXPLAINERS:
        return BETA_GRADIENT
    raise ValueError(f"unknown explainer {explainer!r}")


def scope_head_indices(model: MiniTransformer, scope: str) -> list[int]:
    """Indices into layer-major head order covered by a scope."""
    c = model.config
    if scope == "all":
        return list(range(c.total_heads))
    if scope == "last":
        start = (c.num_layers - 1) * c.heads_per_layer
        return list(range(start, c.total_heads))
    raise ValueError(f"unknown scope {scope!r}")


def combine_head_logits(
    logit_stack: Tensor, coefficients: Tensor, valid: np.ndarray | None = None
) -> Tensor:
    """softmax(coefficients . logit_stack) for a (heads, L) or (B, heads, L) stack.

    ``coefficients`` is (heads,), or (B, heads) with one row per example.
    ``valid`` is the (B, L) mask of non-pad positions; pads get exactly 0.
    """
    if logit_stack.ndim not in (2, 3):
        raise ValueError("logit stack must be (heads, length) or (batch, heads, length)")
    heads, length = logit_stack.shape[-2:]
    if coefficients.shape[-1:] != (heads,) or coefficients.ndim > logit_stack.ndim - 1:
        raise ValueError(
            f"coefficient length {coefficients.shape} does not match {heads} heads"
        )
    mixed = ad.matmul(ad.reshape(coefficients, coefficients.shape[:-1] + (1, heads)), logit_stack)
    mixed = ad.reshape(mixed, logit_stack.shape[:-2] + (length,))
    if valid is not None:
        mixed = ad.add(mixed, ad.constant(pad_bias(valid, mixed.dtype)))
    return ad.softmax(mixed, axis=-1, lengths=None if valid is None else valid.sum(axis=-1))


def example_coefficients(phi: Tensor, kind: str, lead: tuple[int, ...]) -> Tensor:
    """Normalized coefficients, one row per example of a ``lead``-shaped batch.

    Each example gets its own normalization node, so phi's gradient sums
    per-example terms in order, as when each sequence is explained alone.
    """
    return normalize_coefficients(ad.broadcast_to(phi, lead + phi.shape), kind)


def saliency_from_internals(internals: AttentionInternals, params: ExplainerParams) -> Tensor:
    """Differentiable saliency, (L,) or (B, L), from recorded internals and coefficients."""
    first = len(internals.scores) - 1 if params.scope == "last" else 0
    logits = head_saliency_logits(internals, first)
    if logits.shape[-2] != params.phi.shape[0]:
        raise ValueError(
            f"phi has {params.phi.shape[0]} entries but scope selects {logits.shape[-2]} heads"
        )
    lam = example_coefficients(params.phi, params.normalize, logits.shape[:-2])
    return combine_head_logits(logits, lam, internals.valid)


def head_logit_matrix(
    model: MiniTransformer,
    token_ids: Sequence[int],
    scope: str = "all",
) -> np.ndarray:
    """(in-scope heads, L) matrix of mean attention-score rows; (B, heads, L) for a batch.

    Runs only the no-grad ``attention_internals`` prefix of the forward.
    """
    first = scope_head_indices(model, scope)[0] // model.config.heads_per_layer
    with ad.no_grad():
        return head_saliency_logits(model.attention_internals(token_ids), first).data


def explain_parameterized(
    model: MiniTransformer,
    token_ids: Sequence[int],
    params: ExplainerParams,
) -> Saliency | list[Saliency]:
    """Learned head-combination explanation (value form).

    One sequence gives one Saliency, a list a list of them. Each runs only
    the no-grad ``attention_internals`` prefix of the forward, one per
    sequence length, unpadded: a padded row's head mix (a 1 x heads by
    heads x L BLAS product) can round one ulp away from the sequence's own,
    so this keeps each one's bits. The differentiable form is
    :func:`saliency_from_internals`.
    """
    with ad.no_grad():
        if not is_batch(token_ids):
            internals = model.attention_internals(token_ids)
            return Saliency(scores=saliency_from_internals(internals, params).data)
        out = [None] * len(token_ids)
        for length in dict.fromkeys(len(ids) for ids in token_ids):
            idx = [i for i, ids in enumerate(token_ids) if len(ids) == length]
            internals = model.attention_internals([token_ids[i] for i in idx])
            scores = saliency_from_internals(internals, params).data
            valid = np.ones(scores.shape, dtype=bool) if internals.valid is None else internals.valid
            for i, row, keep in zip(idx, scores, valid):
                out[i] = Saliency(scores=row[keep])
        return out


# ---------------------------------------------------------------------------
# gradient-based explainers


def _output_loss(model, output: Tensor, target: int | None) -> Tensor:
    if model.config.task == "classification":
        return ad.cross_entropy(output, np.full(output.shape[:-1], target))
    return output


def _path_gradients(
    model,
    token_ids: Sequence[int],
    alphas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Predicted-label loss gradients at alpha * x for each alpha, in one graph.

    Returns the (K, L, D) gradients, the (L, D) input embeddings x and the
    predicted label. Each scaled copy is one row of a (K, L, D) batch with
    its own loss, so its gradient is the one it has alone. The last alpha
    must be 1: that row is x itself, and its output gives the label.
    """
    if alphas[-1] != 1:
        raise ValueError(f"the last path point must be alpha = 1, got {alphas[-1]}")
    with ad.no_grad():
        base = model.input_embeddings(token_ids).data
    points = np.asarray(alphas, dtype=base.dtype)[:, None, None] * base
    x = Tensor(points, requires_grad=True, dtype=base.dtype)
    out = model.forward_from_embeddings(x)
    target = int(np.argmax(out.data[-1])) if model.config.task == "classification" else None
    loss = ad.tsum(_output_loss(model, out, target))
    return ad.backward(loss, [x])[0].data, base, target


def explain_grad_l2(model, token_ids: Sequence[int]) -> Saliency:
    """Softmax over per-token L2 norms of the embedding gradient."""
    grads, _, _ = _path_gradients(model, token_ids, [1.0])
    raw = np.sqrt((grads[0].astype(np.float64) ** 2).sum(axis=1)).astype(grads.dtype)
    return Saliency(scores=_simplex(raw), raw=raw)


def explain_grad_x_input(model, token_ids: Sequence[int]) -> Saliency:
    """Softmax over the per-token gradient-input dot products."""
    grads, base, _ = _path_gradients(model, token_ids, [1.0])
    raw = (grads[0] * base).sum(axis=1)
    return Saliency(scores=_simplex(raw), raw=raw)


def integrated_gradients_raw(
    model,
    token_ids: Sequence[int],
    steps: int,
) -> tuple[np.ndarray, float, float]:
    """Right-endpoint integrated gradients from a zero embedding baseline.

    The gradients at the ``steps`` points k/steps * x (k = 1..steps) come
    from one graph. Returns per-token raw attributions plus the
    predicted-label losses at the input and at the baseline, so
    completeness (sum of attributions vs. their difference) can be checked
    directly.
    """
    raw, base, target = _integrated_gradients(model, token_ids, steps)
    with ad.no_grad():
        at_input, at_baseline = (_output_loss(model, model.forward_from_embeddings(
            Tensor(x, dtype=base.dtype)), target).item() for x in (base, np.zeros_like(base)))
    return raw, at_input, at_baseline


def _integrated_gradients(
    model,
    token_ids: Sequence[int],
    steps: int,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Per-token raw attributions, the input embeddings and the predicted label."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grads, base, target = _path_gradients(model, token_ids, np.arange(1, steps + 1) / steps)
    avg = grads.astype(np.float64).sum(axis=0) / steps
    raw = (base.astype(np.float64) * avg).sum(axis=1)
    return raw.astype(base.dtype), base, target


def explain_integrated_gradients(
    model,
    token_ids: Sequence[int],
    steps: int = IG_STEPS_EVAL,
) -> Saliency:
    """Softmax over :func:`integrated_gradients_raw`'s attributions, without
    its completeness losses: one forward per sequence, not three."""
    raw = _integrated_gradients(model, token_ids, steps)[0]
    return Saliency(scores=_simplex(raw), raw=raw)


def _simplex(raw: np.ndarray) -> np.ndarray:
    shifted = raw.astype(np.float64) - float(raw.max())
    e = np.exp(shifted)
    return (e / e.sum()).astype(raw.dtype)


def compute_static_saliency(
    model,
    token_ids: Sequence[int],
    name: str,
    ig_steps: int = IG_STEPS_EVAL,
) -> Saliency | list[Saliency]:
    """One of the named static explainers: one sequence gives one Saliency,
    a list a list of them.

    The attention means are :func:`explain_parameterized` with uniform
    coefficients (1/heads, not normalized), so a list runs as one forward
    per length. A gradient explainer runs each sequence as its own graph.
    """
    if name in ("attn_all", "attn_last"):
        scope = name.removeprefix("attn_")
        heads = len(scope_head_indices(model, scope))
        uniform = ad.constant(np.ones(heads, dtype=model.dtype) / heads)
        return explain_parameterized(model, token_ids, ExplainerParams(uniform, "none", scope))
    explain = {"grad_l2": explain_grad_l2, "grad_x_input": explain_grad_x_input,
               "integrated_gradients": partial(explain_integrated_gradients, steps=ig_steps)}.get(name)
    if explain is None:
        raise ValueError(f"unknown static explainer {name!r}")
    if is_batch(token_ids):
        return [explain(model, ids) for ids in token_ids]
    return explain(model, token_ids)


def wordpiece_to_word(
    scores: np.ndarray | Saliency,
    groups: Sequence[Sequence[int]],
) -> np.ndarray:
    """Sum piece-level scores into word-level scores.

    ``groups`` must partition the piece positions exactly: every index
    appears in exactly one group.
    """
    vec = scores.scores if isinstance(scores, Saliency) else np.asarray(scores)
    seen: set[int] = set()
    for group in groups:
        for i in group:
            if not 0 <= int(i) < vec.size:
                raise ValueError(f"piece index {i} out of range for {vec.size} pieces")
            if int(i) in seen:
                raise ValueError(f"piece index {i} assigned to more than one word")
            seen.add(int(i))
    if len(seen) != vec.size:
        missing = sorted(set(range(vec.size)) - seen)
        raise ValueError(f"piece indices not covered by any word: {missing}")
    return np.asarray([vec[list(map(int, g))].sum() for g in groups], dtype=vec.dtype)
