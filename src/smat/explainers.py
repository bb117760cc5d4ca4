"""Token saliency explainers for the mini transformer.

Two families share one output contract, a simplex vector over the
non-pad tokens of one input (a batch gives one such row per input, with
pad positions exactly 0):

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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import AttentionInternals, MiniTransformer, head_saliency_logits, pad_bias

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
    """(in-scope heads, L) matrix of mean attention-score rows."""
    first = scope_head_indices(model, scope)[0] // model.config.heads_per_layer
    with ad.no_grad():
        _, internals = model.forward(token_ids, record=True)
        return head_saliency_logits(internals, first).data


def explain_parameterized(
    model: MiniTransformer,
    token_ids: Sequence[int],
    params: ExplainerParams,
) -> Saliency:
    """Learned head-combination explanation (value form).

    The differentiable form is :func:`saliency_from_internals`; this
    wrapper runs a recorded forward pass and extracts values.
    """
    with ad.no_grad():
        _, internals = model.forward(token_ids, record=True)
        return Saliency(scores=saliency_from_internals(internals, params).data)


def explain_attention_mean(
    model: MiniTransformer,
    token_ids: Sequence[int],
    scope: str = "all",
) -> Saliency:
    """Uniform mean over in-scope heads' saliency logits, then softmax."""
    logits = head_logit_matrix(model, token_ids, scope)
    uniform = np.ones(logits.shape[0], dtype=logits.dtype) / logits.shape[0]
    with ad.no_grad():
        return Saliency(scores=combine_head_logits(ad.constant(logits), ad.constant(uniform)).data)


# ---------------------------------------------------------------------------
# gradient-based explainers


def _output_loss(model, output: Tensor, target: int | None) -> Tensor:
    if model.config.task == "classification":
        return ad.cross_entropy(output, int(target))
    return output


def _prediction_target(model, token_ids: Sequence[int]) -> int | None:
    if model.config.task != "classification":
        return None
    with ad.no_grad():
        out = model.forward(token_ids)
    return int(np.argmax(out.data))


def embedding_gradient(
    model,
    token_ids: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, embeddings) of the predicted-label loss at the input."""
    target = _prediction_target(model, token_ids)
    with ad.no_grad():
        base = model.input_embeddings(token_ids).data
    x = Tensor(base, requires_grad=True, name="input_embeddings", dtype=base.dtype)
    loss = _output_loss(model, model.forward_from_embeddings(x), target)
    grad = ad.backward(loss, [x])[0]
    return grad.data, base


def explain_grad_l2(model, token_ids: Sequence[int]) -> Saliency:
    """Softmax over per-token L2 norms of the embedding gradient."""
    grad, _ = embedding_gradient(model, token_ids)
    raw = np.sqrt((grad.astype(np.float64) ** 2).sum(axis=1)).astype(grad.dtype)
    return Saliency(scores=_simplex(raw), raw=raw)


def explain_grad_x_input(model, token_ids: Sequence[int]) -> Saliency:
    """Softmax over the per-token gradient-input dot products."""
    grad, base = embedding_gradient(model, token_ids)
    raw = (grad * base).sum(axis=1)
    return Saliency(scores=_simplex(raw), raw=raw)


def integrated_gradients_raw(
    model,
    token_ids: Sequence[int],
    steps: int,
) -> tuple[np.ndarray, float, float]:
    """Right-endpoint integrated gradients from a zero embedding baseline.

    Returns per-token raw attributions plus the predicted-label losses at
    the input and at the baseline, so completeness (sum of attributions
    vs. their difference) can be checked directly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    target = _prediction_target(model, token_ids)
    with ad.no_grad():
        base = model.input_embeddings(token_ids).data
    total = np.zeros_like(base, dtype=np.float64)
    for k in range(1, steps + 1):
        point = (k / steps) * base
        x = Tensor(point, requires_grad=True, dtype=base.dtype)
        loss = _output_loss(model, model.forward_from_embeddings(x), target)
        total += ad.backward(loss, [x])[0].data.astype(np.float64)
    avg = total / steps
    raw = (base.astype(np.float64) * avg).sum(axis=1)

    with ad.no_grad():
        at_input = _output_loss(
            model, model.forward_from_embeddings(Tensor(base, dtype=base.dtype)), target
        ).item()
        at_baseline = _output_loss(
            model,
            model.forward_from_embeddings(Tensor(np.zeros_like(base), dtype=base.dtype)),
            target,
        ).item()
    return raw.astype(base.dtype), at_input, at_baseline


def explain_integrated_gradients(
    model,
    token_ids: Sequence[int],
    steps: int = IG_STEPS_EVAL,
) -> Saliency:
    raw, _, _ = integrated_gradients_raw(model, token_ids, steps)
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
) -> Saliency:
    """Dispatch to one of the named static explainers."""
    if name == "grad_l2":
        return explain_grad_l2(model, token_ids)
    if name == "grad_x_input":
        return explain_grad_x_input(model, token_ids)
    if name == "integrated_gradients":
        return explain_integrated_gradients(model, token_ids, steps=ig_steps)
    if name == "attn_all":
        return explain_attention_mean(model, token_ids, scope="all")
    if name == "attn_last":
        return explain_attention_mean(model, token_ids, scope="last")
    raise ValueError(f"unknown static explainer {name!r}")


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
