"""Token saliency explainers for the mini transformer.

Two families share one output contract, a simplex vector over the
tokens of one input. Each takes one sequence (one ``Saliency``) or a list
(a list of them), which it runs grouped by length, so no group needs a
mask; the differentiable attention form gives a padded batch one row per
input, with pad positions exactly 0:

* attention-based: per-head mean score rows, combined either uniformly
  (static attention mean) or through learned head coefficients that are
  projected by sparsemax, softmax, or a clamped identity;
* gradient-based: embedding-gradient L2 norms, gradient-times-input,
  and integrated gradients on the model's own predicted label, one graph
  per length chunk of at most IG_STEPS_EVAL (50) path points.

:func:`compute_static_saliency` runs each static explainer by name.
:func:`explain_and_predict` (what ``smat explain`` exports) also gives each
sequence the model's prediction, from the forward that explains it: an
attention explainer runs one full forward per length group in place of the
attention-internals prefix, and a gradient explainer reads the alpha = 1 row
of its graph. :func:`explain_parameterized` and the attention means of
:func:`compute_static_saliency` keep the prefix, on one sequence and on a
list: their callers (the plausibility AUC, the teacher caches and
perfbench's per-example loops) need no prediction. The prefix stops once
the last layer's scores are recorded, the last thing a head mix reads.

Every attention explanation, the student's E_S and the teacher's E_T in
training among them, mixes its head logits through one path,
:meth:`ExplainerParams.mix`, one body over ``ops`` like the model's
forward. A mix that records no graph runs on bare arrays, checking the
mixed logits and the saliency (see ``autodiff.run_forward``), and takes
its normalized coefficients from a small cache keyed by phi's value (see
:meth:`ExplainerParams.coefficients`), and ``attn_all`` and ``attn_last``
use one uniform mix per (heads, dtype, scope), so repeated explanations
normalize each phi once. Each cached value is the one recomputing gives,
bit for bit.

Raw scores are always projected onto the simplex with a softmax and no
top-k truncation is applied anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import (
    AttentionInternals,
    MiniTransformer,
    PadMask,
    head_saliency_logits,
    is_batch,
    task_predictions,
)

NORMALIZATIONS = ("sparsemax", "softmax", "none")

SCOPES = ("all", "last")

# Head coefficients under the identity normalization stay in this box.
NONE_CLIP = 10.0

GRADIENT_EXPLAINERS = ("grad_l2", "grad_x_input", "integrated_gradients")

STATIC_EXPLAINERS = GRADIENT_EXPLAINERS + ("attn_all", "attn_last")

ATTENTION_EXPLAINERS = ("attn_all", "attn_last", "parameterized")

# Default weight of the explanation-matching loss by explainer family.
BETA_ATTENTION = 5.0
BETA_GRADIENT = 0.2

IG_STEPS_TRAINING = 10
IG_STEPS_EVAL = 50


@dataclass
class Saliency:
    """Token-level explanation: a simplex vector over the positions of one sequence."""

    scores: np.ndarray
    raw: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores)
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("saliency scores must be a non-empty vector")


@dataclass
class ExplainerParams:
    """Learnable head-combination parameters for one model.

    ``phi`` holds one raw entry per in-scope head; ``normalize`` maps it to
    the head coefficients and ``scope`` picks the heads (every layer's, or
    the last layer's). :meth:`mix` turns a stack of those heads' logits
    into a saliency. Nothing is kept on the params between calls.
    """

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

    def coefficients(self, lead: tuple[int, ...]) -> Tensor:
        """Normalized coefficients, one row per example of a ``lead``-shaped batch.

        A call that records a graph gives each example its own normalization
        node, so phi's gradient sums per-example terms in order, as when each
        sequence is explained alone. A call that records no graph broadcasts
        one read-only row, normalized once per value of phi (see
        :func:`_normalized_row`): normalizing each row of a broadcast phi
        gives the same bits as normalizing phi once.
        """
        phi = self.phi
        if ad.records_graph((phi,)):
            return normalize_coefficients(ad.broadcast_to(phi, lead + phi.shape), self.normalize)
        return ad.broadcast_to(self._row(), lead + phi.shape)

    def _row(self) -> Tensor:
        return _normalized_row(self.normalize, self.phi.dtype, self.phi.data.tobytes())

    def mix(self, logits: Tensor, mask: PadMask | None = None) -> Tensor:
        """softmax(coefficients . logits): the saliency, (L,) or (B, L), of a
        (heads, L) or (B, heads, L) logit stack mixed by the normalized phi.

        ``mask`` is the batch's pad mask (None when no position is padding);
        pads get exactly 0. Its pad bias and length groups are built once per
        batch and kept, so the explanations of one batch share them.
        """
        if logits.ndim not in (2, 3):
            raise ValueError("logit stack must be (heads, length) or (batch, heads, length)")
        lead, heads = logits.shape[:-2], logits.shape[-2]
        if heads != self.phi.shape[0]:
            raise ValueError(f"phi has {self.phi.shape[0]} entries but scope selects {heads} heads")
        bias = None if mask is None else mask.saliency_bias(np.result_type(self.phi.dtype, logits.dtype))
        # with no graph on phi, the body broadcasts the one normalized row
        coefficients = self.coefficients(lead) if ad.records_graph((self.phi,)) else self._row()
        return ad.run_forward(_mix, coefficients, logits, bias,
                              lengths=None if mask is None else mask.saliency_groups())


def _mix(ops, coefficients, logits, bias, *, lengths: ad.LengthGroups | None):
    """:meth:`ExplainerParams.mix` over ``ops``; ``bias`` and ``lengths`` are
    the mask's, or None. Over bare arrays the mixed logits are checked, as
    is the saliency: a masked row whose valid entries all underflow is 0/0."""
    lead, (heads, length) = logits.shape[:-2], logits.shape[-2:]
    coefficients = ops.reshape(ops.broadcast_to(coefficients, lead + (heads,)), lead + (1, heads))
    mixed = ops.reshape(ops.matmul(coefficients, logits), lead + (length,))
    if bias is not None:
        mixed = ops.add(mixed, bias)
    return ops.result(ops.checked(ops.softmax(ops.checked(mixed), axis=-1, lengths=lengths)))


@functools.lru_cache(maxsize=32)
def _normalized_row(kind: str, dtype: np.dtype, data: bytes) -> Tensor:
    """The ``kind`` normalization of the phi whose bytes are ``data``, read-only.

    Keyed by value, not by tensor: another tensor or array with the same
    bytes hits, and an in-place write to phi misses.
    """
    row = normalize_coefficients(ad.constant(np.frombuffer(data, dtype=dtype)), kind)
    row.data.setflags(write=False)
    return row


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
    if explainer in ATTENTION_EXPLAINERS:
        return BETA_ATTENTION
    if explainer in STATIC_EXPLAINERS:
        return BETA_GRADIENT
    raise ValueError(f"unknown explainer {explainer!r}")


def _first_layer(scope: str, num_layers: int) -> int:
    """The first layer whose heads ``scope`` covers: 0, or the last layer."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    return num_layers - 1 if scope == "last" else 0


def scope_head_indices(model: MiniTransformer, scope: str) -> list[int]:
    """Indices into layer-major head order covered by a scope."""
    c = model.config
    return list(range(_first_layer(scope, c.num_layers) * c.heads_per_layer, c.total_heads))


def saliency_from_internals(internals: AttentionInternals, params: ExplainerParams) -> Tensor:
    """Differentiable saliency, (L,) or (B, L), from recorded internals and coefficients."""
    first = _first_layer(params.scope, len(internals.scores))
    return params.mix(head_saliency_logits(internals, first), internals.mask)


def head_logit_matrix(
    model: MiniTransformer,
    token_ids: Sequence[int],
    scope: str = "all",
) -> np.ndarray:
    """(in-scope heads, L) matrix of mean attention-score rows; (B, heads, L) for a batch.

    Runs only the no-grad ``attention_internals`` prefix of the forward.
    """
    first = _first_layer(scope, model.config.num_layers)
    with ad.no_grad():
        return head_saliency_logits(model.attention_internals(token_ids), first).data


def _by_length(token_ids, explain, chunk: int | None = None):
    """``explain`` on a list grouped by length, at most ``chunk`` sequences a call.

    One sequence is a list of one. No group needs a mask: a padded row's
    head mix (a 1 x heads by heads x L BLAS product) can round one ulp away
    from the sequence's own, so this keeps each one's bits. ``explain``
    returns one result per sequence.
    """
    if not is_batch(token_ids):
        return _by_length([token_ids], explain, chunk)[0]
    lengths = [len(ids) for ids in token_ids]
    out = [None] * len(token_ids)
    for length in dict.fromkeys(lengths):
        idx = [i for i, n in enumerate(lengths) if n == length]
        step = chunk or len(idx)
        for part in (idx[s : s + step] for s in range(0, len(idx), step)):
            for i, sal in zip(part, explain([token_ids[i] for i in part])):
                out[i] = sal
    return out


def explain_parameterized(
    model: MiniTransformer,
    token_ids: Sequence[int],
    params: ExplainerParams | Sequence[ExplainerParams],
) -> Saliency | list[Saliency] | list[list[Saliency]]:
    """Learned head-combination explanation (value form).

    One sequence gives one Saliency, a list a list of them, and a list with
    a list of params (one per seed, say) one such list per params. Each runs
    only the no-grad ``attention_internals`` prefix of the forward: one
    sequence without a batch axis, a list one per sequence length, shared by
    every params, with one head-logit stack per scope mixed by each params.
    So each Saliency is the one its params alone gives, bit for bit. The
    differentiable form is :func:`saliency_from_internals`.
    """
    with ad.no_grad():
        if isinstance(params, ExplainerParams):
            if not is_batch(token_ids):
                internals = model.attention_internals(token_ids)
                return Saliency(scores=saliency_from_internals(internals, params).data)
            return explain_parameterized(model, token_ids, [params])[0]
        if not is_batch(token_ids):
            raise ValueError("a list of params explains a list of sequences")
        params = list(params)

        def explain(group):
            internals = model.attention_internals(group)
            logits = {scope: head_saliency_logits(internals, _first_layer(scope, len(internals.scores)))
                      for scope in dict.fromkeys(p.scope for p in params)}
            mixed = [p.mix(logits[p.scope], internals.mask).data for p in params]
            return [[Saliency(scores=rows[i]) for rows in mixed] for i in range(len(group))]

        per_sequence = _by_length(token_ids, explain)
        return [[sals[k] for sals in per_sequence] for k in range(len(params))]


# ---------------------------------------------------------------------------
# gradient-based explainers


def _output_loss(model, output: Tensor, outputs_at_x: np.ndarray) -> Tensor:
    """The loss a gradient explainer differentiates: cross-entropy on the
    label predicted from ``outputs_at_x`` (the outputs at the input itself,
    one row per row of ``output``), or the regression score itself."""
    if model.config.task == "classification":
        return ad.cross_entropy(output, np.argmax(outputs_at_x, axis=-1))
    return output


def _path_gradients(model, group: Sequence[Sequence[int]], alphas: np.ndarray):
    """Predicted-label loss gradients at alpha * x for each sequence x of a
    group of one length and each alpha, in one graph.

    Returns the (n, K, L, D) gradients, the (n, L, D) input embeddings and
    the n outputs at the inputs themselves, (n, C) or (n,). Each scaled copy
    is one row of an (n * K, L, D) batch with its own loss, so its gradient
    is the one it has alone. The last alpha must be 1: that row is x itself,
    so its output is the sequence's forward output, which gives its label.
    """
    if alphas[-1] != 1:
        raise ValueError(f"the last path point must be alpha = 1, got {alphas[-1]}")
    with ad.no_grad():
        base = model.input_embeddings(group).data
    n, k = len(base), len(alphas)
    points = np.asarray(alphas, dtype=base.dtype)[:, None, None] * base[:, None]
    x = Tensor(points.reshape((n * k,) + base.shape[1:]), requires_grad=True, dtype=base.dtype)
    out = model.forward_from_embeddings(x)
    outputs = out.data.reshape((n, k) + out.shape[1:])[:, -1]
    loss = ad.tsum(_output_loss(model, out, np.repeat(outputs, k, axis=0)))
    return ad.backward(loss, [x])[0].data.reshape(points.shape), base, outputs


def _path_alphas(name: str, steps: int) -> np.ndarray:
    """The path points of a gradient explainer: the input alone, or IG's k/steps * x."""
    if name != "integrated_gradients":
        return np.ones(1)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.arange(1, steps + 1) / steps


def _gradient_raw(model, group, name: str, alphas: np.ndarray):
    """(n, L) raw scores of a gradient explainer for a group of one length,
    with the group's input embeddings and outputs at the inputs."""
    grads, base, outputs = _path_gradients(model, group, alphas)
    if name == "grad_l2":
        raw = np.sqrt((grads[:, 0].astype(np.float64) ** 2).sum(axis=-1)).astype(grads.dtype)
    elif name == "grad_x_input":
        raw = (grads[:, 0] * base).sum(axis=-1)
    else:  # integrated gradients: the right-endpoint path average times the input
        avg = grads.astype(np.float64).sum(axis=1) / len(alphas)
        raw = (base.astype(np.float64) * avg).sum(axis=-1).astype(base.dtype)
    return raw, base, outputs


def _gradient_explained(model, token_ids, name: str, steps: int):
    """A gradient explainer on one sequence or a list: a (Saliency,
    prediction) pair per sequence, one graph per length chunk of at most
    IG_STEPS_EVAL path points (one sequence if it has more). The prediction
    is :meth:`MiniTransformer.predict`'s, from the graph's alpha = 1 row.
    Integrated gradients skips :func:`integrated_gradients_raw`'s
    completeness losses: one forward per graph, not three."""
    alphas = _path_alphas(name, steps)

    def explain(group):
        raw, _, outputs = _gradient_raw(model, group, name, alphas)
        return list(zip([Saliency(scores=_simplex(r), raw=r) for r in raw],
                        task_predictions(model.config.task, outputs)))

    return _by_length(token_ids, explain, chunk=max(1, IG_STEPS_EVAL // len(alphas)))


def integrated_gradients_raw(
    model, token_ids: Sequence[int], steps: int
) -> tuple[np.ndarray, float, float]:
    """Right-endpoint integrated gradients from a zero embedding baseline.

    The gradients at the ``steps`` points k/steps * x (k = 1..steps) come
    from one graph. Returns per-token raw attributions plus the
    predicted-label losses at the input and at the baseline, so
    completeness (sum of attributions vs. their difference) can be checked
    directly.
    """
    raw, base, outputs = _gradient_raw(
        model, [token_ids], "integrated_gradients", _path_alphas("integrated_gradients", steps))
    with ad.no_grad():
        at_input, at_baseline = (_output_loss(model, model.forward_from_embeddings(
            Tensor(x, dtype=x.dtype)), outputs[0]).item() for x in (base[0], np.zeros_like(base[0])))
    return raw[0], at_input, at_baseline


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

    A list runs grouped by length, unpadded. The attention means are
    :func:`explain_parameterized` with uniform coefficients (1/heads, not
    normalized): one forward per length. A gradient explainer runs one
    graph per length chunk of at most IG_STEPS_EVAL path points (one
    sequence alone if its path has more): no larger than one 50-step
    integrated-gradients explanation.
    """
    if name in ("attn_all", "attn_last"):
        return explain_parameterized(model, token_ids, _uniform_params(model, name))
    if name not in GRADIENT_EXPLAINERS:
        raise ValueError(f"unknown static explainer {name!r}")
    explained = _gradient_explained(model, token_ids, name, ig_steps)
    return [sal for sal, _ in explained] if is_batch(token_ids) else explained[0]


def _uniform_params(model, name: str) -> ExplainerParams:
    """``attn_all`` or ``attn_last`` as a head mix: every in-scope head 1/heads."""
    scope = name.removeprefix("attn_")
    return _uniform_mix(len(scope_head_indices(model, scope)), model.dtype, scope)


@functools.cache
def _uniform_mix(heads: int, dtype: np.dtype, scope: str) -> ExplainerParams:
    """The uniform mix of ``heads`` heads around a read-only phi, built once per
    (heads, dtype, scope) and shared, as ``ad.scalar`` shares its constants."""
    phi = ad.constant(np.ones(heads, dtype=dtype) / heads)
    phi.data.setflags(write=False)
    return ExplainerParams(phi, "none", scope)


def explain_and_predict(
    model: MiniTransformer,
    token_ids: Sequence[int],
    name: str,
    params: ExplainerParams | None = None,
):
    """Each sequence's explanation by ``name`` and the model's prediction for
    it, both from the forward that explains it.

    ``name`` is a static explainer, or "parameterized" with ``params``. One
    sequence gives one (Saliency, prediction) pair, a list a list of them,
    run grouped by length as every list explainer runs. An attention
    explainer runs one full no-grad forward per length group with
    ``record`` set, where the other explainers run the attention-internals
    prefix; a gradient explainer reads the alpha = 1 rows of its graphs.
    Each Saliency is the one :func:`compute_static_saliency` or
    :func:`explain_parameterized` gives, and each prediction the one
    :meth:`MiniTransformer.predict` gives, bit for bit.
    """
    if name in GRADIENT_EXPLAINERS:
        return _gradient_explained(model, token_ids, name, IG_STEPS_EVAL)
    if name in ("attn_all", "attn_last"):
        params = _uniform_params(model, name)
    elif name != "parameterized":
        raise ValueError(f"unknown explainer {name!r}")
    elif params is None:
        raise ValueError("the parameterized explainer needs params")

    def explain(group):
        out, internals = model.forward(group, record=True)
        scores = saliency_from_internals(internals, params).data
        return list(zip([Saliency(scores=row) for row in scores],
                        task_predictions(model.config.task, out.data)))

    with ad.no_grad():
        return _by_length(token_ids, explain)
