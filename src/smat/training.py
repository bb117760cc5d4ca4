"""Scaffolded student training with a learnable teacher-side explainer.

A frozen teacher provides two signals for each training sequence: its
own prediction, and a saliency map over tokens. The student minimizes

    L_student = L_sim(student, teacher) + beta * L_expl(E_S, E_T)

where L_sim follows the student's task: cross-entropy against the
teacher's predicted label (or its output distribution, with
``soft_targets``) for classification, squared error against the
teacher's score for regression. L_expl is KL(E_T || E_S), the KL
divergence of the student's saliency map E_S from the teacher's E_T.

Three modes share this loop:

* ``none``: beta is forced to zero, plain hard-label distillation;
* ``static:<name>``: E_T comes from a fixed saliency method;
* ``smat``: E_T is a learned combination of the teacher's attention
  heads. Its coefficients phi_T are updated by an outer step: take an
  uncommitted lookahead SGD step on the student, measure the simulation
  loss gradient v at the lookahead weights on a held-out batch, and push
  phi_T along the mixed second derivative of the student loss against v
  (a Hessian-vector product, by central differences or exactly through
  the graph). The inner step never touches phi_T; the outer step never
  commits the lookahead weights.

The student-side explainer is always the learned head-combination
explainer over the student's own heads, restricted to the last layer
when the teacher-side explainer is the last-layer attention mean.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Example, Splits
from .explainers import (
    IG_STEPS_TRAINING,
    NORMALIZATIONS,
    STATIC_EXPLAINERS,
    ExplainerParams,
    compute_static_saliency,
    default_beta,
    head_logit_matrix,
    normalize_coefficients,
    saliency_from_internals,
    scope_head_indices,
)
from .metrics import simulability_accuracy, simulability_pearson
from .model import (PREDICT_CHUNK, FieldError, MiniTransformer, ModelConfig, PreparedIds, _count,
                    _number, is_batch, task_loss)

logger = logging.getLogger(__name__)

HYPERGRAD_MODES = ("central", "exact")


@dataclass
class TrainConfig:
    """Student training hyperparameters.

    ``mode`` is exactly ``none``, ``smat``, or ``static:<explainer>`` where
    the explainer is one of the five static saliency methods. ``beta``
    defaults by explainer family (attention 5.0, gradient 0.2) and is
    forced to zero in mode ``none``, with one warning when built. The
    simulation loss follows the student's task; ``soft_targets`` (match
    the teacher's output distribution) applies to classification only.
    A field of the wrong type raises a :class:`FieldError` naming it; an
    integral float in an integer field becomes its int.
    """

    mode: str = "none"
    beta: float | None = None
    eta_inner: float = 0.1
    eta_outer: float = 0.05
    steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    normalize: str = "sparsemax"
    hypergrad: str = "central"
    soft_targets: bool = False
    eval_every: int = 100

    def __post_init__(self) -> None:
        for name, low in (("steps", 0), ("batch_size", 1), ("seed", 0), ("eval_every", 1)):
            setattr(self, name, _count(name, getattr(self, name), low))
        if self.beta is not None:
            _number("beta", self.beta)
        _number("eta_inner", self.eta_inner)
        _number("eta_outer", self.eta_outer)
        if not isinstance(self.soft_targets, bool):
            raise FieldError("soft_targets", self.soft_targets, "must be true or false")
        if not isinstance(self.mode, str) or (
                self.mode not in ("none", "smat") and self.static_name() not in STATIC_EXPLAINERS):
            raise ValueError(f"unknown mode {self.mode!r}: not none, smat or static:<explainer>")
        if self.normalize not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalize!r}")
        if self.hypergrad not in HYPERGRAD_MODES:
            raise ValueError(f"unknown hypergrad mode {self.hypergrad!r}")
        if self.eta_inner <= 0 or self.eta_outer < 0:
            raise ValueError("eta_inner must be positive and eta_outer non-negative")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.mode == "none" and self.beta:
            logger.warning("mode 'none' forces beta to 0 (config had %s)", self.beta)

    def mode_kind(self) -> str:
        return self.mode.split(":", 1)[0]

    def static_name(self) -> str | None:
        if self.mode_kind() != "static":
            return None
        parts = self.mode.split(":", 1)
        return parts[1] if len(parts) == 2 else None

    def effective_beta(self) -> float:
        if self.mode_kind() == "none":
            return 0.0
        if self.beta is not None:
            return float(self.beta)
        if self.mode_kind() == "smat":
            return default_beta("parameterized")
        return default_beta(self.static_name())

    def explainer_scope(self) -> str:
        """Scope shared by the teacher- and student-side explainers."""
        return "last" if self.static_name() == "attn_last" else "all"


class TeacherContext:
    """Frozen teacher plus one cache of its per-sequence values.

    The teacher's predictions, probabilities, head-logit matrices and static
    saliency maps are fixed once it is frozen, so each is computed once per
    distinct sequence. A lookup takes one sequence or a list, and computes the
    unseen ones in one teacher call per PREDICT_CHUNK of them. One context
    serves every run that shares its teacher, mode and normalization (see
    :meth:`check_serves`); ``train`` fills it for its whole batch schedule
    before its first step. It holds no tensor, so no run's graph outlives it.
    """

    def __init__(self, teacher: MiniTransformer, config: TrainConfig) -> None:
        teacher.freeze()
        self.teacher = teacher
        self.config = config
        self.scope = config.explainer_scope()
        self._cache: dict[tuple[str, tuple[int, ...]], object] = {}

    def check_serves(self, teacher: MiniTransformer, config: TrainConfig) -> None:
        """Raise ValueError, naming the field, unless this context's values
        are the ones a run of ``config`` against ``teacher`` would compute."""
        if teacher is not self.teacher:
            raise ValueError("teacher context was built for another teacher")
        for name in ("mode", "normalize"):
            have, want = getattr(self.config, name), getattr(config, name)
            if have != want:
                raise ValueError(f"teacher context was built for {name}={have!r}, "
                                 f"the run has {name}={want!r}")

    def _lookup(self, kind: str, token_ids, compute):
        """Cached ``kind`` values: one for one sequence, a list for a list.

        ``compute`` maps unseen sequences, each once and in first-seen order,
        to the list of their values; it gets at most PREDICT_CHUNK at a time.
        A key is the sequence's ids, so a value does not depend on the batch
        it was computed in. Numpy integers hash and compare as Python ints
        do, so a list, a tuple and an integer array of one sequence share a
        key. A :class:`PreparedIds` gives the sequences it keeps, so a step
        builds them once.
        """
        if isinstance(token_ids, PreparedIds):
            sequences = token_ids.sequences()
        else:
            sequences = [tuple(ids) for ids in (token_ids if is_batch(token_ids) else [token_ids])]
        keys = [(kind, ids) for ids in sequences]
        unseen = list(dict.fromkeys(k for k in keys if k not in self._cache))
        for start in range(0, len(unseen), PREDICT_CHUNK):
            chunk = unseen[start : start + PREDICT_CHUNK]
            self._cache.update(zip(chunk, compute([ids for _, ids in chunk])))
        values = [self._cache[k] for k in keys]
        return values if is_batch(token_ids) else values[0]

    def target(self, token_ids):
        return self._lookup("target", token_ids, self.teacher.predict)

    def probs(self, token_ids):
        def compute(batch):
            with ad.no_grad():
                return list(ad.softmax(self.teacher.forward(batch), axis=-1).data)
        return self._lookup("probs", token_ids, compute)

    def head_logits(self, token_ids):
        """(in-scope teacher heads, L) saliency-logit matrix of each sequence."""
        def compute(batch):
            stack = head_logit_matrix(self.teacher, batch, self.scope)
            return [m[:, : len(ids)] for m, ids in zip(stack, batch)]
        return self._lookup("head_logits", token_ids, compute)

    def static_saliency(self, token_ids):
        def compute(batch):
            return [sal.scores for sal in compute_static_saliency(
                self.teacher, batch, self.config.static_name(), ig_steps=IG_STEPS_TRAINING)]
        return self._lookup("static", token_ids, compute)

    def teacher_saliency(self, token_ids, phi_t: Tensor) -> Tensor:
        """E_T of a batch, (B, L): learned combination or static constant,
        exactly 0 at pad positions. One sequence raises ValueError.

        Each call builds a new E_T from the cached rows; the pad mask comes
        from the batch's :class:`PreparedIds` (raw ids are prepared on
        entry). A smat step builds it once, in :func:`inner_step`, and hands
        it to :func:`outer_step`.
        """
        kind = self.config.mode_kind()
        if kind == "none":
            raise ValueError("mode 'none' has no teacher explainer")
        prepared = token_ids if isinstance(token_ids, PreparedIds) else PreparedIds(token_ids)
        if prepared.ids.ndim != 2:
            raise ValueError("teacher_saliency takes a batch of sequences, not one sequence")
        lookup = self.head_logits if kind == "smat" else self.static_saliency
        rows = lookup(prepared)
        width = prepared.ids.shape[-1]
        padded = np.zeros((len(rows),) + rows[0].shape[:-1] + (width,), dtype=rows[0].dtype)
        for out, r in zip(padded, rows):
            out[..., : r.shape[-1]] = r
        if kind == "static":
            return ad.constant(padded)
        params = ExplainerParams(phi_t, self.config.normalize, self.scope)
        return params.mix(ad.constant(padded, dtype=phi_t.dtype), prepared.mask)


@dataclass
class TrainRecord:
    step: int
    train_loss: float
    dev_simulability: float | None
    active_heads: int


@dataclass
class TrainState:
    """Mutable training state: student weights, both explainer params and
    the run's log, which ``train`` returns."""

    student: MiniTransformer
    phi_s: Tensor
    phi_t: Tensor
    last_loss: float | None = None
    log: list[TrainRecord] = field(default_factory=list)


def _prepared(batch: Sequence[Example] | PreparedIds) -> PreparedIds:
    """A step's batch as its token ids, prepared once.

    The step functions take a batch of Examples or its :class:`PreparedIds`.
    Every forward of a smat step (the inner loss, the loss at the committed
    weights and both probes over the train batch, the pilot over the outer
    batch), its explanations E_S and E_T and its teacher lookups read one
    PreparedIds, so the ids, pad masks, length groups and teacher cache keys
    are built once a step, not once a use. It keeps what the Examples held
    when it was built, so ``train`` prepares each step's batch as that step
    starts.
    """
    return batch if isinstance(batch, PreparedIds) else PreparedIds([ex.token_ids for ex in batch])


def _scaled(total: Tensor, factor: float) -> Tensor:
    return ad.mul(total, ad.scalar(factor, total.dtype))


def _sim_sum(student: MiniTransformer, tctx: TeacherContext, ids: PreparedIds, config: TrainConfig,
             params: dict[str, Tensor] | None = None, output: Tensor | None = None) -> Tensor:
    """Simulation loss summed over a batch of sequences, by the student's task."""
    out = output if output is not None else student.forward(ids, params=params)
    if student.config.task == "classification":
        target = (ad.constant(np.stack(tctx.probs(ids)), dtype=out.dtype)
                  if config.soft_targets else tctx.target(ids))
        return ad.tsum(ad.cross_entropy(out, target))
    diff = ad.sub(out, ad.constant(np.asarray(tctx.target(ids), dtype=out.dtype)))
    return ad.tsum(ad.mul(diff, diff))


def _student_explainer(phi_s: Tensor, config: TrainConfig) -> ExplainerParams:
    return ExplainerParams(phi=phi_s, normalize=config.normalize, scope=config.explainer_scope())


def student_loss(
    student: MiniTransformer,
    tctx: TeacherContext,
    phi_s: Tensor,
    phi_t: Tensor,
    batch: Sequence[Example] | PreparedIds,
    config: TrainConfig,
    e_t: Tensor | None = None,
) -> Tensor:
    """Mean per-example student loss over one batch (a graph scalar);
    ``e_t`` is the batch's E_T at ``phi_t``, built here if None."""
    if not batch:
        raise ValueError("empty batch")
    beta = config.effective_beta()
    if beta == 0.0:
        return _sim_only_loss(student, tctx, batch, config)
    ids = _prepared(batch)
    out, internals = student.forward(ids, record=True)
    e_s = saliency_from_internals(internals, _student_explainer(phi_s, config))
    if e_t is None:
        e_t = tctx.teacher_saliency(ids, phi_t)
    expl = ad.kl_divergence(e_t, e_s)  # pads add exactly 0
    total = ad.add(_sim_sum(student, tctx, ids, config, output=out),
                   ad.mul(ad.scalar(beta, expl.dtype), expl))
    return _scaled(total, 1.0 / len(ids))


def inner_step(
    state: TrainState,
    batch: Sequence[Example] | PreparedIds,
    config: TrainConfig,
    tctx: TeacherContext,
) -> Tensor | None:
    """One SGD step on the student weights and phi_S from a shared loss.

    Both gradients come from the same loss evaluation on the same batch.
    phi_T is never touched here, so the batch's E_T, which it returns
    (None without an explanation term), holds for the next outer step.
    """
    ids = _prepared(batch)
    params = list(state.student.param_list())
    e_t = None
    if config.effective_beta() != 0.0:
        # without the explanation term phi_S never reaches the loss
        params.append(state.phi_s)
        e_t = tctx.teacher_saliency(ids, state.phi_t)
    loss = student_loss(state.student, tctx, state.phi_s, state.phi_t, ids, config, e_t)
    grads = ad.backward(loss, params)
    for p, g in zip(params, grads):
        p.data = p.data - config.eta_inner * g.data
    state.last_loss = loss.item()
    return e_t


def _sim_only_loss(
    student: MiniTransformer,
    tctx: TeacherContext,
    batch: Sequence[Example] | PreparedIds,
    config: TrainConfig,
    params: dict[str, Tensor] | None = None,
) -> Tensor:
    ids = _prepared(batch)
    return _scaled(_sim_sum(student, tctx, ids, config, params=params), 1.0 / len(ids))


def _phi_t_gradient(
    state: TrainState,
    batch: Sequence[Example] | PreparedIds,
    config: TrainConfig,
    e_t: Tensor,
    probe_params: dict[str, Tensor],
) -> np.ndarray:
    """Gradient of the student loss with respect to phi_T at probe weights.

    Only the explanation term depends on phi_T, so the simulation term
    is dropped; the student-side saliency is evaluated at the probe
    weights and treated as a constant. ``e_t`` is the step's E_T node,
    differentiated with respect to ``state.phi_t`` itself.
    """
    ids = _prepared(batch)
    with ad.no_grad():
        internals = state.student.attention_internals(ids, params=probe_params)
        e_s = saliency_from_internals(internals, _student_explainer(state.phi_s, config))
    expl = ad.kl_divergence(e_t, e_s)
    loss = _scaled(expl, config.effective_beta() / len(ids))
    return ad.backward(loss, [state.phi_t])[0].data


def _outer_runs(config: TrainConfig) -> bool:
    """Whether an outer step moves phi_T: smat with non-zero beta and eta_outer."""
    return config.mode_kind() == "smat" and config.effective_beta() != 0.0 and config.eta_outer != 0.0


def outer_step(
    state: TrainState,
    train_batch: Sequence[Example] | PreparedIds,
    outer_batch: Sequence[Example] | PreparedIds,
    config: TrainConfig,
    tctx: TeacherContext,
    e_t: Tensor | None = None,
) -> TrainState:
    """One hypergradient step on phi_T; student weights stay committed.

    The lookahead weights theta - eta_inner * grad(L_student) exist only
    inside this call. The hypergradient is -eta_inner * M v, with v the
    simulation-loss gradient at the lookahead weights on the outer batch
    and M v the mixed second derivative realized around the committed
    weights by ``autodiff.central_difference``, whose docstring states the
    step rule (or exactly through the graph). Each batch is prepared once
    (see :func:`_prepared`), and the train batch is not prepared again when
    it comes prepared from the inner step. The loss at the committed
    weights and both probes read ``e_t``, the E_T that :func:`inner_step`
    returns (built here if None).
    """
    if not _outer_runs(config):
        return state
    train_batch, outer_batch = _prepared(train_batch), _prepared(outer_batch)
    if e_t is None:
        e_t = tctx.teacher_saliency(train_batch, state.phi_t)

    student = state.student
    names = student.param_names()
    theta = student.param_list()
    exact = config.hypergrad == "exact"
    loss_train = student_loss(student, tctx, state.phi_s, state.phi_t, train_batch, config, e_t)
    g_theta = ad.backward(loss_train, theta, create_graph=exact)

    if exact:
        eta = ad.scalar(config.eta_inner, theta[0].dtype)
        pilot = {
            name: ad.sub(t, ad.mul(eta, g))
            for name, t, g in zip(names, theta, g_theta)
        }
        sim = _sim_only_loss(student, tctx, outer_batch, config, pilot)
        hyper = ad.backward(sim, [state.phi_t])[0].data
    else:
        pilot = {
            name: Tensor(t.data - config.eta_inner * g.data, requires_grad=True, name=name)
            for name, t, g in zip(names, theta, g_theta)
        }
        sim = _sim_only_loss(student, tctx, outer_batch, config, pilot)
        v = [g.data for g in ad.backward(sim, list(pilot.values()))]
        (mv,) = ad.central_difference(
            lambda probe: [_phi_t_gradient(state, train_batch, config, e_t, dict(zip(names, probe)))],
            theta, v)
        hyper = (-config.eta_inner * mv).astype(state.phi_t.dtype)

    state.phi_t.data = state.phi_t.data - config.eta_outer * hyper
    return state


# ---------------------------------------------------------------------------
# evaluation helpers


def simulability(student: MiniTransformer, tctx: TeacherContext, examples: Sequence[Example]) -> float:
    """Prediction agreement with the teacher: accuracy or Pearson."""
    ids = [ex.token_ids for ex in examples]
    preds, targets = student.predict(ids), tctx.target(ids)
    if student.config.task == "classification":
        return simulability_accuracy(preds, targets)
    return simulability_pearson(preds, targets)


def count_active_heads(phi_t: Tensor, normalize: str) -> int:
    with ad.no_grad():
        lam = normalize_coefficients(phi_t, normalize)
    return int(np.count_nonzero(lam.data))


def _zero_mix(model: MiniTransformer, scope: str, name: str) -> Tensor:
    """A trainable all-zero head mix over ``model``'s heads in ``scope``."""
    return Tensor(np.zeros(len(scope_head_indices(model, scope)), dtype=model.dtype),
                  requires_grad=True, name=name)


def _sample_batch(rng: np.random.Generator, pool: Sequence[Example], size: int) -> list[Example]:
    idx = rng.integers(0, len(pool), size=min(size, len(pool)))
    return [pool[int(i)] for i in idx]


def _token_ids(*batches: Sequence[Example]) -> list:
    """Token ids of every example in ``batches``; the lookups dedupe them."""
    return [ex.token_ids for batch in batches for ex in batch]


def _fill_teacher_cache(
    tctx: TeacherContext,
    config: TrainConfig,
    inner: Sequence[Sequence[Example]],
    outer: Sequence[Sequence[Example]],
    dev: Sequence[Example],
) -> None:
    """One batch lookup per kind for every teacher value a run will read.

    ``inner`` and ``outer`` are the run's batch schedule (``outer`` empty
    when no outer step runs) and ``dev`` the eval split (empty for a run
    with no step). After it no lookup of the run computes anything.
    """
    if config.soft_targets:
        tctx.probs(_token_ids(*inner, *outer))
        tctx.target(_token_ids(dev))
    else:
        tctx.target(_token_ids(*inner, *outer, dev))
    if config.effective_beta() != 0.0:
        lookup = tctx.head_logits if config.mode_kind() == "smat" else tctx.static_saliency
        lookup(_token_ids(*inner))


def check_run(config: TrainConfig, teacher: MiniTransformer, splits: Splits,
              student_config: ModelConfig) -> None:
    """Raise ValueError unless :func:`train` can run ``config`` for a
    ``student_config`` student against ``teacher`` on ``splits``: non-empty
    train and dev splits, every example of the three carrying token ids that
    fit both the student's and the teacher's max_len, the teacher's task
    (and, for classification, its num_classes), and ``soft_targets`` only
    for a classification student."""
    for name, part in (("train", splits.train), ("dev", splits.dev), ("test", splits.test)):
        if not part and name != "test":
            raise ValueError(f"the {name} split is empty")
        if any(ex.token_ids is None for ex in part):
            raise ValueError(f"{name} split has examples without token ids")
        longest = max((len(ex.token_ids) for ex in part), default=0)
        for model, limit in (("student", student_config.max_len), ("teacher", teacher.config.max_len)):
            if longest > limit:
                raise ValueError(f"the {name} split holds a sequence of {longest} tokens, "
                                 f"more than the {model}'s max_len {limit}")
    if student_config.task != teacher.config.task:
        raise ValueError(f"student task {student_config.task!r} does not match "
                         f"teacher task {teacher.config.task!r}")
    if (student_config.task == "classification"
            and student_config.num_classes != teacher.config.num_classes):
        raise ValueError(f"student num_classes {student_config.num_classes} does not match "
                         f"teacher num_classes {teacher.config.num_classes}")
    if config.soft_targets and student_config.task != "classification":
        raise ValueError(f"soft_targets needs a classification student, "
                         f"got a {student_config.task} student")


def train(
    config: TrainConfig,
    teacher: MiniTransformer,
    splits: Splits,
    student_config: ModelConfig,
    *,
    tctx: TeacherContext | None = None,
) -> TrainState:
    """Full student training run; deterministic given the config seed.

    Inner steps draw batches from the train split; in smat mode with
    non-zero beta and eta_outer each inner step is followed by one outer
    step whose held-out batch comes from the dev split. Logs train loss,
    dev simulability and the active teacher-head count every
    ``eval_every`` steps. Returns the run's final :class:`TrainState`, log included.

    The whole batch schedule is drawn first, and the teacher context
    ``tctx`` (a new one if None) is filled for exactly the sequences it
    holds, so no step runs the teacher. Runs that share a teacher, mode and
    normalization can share one context; any other raises ValueError, as
    does a run :func:`check_run` rejects.
    """
    check_run(config, teacher, splits, student_config)
    if tctx is None:
        tctx = TeacherContext(teacher, config)
    else:
        tctx.check_serves(teacher, config)
    student = MiniTransformer(student_config, seed=config.seed, dtype=teacher.dtype)
    scope = config.explainer_scope()
    state = TrainState(student=student, phi_s=_zero_mix(student, scope, "phi_s"),
                       phi_t=_zero_mix(teacher, scope, "phi_t"))
    rng_inner = np.random.default_rng([config.seed, 0])
    rng_outer = np.random.default_rng([config.seed, 1])
    inner = [_sample_batch(rng_inner, splits.train, config.batch_size) for _ in range(config.steps)]
    # rng_outer feeds only these batches, so a run with no outer step draws none
    outer = [_sample_batch(rng_outer, splits.dev, config.batch_size)
             for _ in range(config.steps if _outer_runs(config) else 0)]
    _fill_teacher_cache(tctx, config, inner, outer, splits.dev if config.steps else [])

    for step, examples in enumerate(inner, start=1):
        batch = _prepared(examples)  # here, not up front: one batch's masks at a time
        e_t = inner_step(state, batch, config, tctx)
        if outer:
            outer_step(state, batch, outer[step - 1], config, tctx, e_t)
        if step % config.eval_every == 0 or step == config.steps:
            try:
                dev_sim = simulability(student, tctx, splits.dev)
            except ValueError:
                dev_sim = None
            state.log.append(
                TrainRecord(
                    step=step,
                    train_loss=state.last_loss,
                    dev_simulability=dev_sim,
                    active_heads=count_active_heads(state.phi_t, config.normalize),
                )
            )
    return state


# ---------------------------------------------------------------------------
# supervised teacher training


def train_supervised(
    model: MiniTransformer,
    examples: Sequence[Example],
    lr: float = 0.1,
    momentum: float = 0.9,
    steps: int = 500,
    batch_size: int = 32,
    seed: int = 0,
) -> list[float]:
    """SGD with momentum on gold labels; returns per-step mean losses.

    ``lr`` and ``momentum`` must be numbers, ``steps`` and ``seed``
    integers >= 0 and ``batch_size`` one >= 1 (bools are neither); otherwise
    a :class:`FieldError` naming the argument is raised before any step.
    """
    _number("lr", lr)
    _number("momentum", momentum)
    steps, batch_size = _count("steps", steps, 0), _count("batch_size", batch_size, 1)
    seed = _count("seed", seed, 0)
    if not examples:
        raise ValueError("no training examples")
    for ex in examples:
        if ex.token_ids is None:
            raise ValueError("examples must carry token ids")
    rng = np.random.default_rng([seed, 2])
    classify = model.config.task == "classification"
    names = model.param_names()
    velocity = {name: np.zeros_like(model.params[name].data) for name in names}
    losses: list[float] = []
    for _ in range(steps):
        batch = _sample_batch(rng, examples, batch_size)
        targets = [ex.label if classify else ex.score for ex in batch]
        loss = task_loss(model, [ex.token_ids for ex in batch], targets)
        grads = ad.backward(loss, model.param_list())
        for name, p, g in zip(names, model.param_list(), grads):
            velocity[name] = momentum * velocity[name] + g.data
            p.data = p.data - lr * velocity[name]
        losses.append(loss.item())
    return losses


def gold_accuracy(model: MiniTransformer, examples: Sequence[Example]) -> float:
    preds = model.predict([ex.token_ids for ex in examples])
    golds = [ex.label for ex in examples]
    return simulability_accuracy(preds, golds)
