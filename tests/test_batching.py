"""The batched, padded forward and backward path against per-example oracles.

Every model and training function runs one graph over a padded batch. The
oracles below run the same examples one at a time through the
single-sequence path (no batch axis, no mask) and combine them by hand, as
the per-example implementation did. In float64 the bar is 1e-10 relative.
In float32 every gradient must be bit-identical to the oracle's, on
batches whose lengths straddle 8, where numpy's float sum changes its
order: the batched path rounds as the per-example one did.
"""

import hashlib
import warnings

import numpy as np
import pytest

from smat import autodiff as ad
from smat import training
from smat.autodiff import Tensor
from smat.data import Example
from smat import explainers
from smat.explainers import (
    ExplainerParams,
    compute_static_saliency,
    explain_parameterized,
    head_logit_matrix,
    integrated_gradients_raw,
    saliency_from_internals,
    scope_head_indices,
)
from smat.model import (
    PAD_ID,
    PREDICT_CHUNK,
    AttentionInternals,
    MiniTransformer,
    PadMask,
    PreparedIds,
    _layer_norm,
    head_saliency_logits,
    is_batch,
)
from smat.training import (
    TeacherContext,
    TrainConfig,
    TrainState,
    inner_step,
    outer_step,
    student_loss,
    train_supervised,
)
from conftest import rel_err, tiny_config

TOL = 1e-10
VOCAB = 12
MAX_LEN = 6


def random_ids(rng, count, min_len=1):
    return [rng.integers(1, VOCAB, size=int(rng.integers(min_len, MAX_LEN + 1))).tolist()
            for _ in range(count)]


def padded(seqs, width=MAX_LEN):
    out = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for row, seq in zip(out, seqs):
        row[: len(seq)] = seq
    return out


def padded_embeddings(net, seqs):
    """(B, L, D) input embeddings of ``seqs``, zero past each one's length:
    ``input_embeddings`` takes only sequences of one length, as it adds no mask."""
    width = max(map(len, seqs))
    with ad.no_grad():
        rows = [net.input_embeddings(seq).data for seq in seqs]
    return np.stack([np.pad(row, ((0, width - len(row)), (0, 0))) for row in rows])


def examples(rng, count):
    return [Example(tokens=[f"t{i}" for i in ids], label=int(rng.integers(0, 2)), token_ids=ids)
            for ids in random_ids(rng, count)]


def model(seed, dtype=np.float64, **overrides):
    config = tiny_config(**{"vocab_size": VOCAB, "max_len": MAX_LEN, **overrides})
    return MiniTransformer(config, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# forward pass


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_batched_outputs_match_one_at_a_time(task):
    rng = np.random.default_rng(1)
    net = model(2, task=task, num_classes=2 if task == "classification" else 1)
    for _ in range(3):
        seqs = random_ids(rng, 7)
        single = np.stack([net.forward(s).data for s in seqs])
        assert rel_err(net.forward(seqs).data, single) < TOL


def test_batched_head_saliency_logits_match_one_at_a_time():
    rng = np.random.default_rng(3)
    net = model(4)
    seqs = random_ids(rng, 6)
    _, internals = net.forward(seqs, record=True)
    batched = head_saliency_logits(internals).data
    assert batched.shape == (6, net.config.total_heads, max(map(len, seqs)))
    for row, seq in zip(batched, seqs):
        _, one = net.forward(seq, record=True)
        assert rel_err(row[:, : len(seq)], head_saliency_logits(one).data) < TOL


def test_pad_keys_get_exactly_zero_attention():
    rng = np.random.default_rng(5)
    seqs = random_ids(rng, 6)
    _, internals = model(6).forward(seqs, record=True)
    for att in internals.attention:
        for row, seq in zip(att.data, seqs):
            assert np.all(row[:, :, len(seq):] == 0.0)
            assert np.allclose(row.sum(axis=-1), 1.0, atol=1e-12)


def test_appending_pad_columns_moves_no_valid_output():
    rng = np.random.default_rng(7)
    net = model(8, max_len=MAX_LEN + 2)
    seqs = random_ids(rng, 5, min_len=2)
    # extra pad rows of embeddings, with arbitrary values, stay masked
    lengths = np.array([len(s) for s in seqs])
    with ad.no_grad():
        x = Tensor(padded_embeddings(net, seqs))
        wide = np.concatenate([x.data, rng.normal(size=(5, 2, 8))], axis=1)
        want, short = net.forward_from_embeddings(x, record=True,
                                                  mask=PadMask(lengths, x.shape[1]))
        got, long = net.forward_from_embeddings(Tensor(wide, dtype=np.float64), record=True,
                                                mask=PadMask(lengths, wide.shape[1]))
    assert np.max(np.abs(got.data - want.data)) <= 1e-12
    width = max(map(len, seqs))
    for a, b in zip(short.attention, long.attention):
        assert np.max(np.abs(b.data[..., :width, :width] - a.data)) <= 1e-12


def test_batched_task_loss_gradients_match_one_at_a_time():
    rng = np.random.default_rng(9)
    net = model(10)
    batch = examples(rng, 6)
    params = net.param_list()
    got = ad.backward(training.task_loss(net, [ex.token_ids for ex in batch],
                                         [ex.label for ex in batch]), params)
    total = None
    for ex in batch:
        term = ad.cross_entropy(net.forward(ex.token_ids), ex.label)
        total = term if total is None else ad.add(total, term)
    want = ad.backward(ad.mul(total, ad.constant(np.asarray(1.0 / len(batch)))), params)
    for name, g, w in zip(net.param_names(), got, want):
        assert rel_err(g.data, w.data) < TOL, name


def test_batched_predict_matches_one_at_a_time():
    rng = np.random.default_rng(11)
    net = model(12)
    seqs = random_ids(rng, 9)
    single = [net.predict(s) for s in seqs]
    assert all(isinstance(p, int) for p in single)
    assert net.predict(seqs) == single
    with ad.no_grad():
        net.params["head.weight"].data[:] = 0.0
        net.params["head.bias"].data[:] = 0.5
    assert net.predict(seqs) == [0] * len(seqs)  # ties go to the lowest class index


TOO_LONG = f"sequence length {MAX_LEN + 1} exceeds max_len {MAX_LEN}"
PAD_FOUND = f"pad id {PAD_ID} found in a token sequence"


@pytest.mark.parametrize("bad, message", [
    ([[2, 3], [4, PAD_ID, 5]], PAD_FOUND),
    ([[2, 3], [4, 5, PAD_ID]], PAD_FOUND),
    ([[2, 3], [PAD_ID, PAD_ID]], PAD_FOUND),
    ([[2, 3], []], r"empty sequence \(no tokens\)"),
    ([[2, 3], [4, VOCAB]], f"token id {VOCAB} out of range for vocab size {VOCAB}"),
    ([[2, 3], [1] * (MAX_LEN + 1)], TOO_LONG),
])
def test_batch_validation_rejects_each_bad_row(bad, message):
    with pytest.raises(ValueError, match=message):
        model(0).forward(bad)
    # the batch as a right-padded 2-D array holds pad ids, which no input may
    with pytest.raises(ValueError, match=PAD_FOUND):
        model(0).forward(padded(bad, width=MAX_LEN + 1))


# Unpadded batches, which first meet the no-pad early exit's checks.
@pytest.mark.parametrize("bad, message", [
    ([[2, 3], [4, VOCAB]], f"token id {VOCAB} out of range for vocab size {VOCAB}"),
    ([[2, 3], [4, -1]], f"token id -1 out of range for vocab size {VOCAB}"),
    ([[1] * (MAX_LEN + 1)] * 2, TOO_LONG),
])
def test_unpadded_batch_validation_as_a_list_and_as_an_array(bad, message):
    with pytest.raises(ValueError, match=message):
        model(0).forward(bad)
    with pytest.raises(ValueError, match=message):
        model(0).forward(np.array(bad))


# ---------------------------------------------------------------------------
# per-example oracles of the training losses


def oracle_sim_term(student, out, tctx, token_ids, config):
    if student.config.task == "regression":
        diff = ad.sub(out, ad.constant(np.asarray(tctx.target(token_ids), dtype=out.dtype)))
        return ad.mul(diff, diff)
    if config.soft_targets:
        probs = ad.constant(tctx.probs(token_ids), dtype=out.dtype)
        return ad.neg(ad.tsum(ad.mul(probs, ad.log(ad.softmax(out)))))
    return ad.cross_entropy(out, tctx.target(token_ids))


def one_e_t(tctx, ids, phi_t):
    """E_T of one sequence, (L,): the row of a batch of one."""
    e_t = tctx.teacher_saliency([ids], phi_t)
    return ad.reshape(e_t, e_t.shape[1:])


def sequences(batch):
    """The token ids of a batch of Examples, or the sequences of the
    PreparedIds a step passes on."""
    if isinstance(batch, PreparedIds):
        return batch.sequences()
    return [ex.token_ids for ex in batch]


def oracle_student_loss(student, tctx, phi_s, phi_t, batch, config, e_t=None):
    """``student_loss`` one example at a time; each E_T comes from ``tctx``,
    so a batch's ``e_t`` is not read."""
    beta = config.effective_beta()
    total = None
    for ids in sequences(batch):
        out, internals = student.forward(ids, record=True)
        term = oracle_sim_term(student, out, tctx, ids, config)
        if beta > 0.0:
            params = ExplainerParams(phi=phi_s, normalize=config.normalize,
                                     scope=config.explainer_scope())
            e_s = saliency_from_internals(internals, params)
            term = ad.add(term, ad.mul(ad.constant(np.asarray(beta, dtype=term.dtype)),
                                       ad.kl_divergence(one_e_t(tctx, ids, phi_t), e_s)))
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, ad.constant(np.asarray(1.0 / len(batch), dtype=total.dtype)))


def oracle_sim_only_loss(student, tctx, batch, config, params):
    total = None
    for ids in sequences(batch):
        term = ad.cross_entropy(student.forward(ids, params=params), tctx.target(ids))
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, ad.constant(np.asarray(1.0 / len(batch), dtype=total.dtype)))


def oracle_phi_t_gradient(tctx):
    """``_phi_t_gradient`` one example at a time, each E_T built from
    ``tctx`` on a copy of phi_T, so the step's ``e_t`` is not read."""
    def gradient(state, batch, config, e_t, probe_params):
        phi = Tensor(state.phi_t.data.copy(), requires_grad=True, dtype=state.phi_t.dtype)
        params = ExplainerParams(phi=state.phi_s, normalize=config.normalize,
                                 scope=config.explainer_scope())
        total = None
        for ids in sequences(batch):
            with ad.no_grad():
                _, internals = state.student.forward(ids, record=True, params=probe_params)
                e_s = ad.constant(saliency_from_internals(internals, params).data)
            term = ad.kl_divergence(one_e_t(tctx, ids, phi), e_s)
            total = term if total is None else ad.add(total, term)
        scale = config.effective_beta() / len(batch)
        return ad.backward(ad.mul(total, ad.constant(np.asarray(scale, dtype=total.dtype))),
                           [phi])[0].data
    return gradient


def student_state(config, seed=0, dtype=np.float64, max_len=MAX_LEN, teacher_shape=None,
                  task="classification"):
    teacher = model(seed + 1, dtype, max_len=max_len, task=task, **(teacher_shape or {}))
    tctx = TeacherContext(teacher, config)
    student = model(seed, dtype, num_layers=1, max_len=max_len, task=task)
    scope = config.explainer_scope()
    rng = np.random.default_rng(seed)
    phi_s = Tensor(rng.normal(size=len(scope_head_indices(student, scope))),
                   requires_grad=True, dtype=dtype)
    phi_t = Tensor(rng.normal(size=len(scope_head_indices(teacher, scope))),
                   requires_grad=True, dtype=dtype)
    return TrainState(student=student, phi_s=phi_s, phi_t=phi_t), tctx


@pytest.mark.parametrize("mode, options", [
    ("smat", {}),
    ("smat", {"normalize": "softmax"}),
    ("static:attn_last", {}),
    ("none", {}),
    ("smat", {"soft_targets": True}),
    ("smat", {"task": "regression"}),
])
def test_student_loss_and_gradients_match_per_example(mode, options):
    task = options.get("task", "classification")
    config = TrainConfig(mode=mode, steps=1, batch_size=6,
                         **{k: v for k, v in options.items() if k != "task"})
    state, tctx = student_state(config, task=task)
    batch = examples(np.random.default_rng(13), 6)
    wrt = state.student.param_list() + [state.phi_s, state.phi_t]
    losses = []
    grads = []
    for fn in (student_loss, oracle_student_loss):
        loss = fn(state.student, tctx, state.phi_s, state.phi_t, batch, config)
        losses.append(loss.item())
        grads.append(ad.backward(loss, wrt))
    assert rel_err(losses[0], losses[1]) < TOL
    for g, w in zip(*grads):
        assert rel_err(g.data, w.data) < TOL


@pytest.mark.parametrize("hypergrad", ["central", "exact"])
def test_phi_t_hypergradient_matches_per_example(hypergrad, monkeypatch):
    config = TrainConfig(mode="smat", steps=1, batch_size=6, hypergrad=hypergrad, eta_outer=1.0)
    rng = np.random.default_rng(17)
    train_batch, outer_batch = examples(rng, 6), examples(rng, 6)
    updates = []
    for oracle in (False, True):
        state, tctx = student_state(config, seed=3)
        if oracle:
            monkeypatch.setattr(training, "student_loss", oracle_student_loss)
            monkeypatch.setattr(training, "_sim_only_loss", oracle_sim_only_loss)
            monkeypatch.setattr(training, "_phi_t_gradient", oracle_phi_t_gradient(tctx))
        inner_step(state, train_batch, config, tctx)
        before = state.phi_t.data.copy()
        outer_step(state, train_batch, outer_batch, config, tctx)
        updates.append(before - state.phi_t.data)
    assert np.any(updates[0] != 0.0)
    assert rel_err(updates[0], updates[1]) < TOL


def test_train_supervised_step_matches_per_example():
    rng = np.random.default_rng(19)
    pool = examples(rng, 12)
    batched, reference = model(20), model(20)
    train_supervised(batched, pool, lr=0.05, momentum=0.9, steps=1, batch_size=6, seed=1)
    idx = np.random.default_rng([1, 2]).integers(0, len(pool), size=6)
    total = None
    for i in idx:
        term = ad.cross_entropy(reference.forward(pool[int(i)].token_ids), pool[int(i)].label)
        total = term if total is None else ad.add(total, term)
    loss = ad.mul(total, ad.constant(np.asarray(1.0 / len(idx))))
    for name, p, g in zip(reference.param_names(), reference.param_list(),
                          ad.backward(loss, reference.param_list())):
        assert rel_err(batched.params[name].data, p.data - 0.05 * g.data) < TOL, name


# ---------------------------------------------------------------------------
# float32: bit-identical to the per-example path
#
# At the acceptance experiment's shapes the batched path rounds exactly as
# the per-example one, so that experiment's trained models do not depend
# on how a batch is laid out. Matrix products run per example slice
# through BLAS; OpenBLAS rounds some row-vector products differently
# when their width changes (a 4-long row vector, for one), so bit
# identity is asserted at those shapes only.

LONG_LEN = 10
# Lengths on both sides of 8: numpy sums fewer than 8 floats one by one and
# more in eight interleaved partial sums, so padding a short row to the
# batch width would reorder its additions if pads were summed.
LONG_LENGTHS = (10, 5, 7, 9, 6, 8)
# The acceptance experiment's teacher; its student is tiny_config's shape
# with one layer.
EXPERIMENT_TEACHER = dict(num_layers=2, heads_per_layer=4, model_dim=32, head_dim=8, ffn_dim=64)


def long_examples(rng):
    return [Example(tokens=["t"] * int(n), label=int(rng.integers(0, 2)),
                    token_ids=rng.integers(1, VOCAB, size=int(n)).tolist())
            for n in LONG_LENGTHS]


def test_float32_task_loss_gradients_are_bit_identical_to_per_example():
    net = model(10, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    batch = long_examples(np.random.default_rng(23))
    params = net.param_list()
    got = ad.backward(training.task_loss(net, [ex.token_ids for ex in batch],
                                         [ex.label for ex in batch]), params)
    total = None
    for ex in batch:
        term = ad.cross_entropy(net.forward(ex.token_ids), ex.label)
        total = term if total is None else ad.add(total, term)
    scale = ad.constant(np.asarray(1.0 / len(batch), dtype=np.float32))
    want = ad.backward(ad.mul(total, scale), params)
    for name, g, w in zip(net.param_names(), got, want):
        assert g.dtype == np.float32 and np.array_equal(g.data, w.data), name


@pytest.mark.parametrize("options", [
    {},
    {"normalize": "softmax"},
])
def test_float32_student_loss_gradients_are_bit_identical_to_per_example(options):
    config = TrainConfig(mode="smat", steps=1, batch_size=6, **options)
    state, tctx = student_state(config, seed=2, dtype=np.float32, max_len=LONG_LEN,
                                teacher_shape=EXPERIMENT_TEACHER)
    batch = long_examples(np.random.default_rng(29))
    wrt = state.student.param_list() + [state.phi_s, state.phi_t]
    grads = [ad.backward(fn(state.student, tctx, state.phi_s, state.phi_t, batch, config), wrt)
             for fn in (student_loss, oracle_student_loss)]
    for g, w in zip(*grads):
        assert g.dtype == np.float32 and np.array_equal(g.data, w.data)


def test_float32_phi_t_hypergradient_is_bit_identical_to_per_example(monkeypatch):
    config = TrainConfig(mode="smat", steps=1, batch_size=6, eta_outer=1.0)
    rng = np.random.default_rng(31)
    train_batch, outer_batch = long_examples(rng), long_examples(rng)
    updates = []
    for oracle in (False, True):
        state, tctx = student_state(config, seed=3, dtype=np.float32, max_len=LONG_LEN,
                                    teacher_shape=EXPERIMENT_TEACHER)
        if oracle:
            monkeypatch.setattr(training, "student_loss", oracle_student_loss)
            monkeypatch.setattr(training, "_sim_only_loss", oracle_sim_only_loss)
            monkeypatch.setattr(training, "_phi_t_gradient", oracle_phi_t_gradient(tctx))
        # near zero, sparsemax keeps several heads, so the update is nonzero
        state.phi_t.data = state.phi_t.data * np.float32(0.1)
        inner_step(state, train_batch, config, tctx)
        before = state.phi_t.data.copy()
        outer_step(state, train_batch, outer_batch, config, tctx)
        updates.append(before - state.phi_t.data)
    assert np.any(updates[0] != 0.0)
    assert np.array_equal(updates[0], updates[1])


def test_float32_central_hypergradient_follows_the_step_rule_bit_for_bit(monkeypatch):
    """The central phi_T probes and update equal the step rule written out by hand.

    Criteria 04 and 05 of the acceptance suite depend on the float32 bits of
    this update, so the reference pins its arithmetic: a float64 direction,
    each shift taken in float64 and rounded once to float32, the phi_T
    gradient at both probes and a float64 quotient. A shift that rounds
    differently often leaves the update's bits alone but moves some probe
    weight, so the probes are compared too.
    """
    config = TrainConfig(mode="smat", steps=1, batch_size=6, eta_outer=1.0)
    rng = np.random.default_rng(1)
    train_batch, outer_batch = long_examples(rng), long_examples(rng)
    state, tctx = student_state(config, seed=3, dtype=np.float32, max_len=LONG_LEN,
                                teacher_shape=EXPERIMENT_TEACHER)
    state.phi_t.data = state.phi_t.data * np.float32(0.1)
    e_t = inner_step(state, train_batch, config, tctx)

    student = state.student
    names, theta = student.param_names(), student.param_list()
    loss = student_loss(student, tctx, state.phi_s, state.phi_t, train_batch, config)
    pilot = {
        name: Tensor(t.data - config.eta_inner * g.data, requires_grad=True, name=name)
        for name, t, g in zip(names, theta, ad.backward(loss, theta))
    }
    sim = training._sim_only_loss(student, tctx, outer_batch, config, pilot)
    v = [g.data.astype(np.float64) for g in ad.backward(sim, list(pilot.values()))]
    eps = ad.HVP_EPS0 / max(float(np.sqrt(sum(float((x**2).sum()) for x in v))), ad.HVP_DELTA)
    probes, sides = [], []
    for sign in (1.0, -1.0):
        probe = {name: Tensor(t.data + (sign * eps * x).astype(np.float32), name=name)
                 for name, t, x in zip(names, theta, v)}
        probes.append(probe)
        sides.append(training._phi_t_gradient(state, train_batch, config, e_t, probe)
                     .astype(np.float64))
    mv = (sides[0] - sides[1]) / (2.0 * eps)
    hyper = (-config.eta_inner * mv).astype(np.float32)
    assert np.any(hyper != 0.0)
    want = state.phi_t.data - config.eta_outer * hyper

    seen = []
    phi_t_gradient = training._phi_t_gradient

    def recording(state_, batch, config_, e_t_, probe_params):
        seen.append({name: t.data.copy() for name, t in probe_params.items()})
        return phi_t_gradient(state_, batch, config_, e_t_, probe_params)

    monkeypatch.setattr(training, "_phi_t_gradient", recording)
    outer_step(state, train_batch, outer_batch, config, tctx, e_t)
    assert len(seen) == 2
    for got, probe in zip(seen, probes):
        for name in names:
            assert got[name].dtype == np.float32, name
            assert np.array_equal(got[name], probe[name].data), name
    assert state.phi_t.dtype == np.float32 and np.array_equal(state.phi_t.data, want)


def test_float32_length_groups_built_once_round_like_each_row_alone():
    """One grouping of (B, H, L, L) score rows by key length, as one forward
    builds it, serves the softmax of two layers and their gradients."""
    rng = np.random.default_rng(59)
    lengths = np.array(LONG_LENGTHS + (10, 5))
    heads, width = EXPERIMENT_TEACHER["heads_per_layer"], LONG_LEN
    shape = (len(lengths), heads, width, width)
    groups = ad.LengthGroups(lengths[:, None, None], shape)
    for _ in range(2):  # one pass per layer
        pad = np.arange(width) >= lengths[:, None, None, None]
        x = np.where(pad, -1e9, rng.normal(size=shape)).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        outs = []
        for lens in (groups, ad.LengthGroups(lengths[:, None, None], shape)):  # kept, and fresh
            a = Tensor(x, requires_grad=True)
            y = ad.softmax(a, axis=-1, lengths=lens)
            outs.append((y.data, ad.backward(ad.tsum(ad.mul(y, ad.constant(g))), [a])[0].data))
        assert np.array_equal(outs[0][0], outs[1][0]) and np.array_equal(outs[0][1], outs[1][1])
        sums = ad._prefix_sum(x, -1, groups)
        for b, n in enumerate(lengths):
            a = Tensor(x[b, :, :, :n], requires_grad=True)
            y = ad.softmax(a, axis=-1)
            grad = ad.backward(ad.tsum(ad.mul(y, ad.constant(g[b, :, :, :n]))), [a])[0].data
            assert np.array_equal(outs[0][0][b, :, :, :n], y.data)
            assert np.array_equal(outs[0][1][b, :, :, :n], grad)
            assert np.array_equal(sums[b, :, :, 0], x[b, :, :, :n].sum(axis=-1))
    with pytest.raises(ValueError, match="length groups"):
        ad._prefix_sum(np.zeros(shape[:-1] + (width - 1,), dtype=np.float32), -1, groups)


# ---------------------------------------------------------------------------
# an empty list is an empty batch


def test_predict_of_an_empty_batch_is_empty():
    net = model(61)
    assert net.predict([]) == []
    with pytest.raises(ValueError, match="empty batch"):
        net.forward([])


@pytest.mark.parametrize("name", explainers.STATIC_EXPLAINERS)
def test_static_saliency_of_an_empty_batch_is_empty(name):
    assert compute_static_saliency(model(63), [], name) == []


def test_parameterized_explanation_of_an_empty_batch_is_empty():
    net = model(65)
    phi = Tensor(np.zeros(net.config.total_heads))
    assert explain_parameterized(net, [], ExplainerParams(phi)) == []


@pytest.mark.parametrize("lookup", ["target", "probs", "head_logits", "static_saliency"])
def test_a_teacher_lookup_of_an_empty_batch_calls_no_teacher(monkeypatch, lookup):
    teacher = model(67)
    tctx = TeacherContext(teacher, TrainConfig(mode="static:attn_all"))

    def refuse(*args, **kwargs):
        raise AssertionError("teacher called")

    for name in ("forward", "forward_from_embeddings", "predict"):
        monkeypatch.setattr(teacher, name, refuse)
    assert getattr(tctx, lookup)([]) == []


# ---------------------------------------------------------------------------
# teacher cache: a batch lookup equals the per-sequence teacher calls


def test_float32_batched_teacher_lookups_are_bit_identical_to_per_sequence():
    teacher = model(41, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    rng = np.random.default_rng(43)
    pool = [rng.integers(1, VOCAB, size=int(n)).tolist()
            for n in rng.integers(5, LONG_LEN + 1, size=30)]
    batches = [pool]  # every sequence once
    for _ in range(12):  # random batches, each with at least one duplicate
        batch = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(2, 17)))]
        batches.append(batch + [batch[0]])
    batches += [[seq] for seq in pool[:5]]
    for mode in ("smat", "static:attn_last"):
        config = TrainConfig(mode=mode)
        for batch in batches:
            tctx = TeacherContext(teacher, config)
            logits, targets, probs = tctx.head_logits(batch), tctx.target(batch), tctx.probs(batch)
            for seq, m, t, p in zip(batch, logits, targets, probs):
                want = training.head_logit_matrix(teacher, seq, tctx.scope)
                assert m.dtype == np.float32 and np.array_equal(m, want)
                assert t == teacher.predict(seq)
                with ad.no_grad():
                    assert np.array_equal(p, ad.softmax(teacher.forward(seq), axis=-1).data)


def test_a_batch_lookup_computes_only_its_unseen_sequences_in_one_call(monkeypatch):
    teacher = model(45)
    tctx = TeacherContext(teacher, TrainConfig(mode="smat"))
    calls = []
    head_logit_matrix = training.head_logit_matrix

    def counting(model_, token_ids, scope="all"):
        calls.append([list(seq) for seq in token_ids])
        return head_logit_matrix(model_, token_ids, scope)

    monkeypatch.setattr(training, "head_logit_matrix", counting)
    a, b, c, d = [2, 3, 4], [5, 6], [7, 8, 9, 10], [11, 2]
    rows = tctx.head_logits([a, b, a, b])
    assert calls == [[a, b]]
    assert [r.shape[-1] for r in rows] == [3, 2, 3, 2] and rows[0] is rows[2]
    assert tctx.head_logits([c, a, np.array(c)])[1] is rows[0]
    assert calls == [[a, b], [c]]
    tctx.head_logits([b, c, a])  # fully cached
    assert tctx.head_logits(np.array(b)) is rows[1]
    assert len(calls) == 2
    one = tctx.head_logits(d)
    assert calls[2:] == [[d]]
    assert np.array_equal(one, head_logit_matrix(teacher, d))


# ---------------------------------------------------------------------------
# explainers: a list equals the per-sequence calls


def explainer_pool(seed, count=40):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, VOCAB, size=int(n)).tolist()
            for n in rng.integers(5, LONG_LEN + 1, size=count)]


ATTENTION_CASES = [("attn_all", None), ("attn_last", None), ("parameterized", "sparsemax"),
                   ("parameterized", "softmax"), ("parameterized", "none")]


def attention_explainer(name, normalize, heads, dtype):
    if name != "parameterized":
        return lambda net, ids: compute_static_saliency(net, ids, name)
    phi = Tensor(np.array([0.3, -0.1, 0.25, 0.05, 0.2, -0.3, 0.1, 0.15][:heads], dtype=dtype))
    params = ExplainerParams(phi, normalize, "all")
    return lambda net, ids: explain_parameterized(net, ids, params)


# The acceptance experiment's teacher (8 heads), and 4 heads, where a padded
# row's head mix (a 1x4 by 4xL BLAS product) rounds apart from the unpadded one.
@pytest.mark.parametrize("shape", [EXPERIMENT_TEACHER, {}], ids=["experiment", "four_heads"])
@pytest.mark.parametrize("name,normalize", ATTENTION_CASES)
def test_float32_attention_explainer_list_is_bit_identical_to_per_sequence(name, normalize, shape):
    teacher = model(47, np.float32, max_len=LONG_LEN, **shape)
    explain = attention_explainer(name, normalize, teacher.config.total_heads, np.float32)
    pool = explainer_pool(49)
    listed = explain(teacher, pool)
    assert len(listed) == len(pool)
    for seq, sal in zip(pool, listed):
        want = explain(teacher, seq)
        assert sal.scores.dtype == np.float32 and np.array_equal(sal.scores, want.scores)


# sha256 of the scores of attention_explanation_bytes' explanations, recorded
# when every explanation ran the whole prefix up to the last layer's attention
# and normalized phi on every call: an oracle independent of what the value
# path keeps between calls. It rests on float32 rounding with OpenBLAS 0.3.31.
EXPLANATION_SHA256 = {
    ("attn_all", None, "all"):
        "aa91fb10dd060c51d1bdf076029799d8e6a6728a22c37a740db543b003491a1e",
    ("attn_last", None, "last"):
        "e9a2142ecf3c0687ed07c44a4c4cca15898626ada50c0169c3e309f4226a9245",
    ("parameterized", "sparsemax", "all"):
        "03948fd2533019891180ca00f222cda0b9c1fa7fb82678ab223ba93fadfaaac8",
    ("parameterized", "softmax", "all"):
        "8219b0ec8c60ca75091f4670e71457589559a02855863686685e66fd30b9d910",
    ("parameterized", "none", "all"):
        "1d35d4408c44dc6031fce7744284e6078149136f6d3fa48d6da57f377138a6bb",
    ("parameterized", "sparsemax", "last"):
        "a8f8c2d45cb5cc0e8da8b3288e1b103d9b25b6ee52b47dd32b3b651b60e5a2e7",
    ("parameterized", "softmax", "last"):
        "dac04700f29cd20d370c0c44ff548e01342adb1732beaa30b7f6f7b1f2cf0078",
    ("parameterized", "none", "last"):
        "accb66423921583b40f7a56a68a176aa50a77375f7d641bd44e20545d72ee0c7",
}


def attention_explanation_bytes(name, normalize, scope):
    """sha256 of two passes of one-sequence and list explanations of one pool,
    in float32 at the experiment teacher's shapes."""
    teacher = model(131, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    pool = explainer_pool(133, count=24)
    if name == "parameterized":
        rng = np.random.default_rng(135)
        heads = len(scope_head_indices(teacher, scope))
        params = ExplainerParams(Tensor(rng.normal(scale=0.25, size=heads).astype(np.float32)),
                                 normalize, scope)
        explain = lambda ids: explain_parameterized(teacher, ids, params)  # noqa: E731
    else:
        explain = lambda ids: compute_static_saliency(teacher, ids, name)  # noqa: E731
    digest = hashlib.sha256()
    for _ in range(2):  # the second pass may reuse what the first one kept
        for sal in [explain(seq) for seq in pool] + explain(pool) + explain(pool[:3]):
            assert sal.scores.dtype == np.float32
            digest.update(sal.scores.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(EXPLANATION_SHA256),
                         ids=lambda case: "-".join(filter(None, case)))
def test_float32_attention_explanations_have_their_recorded_bytes(case):
    assert attention_explanation_bytes(*case) == EXPLANATION_SHA256[case]


def test_gradient_explainer_list_is_the_per_sequence_list():
    teacher = model(51, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    pool = explainer_pool(53, count=6)
    for name in ("grad_l2", "grad_x_input", "integrated_gradients"):
        for seq, sal in zip(pool, compute_static_saliency(teacher, pool, name, ig_steps=5)):
            want = compute_static_saliency(teacher, seq, name, ig_steps=5)
            assert np.array_equal(sal.scores, want.scores) and np.array_equal(sal.raw, want.raw)


def length_groups(pool):
    """The sequences of ``pool`` grouped by length, in first-seen order."""
    groups = {}
    for seq in pool:
        groups.setdefault(len(seq), []).append(seq)
    return list(groups.values())


def chunk_pool(seed, chunk):
    """Shuffled sequences of lengths 5..LONG_LEN (on both sides of 8), chunk + 1
    of each length, so every length's group spans two chunks."""
    rng = np.random.default_rng(seed)
    pool = [rng.integers(1, VOCAB, size=n).tolist()
            for n in range(5, LONG_LEN + 1) for _ in range(chunk + 1)]
    return [pool[int(i)] for i in rng.permutation(len(pool))]


GRADIENT_CASES = [("grad_l2", 1), ("grad_x_input", 1), ("integrated_gradients", 1),
                  ("integrated_gradients", 5), ("integrated_gradients", 10),
                  ("integrated_gradients", explainers.IG_STEPS_EVAL)]


@pytest.mark.parametrize("name,steps", GRADIENT_CASES)
def test_float32_gradient_explainer_chunks_are_bit_identical_to_per_sequence(name, steps):
    """Grouped, chunked graphs give each sequence the bits of its own graph."""
    teacher = model(71, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    pool = chunk_pool(73, max(1, explainers.IG_STEPS_EVAL // steps))
    for seq, sal in zip(pool, compute_static_saliency(teacher, pool, name, ig_steps=steps)):
        want = compute_static_saliency(teacher, seq, name, ig_steps=steps)
        assert sal.raw.dtype == np.float32
        assert np.array_equal(sal.scores, want.scores) and np.array_equal(sal.raw, want.raw)


@pytest.mark.parametrize("name,steps", GRADIENT_CASES)
def test_gradient_explainer_graphs_hold_at_most_the_eval_path_points(monkeypatch, name, steps):
    net = model(75, max_len=LONG_LEN)
    chunk = max(1, explainers.IG_STEPS_EVAL // steps)
    pool = chunk_pool(77, chunk)
    rows = []
    run = net.forward_from_embeddings

    def counting(embeddings, *args, **kwargs):
        rows.append(embeddings.shape[0])
        return run(embeddings, *args, **kwargs)

    monkeypatch.setattr(net, "forward_from_embeddings", counting)
    compute_static_saliency(net, pool, name, ig_steps=steps)
    per_length = [len(group) for group in length_groups(pool)]
    assert max(rows) <= explainers.IG_STEPS_EVAL
    assert len(rows) == sum(-(-n // chunk) for n in per_length) == 2 * len(per_length)


def oracle_integrated_gradients(net, token_ids, steps):
    """Per-point loop: one graph per interpolation point k/steps * x."""
    with ad.no_grad():
        target = int(np.argmax(net.forward(token_ids).data))
        base = net.input_embeddings(token_ids).data
    grads, total = [], np.zeros(base.shape)
    for k in range(1, steps + 1):
        x = Tensor((k / steps) * base, requires_grad=True, dtype=base.dtype)
        grads.append(ad.backward(ad.cross_entropy(net.forward_from_embeddings(x), target), [x])[0].data)
        total += grads[-1].astype(np.float64)
    raw = (base.astype(np.float64) * (total / steps)).sum(axis=1)
    return np.stack(grads), raw.astype(base.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_integrated_gradients_points_match_a_per_point_loop(dtype):
    teacher = model(55, dtype, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    steps = explainers.IG_STEPS_EVAL
    for group in length_groups(explainer_pool(57, count=6)):
        grouped = explainers._path_gradients(teacher, group, np.arange(1, steps + 1) / steps)[0]
        for seq, grads in zip(group, grouped):
            want_grads, want_raw = oracle_integrated_gradients(teacher, seq, steps)
            raw = integrated_gradients_raw(teacher, seq, steps)[0]
            assert grads.dtype == dtype and raw.dtype == dtype
            if dtype == np.float32:
                assert np.array_equal(grads, want_grads) and np.array_equal(raw, want_raw)
            else:
                assert rel_err(grads, want_grads) < TOL and rel_err(raw, want_raw) < TOL


def test_float32_explain_integrated_gradients_skips_the_completeness_forwards(monkeypatch):
    teacher = model(59, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    pool = explainer_pool(61, count=4)
    want = [explainers._simplex(integrated_gradients_raw(teacher, seq, 5)[0]) for seq in pool]
    calls = []
    run = teacher.forward_from_embeddings

    def counting(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(teacher, "forward_from_embeddings", counting)
    for seq, scores in zip(pool, want):
        before = len(calls)
        sal = compute_static_saliency(teacher, seq, "integrated_gradients", ig_steps=5)
        assert sal.scores.dtype == np.float32 and np.array_equal(sal.scores, scores)
        assert len(calls) - before == 1  # the path's graph, which also gives the label


def separate_label_path_gradients(net, token_ids, alphas):
    """The path's gradients on the label of a separate no-grad forward at x."""
    with ad.no_grad():
        target = int(np.argmax(net.forward(token_ids).data))
        base = net.input_embeddings(token_ids).data
    x = Tensor(np.asarray(alphas, dtype=base.dtype)[:, None, None] * base, requires_grad=True)
    loss = ad.tsum(ad.cross_entropy(net.forward_from_embeddings(x), np.full(len(alphas), target)))
    return ad.backward(loss, [x])[0].data, target


def test_float32_path_label_from_its_own_graph_is_the_separate_forwards_label():
    teacher = model(63, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    steps = explainers.IG_STEPS_TRAINING
    alphas = np.arange(1, steps + 1) / steps
    for group in length_groups(explainer_pool(65)):
        grouped = explainers._path_gradients(teacher, group, alphas)
        for seq, grads, base, output in zip(group, *grouped):
            want_grads, want_label = separate_label_path_gradients(teacher, seq, alphas)
            assert np.argmax(output) == want_label and np.array_equal(grads, want_grads)
            want_raw = (base.astype(np.float64) * (want_grads.astype(np.float64).sum(axis=0) / steps)).sum(axis=1)
            sal = compute_static_saliency(teacher, seq, "integrated_gradients", ig_steps=steps)
            assert np.array_equal(sal.scores, explainers._simplex(want_raw.astype(np.float32)))


EXPLAINERS = [*explainers.STATIC_EXPLAINERS, "parameterized"]


def named_explainer(name, net):
    if name != "parameterized":
        return lambda ids: compute_static_saliency(net, ids, name, ig_steps=5)
    params = ExplainerParams(Tensor(np.linspace(-0.3, 0.4, net.config.total_heads)))
    return lambda ids: explain_parameterized(net, ids, params)


@pytest.mark.parametrize("name", EXPLAINERS)
def test_every_explainer_rejects_padded_input(name):
    """No input sequence holds the pad id, so no explanation sees a pad."""
    net = model(79)
    explain = named_explainer(name, net)
    seqs = random_ids(np.random.default_rng(81), 9)
    for ids in (padded(seqs), [seq + [PAD_ID] * 2 for seq in seqs], seqs[0] + [PAD_ID]):
        with pytest.raises(ValueError, match=PAD_FOUND):
            explain(ids)


@pytest.mark.parametrize("name", EXPLAINERS)
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("shape", [EXPERIMENT_TEACHER, {}], ids=["experiment", "four_heads"])
def test_float32_explain_and_predict_is_the_explainer_and_predict_bit_for_bit(name, task, shape):
    """One forward per length group gives each sequence the explainer's
    Saliency and predict's value: for one sequence and for a list of mixed
    lengths (whose predict runs padded)."""
    net = model(85, np.float32, max_len=LONG_LEN, task=task,
                num_classes=2 if task == "classification" else 1, **shape)
    params = ExplainerParams(Tensor(np.linspace(-0.3, 0.4, net.config.total_heads, dtype=np.float32)))
    if name == "parameterized":
        explain = lambda ids: explain_parameterized(net, ids, params)
    else:
        explain = lambda ids: compute_static_saliency(net, ids, name)
    pool = explainer_pool(87, count=24)
    for ids in (pool[0], pool):
        got = explainers.explain_and_predict(net, ids, name, params)
        want_sal, want_pred = explain(ids), net.predict(ids)
        if not is_batch(ids):
            got, want_sal, want_pred = [got], [want_sal], [want_pred]
        assert [p for _, p in got] == want_pred
        assert all(type(p) is type(w) for (_, p), w in zip(got, want_pred))
        for (sal, _), want in zip(got, want_sal):
            assert sal.scores.dtype == np.float32 and np.array_equal(sal.scores, want.scores)
            assert (sal.raw is None and want.raw is None) or np.array_equal(sal.raw, want.raw)


def test_input_embeddings_reject_a_batch_of_mixed_lengths():
    net = model(83)
    assert net.input_embeddings(np.array([[2, 3], [4, 5]])).shape == (2, 2, net.config.model_dim)
    with pytest.raises(ValueError, match="one sequence length"):
        net.input_embeddings([[2, 3, 4], [5, 6]])


# ---------------------------------------------------------------------------
# attention internals: the forward's prefix up to the last layer's scores

STUDENT_SHAPE = dict(num_layers=1)  # tiny_config's 1 layer x 2 heads


def assert_internals_equal(got, want, prefix=False):
    """``got`` holds ``want``'s tensors bit for bit. A ``prefix`` (what
    ``attention_internals`` returns) stops at the last layer's scores: it
    holds every layer's scores, and every layer's attention but the last."""
    assert (got.mask is None) == (want.mask is None)
    if want.mask is not None:
        assert np.array_equal(got.mask.valid, want.mask.valid)
    assert len(want.attention) == len(want.scores)
    for kind in ("scores", "attention"):
        a, b = getattr(got, kind), getattr(want, kind)
        assert len(a) == len(b) - (prefix and kind == "attention")
        for x, y in zip(a, b):
            assert x.dtype == np.float32 and np.array_equal(x.data, y.data)


@pytest.mark.parametrize("shape", [EXPERIMENT_TEACHER, STUDENT_SHAPE], ids=["teacher", "student"])
def test_float32_attention_internals_are_bit_identical_to_a_recorded_forward(shape):
    net = model(71, np.float32, max_len=LONG_LEN, **shape)
    rng = np.random.default_rng(73)
    seqs = [rng.integers(1, VOCAB, size=n).tolist() for n in LONG_LENGTHS]
    probe = {name: Tensor(t.data + (1e-3 * rng.standard_normal(t.shape)).astype(np.float32),
                          requires_grad=True, name=name)
             for name, t in net.params.items()}
    for params in (None, probe):
        for ids in (seqs[0], seqs):
            with ad.no_grad():
                _, want = net.forward(ids, record=True, params=params)
                got = net.attention_internals(ids, params=params)
            assert_internals_equal(got, want, prefix=True)


@pytest.mark.parametrize("shape", [EXPERIMENT_TEACHER, STUDENT_SHAPE], ids=["teacher", "student"])
def test_attention_internals_read_no_parameter_past_the_last_scores(shape):
    net = model(75, np.float32, max_len=LONG_LEN, **shape)
    last = f"layers.{net.config.num_layers - 1}"
    unread = (f"{last}.attn.wv", f"{last}.attn.wo", f"{last}.ffn.", "head.", "mix.scalars")
    prefix = {name: t for name, t in net.params.items() if not name.startswith(unread)}
    assert f"{last}.ffn.norm.gain" not in prefix and "head.weight" not in prefix
    seqs = random_ids(np.random.default_rng(77), 5)
    _, want = net.forward(seqs, record=True)
    assert_internals_equal(net.attention_internals(seqs, params=prefix), want, prefix=True)
    with pytest.raises(KeyError):
        net.forward(seqs, params=prefix)


# ---------------------------------------------------------------------------
# prepared ids: one preparation read by every forward over a batch

PREPARED_LENGTHS = {"padded": LONG_LENGTHS, "unpadded": (LONG_LEN,) * len(LONG_LENGTHS)}


def prepared_case(name, seed):
    rng = np.random.default_rng(seed)
    return [Example(tokens=["t"] * n, label=int(rng.integers(0, 2)),
                    token_ids=rng.integers(1, VOCAB, size=n).tolist())
            for n in PREPARED_LENGTHS[name]]


def test_prepared_ids_are_the_sequences_they_were_built_from():
    seqs = [ex.token_ids for ex in prepared_case("padded", 111)]
    prepared = PreparedIds(seqs)
    assert is_batch(prepared) and len(prepared) == len(seqs)
    assert prepared.ids.shape == (len(seqs), LONG_LEN)  # padded to the longest sequence
    assert prepared.sequences() == [tuple(seq) for seq in seqs]
    assert prepared.sequences() is prepared.sequences()  # built once
    assert np.array_equal(prepared.mask.lengths, [len(seq) for seq in seqs])
    one = PreparedIds(seqs[1])
    assert not is_batch(one) and one.mask is None
    assert one.sequences() == [tuple(seqs[1])]
    # a pad id is never a token of a sequence: padding is PreparedIds' own
    for ids in ([seq + [PAD_ID] * 2 for seq in seqs], seqs[1] + [PAD_ID]):
        with pytest.raises(ValueError, match=PAD_FOUND):
            PreparedIds(ids)


@pytest.mark.parametrize("form", [list, tuple, np.array, lambda seq: [np.int64(i) for i in seq]],
                         ids=["list", "tuple", "int_array", "np_int64_elements"])
@pytest.mark.parametrize("where", ["end", "middle", "alone"])
def test_prepared_ids_reject_a_pad_id_in_every_input_form(form, where):
    seq = {"end": [2, 3, PAD_ID], "middle": [2, PAD_ID, 3], "alone": [PAD_ID]}[where]
    for ids in (form(seq), [form([4]), form(seq)], np.array([seq, [4] * len(seq)])):
        with pytest.raises(ValueError, match=PAD_FOUND):
            PreparedIds(ids)


@pytest.mark.parametrize("form", [list, tuple, np.array, lambda seq: [np.int64(i) for i in seq]],
                         ids=["lists", "tuples", "int_arrays", "np_int64_elements"])
def test_prepared_ids_fill_ragged_input_as_the_row_loop_does(form):
    rng = np.random.default_rng(113)
    seqs = random_ids(rng, 9)
    want = padded(seqs, width=max(map(len, seqs)))  # filled one row at a time
    prepared = PreparedIds([form(seq) for seq in seqs])
    assert prepared.ids.dtype == np.int64 and np.array_equal(prepared.ids, want)
    assert np.array_equal(prepared.mask.lengths, [len(seq) for seq in seqs])


@pytest.mark.parametrize("case", list(PREPARED_LENGTHS))
@pytest.mark.parametrize("shape", [EXPERIMENT_TEACHER, STUDENT_SHAPE], ids=["teacher", "student"])
def test_float32_forwards_over_prepared_ids_are_bit_identical_to_raw_ids(shape, case):
    net = model(113, np.float32, max_len=LONG_LEN, **shape)
    seqs = [ex.token_ids for ex in prepared_case(case, 115)]
    prepared = PreparedIds(seqs)
    assert (prepared.mask is None) == (case == "unpadded")
    rng = np.random.default_rng(117)
    probe = {name: Tensor(t.data + (1e-3 * rng.standard_normal(t.shape)).astype(np.float32),
                          requires_grad=True, name=name)
             for name, t in net.params.items()}
    phi = Tensor(rng.normal(size=net.config.total_heads).astype(np.float32), requires_grad=True)
    explainer = ExplainerParams(phi=phi)
    for params in (None, probe):
        want_out, want = net.forward(seqs, record=True, params=params)
        want_e_s = saliency_from_internals(want, explainer)
        (want_grad,) = ad.backward(ad.tsum(ad.mul(want_e_s, want_e_s)), [phi])
        for _ in range(2):  # the second pass reads the masks the first one kept
            got_out, got = net.forward(prepared, record=True, params=params)
            assert np.array_equal(got_out.data, want_out.data)
            assert_internals_equal(got, want)
            with ad.no_grad():
                assert_internals_equal(net.attention_internals(prepared, params=params), want,
                                       prefix=True)
            e_s = saliency_from_internals(got, explainer)
            assert np.array_equal(e_s.data, want_e_s.data)
            (grad,) = ad.backward(ad.tsum(ad.mul(e_s, e_s)), [phi])
            assert np.array_equal(grad.data, want_grad.data)


@pytest.mark.parametrize("case", list(PREPARED_LENGTHS))
@pytest.mark.parametrize("mode", ["smat", "static:attn_all"])
def test_float32_e_t_and_student_loss_over_a_step_batch_are_bit_identical_to_raw_ids(mode, case):
    config = TrainConfig(mode=mode, steps=1, batch_size=6)
    state, tctx = student_state(config, seed=7, dtype=np.float32, max_len=LONG_LEN,
                                teacher_shape=EXPERIMENT_TEACHER)
    batch = prepared_case(case, 119)
    ids = [ex.token_ids for ex in batch]
    step = PreparedIds(ids)
    want_e_t = TeacherContext(tctx.teacher, config).teacher_saliency(ids, state.phi_t)
    assert np.array_equal(tctx.teacher_saliency(step, state.phi_t).data, want_e_t.data)
    wrt = state.student.param_list() + [state.phi_s, state.phi_t]
    want = ad.backward(student_loss(state.student, TeacherContext(tctx.teacher, config),
                                    state.phi_s, state.phi_t, list(batch), config), wrt)
    for _ in range(2):  # the second loss reuses the first one's masks and E_T
        got = ad.backward(student_loss(state.student, tctx, state.phi_s, state.phi_t, step,
                                       config), wrt)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and np.array_equal(g.data, w.data)


# ---------------------------------------------------------------------------
# forwards that record no graph: one body, run over bare arrays


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(9, 32), (6, 10, 32)], ids=["sequence", "batch"])
def test_bare_layer_norm_is_the_op_chain_bit_for_bit(dtype, shape):
    rng = np.random.default_rng(81)
    arrays = (rng.normal(1.0, 3.0, size=shape), rng.normal(size=32), rng.normal(size=32))
    bare = _layer_norm(ad.bare, *(np.asarray(a, dtype=dtype) for a in arrays))
    chain = _layer_norm(ad, *(Tensor(a, requires_grad=i == 0, dtype=dtype) for i, a in enumerate(arrays)))
    assert type(bare) is np.ndarray and chain.requires_grad
    assert bare.dtype == dtype and np.array_equal(bare, chain.data)


def bits(value):
    """(dtype, shape, bytes) of every array a read returns, in order."""
    if isinstance(value, (list, tuple)):
        return [b for item in value for b in bits(item)]
    if isinstance(value, explainers.Saliency):
        return bits(value.scores)
    if isinstance(value, AttentionInternals):
        return bits(value.scores) + bits(value.attention)
    arr = np.asarray(value.data if isinstance(value, Tensor) else value)
    return [(str(arr.dtype), arr.shape, arr.tobytes())]


def on_the_tape(monkeypatch):
    """Every forward body runs on the tape, as a forward that records a graph does."""
    monkeypatch.setattr(ad, "run_forward", lambda body, *inputs, **static: body(ad, *inputs, **static))


ORACLE_SHAPES = {"teacher": EXPERIMENT_TEACHER, "student": STUDENT_SHAPE,
                 "regression": dict(EXPERIMENT_TEACHER, task="regression", num_classes=1)}


def no_graph_reads(net, ids):
    """Every read of ``net`` on ``ids`` that records no graph, by name."""
    phi = {scope: Tensor(np.linspace(-0.3, 0.4, len(scope_head_indices(net, scope)), dtype=net.dtype))
           for scope in explainers.SCOPES}
    reads = {"predict": net.predict(ids)}
    for scope in explainers.SCOPES:
        reads[f"head_logit_matrix.{scope}"] = head_logit_matrix(net, ids, scope)
        for kind in explainers.NORMALIZATIONS:
            params = ExplainerParams(phi[scope], kind, scope)
            reads[f"parameterized.{kind}.{scope}"] = explain_parameterized(net, ids, params)
    for name in ("attn_all", "attn_last"):
        reads[name] = compute_static_saliency(net, ids, name)
        reads[f"explain_and_predict.{name}"] = explainers.explain_and_predict(net, ids, name)
    reads["explain_and_predict.parameterized"] = explainers.explain_and_predict(
        net, ids, "parameterized", ExplainerParams(phi["all"]))
    return {name: bits(value) for name, value in reads.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", list(ORACLE_SHAPES))
def test_no_graph_forwards_are_the_recorded_forward_bit_for_bit(dtype, shape, monkeypatch):
    net = model(83, dtype, max_len=LONG_LEN, **ORACLE_SHAPES[shape])
    frozen = model(83, dtype, max_len=LONG_LEN, **ORACLE_SHAPES[shape]).freeze()
    rng = np.random.default_rng(85)
    seqs = [rng.integers(1, VOCAB, size=n).tolist() for n in LONG_LENGTHS]
    inputs = {"sequence": seqs[0], "array": rng.integers(1, VOCAB, size=(4, 7)), "ragged": seqs}
    probe = {name: Tensor(t.data + (1e-3 * rng.standard_normal(t.shape)).astype(dtype),
                          requires_grad=True, name=name)
             for name, t in net.params.items()}
    for ids in inputs.values():
        want = net.forward(ids, record=True)  # records the op chain
        with ad.no_grad():
            quiet = net.forward(ids, record=True)
        # grad enabled, but no frozen parameter requires it: no graph either
        cold = frozen.forward(ids, record=True)
        assert want[0].requires_grad and not quiet[0].requires_grad and not cold[0].requires_grad
        assert bits(quiet) == bits(cold) == bits(want)
        # the phi_T probes read the attention internals at parameter overrides
        recorded = net.attention_internals(ids, params=probe)
        with ad.no_grad():
            assert bits(net.attention_internals(ids, params=probe)) == bits(recorded)
    # every no-graph read against the same call with each forward on the tape
    got = {name: no_graph_reads(net, ids) for name, ids in inputs.items()}
    on_the_tape(monkeypatch)
    assert got == {name: no_graph_reads(net, ids) for name, ids in inputs.items()}


def test_no_graph_reads_build_no_graph_node(monkeypatch):
    """Guards the read path's cost: a change that runs no-graph forwards,
    head logits or head mixes on the tape again adds nodes here."""
    net = model(93, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    seq, other = explainer_pool(95, count=2)
    params = ExplainerParams(Tensor(np.linspace(-0.3, 0.4, 8, dtype=np.float32)))
    for name in ("attn_all", "attn_last"):  # normalize each phi once, on the tape
        compute_static_saliency(net, seq, name)
    explain_parameterized(net, seq, params)
    ops = []
    real = ad._from_op
    monkeypatch.setattr(ad, "_from_op", lambda data, parents, vjp, op: ops.append(op) or real(
        data, parents, vjp, op))
    for ids in (seq, [seq, other], np.array([seq, seq])):
        with ad.no_grad():
            net.forward(ids, record=True)
            net.attention_internals(ids)
        net.predict(ids)
        head_logit_matrix(net, ids)
        explain_parameterized(net, ids, params)
        for name in ("attn_all", "attn_last"):
            compute_static_saliency(net, ids, name)
            explainers.explain_and_predict(net, ids, name)
    assert ops == []


def outcome(run):
    """What ``run()`` gives, ("raises", message) or ("returns", its bits), and
    the numpy warnings it emits on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = ("returns", bits(run()))
        except ad.NonFiniteError as err:
            value = ("raises", str(err))
    return value, [(w.category, str(w.message)) for w in caught]


def no_graph(run):
    def quiet():
        with ad.no_grad():
            return run()
    return quiet


# The op of the chain that first gives a non-finite value, by case.
NON_FINITE_CASES = {"row_sum": "sum", "square": "mul", "gain": "mul", "nan_gain": "mul", "inf_bias": "add"}


def non_finite_layer_norm(case, grad):
    """float32 (x, gain, bias) tensors whose layer norm is non-finite at the case's op."""
    rng = np.random.default_rng(87)
    x = rng.normal(size=(4, 32)).astype(np.float32)
    gain, bias = np.ones(32, dtype=np.float32), np.zeros(32, dtype=np.float32)
    if case == "row_sum":
        x = x + np.float32(2e37)
    elif case == "square":
        x = np.where(np.arange(32) % 2, 2e19, -2e19).astype(np.float32) * (1 + np.float32(0.01) * x)
    elif case == "gain":
        gain[:] = 3e38
    ts = [Tensor(x, requires_grad=grad), Tensor(gain), Tensor(bias)]
    # a leaf is checked when it is built, so NaN and Inf are written after
    if case == "nan_gain":
        ts[1].data[3] = np.nan
    elif case == "inf_bias":
        ts[2].data[5] = np.inf
    return ts


def non_finite_message(run, grad):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NonFiniteError) as err:
        with ad.enable_grad() if grad else ad.no_grad():
            run()
    return str(err.value)


@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_bare_layer_norm_replays_raising_the_chains_op(case):
    def bare():  # a body checks what it returns
        return ad.run_forward(lambda ops, *t: ops.result(ops.checked(_layer_norm(ops, *t))),
                              *non_finite_layer_norm(case, False))

    messages = [non_finite_message(lambda: _layer_norm(ad, *non_finite_layer_norm(case, True)), True),
                non_finite_message(bare, False)]
    assert messages == [f"non-finite values produced by '{NON_FINITE_CASES[case]}'"] * 2


@pytest.mark.parametrize("case", ["activations", "nan_gain"])
def test_no_grad_forward_raises_naming_the_same_op_as_a_recorded_one(case):
    net = model(89, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    seqs = explainer_pool(91, count=3)
    if case == "nan_gain":
        net.params["layers.1.ffn.norm.gain"].data[2] = np.nan
        run = lambda: net.forward(seqs)  # noqa: E731
    else:  # embeddings whose first layer norm's squares overflow
        huge = padded_embeddings(net, seqs) * np.float32(1e30)
        lengths = np.array([len(seq) for seq in seqs])
        run = lambda: net.forward_from_embeddings(  # noqa: E731
            Tensor(huge), mask=PadMask(lengths, huge.shape[1]))
    assert non_finite_message(run, True) == non_finite_message(run, False) == \
        "non-finite values produced by 'mul'"


# Each case puts one NaN or Inf where exactly one check of the bare pass
# catches it, and names the op at which a recorded forward raises.
CRAFTED_CASES = {
    "score": "matmul",  # a last-layer score of -inf, which the softmax weighs 0
    "relu": "matmul",  # a -inf that the relu turns into 0
    "variance": "mul",  # an overflowing variance, which divides the row to 0
    "nan_gain": "mul",  # a NaN parameter
    "nan_embedding": "gather_rows",
    "head": "matmul",  # an overflowing head output
    "mix_scalar": "broadcast",  # a -inf layer-mix scalar, weighed 0
}


def crafted_model(case):
    """A float32 model of two one-head layers of width 4 whose weights are
    all 0 but the layer-norm gains and the embeddings of tokens 1 and 2, with
    the case's NaN or Inf written in (no weight is checked when loaded)."""
    net = MiniTransformer(tiny_config(vocab_size=3, max_len=3, heads_per_layer=1, model_dim=4,
                                      head_dim=4, ffn_dim=4), dtype=np.float32)
    values = {name: np.zeros(t.shape, np.float32) for name, t in net.params.items()}
    for name, value in values.items():
        if name.endswith("norm.gain"):
            value[:] = 1
    values["embed.tok"][1:] = [[1, -1, 0, 0], [0, 0, 1, -1]]
    alternating = np.array([1, -1, 1, -1], dtype=np.float32)
    big = np.float32(1e19)
    if case == "score":  # every query . token 2's key in the last layer
        values["layers.1.attn.wq"][:, 0] = big * alternating
        values["layers.1.attn.wk"][2:, 0] = -big * alternating[2:]
    elif case == "relu":  # the first hidden unit of layer 0's feed-forward
        values["layers.0.ffn.w1"][:, 0] = np.float32(-2e38) * alternating
    elif case == "variance":
        values["embed.tok"][1] *= np.float32(1e20)
    elif case == "nan_gain":
        values["layers.0.attn.norm.gain"][1] = np.nan
    elif case == "nan_embedding":
        values["embed.tok"][2, 3] = np.nan
    elif case == "head":
        values["head.weight"][:, 0] = np.float32(3e38) * alternating
    elif case == "mix_scalar":
        values["mix.scalars"][0] = -np.inf
    net.load_param_data(values)
    return net


CRAFTED_INPUTS = {"sequence": [1, 2, 1], "array": np.array([[1, 2, 1], [2, 1, 1]]),
                  "ragged": [[1, 2, 1], [1, 2]]}


def crafted_reads(net, ids):
    """Each read of ``net`` on ``ids`` as (recorded, no-graph) runs: the
    recorded one with grad on and every parameter requiring grad; the
    no-graph one as predict, the explainers and the phi_T probes run it."""
    phi = np.array([0.3, -0.2], dtype=np.float32)
    recorded_params = ExplainerParams(Tensor(phi, requires_grad=True))
    params = ExplainerParams(Tensor(phi))
    sequences = ids if is_batch(ids) else [ids]

    def recorded_explanations():  # each sequence alone, as the explainers' length groups give
        return [saliency_from_internals(net.attention_internals(seq), recorded_params)
                for seq in sequences]

    def recorded_explain_and_predict():  # one forward per length group
        def explain(group):
            out, internals = net.forward(group, record=True)
            return list(zip(saliency_from_internals(internals, recorded_params).data,
                            np.argmax(out.data, axis=-1).tolist()))
        return explainers._by_length(ids, explain)

    return {
        "forward": (lambda: net.forward(ids), no_graph(lambda: net.forward(ids))),
        "record": (lambda: net.forward(ids, record=True),
                   no_graph(lambda: net.forward(ids, record=True))),
        "attention_internals": (lambda: net.attention_internals(ids),
                                no_graph(lambda: net.attention_internals(ids))),
        "explanation": (recorded_explanations,
                        lambda: [explain_parameterized(net, seq, params) for seq in sequences]),
        "explain_and_predict": (recorded_explain_and_predict, lambda: explainers.explain_and_predict(
            net, ids, "parameterized", params)),
    }


@pytest.mark.parametrize("inputs", list(CRAFTED_INPUTS))
@pytest.mark.parametrize("case", list(CRAFTED_CASES))
def test_no_graph_reads_raise_what_the_recorded_ones_raise(case, inputs):
    """Each read that records no graph raises the recorded read's message,
    with its numpy warnings, or returns its bits: a check that the bare pass
    skipped where a NaN or Inf could vanish would let one of these cases
    return a finite value where the recorded read raises."""
    net, ids = crafted_model(case), CRAFTED_INPUTS[inputs]
    reads = crafted_reads(net, ids)
    for name, (recorded, quiet) in reads.items():
        want = outcome(recorded)
        assert outcome(quiet) == want, name
    if inputs == "array":
        (kind, message), _ = outcome(reads["forward"][0])
        assert (kind, message) == ("raises", f"non-finite values produced by '{CRAFTED_CASES[case]}'")


@pytest.mark.parametrize("case", ["overflow", "masked_underflow", "mean_overflow"])
def test_no_graph_head_logits_and_mix_raise_what_the_recorded_ones_raise(case):
    """The head mix and the head-logit mean, on hand-made logits and scores:
    a mixed logit of -inf, which the saliency softmax would weigh 0; a masked
    row whose valid entries all underflow, 0/0 in the softmax; and a mean of
    six float32 maxima, which rounds up to inf."""
    phi = np.ones(2, dtype=np.float32)
    logits = np.zeros((2, 2, 3), dtype=np.float32)
    mask = PadMask(np.array([3, 2]), 3)
    if case == "overflow":
        logits[0, :, 1] = -3e38
    elif case == "masked_underflow":
        logits[1, :, 2] = 2e9  # a pad key's column
    scores = np.full((1, 6, 6), np.finfo(np.float32).max, dtype=np.float32)

    def run(grad):
        if case == "mean_overflow":
            return head_saliency_logits(AttentionInternals(scores=[Tensor(scores, requires_grad=grad)]))
        params = ExplainerParams(Tensor(phi, requires_grad=grad), "none")
        return params.mix(Tensor(logits, requires_grad=grad), mask)

    want = outcome(lambda: run(True))
    assert want[0][0] == "raises"
    assert outcome(no_graph(lambda: run(False))) == want


# ---------------------------------------------------------------------------
# the finiteness proof's fast path


def test_float32_training_and_predict_never_take_the_elementwise_finite_check(monkeypatch):
    """Every tensor is proved finite by one sum of squares (``ad.all_finite``);
    only a sum that overflows falls back to ``np.isfinite``, at several times
    the cost. A change that routinely makes huge finite values (a larger
    MASK_BIAS, unnormalized scores) would put every check on that slow path
    and no other test would notice, so this counts the fallback's calls over
    one teacher step, one smat step and one padded predict chunk."""
    rng = np.random.default_rng(101)
    batch = [Example(tokens=["t"] * int(n), label=int(rng.integers(0, 2)),
                     token_ids=rng.integers(1, VOCAB, size=int(n)).tolist())
             for n in rng.integers(1, LONG_LEN + 1, size=32)]
    teacher = model(103, np.float32, max_len=LONG_LEN, **EXPERIMENT_TEACHER)
    config = TrainConfig(mode="smat", steps=1, batch_size=32)
    state, tctx = student_state(config, seed=5, dtype=np.float32, max_len=LONG_LEN,
                                teacher_shape=EXPERIMENT_TEACHER)
    chunk = [rng.integers(1, VOCAB, size=int(n)).tolist()
             for n in rng.integers(1, LONG_LEN + 1, size=PREDICT_CHUNK)]

    calls = []
    real = ad.np.isfinite
    monkeypatch.setattr(ad.np, "isfinite", lambda *a, **k: calls.append(1) or real(*a, **k))
    train_supervised(teacher, batch, steps=1, batch_size=32)
    inner_step(state, batch, config, tctx)
    outer_step(state, batch, batch[::-1], config, tctx)
    teacher.predict(chunk)
    assert calls == []
    assert not ad.all_finite(np.full(3, np.inf, np.float32)) and calls == [1]  # the count sees it
