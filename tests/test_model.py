"""Encoder behavior: shapes, determinism, padding, attention recording."""

from dataclasses import asdict

import numpy as np
import pytest

import smat
from smat import autodiff as ad
from smat.model import (
    PAD_ID,
    AttentionInternals,
    FieldError,
    MiniTransformer,
    ModelConfig,
    head_saliency_logits,
    task_loss,
)
from conftest import fd_gradients, rel_err, tiny_config, tiny_model


def heads(internals):
    """(layer, head, scores, attention) of each recorded head of one
    sequence, layer-major, as numpy arrays."""
    for layer, (s, a) in enumerate(zip(internals.scores, internals.attention)):
        for head in range(s.shape[-3]):
            yield layer, head, s.data[head], a.data[head]


def queries_and_keys(internals):
    """(queries, keys) of each recorded head of one sequence, layer-major:
    the post-projection operands of its scores, read off the recorded graph
    (scores = (q @ transpose(k)) * scale)."""
    for scores in internals.scores:
        q, k_t = scores._parents[0]._parents
        (k,) = k_t._parents
        yield from zip(q.data, k.data)


def test_every_name_the_package_exports_resolves():
    for name in smat.__all__:
        assert getattr(smat, name) is not None, name


def test_config_validates_dimensions():
    with pytest.raises(ValueError, match=r"model_dim 10 != heads_per_layer 2 \* head_dim 4"):
        tiny_config(model_dim=10)
    with pytest.raises(ValueError, match="unknown task 'ranking'"):
        tiny_config(task="ranking")


def test_config_integer_fields_are_checked_by_type():
    cfg = tiny_config(num_layers=2.0, vocab_size=np.int64(12))
    assert (cfg.num_layers, cfg.vocab_size) == (2, 12)
    assert type(cfg.num_layers) is int and type(cfg.vocab_size) is int
    for name, value in (("num_layers", True), ("ffn_dim", 2.5), ("head_dim", "4"),
                        ("num_classes", 0)):
        with pytest.raises(FieldError, match=name):
            tiny_config(**{name: value})


def test_config_round_trips_through_dict():
    cfg = tiny_config()
    assert ModelConfig(**asdict(cfg)) == cfg


def test_output_shapes():
    model = tiny_model()
    out = model.forward([3, 4, 5])
    assert out.shape == (2,)
    reg = tiny_model(task="regression", num_classes=1)
    assert reg.forward([3, 4, 5]).shape == ()


def test_forward_is_deterministic():
    model = tiny_model()
    a = model.forward([2, 3, 4, 5]).data
    b = model.forward([2, 3, 4, 5]).data
    assert np.array_equal(a, b)


def test_record_flag_does_not_change_output():
    model = tiny_model()
    plain = model.forward([2, 3, 4]).data
    recorded, internals = model.forward([2, 3, 4], record=True)
    assert np.array_equal(plain, recorded.data)
    assert internals.scores[0].shape[-1] == 3
    assert len(list(heads(internals))) == model.config.total_heads


def test_trailing_padding_is_rejected():
    """A sequence is its ids: a pad id at its end is no more valid than inside it."""
    with pytest.raises(ValueError, match=f"pad id {PAD_ID} found in a token sequence"):
        tiny_model().forward([2, 3, 4, PAD_ID, PAD_ID])


@pytest.mark.parametrize("ids, message", [
    ([2, PAD_ID, 3], f"pad id {PAD_ID} found in a token sequence"),
    ([PAD_ID, PAD_ID], f"pad id {PAD_ID} found in a token sequence"),
    (np.array([], dtype=np.int64), r"empty sequence \(no tokens\)"),
    ([], r"empty batch \(no sequences\)"),
    ([2, 99], "token id 99 out of range for vocab size 12"),
    (np.array([2, 99]), "token id 99 out of range for vocab size 12"),
    (np.array([[2, 99]]), "token id 99 out of range for vocab size 12"),
    ([2, -1], "token id -1 out of range for vocab size 12"),
    ([2] * 7, "sequence length 7 exceeds max_len 6"),
    (np.array([[2] * 7]), "sequence length 7 exceeds max_len 6"),
])
def test_input_validation(ids, message):
    with pytest.raises(ValueError, match=message):
        tiny_model().forward(ids)


def test_attention_rows_are_distributions():
    model = tiny_model(seed=3)
    _, internals = model.forward([2, 3, 4, 5], record=True)
    for *_, att in heads(internals):
        assert att.shape == (4, 4)
        assert np.all(att >= 0)
        assert np.allclose(att.sum(axis=1), 1.0, atol=1e-6)


def test_equal_embeddings_give_uniform_attention():
    """One layer, one head, identical token vectors: every score row is flat."""
    model = tiny_model(num_layers=1, heads_per_layer=1, model_dim=4, head_dim=4, ffn_dim=8)
    with ad.no_grad():
        tok = model.params["embed.tok"].data
        tok[:] = tok[2]  # every token now shares one embedding row
        model.params["embed.pos"].data[:] = 0.0
    _, internals = model.forward([2, 3, 4], record=True)
    att = internals.attention[0].data[0]
    assert np.allclose(att, 1.0 / 3.0, atol=1e-6)


def test_head_count_and_order():
    model = tiny_model()
    _, internals = model.forward([2, 3], record=True)
    layout = [(layer, head) for layer, head, *_ in heads(internals)]
    assert layout == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # head_saliency_logits keeps that order
    logits = head_saliency_logits(internals).data
    for i, (*_, scores, _) in enumerate(heads(internals)):
        assert np.allclose(logits[i], scores.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# head saliency logits


def brute_force_head_logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Double loop over (query, key) positions; the oracle for s^h."""
    length, dim = q.shape
    scores = np.zeros((length, length))
    for i in range(length):
        for j in range(length):
            scores[i, j] = float(q[i] @ k[j]) / np.sqrt(dim)
    return scores.mean(axis=0)


def test_head_saliency_matches_brute_force():
    model = tiny_model(seed=9, num_layers=2, heads_per_layer=4, model_dim=16, head_dim=4)
    _, internals = model.forward([2, 3, 4, 5, 6], record=True)
    logits = head_saliency_logits(internals)
    assert len(logits.data) == 8
    for (q, k), got in zip(queries_and_keys(internals), logits.data, strict=True):
        want = brute_force_head_logits(q, k)
        assert rel_err(got, want) < 1e-5


def test_head_saliency_single_token():
    model = tiny_model(seed=1)
    _, internals = model.forward([4], record=True)
    logits = head_saliency_logits(internals)
    for (q, k), got in zip(queries_and_keys(internals), logits.data, strict=True):
        q, k = q[0], k[0]
        want = float(q @ k) / np.sqrt(q.size)
        assert got.shape == (1,)
        assert abs(float(got[0]) - want) < 1e-6


def test_head_saliency_identical_queries():
    """If all query rows coincide, the mean over rows is any single row."""
    length, dim = 3, 4
    rng = np.random.default_rng(5)
    q_row = rng.normal(size=dim)
    q = ad.constant(np.tile(q_row, (length, 1)), dtype=np.float64)
    k = ad.constant(rng.normal(size=(length, dim)), dtype=np.float64)
    scores = ad.mul(ad.matmul(q, ad.transpose(k)),
                    ad.constant(np.asarray(1.0 / np.sqrt(dim))))
    att = ad.softmax(scores, axis=-1)
    one_head = lambda t: ad.reshape(t, (1,) + t.shape)  # noqa: E731
    internals = AttentionInternals(scores=[one_head(scores)], attention=[one_head(att)])
    (got,) = head_saliency_logits(internals).data
    want = (np.tile(q_row, (length, 1)) @ k.data.T)[0] / np.sqrt(dim)
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# end-to-end gradients


def test_model_loss_gradients_match_finite_differences():
    """Whole-model gradient check at 10 seeded points, relative error < 1e-3."""
    ids = [2, 3, 4, 5]
    label = 1
    for seed in range(10):
        model = tiny_model(seed=seed, num_layers=2, heads_per_layer=2,
                           model_dim=8, head_dim=4, ffn_dim=16)
        names = model.param_names()
        loss = task_loss(model, ids, label)
        grads = {n: g.data for n, g in zip(names, ad.backward(loss, model.param_list()))}

        baseline = model.clone_param_data()
        for name in names:
            base = baseline[name]
            stride = max(1, base.size // 6)  # probe a spread of coordinates
            for i in range(0, base.size, stride):
                h = 1e-5
                for sign, out in ((1.0, "up"), (-1.0, "down")):
                    probe = {k: v.copy() for k, v in baseline.items()}
                    probe[name].reshape(-1)[i] += sign * h
                    model.load_param_data(probe)
                    with ad.no_grad():
                        val = task_loss(model, ids, label).item()
                    if out == "up":
                        up = val
                    else:
                        down = val
                fd = (up - down) / (2.0 * h)
                got = float(grads[name].reshape(-1)[i])
                assert abs(got - fd) <= 1e-3 * max(abs(fd), 1.0), (
                    f"seed {seed} {name}[{i}]: {got} vs {fd}")
            model.load_param_data(baseline)


def test_scalar_mix_is_shift_invariant():
    model = tiny_model(seed=2)
    ids = [3, 4, 5]
    before = model.forward(ids).data.copy()
    with ad.no_grad():
        model.params["mix.scalars"].data += 3.7
    after = model.forward(ids).data
    assert np.allclose(before, after, atol=1e-5)


def test_predict_argmax_and_tie_break():
    model = tiny_model()
    with ad.no_grad():
        model.params["head.weight"].data[:] = 0.0
        model.params["head.bias"].data[:] = np.array([0.2, 0.9], dtype=model.dtype)
    assert model.predict([2, 3]) == 1
    with ad.no_grad():
        model.params["head.bias"].data[:] = np.array([0.5, 0.5], dtype=model.dtype)
    assert model.predict([2, 3]) == 0  # ties go to the lowest class index


def test_regression_predict_returns_float():
    model = tiny_model(task="regression", num_classes=1)
    out = model.predict([2, 3, 4])
    assert isinstance(out, float)


def test_freeze_blocks_writes():
    model = tiny_model()
    model.freeze()
    assert not any(p.requires_grad for p in model.param_list())
    with pytest.raises(ValueError, match="read-only"):
        model.params["head.bias"].data[:] = 1.0


def test_clone_and_load_round_trip():
    model = tiny_model(seed=4)
    snapshot = model.clone_param_data()
    other = tiny_model(seed=5)
    other.load_param_data(snapshot)
    for name in model.param_names():
        assert np.array_equal(model.params[name].data, other.params[name].data)


def test_param_override_does_not_touch_committed_weights():
    model = tiny_model(seed=6)
    ids = [2, 3, 4]
    committed = model.forward(ids).data.copy()
    shifted = {
        name: ad.Tensor(p.data + 0.01, name=name)
        for name, p in model.params.items()
    }
    overridden = model.forward(ids, params=shifted).data
    assert not np.array_equal(committed, overridden)
    assert np.array_equal(model.forward(ids).data, committed)
