"""Saliency extraction: learned head mixing, gradient methods and IG."""

from types import SimpleNamespace

import numpy as np
import pytest

from smat import autodiff as ad
from smat import explainers
from smat.explainers import (
    BETA_ATTENTION,
    BETA_GRADIENT,
    NORMALIZATIONS,
    STATIC_EXPLAINERS,
    ExplainerParams,
    compute_static_saliency,
    default_beta,
    explain_parameterized,
    head_logit_matrix,
    integrated_gradients_raw,
    normalize_coefficients,
    saliency_from_internals,
    scope_head_indices,
)
from conftest import fd_gradients, rel_err, tiny_model


def test_scope_head_indices():
    model = tiny_model()  # 2 layers x 2 heads
    assert scope_head_indices(model, "all") == [0, 1, 2, 3]
    assert scope_head_indices(model, "last") == [2, 3]
    with pytest.raises(ValueError):
        scope_head_indices(model, "first")


def test_default_beta_by_family():
    assert default_beta("attn_all") == BETA_ATTENTION
    assert default_beta("parameterized") == BETA_ATTENTION
    assert default_beta("grad_l2") == BETA_GRADIENT
    assert default_beta("integrated_gradients") == BETA_GRADIENT
    with pytest.raises(ValueError):
        default_beta("lime")


def test_normalize_none_clips_coefficients():
    phi = ad.Tensor(np.array([20.0, -20.0, 0.5]), dtype=np.float64)
    lam = normalize_coefficients(phi, "none")
    assert np.array_equal(lam.data, np.array([10.0, -10.0, 0.5]))
    with pytest.raises(ValueError):
        normalize_coefficients(phi, "entmax")


def test_zero_phi_equals_static_attention_mean_bitwise():
    """The learned explainer at phi = 0 IS the all-heads attention mean."""
    model = tiny_model(seed=8, dtype=np.float32)
    ids = [2, 3, 4, 5]
    phi = ad.Tensor(np.zeros(model.config.total_heads, dtype=model.dtype))
    learned = explain_parameterized(
        model, ids, ExplainerParams(phi=phi, normalize="sparsemax", scope="all"))
    static = compute_static_saliency(model, ids, "attn_all")
    assert np.array_equal(learned.scores, static.scores)


def test_single_head_model_scopes_coincide():
    model = tiny_model(num_layers=1, heads_per_layer=1, model_dim=4, head_dim=4, ffn_dim=8)
    ids = [2, 3, 4]
    a = compute_static_saliency(model, ids, "attn_all")
    b = compute_static_saliency(model, ids, "attn_last")
    assert np.array_equal(a.scores, b.scores)


def test_mix_selects_sparse_head():
    """Two heads with opposite logits; sparsemax picks exactly one."""
    stack = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]), dtype=np.float64)
    phi = ad.Tensor(np.array([1.0, -1.0]), dtype=np.float64)
    lam = normalize_coefficients(phi, "sparsemax")
    assert np.array_equal(lam.data, np.array([1.0, 0.0]))
    e = ExplainerParams(phi, "sparsemax").mix(stack)
    assert np.allclose(e.data, [0.7311, 0.2689], atol=5e-5)


def test_mix_validates_shapes():
    params = ExplainerParams(ad.constant(np.ones(3), dtype=np.float64), "softmax")
    with pytest.raises(ValueError, match="phi has 3 entries but scope selects 2 heads"):
        params.mix(ad.constant(np.ones((2, 3)), dtype=np.float64))
    with pytest.raises(ValueError, match="phi has 3 entries but scope selects 2 heads"):
        params.mix(ad.constant(np.ones((4, 2, 3)), dtype=np.float64))
    for stack in (np.ones(3), np.ones((1, 4, 3, 3))):
        with pytest.raises(ValueError, match="logit stack must be"):
            params.mix(ad.constant(stack, dtype=np.float64))


def test_single_token_saliency_is_one():
    model = tiny_model(seed=2)
    phi = ad.Tensor(np.array([0.7, -0.3, 0.1, 0.4], dtype=model.dtype))
    sal = explain_parameterized(
        model, [4], ExplainerParams(phi=phi, normalize="softmax", scope="all"))
    assert sal.scores.shape == (1,)
    assert float(sal.scores[0]) == 1.0


def test_all_explainers_output_simplex_scores():
    model = tiny_model(seed=12)
    ids = [2, 3, 4, 5, 6]
    for name in STATIC_EXPLAINERS:
        sal = compute_static_saliency(model, ids, name, ig_steps=8)
        assert sal.scores.shape == (5,), name
        assert np.all(sal.scores >= 0), name
        assert abs(float(sal.scores.sum()) - 1.0) < 1e-5, name
    with pytest.raises(ValueError):
        compute_static_saliency(model, ids, "occlusion")


def test_head_logit_matrix_shape_and_scope():
    model = tiny_model(seed=3)
    ids = [2, 3, 4]
    full = head_logit_matrix(model, ids, "all")
    last = head_logit_matrix(model, ids, "last")
    assert full.shape == (4, 3)
    assert last.shape == (2, 3)
    assert np.array_equal(full[2:], last)


def test_phi_gradient_matches_finite_differences():
    """d KL(target, e(phi)) / d phi against central differences."""
    model = tiny_model(seed=6)
    ids = [2, 3, 4, 5]
    stack_np = head_logit_matrix(model, ids, "all")
    rng = np.random.default_rng(0)
    target_raw = rng.normal(size=4)
    target = np.exp(target_raw - target_raw.max())
    target = target / target.sum()

    for kind in ("softmax", "sparsemax", "none"):
        phi_val = np.array([0.6, -0.2, 0.3, 0.1])  # full sparsemax support, stable

        def loss_of(phi_arr):
            phi = ad.Tensor(phi_arr, requires_grad=True, dtype=np.float64)
            stack = ad.constant(stack_np, dtype=np.float64)
            e = ExplainerParams(phi, kind).mix(stack)
            return ad.kl_divergence(ad.constant(target, dtype=np.float64), e), phi

        loss, phi = loss_of(phi_val)
        (g,) = ad.backward(loss, [phi])

        def value(arrs):
            with ad.no_grad():
                return loss_of(arrs[0])[0].item()

        (fd,) = fd_gradients(value, [phi_val], h=1e-6)
        assert rel_err(g.data, fd) < 1e-3, kind


# ---------------------------------------------------------------------------
# the normalized coefficients of calls that record no graph, cached by value


def count_normalizations(monkeypatch):
    """One entry per normalize_coefficients call, from an empty cache (so each
    no-graph entry is a cache miss)."""
    explainers._normalized_row.cache_clear()
    calls = []
    real = explainers.normalize_coefficients
    monkeypatch.setattr(explainers, "normalize_coefficients",
                        lambda phi, kind: calls.append(kind) or real(phi, kind))
    return calls


@pytest.mark.parametrize("kind", NORMALIZATIONS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 4, 8, 16])
def test_no_graph_coefficients_are_each_examples_own_normalization_bit_for_bit(kind, dtype, heads):
    rng = np.random.default_rng(heads)
    values = rng.normal(scale=3.0, size=heads).astype(dtype)
    values[rng.integers(heads)] = values[0]  # a tie, where sparsemax's sort order matters
    alone = normalize_coefficients(ad.constant(values), kind).data
    for lead in [(), (1,), (5,), (32,)]:
        phi = ad.Tensor(values, requires_grad=True)
        recorded = ExplainerParams(phi=phi, normalize=kind).coefficients(lead)
        assert recorded.requires_grad  # one normalization node per example
        with ad.no_grad():
            got = ExplainerParams(phi=phi, normalize=kind).coefficients(lead)
        assert got.shape == lead + (heads,) and got.dtype == dtype
        assert np.array_equal(got.data, recorded.data), lead
        assert all(np.array_equal(row, alone) for row in got.data.reshape(-1, heads)), lead


@pytest.mark.parametrize("kind", NORMALIZATIONS)
def test_explaining_twice_with_one_explainer_params_normalizes_once(monkeypatch, kind):
    model = tiny_model(seed=5, dtype=np.float32)
    phi = ad.Tensor(np.array([0.4, -0.2, 0.3, 0.1], dtype=np.float32))
    params = ExplainerParams(phi=phi, normalize=kind)
    calls = count_normalizations(monkeypatch)
    first = explain_parameterized(model, [2, 3, 4, 5], params)
    second = explain_parameterized(model, [5, 4, 3, 2], params)
    assert calls == [kind]
    recorded = saliency_from_internals(  # normalized again, through a graph
        model.attention_internals([5, 4, 3, 2]),
        ExplainerParams(ad.Tensor(phi.data, requires_grad=True), normalize=kind))
    assert np.array_equal(second.scores, recorded.data)
    assert not np.array_equal(first.scores, second.scores)
    calls.clear()
    listed = [explain_parameterized(model, [[2, 3], [4, 5]], params) for _ in range(2)]
    assert calls == []  # a (2,)-shaped batch broadcasts the same row
    assert all(np.array_equal(a.scores, b.scores) for a, b in zip(*listed))


def test_the_cached_row_is_keyed_by_value_and_recorded_calls_skip_it(monkeypatch):
    model = tiny_model(seed=7, dtype=np.float32)
    ids = [2, 3, 4, 5]
    phi = ad.Tensor(np.array([0.4, -0.2, 0.3, 0.1], dtype=np.float32), requires_grad=True)
    params = ExplainerParams(phi=phi, normalize="sparsemax")
    calls = count_normalizations(monkeypatch)
    cache = explainers._normalized_row.cache_info

    def misses(token_ids, explainer=params, net=model):
        before = len(calls)
        explain_parameterized(net, token_ids, explainer)
        return len(calls) - before

    def recorded(explainer=params):  # normalized through a graph, read by no cache
        explainer = ExplainerParams(ad.Tensor(explainer.phi.data.copy(), requires_grad=True),
                                    explainer.normalize, explainer.scope)
        return saliency_from_internals(model.attention_internals(ids), explainer)

    graph = saliency_from_internals(model.attention_internals(ids), params)
    assert graph.requires_grad and len(calls) == 1  # a recorded call normalizes ...
    assert cache().currsize == 0  # ... and fills no cache
    assert ad.backward(ad.tsum(ad.mul(graph, graph)), [phi])[0].data.any()
    assert misses(ids) == 1 and misses(ids) == 0
    hits = cache().hits
    assert recorded().requires_grad and cache().hits == hits  # nor reads it
    with ad.no_grad():
        assert not params.coefficients(()).data.flags.writeable

    phi.data = phi.data.copy()  # a new array with the same bytes
    assert misses(ids) == 0
    params.phi = ad.Tensor(phi.data.copy())  # another tensor with the same bytes
    assert misses(ids) == 0
    assert misses([ids, ids[::-1]]) == 0  # another lead shape: (2,), not ()

    params.phi.data[0] += 1.0  # the same array, new bytes
    assert misses(ids) == 1 and misses(ids) == 0
    assert np.array_equal(explain_parameterized(model, ids, params).scores, recorded().data)
    softmax = ExplainerParams(params.phi, normalize="softmax")
    assert misses(ids, softmax) == 1 and misses(ids, softmax) == 0
    wide = ExplainerParams(ad.Tensor(params.phi.data.astype(np.float64)), normalize="sparsemax")
    assert misses(ids, wide, tiny_model(seed=7)) == 1  # float64: another dtype
    assert cache().currsize == 4


def test_the_uniform_mix_is_built_once_per_heads_dtype_and_scope(monkeypatch):
    a, b = tiny_model(seed=1, dtype=np.float32), tiny_model(seed=2, dtype=np.float32)
    mix = explainers._uniform_params(a, "attn_all")
    assert explainers._uniform_params(b, "attn_all") is mix
    assert explainers._uniform_params(a, "attn_last") is not mix
    assert explainers._uniform_params(tiny_model(seed=1), "attn_all") is not mix  # float64
    assert not mix.phi.data.flags.writeable
    calls = count_normalizations(monkeypatch)
    compute_static_saliency(a, [2, 3, 4], "attn_all")
    served = len(calls)
    compute_static_saliency(b, [5, 6, 7, 8], "attn_all")
    assert served <= 1 and len(calls) == served


# ---------------------------------------------------------------------------
# gradient-based explainers on a linear scorer


class LinearScorer:
    """f(x) = sum_i w . emb_i: constant gradient, closed-form attributions.

    Like the model, a batch of (B, L, D) embeddings gets one score per row."""

    def __init__(self, table, w):
        self.table = np.asarray(table, dtype=np.float64)
        self.w = np.asarray(w, dtype=np.float64)
        self.config = SimpleNamespace(task="regression")
        self.dtype = np.float64

    def input_embeddings(self, token_ids, params=None):
        return ad.constant(self.table[list(token_ids)], dtype=np.float64)

    def forward_from_embeddings(self, x, record=False, params=None):
        col = ad.constant(self.w.reshape(-1, 1), dtype=np.float64)
        return ad.tsum(ad.reshape(ad.matmul(x, col), x.shape[:-1]), axis=-1)


@pytest.fixture
def linear_scorer():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(6, 3))
    table[5] = 0.0  # a token with an all-zero embedding
    return LinearScorer(table, rng.normal(size=3))


def test_grad_x_input_closed_form_on_linear_model(linear_scorer):
    ids = [1, 3, 5]
    sal = compute_static_saliency(linear_scorer, ids, "grad_x_input")
    want = np.array([float(linear_scorer.w @ linear_scorer.table[i]) for i in ids])
    assert np.allclose(sal.raw, want, atol=1e-12)
    assert sal.raw[2] == 0.0  # zero embedding contributes nothing


def test_grad_l2_raw_scores_nonnegative():
    model = tiny_model(seed=4)
    sal = compute_static_saliency(model, [2, 3, 4], "grad_l2")
    assert np.all(sal.raw >= 0)


def test_ig_equals_grad_x_input_on_linear_model(linear_scorer):
    ids = [0, 2, 4]
    gxi = compute_static_saliency(linear_scorer, ids, "grad_x_input")
    for steps in (1, 3, 25):
        ig = compute_static_saliency(linear_scorer, ids, "integrated_gradients", ig_steps=steps)
        assert np.allclose(ig.raw, gxi.raw, atol=1e-10), steps


def test_ig_completeness_on_linear_model(linear_scorer):
    ids = [1, 2, 3]
    raw, at_input, at_baseline = integrated_gradients_raw(linear_scorer, ids, steps=4)
    assert abs(raw.sum() - (at_input - at_baseline)) < 1e-10


class QuadraticScorer(LinearScorer):
    """f(x) = sum_i (w . emb_i)^2: the path integrand is exactly linear in
    alpha, so a right-endpoint sum with n steps overshoots the integral by
    exactly delta/n. Pins both the sampling scheme and its error order."""

    def forward_from_embeddings(self, x, record=False, params=None):
        col = ad.constant(self.w.reshape(-1, 1), dtype=np.float64)
        m = ad.reshape(ad.matmul(x, col), x.shape[:-1])
        return ad.tsum(ad.mul(m, m), axis=-1)


def test_ig_riemann_scheme_has_exact_error_on_quadratic():
    rng = np.random.default_rng(19)
    scorer = QuadraticScorer(rng.normal(size=(6, 3)), rng.normal(size=3))
    ids = [0, 1, 4]
    for steps in (1, 10, 50):
        raw, at_input, at_baseline = integrated_gradients_raw(scorer, ids, steps=steps)
        delta = at_input - at_baseline
        want = delta * (steps + 1) / steps  # right-endpoint closed form
        assert abs(raw.sum() - want) < 1e-9 * max(abs(want), 1.0), steps


def test_ig_steps_one_is_grad_x_input_at_input():
    model = tiny_model(seed=14)
    ids = [2, 3, 4]
    raw, _, _ = integrated_gradients_raw(model, ids, steps=1)
    gxi = compute_static_saliency(model, ids, "grad_x_input")
    assert np.allclose(raw, gxi.raw, atol=1e-6)


def test_ig_rejects_bad_steps():
    model = tiny_model()
    with pytest.raises(ValueError):
        integrated_gradients_raw(model, [2, 3], steps=0)

