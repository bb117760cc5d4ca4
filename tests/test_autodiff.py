"""Gradient checks for every differentiable primitive, plus engine behavior.

Every op goes through the same oracle: per-coordinate central finite
differences in float64 at 10 seeded random points, relative error < 1e-4.
"""

import gc
import itertools
import logging
import math
import warnings
import weakref

import numpy as np
import pytest

from smat import autodiff as ad
from smat import training
from smat.data import Example
from smat.explainers import saliency_from_internals, scope_head_indices
from smat.model import task_loss
from conftest import check_op_gradients, fd_gradients, rel_err, tiny_model, weighted_sum


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def test_add_sub_mul_gradients():
    def build(rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))

        def f(ts):
            x, y = ts
            out = ad.add(ad.sub(x, y), ad.mul(x, y))
            return weighted_sum(out, np.random.default_rng(7))

        return [a, b], f

    check_op_gradients(build)


def test_broadcast_binary_gradients():
    # (3,4) against (4,) exercises gradient unbroadcasting on both sides.
    def build(rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))

        def f(ts):
            x, y = ts
            return weighted_sum(ad.mul(ad.add(x, y), ad.sub(x, y)), np.random.default_rng(3))

        return [a, b], f

    check_op_gradients(build)


def test_div_gradients():
    def build(rng):
        a = rng.normal(size=(3, 3))
        b = np.abs(rng.normal(size=(3, 3))) + 0.5  # keep denominators away from 0

        def f(ts):
            return weighted_sum(ad.div(ts[0], ts[1]), np.random.default_rng(11))

        return [a, b], f

    check_op_gradients(build)


def test_unary_gradients():
    def build(rng):
        a = np.abs(rng.normal(size=(2, 5))) + 0.3  # positive for log/sqrt

        def f(ts):
            x = ts[0]
            out = ad.add(ad.exp(ad.neg(x)), ad.add(ad.log(x), ad.sqrt(x)))
            return weighted_sum(out, np.random.default_rng(5))

        return [a], f

    check_op_gradients(build)


def test_pow_const_gradients():
    def build(rng):
        a = np.abs(rng.normal(size=(4,))) + 0.2

        def f(ts):
            return weighted_sum(ad.add(ad.pow_const(ts[0], 3.0), ad.pow_const(ts[0], 1.5)),
                                np.random.default_rng(2))

        return [a], f

    check_op_gradients(build)


def test_relu_gradients_away_from_kink():
    def build(rng):
        a = rng.normal(size=(3, 4))
        a[np.abs(a) < 0.1] = 0.5  # FD is meaningless exactly at the kink

        def f(ts):
            return weighted_sum(ad.relu(ts[0]), np.random.default_rng(9))

        return [a], f

    check_op_gradients(build)


def test_clip_gradients_away_from_boundaries():
    def build(rng):
        a = rng.normal(size=(6,)) * 3.0
        a[np.abs(np.abs(a) - 1.0) < 0.05] = 0.0  # keep points off the clip edges

        def f(ts):
            return weighted_sum(ad.clip(ts[0], lo=-1.0, hi=1.0), np.random.default_rng(4))

        return [a], f

    check_op_gradients(build)


def test_clip_zeroes_gradient_outside_range():
    x = ad.Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True, dtype=np.float64)
    loss = ad.tsum(ad.clip(x, lo=-1.0, hi=1.0))
    (g,) = ad.backward(loss, [x])
    assert np.array_equal(g.data, np.array([0.0, 1.0, 0.0]))


def test_sparsemax_row_stack_gradients_at_stable_points():
    def build(rng):
        z = rng.normal(scale=1.2, size=(3, 4))
        p = np.stack([ad.sparsemax_project(row) for row in z])
        z[(p > 0) & (p < 1e-3)] += 0.1  # keep FD off support changes

        def f(ts):
            return weighted_sum(ad.sparsemax(ts[0]), np.random.default_rng(6))

        return [z], f

    check_op_gradients(build)


@pytest.mark.parametrize("op", [ad.relu, lambda t: ad.clip(t, lo=-0.5, hi=0.5), ad.sparsemax])
def test_masks_are_built_only_when_a_gradient_is_taken(monkeypatch, op):
    x = ad.Tensor(np.array([[0.4, -1.0, 0.9], [0.1, 0.2, -0.3]]), requires_grad=True, dtype=np.float64)
    built = []
    real = ad.constant
    monkeypatch.setattr(ad, "constant", lambda *a, **k: built.append(1) or real(*a, **k))
    with ad.no_grad():
        op(x)
    assert not built
    ad.backward(ad.tsum(op(x)), [x])
    assert built


def test_matmul_transpose_gradients():
    def build(rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))

        def f(ts):
            out = ad.matmul(ts[0], ts[1])
            out = ad.matmul(ad.transpose(out), ts[0])
            return weighted_sum(out, np.random.default_rng(13))

        return [a, b], f

    check_op_gradients(build)


def test_matmul_rejects_non_2d():
    a = ad.Tensor(np.ones(3), dtype=np.float64)
    b = ad.Tensor(np.ones((3, 2)), dtype=np.float64)
    with pytest.raises(ValueError):
        ad.matmul(a, b)


def test_reshape_narrow_concat_stack_gradients():
    def build(rng):
        a = rng.normal(size=(2, 6))
        b = rng.normal(size=(3, 4))

        def f(ts):
            x = ad.reshape(ts[0], (3, 4))
            top = ad.narrow(x, 0, 0, 2)
            left = ad.narrow(ts[1], 1, 0, 2)
            right = ad.narrow(ts[1], 1, 2, 2)
            joined = ad.concat([top, ts[1]], axis=0)
            stacked = ad.stack([ad.reshape(left, (6,)), ad.reshape(right, (6,))])
            return ad.add(weighted_sum(joined, np.random.default_rng(1)),
                          weighted_sum(stacked, np.random.default_rng(8)))

        return [a, b], f

    check_op_gradients(build)


def test_reduction_gradients():
    def build(rng):
        a = rng.normal(size=(3, 4))

        def f(ts):
            x = ts[0]
            out = ad.add(ad.tsum(x, axis=0, keepdims=True),
                         ad.broadcast_to(ad.tmean(x, axis=1, keepdims=True), (3, 4)))
            return ad.add(weighted_sum(out, np.random.default_rng(6)), ad.tmean(x))

        return [a], f

    check_op_gradients(build)


def test_gather_rows_gradients_with_repeats():
    # Repeated ids must accumulate gradient into the same table row.
    def build(rng):
        table = rng.normal(size=(5, 3))
        ids = np.array([0, 2, 2, 4])

        def f(ts):
            return weighted_sum(ad.gather_rows(ts[0], ids), np.random.default_rng(10))

        return [table], f

    check_op_gradients(build)


# ---------------------------------------------------------------------------
# softmax family and losses


def test_softmax_gradients():
    def build(rng):
        a = rng.normal(size=(3, 4))

        def f(ts):
            out = ad.add(ad.softmax(ts[0], axis=-1), ad.softmax(ts[0], axis=0))
            return weighted_sum(out, np.random.default_rng(12))

        return [a], f

    check_op_gradients(build)


def test_logsumexp_gradient_and_stability():
    def build(rng):
        a = rng.normal(size=(5,))

        def f(ts):
            return ad.logsumexp(ts[0])

        return [a], f

    check_op_gradients(build)
    big = ad.Tensor(np.array([1000.0, 1000.0]), dtype=np.float64)
    assert math.isclose(ad.logsumexp(big).item(), 1000.0 + math.log(2.0), rel_tol=1e-12)


def test_cross_entropy_hard_target_gradients():
    def build(rng):
        logits = rng.normal(size=(4,))

        def f(ts):
            return ad.cross_entropy(ts[0], 2)

        return [logits], f

    check_op_gradients(build)


def test_cross_entropy_soft_target_gradients():
    def build(rng):
        logits = rng.normal(size=(4,))
        soft = np.abs(rng.normal(size=(4,))) + 0.1
        soft = soft / soft.sum()

        def f(ts):
            return ad.cross_entropy(ts[0], ad.constant(soft, dtype=np.float64))

        return [logits], f

    check_op_gradients(build)


def test_softmax_cross_entropy_gradient_is_p_minus_y():
    """Fused check: d/dz CE(softmax path, one-hot y) == softmax(z) - y."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(5,))
        target = int(rng.integers(0, 5))
        t = ad.Tensor(z, requires_grad=True, dtype=np.float64)
        (g,) = ad.backward(ad.cross_entropy(t, target), [t])
        p = np.exp(z - z.max())
        p = p / p.sum()
        y = np.zeros(5)
        y[target] = 1.0
        assert rel_err(g.data, p - y) < 1e-12

        def value(arrs):
            with ad.no_grad():
                return ad.cross_entropy(ad.Tensor(arrs[0], dtype=np.float64), target).item()

        (fd,) = fd_gradients(value, [z])
        assert rel_err(g.data, fd) < 1e-4


def test_mean_matvec_gradient_closed_form():
    """f(W) = mean(W @ x): dW rows all equal x / num_rows."""
    rng = np.random.default_rng(17)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=(4, 1))
    wt = ad.Tensor(w, requires_grad=True, dtype=np.float64)
    loss = ad.tmean(ad.matmul(wt, ad.constant(x, dtype=np.float64)))
    (g,) = ad.backward(loss, [wt])
    want = np.tile(x.reshape(1, -1) / 3.0, (3, 1))
    assert rel_err(g.data, want) < 1e-12

    def value(arrs):
        with ad.no_grad():
            return ad.tmean(ad.matmul(ad.Tensor(arrs[0], dtype=np.float64),
                                      ad.constant(x, dtype=np.float64))).item()

    (fd,) = fd_gradients(value, [w])
    assert rel_err(g.data, fd) < 1e-4


def test_kl_divergence_gradients():
    def build(rng):
        p = np.abs(rng.normal(size=(5,))) + 0.2
        p = p / p.sum()
        q = np.abs(rng.normal(size=(5,))) + 0.2
        q = q / q.sum()

        def f(ts):
            return ad.kl_divergence(ts[0], ts[1])

        return [p, q], f

    check_op_gradients(build)


def test_kl_known_values():
    p = ad.Tensor(np.array([1.0, 0.0]), dtype=np.float64)
    q = ad.Tensor(np.array([0.5, 0.5]), dtype=np.float64)
    assert math.isclose(ad.kl_divergence(p, q).item(), math.log(2.0), rel_tol=1e-12)
    # identical distributions: exactly zero, including the p == 0 slot
    r = ad.Tensor(np.array([0.3, 0.7, 0.0]), dtype=np.float64)
    assert ad.kl_divergence(r, r).item() == 0.0
    # tiny and zero p beside q below KL_EPS: only q is clamped, and p == 0 adds nothing
    p = np.array([0.5, 0.3, 0.2 - 2e-7, 1e-7, 1e-7, 0.0, 0.0])
    q = np.array([1e-9, 0.5, 0.3, 1e-10, 0.2, 1e-12, 0.0])
    want = sum(a * (math.log(a) - math.log(max(b, ad.KL_EPS))) for a, b in zip(p, q) if a > 0)
    got = ad.kl_divergence(ad.Tensor(p, dtype=np.float64), ad.Tensor(q, dtype=np.float64))
    assert abs(got.item() - want) <= 1e-12


def test_mse_gradients():
    def build(rng):
        a = rng.normal(size=(6,))
        b = rng.normal(size=(6,))

        def f(ts):
            return ad.mse(ts[0], ts[1])

        return [a, b], f

    check_op_gradients(build)


def test_softmax_known_value():
    out = ad.softmax(ad.Tensor(np.array([1.0, 0.0]), dtype=np.float64))
    assert np.allclose(out.data, [0.7311, 0.2689], atol=5e-5)


# ---------------------------------------------------------------------------
# engine behavior


def test_square_gradient_at_three():
    x = ad.Tensor(3.0, requires_grad=True, dtype=np.float64)
    (g,) = ad.backward(ad.mul(x, x), [x])
    assert g.data.shape == ()
    assert float(g.data) == 6.0


def test_gradient_shapes_match_parameters():
    shapes = [(), (3,), (2, 2)]
    tensors = [ad.Tensor(np.ones(s), requires_grad=True, dtype=np.float64) for s in shapes]
    loss = ad.tsum(ad.mul(tensors[0], tensors[0]))
    for t in tensors[1:]:
        loss = ad.add(loss, ad.tsum(ad.mul(t, t)))
    grads = ad.backward(loss, tensors)
    for t, g in zip(tensors, grads):
        assert g.data.shape == t.data.shape


def test_unreached_parameter_gets_zero_gradient_and_warning(caplog):
    x = ad.Tensor(2.0, requires_grad=True, dtype=np.float64)
    unused = ad.Tensor(np.ones(3), requires_grad=True, dtype=np.float64, name="unused")
    with caplog.at_level(logging.WARNING):
        gx, gu = ad.backward(ad.mul(x, x), [x, unused])
    assert float(gx.data) == 4.0
    assert np.array_equal(gu.data, np.zeros(3))
    assert any("not reached" in rec.message for rec in caplog.records)


def _side_branch_loss(side_vjp, dtype=np.float64):
    """A loss over x @ w and a side branch behind y, which requires grad;
    ``side_vjp`` is the side node's vector-Jacobian closure."""
    rng = np.random.default_rng(17)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=dtype)
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=dtype)
    y = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True, dtype=dtype)
    side = ad.exp(ad._from_op(y.data * 0.5, (y,), side_vjp, "side"))
    h = ad.matmul(x, w)
    return ad.tsum(ad.mul(ad.mul(h, h), side)), [x, w], y


@pytest.mark.parametrize("create_graph", [False, True])
def test_backward_runs_no_closure_behind_a_branch_that_reaches_no_requested_tensor(create_graph):
    def raising(g):
        raise AssertionError("a closure that feeds no requested gradient ran")

    def halving(g):
        return (ad.mul(g, ad.scalar(0.5, g.dtype)),)

    loss, wrt, _ = _side_branch_loss(raising)
    got = ad.backward(loss, wrt, create_graph=create_graph)
    full_loss, full_wrt, y = _side_branch_loss(halving)
    want = ad.backward(full_loss, full_wrt + [y], create_graph=create_graph)[:2]
    for g, w in zip(got, want):
        assert g.requires_grad == create_graph
        assert np.array_equal(g.data, w.data)
    if create_graph:  # the gradient graph holds the side branch too
        second = ad.backward(ad.add(ad.tsum(ad.mul(got[0], got[0])), ad.tsum(got[1])), wrt)
        full = ad.backward(ad.add(ad.tsum(ad.mul(want[0], want[0])), ad.tsum(want[1])), full_wrt)
        for g, w in zip(second, full):
            assert np.array_equal(g.data, w.data)


def test_backward_leaves_a_requested_constant_unreached(caplog):
    x = ad.Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
    c = ad.constant(np.ones(3), dtype=np.float64)
    with caplog.at_level(logging.WARNING):
        gx, gc_ = ad.backward(ad.tsum(ad.mul(ad.neg(x), ad.neg(c))), [x, c])
    assert np.array_equal(gx.data, np.ones(3))
    assert np.array_equal(gc_.data, np.zeros(3))
    assert any("not reached" in rec.message for rec in caplog.records)


def test_backward_rejects_non_scalar_loss():
    x = ad.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x), [x])


# ---------------------------------------------------------------------------
# backward bookkeeping, against the id()-keyed engine it replaced


def _id_keyed_toposort(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def id_keyed_backward(loss, wrt, create_graph=False):
    """Oracle: the backward pass with its visited set, reach set and
    gradient table keyed by ``id()`` of each tensor."""
    order = _id_keyed_toposort(loss)
    grads = {id(loss): ad.constant(np.ones(loss.shape, dtype=loss.dtype))}
    wrt_ids = {id(t) for t in wrt}
    reaches = {id(t) for t in wrt if t.requires_grad}
    for node in order:
        if any(id(p) in reaches for p in node._parents):
            reaches.add(id(node))
    with ad.enable_grad() if create_graph else ad.no_grad():
        for node in reversed(order):
            g = grads.get(id(node))
            if g is None or node._vjp is None or id(node) not in reaches:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or id(parent) not in reaches:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else ad.add(held, pg)
            if id(node) not in wrt_ids:
                del grads[id(node)]
    return [grads[id(t)] for t in wrt]


def _repeated_parents(rng):
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float32)
    w = ad.Tensor(rng.normal(size=(4,)), requires_grad=True, dtype=np.float32)
    sq = ad.mul(x, x)
    return ad.tsum(ad.add(ad.mul(sq, x), ad.mul(ad.mul(sq, w), sq))), [x, w]


def _diamond(rng):
    x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True, dtype=np.float32)
    w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float32)
    top = ad.exp(ad.matmul(x, w))  # feeds both sides
    left = ad.softmax(ad.mul(top, x), axis=-1)
    right = ad.sqrt(ad.add(top, ad.scalar(1.0, top.dtype)))
    bottom = ad.add(ad.matmul(left, ad.transpose(w)), ad.mul(right, right))
    return ad.tsum(ad.mul(bottom, ad.add(bottom, top))), [x, w]


def _model(rng):
    net = tiny_model(seed=3, dtype=np.float32)
    ids = [[int(t) for t in rng.integers(1, 12, size=n)] for n in (6, 4, 5)]
    return task_loss(net, ids, [0, 1, 1]), net.param_list()


def _smat_world(rng):
    """A float32 teacher context, student, phi_S, phi_T and batch, as a smat step sees them."""
    config = training.TrainConfig(mode="smat", steps=1, batch_size=3)
    tctx = training.TeacherContext(tiny_model(seed=5, dtype=np.float32), config)
    student = tiny_model(seed=6, dtype=np.float32, num_layers=1)
    scope = config.explainer_scope()
    phi_s, phi_t = (ad.Tensor(rng.normal(size=len(scope_head_indices(net, scope))) * 0.1,
                              requires_grad=True, dtype=np.float32)
                    for net in (student, tctx.teacher))
    batch = [Example(tokens=["t"] * n, label=int(rng.integers(0, 2)),
                     token_ids=rng.integers(1, 12, size=n).tolist()) for n in (6, 4, 5)]
    return config, tctx, student, phi_s, phi_t, batch


def _student_loss(rng):
    """The inner step's loss: through E_T, differentiated for the student and phi_S."""
    config, tctx, student, phi_s, phi_t, batch = _smat_world(rng)
    loss = training.student_loss(student, tctx, phi_s, phi_t, batch, config)
    return loss, student.param_list() + [phi_s]


def _phi_t_probe_loss(rng):
    """A hypergradient probe's loss, built as ``training._phi_t_gradient`` builds it."""
    config, tctx, student, phi_s, phi_t, batch = _smat_world(rng)
    ids = [ex.token_ids for ex in batch]
    with ad.no_grad():
        e_s = saliency_from_internals(student.attention_internals(ids),
                                      training._student_explainer(phi_s, config))
    expl = ad.kl_divergence(tctx.teacher_saliency(ids, phi_t), e_s)
    return training._scaled(expl, config.effective_beta() / len(ids)), [phi_t]


@pytest.mark.parametrize("build", [_repeated_parents, _diamond, _model, _student_loss,
                                   _phi_t_probe_loss],
                         ids=["repeated_parents", "diamond", "model", "student_loss",
                              "phi_t_probe_loss"])
@pytest.mark.parametrize("create_graph", [False, True])
def test_float32_backward_equals_the_id_keyed_engine_bit_for_bit(build, create_graph):
    loss, wrt = build(np.random.default_rng(31))
    got = ad.backward(loss, wrt, create_graph=create_graph)
    want = id_keyed_backward(loss, wrt, create_graph=create_graph)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float32 and np.array_equal(g.data, w.data)
        assert g.requires_grad == w.requires_grad
    if not create_graph:
        return
    # differentiate each engine's own first-order graph again
    rng = np.random.default_rng(37)
    vs = [ad.constant(rng.normal(size=t.shape), dtype=np.float32) for t in wrt]

    def dot(grads):
        total = ad.tsum(ad.mul(grads[0], vs[0]))
        for g, v in zip(grads[1:], vs[1:]):
            total = ad.add(total, ad.tsum(ad.mul(g, v)))
        return total

    for g, w in zip(ad.backward(dot(got), wrt), id_keyed_backward(dot(want), wrt)):
        assert np.array_equal(g.data, w.data)


@pytest.mark.parametrize("ndim", [3, 4, 5])
@pytest.mark.parametrize("container", [tuple, list])
def test_transpose_cached_inverse_undoes_every_permutation(ndim, container):
    rng = np.random.default_rng(ndim)
    x = ad.Tensor(rng.normal(size=tuple(range(2, 2 + ndim))), requires_grad=True,
                  dtype=np.float64)
    for perm in itertools.permutations(range(ndim)):
        axes = container(perm)
        out = ad.transpose(x, axes)
        assert axes == container(perm)  # the caller's axes are left alone
        assert np.array_equal(out.data, x.data.transpose(perm))
        w = rng.normal(size=out.shape)
        (g,) = ad.backward(ad.tsum(ad.mul(out, ad.constant(w, dtype=np.float64))), [x])
        assert np.array_equal(g.data, w.transpose(np.argsort(perm)))
        assert ad._inverse_permutation(perm) == tuple(np.argsort(perm))
    swapped = ad.transpose(x)
    assert np.array_equal(swapped.data, np.swapaxes(x.data, -1, -2))
    (g,) = ad.backward(ad.tsum(ad.mul(swapped, swapped)), [x])
    assert np.array_equal(g.data, 2.0 * x.data)


def test_no_grad_blocks_graph_recording():
    x = ad.Tensor(1.0, requires_grad=True, dtype=np.float64)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    with ad.no_grad():
        with ad.enable_grad():
            z = ad.mul(x, x)
    assert z.requires_grad


@pytest.mark.parametrize("outer", [ad.no_grad, ad.enable_grad])
@pytest.mark.parametrize("inner", [ad.no_grad, ad.enable_grad])
def test_grad_mode_is_restored_when_its_body_raises(outer, inner):
    x = ad.Tensor(1.0, requires_grad=True, dtype=np.float64)
    records = {ad.no_grad: False, ad.enable_grad: True}
    with outer():
        with pytest.raises(KeyError):
            with inner():
                assert ad.records_graph([x]) is records[inner]
                raise KeyError("inner")
        assert ad.records_graph([x]) is records[outer]
    with pytest.raises(KeyError):
        with outer():
            with inner():
                raise KeyError("both")
    assert ad.records_graph([x])


def test_non_finite_forward_names_op():
    x = ad.Tensor(1000.0, dtype=np.float64)
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="exp"):
        ad.exp(x)


# First-order graphs that go non-finite inside backward. A first-order
# backward builds its ops unchecked and checks the gradients it returns; a
# non-finite one replays the sweep with every op checked, so the error and
# numpy's warnings are those of a sweep that checks each op as it is built.


def _float32_leaf(values):
    return ad.Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


def _sqrt_at_zero():
    x = ad.Tensor(np.array([0.0, 1.0]), requires_grad=True, dtype=np.float64)
    return ad.tsum(ad.sqrt(x)), [x]  # d sqrt/dx at 0 is infinite


def _div_by_zero_in_a_vjp():
    a, b = _float32_leaf([1.0, 2.0]), _float32_leaf([1e-30, 1.0])  # b * b underflows to 0
    return ad.tsum(ad.div(a, b)), [a, b]


def _accumulation_overflows():
    x = _float32_leaf([1e-3, 2e-3])
    c = ad.constant(np.full(2, 3e38, dtype=np.float32))  # each term's gradient is finite
    return ad.tsum(ad.add(ad.mul(x, c), ad.mul(x, c))), [x]


# Below, sqrt's gradient at an exact zero is the Inf cotangent each op carries.
def _inf_through_matmul():
    x = _float32_leaf([[0.0, 0.0], [1.0, 2.0]])
    w = _float32_leaf([[0.5, 1.0, 1.5], [2.0, 0.25, 1.0]])
    return ad.tsum(ad.sqrt(ad.matmul(x, w))), [x, w]


def _inf_through_softmax_with_lengths():
    x = _float32_leaf(np.random.default_rng(0).normal(size=(2, 4)))
    lengths = np.array([4, 2])
    mask = ad.constant(np.where(np.arange(4) < lengths[:, None], 0.0, -1e30).astype(np.float32))
    groups = ad.LengthGroups(lengths, (2, 4))
    return ad.tsum(ad.sqrt(ad.softmax(ad.add(x, mask), axis=-1, lengths=groups))), [x]


def _inf_through_sparsemax():
    z = _float32_leaf([[2.0, 0.0, -1.0], [0.5, 0.4, 0.3]])
    return ad.tsum(ad.sqrt(ad.sparsemax(z))), [z]


def _inf_through_gather_rows():
    table = _float32_leaf([[0.0, 1.0], [2.0, 3.0], [4.0, 0.5]])
    return ad.tsum(ad.sqrt(ad.gather_rows(table, [[2, 0], [0, 1]]))), [table]


SQRT_DIV = "non-finite gradient while differentiating 'sqrt': non-finite values produced by 'div'"
DIVIDE = "divide by zero encountered in divide"
# build: (message, numpy warnings), both as a backward that checks every op gives them
NON_FINITE_BACKWARDS = {
    _sqrt_at_zero: (SQRT_DIV, [DIVIDE]),
    _div_by_zero_in_a_vjp: (
        "non-finite gradient while differentiating 'div': non-finite values produced by 'div'",
        [DIVIDE]),
    _accumulation_overflows: ("non-finite values produced by 'add'", ["overflow encountered in add"]),
    _inf_through_matmul: (SQRT_DIV, [DIVIDE]),
    _inf_through_softmax_with_lengths: (SQRT_DIV, [DIVIDE]),
    _inf_through_sparsemax: (SQRT_DIV, [DIVIDE]),
    _inf_through_gather_rows: (SQRT_DIV, [DIVIDE]),
}


@pytest.mark.parametrize("build", NON_FINITE_BACKWARDS, ids=lambda build: build.__name__[1:])
def test_a_non_finite_first_order_backward_names_the_op_with_its_warnings(build):
    message, warned = NON_FINITE_BACKWARDS[build]
    loss, wrt = build()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ad.NonFiniteError) as err:
            ad.backward(loss, wrt)
    assert str(err.value) == message
    assert [(w.category, str(w.message)) for w in seen] == [(RuntimeWarning, t) for t in warned]


def test_op_checks_are_back_on_after_a_vjp_raises():
    def raising(g):
        raise KeyError("vjp")

    loss, wrt, y = _side_branch_loss(raising)
    with pytest.raises(KeyError):
        ad.backward(loss, wrt + [y])
    x = ad.Tensor(np.ones(2))
    x.data[1] = np.nan  # a leaf is checked when it is built, so NaN is written after
    with pytest.raises(ad.NonFiniteError, match="^non-finite values produced by 'neg'$"):
        ad.neg(x)


def test_a_vjp_intermediate_that_overflows_but_feeds_a_finite_gradient_is_accepted():
    """div's VJP forms b * b, which overflows float32 at b = 3e19; the returned
    db = -a / b**2 is finite, and -0.0 is its correctly rounded value. A
    first-order backward checks only what it returns, so it returns it with
    no warning; a backward that checked every op would raise at that mul."""
    a, b = _float32_leaf([1e-7]), _float32_leaf([3e19])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        da, db = ad.backward(ad.tsum(ad.div(a, b)), [a, b])
    want = -np.float64(a.data[0]) / np.float64(b.data[0]) ** 2
    assert np.float32(want) == 0.0 and np.signbit(np.float32(want))
    assert db.data[0] == 0.0 and np.signbit(db.data[0])
    assert da.data[0] == np.float32(1.0) / b.data[0]


def test_finite_values_whose_sum_overflows_are_accepted():
    big = np.full(4, 3e38, dtype=np.float32)  # every element finite, the sum is not
    with np.errstate(over="ignore"):
        leaf = ad.Tensor(big, name="big")
        out = ad.mul(leaf, ad.constant(np.ones(4, dtype=np.float32)))
    assert np.array_equal(out.data, big)


# ---------------------------------------------------------------------------
# the finiteness proof: a sum of squares, elementwise only when it overflows

# Sizes on both sides of the block widths a BLAS dot product unrolls by.
PROOF_SIZES = (1, 7, 8, 9, 33, 10240, 100003)


# name: (view of n elements of a base of 2n, index of the view's element i);
# the 2-D layout is non-contiguous and holds all 2n.
LAYOUTS = {
    "contiguous": (lambda base, n: base[:n], lambda i: i),
    "strided": (lambda base, n: base[::2], lambda i: i),
    "reversed": (lambda base, n: base[:n][::-1], lambda i: i),
    "2-D transposed": (lambda base, n: base.reshape(2, n).T, lambda i: (i, 0)),
}


@pytest.mark.parametrize("size", PROOF_SIZES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_finite_rejects_every_non_finite_element(dtype, size):
    clean = np.random.default_rng(size).normal(size=2 * size).astype(dtype)
    for where in sorted({0, size // 2, size - 1}):
        for bad in (np.nan, np.inf, -np.inf):
            for name, (view_of, index) in LAYOUTS.items():
                view = view_of(clean.copy(), size)
                assert ad.all_finite(view), name
                view[index(where)] = bad
                assert not ad.all_finite(view), (name, where, bad)
                frozen = view.view()
                frozen.setflags(write=False)
                assert not ad.all_finite(frozen), (name, where, bad, "read-only")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_finite_on_0d_empty_and_one_element_arrays(dtype):
    for ok in (np.zeros((), dtype), np.full((), -2.5, dtype), np.zeros(0, dtype),
               np.zeros((3, 0), dtype), np.full(1, 7.0, dtype)):
        assert ad.all_finite(ok), ok.shape
    for bad in (np.nan, np.inf, -np.inf):
        assert not ad.all_finite(np.full((), bad, dtype))
        assert not ad.all_finite(np.full(1, bad, dtype))


@pytest.mark.parametrize("dtype, big", [(np.float32, 2e19), (np.float64, 1e155)])
def test_finite_values_whose_squares_overflow_are_accepted(dtype, big):
    arr = np.array([big, -big, 1.0], dtype=dtype)
    with np.errstate(all="raise"):  # neither the proof nor its fallback warns
        assert not math.isfinite(np.vdot(arr, arr))  # the sum of squares cannot decide
        assert ad.all_finite(arr)
        leaf = ad.Tensor(arr, name="big", dtype=dtype)
        out = ad.mul(leaf, ad.constant(np.ones(3, dtype=dtype)))
    assert np.array_equal(out.data, arr)


@pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
def test_non_finite_leaf_names_it(values):
    with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError, match="'weights'"):
        ad.Tensor(np.array([1.0] + values), name="weights")


@pytest.mark.parametrize("numerators", [[0.0], [1.0], [-1.0], [1.0, -1.0]])
def test_non_finite_op_output_names_op(numerators):
    # 0/0 is NaN, +1/0 is +inf, -1/0 is -inf; the last case holds both infinities.
    num = ad.Tensor(np.array([2.0] + numerators), dtype=np.float64)
    den = ad.Tensor(np.array([1.0] + [0.0] * len(numerators)), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ad.NonFiniteError, match="'div'"):
        ad.div(num, den)


@pytest.mark.parametrize("op, recorded", [(ad.mul, 3), (ad.matmul, 4)])
def test_constant_parent_gets_no_gradient_node(monkeypatch, op, recorded):
    rng = np.random.default_rng(3)
    c = ad.constant(rng.normal(size=(3, 3)), dtype=np.float64)
    x = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
    loss = ad.tsum(op(x, c))

    calls = []
    real = ad._from_op

    def counting(data, parents, vjp, name):
        calls.append(parents)
        return real(data, parents, vjp, name)

    monkeypatch.setattr(ad, "_from_op", counting)
    ad.backward(loss, [x])
    monkeypatch.undo()
    # The constant's gradient is the only one that would read x
    # (mul(g, x) or transpose(x)); the sum's backward costs two nodes.
    assert not any(p is x for parents in calls for p in parents)
    assert len(calls) == recorded

    def build(rng):
        return [rng.normal(size=(3, 3))], lambda ts: ad.tsum(op(ts[0], c))

    check_op_gradients(build)


def test_a_dropped_training_graph_is_freed_without_the_cyclic_collector():
    model = tiny_model(seed=1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        loss = task_loss(model, [[2, 3, 4], [5, 6]], [0, 1])  # softmax, exp, sqrt inside
        ad.backward(loss, model.param_list())
        probe = weakref.ref(loss)
        del loss
        assert probe() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_create_graph_enables_second_derivatives():
    x = ad.Tensor(2.0, requires_grad=True, dtype=np.float64)
    loss = ad.mul(ad.mul(x, x), x)  # x^3
    (g,) = ad.backward(loss, [x], create_graph=True)
    assert g.requires_grad
    (g2,) = ad.backward(g, [x])
    assert math.isclose(float(g2.data), 12.0, rel_tol=1e-12)  # 6x at x=2
    # without create_graph the gradient is a plain constant
    (g_plain,) = ad.backward(ad.mul(ad.mul(x, x), x), [x])
    assert not g_plain.requires_grad


def test_default_dtype_is_float32():
    assert ad.Tensor([1, 2, 3]).dtype == np.float32
    assert ad.Tensor(np.array([1.0], dtype=np.float64)).dtype == np.float64
    assert ad.Tensor([1.0], dtype=np.float64).dtype == np.float64


# ---------------------------------------------------------------------------
# Hessian-vector products, by the two routes the outer step takes


def central_hvp(f, params, v, eps0=ad.HVP_EPS0):
    """H v of ``f`` at ``params``: central differences of its gradient."""
    return ad.central_difference(
        lambda probes: [g.data for g in ad.backward(f(probes), probes)], params, v, eps0)


def exact_hvp(f, params, v):
    """H v of ``f`` at ``params``: the gradient of <grad f, v>, taken
    through a backward built with ``create_graph=True``."""
    grads = ad.backward(f(params), params, create_graph=True)
    assert all(g.requires_grad for g in grads)
    pieces = [ad.tsum(ad.mul(g, ad.constant(x, dtype=g.dtype))) for g, x in zip(grads, v)]
    total = pieces[0]
    for piece in pieces[1:]:
        total = ad.add(total, piece)
    return [g.data for g in ad.backward(total, params)]


def _quadratic(a):
    mat = ad.constant(a, dtype=np.float64)

    def f(params):
        (theta,) = params
        col = ad.reshape(theta, (theta.shape[0], 1))
        return ad.mul(ad.reshape(ad.matmul(ad.transpose(col), ad.matmul(mat, col)), ()),
                      ad.constant(np.asarray(0.5)))

    return f


def test_hvp_quadratic_exact_for_both_modes():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    theta = ad.Tensor(np.array([0.3, -1.2]), requires_grad=True, dtype=np.float64)
    v = [np.array([1.0, 1.0])]
    for mode, hvp in (("central", central_hvp), ("exact", exact_hvp)):
        (hv,) = hvp(_quadratic(a), [theta], v)
        assert rel_err(hv, np.array([2.0, 4.0])) < 1e-9, mode


def test_hvp_cross_term_modes_agree():
    def f(params):
        t1, t2 = params
        return ad.mul(ad.mul(t1, t1), t2)

    p1 = ad.Tensor(1.0, requires_grad=True, dtype=np.float64)
    p2 = ad.Tensor(1.0, requires_grad=True, dtype=np.float64)
    v = [np.asarray(1.0), np.asarray(0.0)]
    central = central_hvp(f, [p1, p2], v)
    exact = exact_hvp(f, [p1, p2], v)
    for c, e, want in zip(central, exact, (2.0, 2.0)):
        assert c.shape == () and e.shape == ()
        assert math.isclose(float(c), float(e), rel_tol=1e-3)
        assert math.isclose(float(e), want, rel_tol=1e-10)


def test_hvp_zero_direction_is_zero():
    def f(params):
        (t,) = params
        return ad.tsum(ad.mul(ad.mul(t, t), t))

    p = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    (hv,) = central_hvp(f, [p], [np.zeros(2)])
    assert np.array_equal(hv, np.zeros(2))


def test_hvp_random_function_modes_agree():
    rng = np.random.default_rng(21)
    w = rng.normal(size=(4, 4))

    def f(params):
        (t,) = params
        col = ad.reshape(t, (4, 1))
        hidden = ad.relu(ad.matmul(ad.constant(w, dtype=np.float64), col))
        return ad.tsum(ad.mul(hidden, hidden))

    p = ad.Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)
    v = [rng.normal(size=4)]
    (central,) = central_hvp(f, [p], v)
    (exact,) = exact_hvp(f, [p], v)
    assert rel_err(central, exact) < 1e-6


# ---------------------------------------------------------------------------
# batched (N-D) forms of the shape, softmax and loss ops


def test_matmul_broadcasts_over_leading_axes():
    def build(rng):
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        a = rng.normal(size=(2, 1, 3, 4))
        b = rng.normal(size=(1, 3, 4, 2))

        def f(ts):
            left = weighted_sum(ad.matmul(ts[0], ts[1]), np.random.default_rng(5))  # 3-D @ 2-D
            right = weighted_sum(ad.matmul(ts[2], ts[3]), np.random.default_rng(6))  # 4-D @ 4-D
            return ad.add(left, right)

        return [x, w, a, b], f

    check_op_gradients(build)
    got = ad.matmul(ad.constant(np.ones((2, 1, 3, 4))), ad.constant(np.ones((1, 3, 4, 2))))
    assert got.shape == (2, 3, 3, 2)


def test_transpose_with_axes_gradients():
    def build(rng):
        def f(ts):
            moved = ad.transpose(ts[0], (1, 2, 0))  # (3, 4, 2)
            swapped = ad.transpose(moved)  # last two axes: (3, 2, 4)
            return ad.add(weighted_sum(ad.mul(moved, moved), np.random.default_rng(9)),
                          weighted_sum(swapped, np.random.default_rng(10)))

        return [rng.normal(size=(2, 3, 4))], f

    check_op_gradients(build)
    x = ad.constant(np.arange(24.0).reshape(2, 3, 4))
    assert np.array_equal(ad.transpose(x, (1, 2, 0)).data, x.data.transpose(1, 2, 0))
    assert np.array_equal(ad.transpose(x).data, np.swapaxes(x.data, -1, -2))


def test_narrow_and_concat_on_any_axis_gradients():
    def build(rng):
        def f(ts):
            last = ad.narrow(ts[0], -1, 1, 2)  # (2, 3, 2)
            middle = ad.narrow(ts[0], 1, 0, 2)  # (2, 2, 4)
            joined = ad.concat([ts[1], last], axis=-1)  # (2, 3, 3)
            return ad.add(weighted_sum(ad.mul(joined, joined), np.random.default_rng(2)),
                          weighted_sum(middle, np.random.default_rng(3)))

        return [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 1))], f

    check_op_gradients(build)


def test_masked_softmax_gradients_and_exact_zeros():
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
    bias = ad.constant(np.where(mask, 0.0, -1e9))

    def build(rng):
        return [rng.normal(size=(3, 4))], lambda ts: weighted_sum(
            ad.softmax(ad.add(ts[0], bias), axis=-1), np.random.default_rng(4))

    check_op_gradients(build)
    x = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True,
                  dtype=np.float64)
    out = ad.softmax(ad.add(x, bias), axis=-1)
    assert np.all(out.data[~mask] == 0.0)
    (g,) = ad.backward(weighted_sum(out, np.random.default_rng(1)), [x])
    assert np.all(g.data[~mask] == 0.0)


def test_softmax_lengths_round_padded_rows_like_rows_alone():
    rng = np.random.default_rng(12)
    width = 10
    for n in range(1, width + 1):
        row = rng.normal(size=n).astype(np.float32)
        weights = rng.normal(size=n).astype(np.float32)
        x = ad.Tensor(np.concatenate([row, np.full(width - n, -1e9, np.float32)])[None],
                      requires_grad=True)
        y = ad.softmax(x, axis=-1, lengths=ad.LengthGroups(np.array([n]), (1, width)))
        w = np.zeros((1, width), np.float32)
        w[0, :n] = weights
        (g,) = ad.backward(ad.tsum(ad.mul(y, ad.constant(w))), [x])
        alone = ad.Tensor(row, requires_grad=True)
        y1 = ad.softmax(alone, axis=-1)
        (g1,) = ad.backward(ad.tsum(ad.mul(y1, ad.constant(weights))), [alone])
        assert np.array_equal(y.data[0, :n], y1.data) and np.all(y.data[0, n:] == 0.0), n
        assert np.array_equal(g.data[0, :n], g1.data) and np.all(g.data[0, n:] == 0.0), n


def test_tsum_lengths_sums_each_row_prefix():
    x = np.arange(12.0).reshape(3, 4)
    groups = ad.LengthGroups(np.array([4, 2, 1]), (3, 4))
    for axis in (1, -1):
        got = ad.tsum(ad.constant(x, dtype=np.float64), axis=axis, keepdims=True, lengths=groups).data
        assert np.array_equal(got, [[6.0], [9.0], [8.0]])
    with pytest.raises(ValueError):
        ad.tsum(ad.constant(x), axis=1, lengths=groups)  # keepdims needed
    with pytest.raises(ValueError):
        ad.tsum(ad.constant(x), keepdims=True, lengths=groups)  # one axis
    # only the last axis: an inner one raises, also where the shapes agree
    square = ad.LengthGroups(np.array([4, 2, 1, 3]), (4, 4))
    for t, lens in ((ad.constant(x.T), ad.LengthGroups(np.array([3, 2, 1, 3]), (4, 3))),
                    (ad.constant(np.ones((4, 4))), square)):
        with pytest.raises(ValueError, match="last axis"):
            ad.tsum(t, axis=0, keepdims=True, lengths=lens)
    with pytest.raises(ValueError, match="last axis"):
        ad.softmax(ad.constant(np.ones((4, 4))), axis=0, lengths=square)


def moveaxis_prefix_sum(x, axis, lengths):
    """The prefix sum with ``axis`` moved last and back by ``np.moveaxis``
    whatever it is, each row summed alone."""
    moved = np.moveaxis(x, axis, -1)
    counts = np.broadcast_to(lengths, moved.shape[:-1])
    sums = np.empty(moved.shape[:-1] + (1,), dtype=x.dtype)
    for idx in np.ndindex(*moved.shape[:-1]):
        sums[idx] = moved[idx][: counts[idx]].sum()
    return np.moveaxis(sums, -1, axis)


@pytest.mark.parametrize("axis", [-1, 2], ids=["last", "last_by_index"])
def test_float32_prefix_sum_is_the_moveaxis_formulation_bit_for_bit(axis):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 12, 11)).astype(np.float32)  # rows on both sides of 8
    lengths = rng.integers(1, x.shape[-1] + 1, size=x.shape[:-1])
    want = moveaxis_prefix_sum(x, axis, lengths)
    got = ad._prefix_sum(x, axis, ad.LengthGroups(lengths, x.shape))
    assert got.shape == want.shape and np.array_equal(got, want)
    full = np.full(x.shape[:-1], x.shape[-1])  # every row whole: the ungrouped sum
    assert np.array_equal(ad._prefix_sum(x, axis, ad.LengthGroups(full, x.shape)),
                          moveaxis_prefix_sum(x, axis, full))


def test_broadcast_gradient_sums_each_example_then_examples_in_order():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(7, 9, 5)).astype(np.float32)
    bias = ad.Tensor(np.zeros(5, np.float32), requires_grad=True)
    out = ad.add(ad.constant(np.zeros((7, 9, 5), np.float32)), bias)
    (got,) = ad.backward(ad.tsum(ad.mul(out, ad.constant(g))), [bias])
    want = np.zeros(5, np.float32)
    for example in g:
        want = want + example.sum(axis=0)
    assert np.array_equal(got.data, want)


def test_scatter_rows_sums_each_sequence_then_sequences_in_order():
    rng = np.random.default_rng(14)
    ids = rng.integers(0, 4, size=(6, 9))
    g = rng.normal(size=(6, 9, 3)).astype(np.float32)
    got = ad.scatter_rows(ad.constant(g), ids, 4).data
    want = np.zeros((4, 3), np.float32)
    for seq, rows in zip(ids, g):
        want = want + ad.scatter_rows(ad.constant(rows), seq, 4).data
    assert np.array_equal(got, want)


def test_scatter_rows_of_1d_ids_is_each_rows_sum_in_order():
    """1-D ids (a gather from one sequence) are one slice of the general path."""
    rng = np.random.default_rng(15)
    ids = rng.integers(0, 5, size=40)  # repeated rows; some rows never hit
    g = rng.normal(size=(40, 3))
    want = np.zeros((6, 3))
    for row, grad in zip(ids, g):  # float64, in the order the ids come
        want[row] = want[row] + grad
    got = ad.scatter_rows(ad.constant(g), ids, 6)
    assert got.dtype == np.float64 and np.array_equal(got.data, want)


def test_batched_cross_entropy_gradients_and_rows():
    targets = np.array([2, 0, 1])

    def hard(rng):
        return [rng.normal(size=(3, 4))], lambda ts: weighted_sum(
            ad.cross_entropy(ts[0], targets), np.random.default_rng(3))

    def soft(rng):
        probs = rng.uniform(0.1, 1.0, size=(3, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        return [rng.normal(size=(3, 4))], lambda ts: ad.tsum(
            ad.cross_entropy(ts[0], ad.constant(probs, dtype=np.float64)))

    check_op_gradients(hard)
    check_op_gradients(soft)
    logits = np.random.default_rng(8).normal(size=(3, 4))
    rows = ad.cross_entropy(ad.constant(logits, dtype=np.float64), targets).data
    for row, t, got in zip(logits, targets, rows):
        assert got == ad.cross_entropy(ad.constant(row, dtype=np.float64), int(t)).item()
    with pytest.raises(ValueError):
        ad.cross_entropy(ad.constant(logits), [0, 1])  # one target short
    with pytest.raises(ValueError):
        ad.cross_entropy(ad.constant(logits), [0, 1, 4])  # class out of range


def test_hvp_exact_matches_central_on_batched_graph():
    rng = np.random.default_rng(12)
    x = ad.constant(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    bias = ad.constant(np.where(np.arange(3) < 2, 0.0, -1e9), dtype=np.float64)

    def f(params):
        w, u = params
        heads = ad.transpose(ad.reshape(ad.matmul(x, w), (2, 3, 2, 2)), (0, 2, 1, 3))
        scores = ad.add(ad.matmul(heads, ad.transpose(heads)), bias)
        mixed = ad.matmul(ad.softmax(scores, axis=-1), heads)  # (2, 2, 3, 2)
        logits = ad.reshape(ad.matmul(ad.reshape(mixed, (2, 12)), u), (2, 2))
        return ad.tmean(ad.cross_entropy(logits, [0, 1]))

    params = [ad.Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True, dtype=np.float64),
              ad.Tensor(rng.normal(size=(12, 2)) * 0.5, requires_grad=True, dtype=np.float64)]
    v = [rng.normal(size=(4, 4)), rng.normal(size=(12, 2))]
    # a small step keeps the central difference's O(eps^2) error below the bar
    central = central_hvp(f, params, v, eps0=1e-4)
    exact = exact_hvp(f, params, v)
    for c, e in zip(central, exact):
        assert rel_err(c, e) < 1e-6
