"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single summary line on success; failures carry the
measured numbers in the assertion message. The experiment fixture trains
the full teacher/student grid once and is shared by the tests that grade
it, so the wall-clock budget of the first of those tests covers it.
"""

import json
import time

import numpy as np
import pytest

from smat import autodiff as ad
from smat import metrics
from smat.autodiff import Tensor
from smat.cli import main as cli_main
from smat.data import (
    Splits,
    SyntheticSpec,
    attach_token_ids,
    build_vocab,
    generate_synthetic,
    load_checkpoint,
    save_checkpoint,
    split_dataset,
    CheckpointError,
    Example,
)
from smat.explainers import (
    ExplainerParams,
    compute_static_saliency,
    explain_parameterized,
    integrated_gradients_raw,
    normalize_coefficients,
    scope_head_indices,
)
from smat.model import MiniTransformer, ModelConfig, task_loss
from smat.training import (
    TeacherContext,
    TrainConfig,
    TrainState,
    gold_accuracy,
    inner_step,
    outer_step,
    simulability,
    train,
    train_supervised,
)
from conftest import fd_gradients, rel_err, tiny_config
from test_explainers import LinearScorer
from test_sparsemax import GRIDS, grid_project, support_of
from test_training import composed_outer_loss


def report(num, label, elapsed, detail):
    print(f"[{num:02d} PASS] {label}: {detail} ({elapsed:.1f}s)")


def _support_stable(z, h=1e-6):
    """True when FD probes of size h cannot cross a sparsemax support change."""
    p = ad.sparsemax_project(z)
    if np.any((p > 0) & (p < 1e-3)):
        return False
    eye = np.eye(z.size)
    return all(
        support_of(probe) == support_of(z)
        for i in range(z.size)
        for probe in (z + h * eye[i], z - h * eye[i])
    )


# ---------------------------------------------------------------------------
# 1. gradient checks: every primitive, then the whole model


def _primitive_builders():
    def unary(op, lo=None, hi=None, shape=(3, 4)):
        def build(rng):
            a = rng.uniform(lo if lo is not None else -2.0,
                            hi if hi is not None else 2.0, shape)
            return [a], lambda ts: ad.tsum(op(ts[0]))
        return build

    def binary(op, shape=(3, 4)):
        def build(rng):
            a, b = rng.normal(size=shape), rng.normal(size=shape)
            return [a, b], lambda ts: ad.tsum(op(ts[0], ts[1]))
        return build

    def away_from_zero(rng, shape=(3, 4)):
        x = rng.normal(size=shape)
        return np.where(np.abs(x) < 0.3, x + np.sign(x + 1e-9), x)

    builders = {
        "add": binary(ad.add),
        "sub": binary(ad.sub),
        "mul": binary(ad.mul),
        "div": lambda rng: ([rng.normal(size=(3, 4)), away_from_zero(rng)],
                            lambda ts: ad.tsum(ad.div(ts[0], ts[1]))),
        "neg": unary(ad.neg),
        "pow_const": lambda rng: ([rng.uniform(0.5, 2.0, (3, 4))],
                                  lambda ts: ad.tsum(ad.pow_const(ts[0], 1.7))),
        "exp": unary(ad.exp, -1.5, 1.5),
        "log": unary(ad.log, 0.3, 3.0),
        "sqrt": unary(ad.sqrt, 0.3, 3.0),
        "relu": lambda rng: ([away_from_zero(rng)],
                             lambda ts: ad.tsum(ad.relu(ts[0]))),
        "clip": lambda rng: ([rng.normal(size=(3, 4)) * 2.0],
                             lambda ts: ad.tsum(ad.clip(ts[0], lo=-0.95**2, hi=1.11))),
        "matmul": lambda rng: ([rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
                               lambda ts: ad.tsum(ad.matmul(ts[0], ts[1]))),
        "transpose": unary(ad.transpose),
        "reshape": lambda rng: ([rng.normal(size=(3, 4))],
                                lambda ts: ad.tsum(ad.mul(ad.reshape(ts[0], (2, 6)),
                                                          ad.reshape(ts[0], (2, 6))))),
        "narrow": lambda rng: ([rng.normal(size=(4, 5))],
                               lambda ts: ad.tsum(ad.narrow(ts[0], 1, 1, 3))),
        "concat": lambda rng: ([rng.normal(size=(2, 3)), rng.normal(size=(4, 3))],
                               lambda ts: ad.tsum(ad.pow_const(ad.concat(ts, 0), 2.0))),
        "stack": lambda rng: ([rng.normal(size=(3,)), rng.normal(size=(3,))],
                              lambda ts: ad.tsum(ad.pow_const(ad.stack(ts), 2.0))),
        "tsum": lambda rng: ([rng.normal(size=(3, 4))],
                             lambda ts: ad.tsum(ad.pow_const(
                                 ad.tsum(ts[0], axis=1, keepdims=True), 2.0))),
        "tmean": lambda rng: ([rng.normal(size=(3, 4))],
                              lambda ts: ad.tsum(ad.pow_const(ad.tmean(ts[0], axis=0), 2.0))),
        "broadcast_to": lambda rng: ([rng.normal(size=(1, 4))],
                                     lambda ts: ad.tsum(ad.pow_const(
                                         ad.broadcast_to(ts[0], (3, 4)), 2.0))),
        "gather_rows": lambda rng: ([rng.normal(size=(5, 3))],
                                    lambda ts: ad.tsum(ad.pow_const(
                                        ad.gather_rows(ts[0], [0, 2, 2, 4]), 2.0))),
        "scatter_rows": lambda rng: ([rng.normal(size=(3, 2))],
                                     lambda ts: ad.tsum(ad.pow_const(
                                         ad.scatter_rows(ts[0], np.array([1, 1, 4]), 6), 2.0))),
        "softmax": lambda rng: ([rng.normal(size=(3, 4))],
                                lambda ts: ad.tsum(ad.mul(
                                    ad.softmax(ts[0], axis=-1),
                                    ad.constant(np.arange(12.0).reshape(3, 4))))),
        "logsumexp": lambda rng: ([rng.normal(size=(7,))],
                                  lambda ts: ad.logsumexp(ts[0])),
        "cross_entropy": lambda rng: ([rng.normal(size=(4,))],
                                      lambda ts: ad.cross_entropy(ts[0], 2)),
        "kl_divergence": lambda rng: (
            [rng.uniform(0.2, 1.0, (5,)), rng.uniform(0.2, 1.0, (5,))],
            lambda ts: ad.kl_divergence(
                ad.div(ts[0], ad.tsum(ts[0])), ad.div(ts[1], ad.tsum(ts[1])))),
        "mse": binary(ad.mse, shape=(6,)),
        "sparsemax": lambda rng: ([rng.normal(size=(5,)) * 0.3],
                                  lambda ts: ad.tsum(ad.mul(
                                      ad.sparsemax(ts[0]),
                                      ad.constant(np.arange(5.0))))),
    }
    return builders


def test_criterion_01_gradient_checks():
    t0 = time.perf_counter()
    worst = 0.0
    for op_index, (name, build) in enumerate(_primitive_builders().items()):
        checked = 0
        seed = 0
        while checked < 10:
            rng = np.random.default_rng([seed, op_index])
            seed += 1
            arrays, f = build(rng)
            if name == "sparsemax" and not _support_stable(arrays[0]):
                continue  # FD is meaningless across a support change
            checked += 1
            tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
            got = [g.data for g in ad.backward(f(tensors), tensors)]

            def value(probe):
                with ad.no_grad():
                    return f([Tensor(a, dtype=np.float64) for a in probe]).item()

            want = fd_gradients(value, arrays, h=1e-6)
            for g, w in zip(got, want):
                err = rel_err(g, w)
                assert err < 1e-4, f"{name} draw {seed - 1}: rel err {err:.3g}"
                worst = max(worst, err)

    worst_model = 0.0
    for seed in range(10):
        model = MiniTransformer(tiny_config(), seed=seed, dtype=np.float64)
        ids = [2, 3, 4, 5]
        loss = task_loss(model, ids, 1)
        grads = ad.backward(loss, model.param_list())
        for name, p, g in zip(model.param_names(), model.param_list(), grads):
            flat_idx = range(0, p.data.size, max(1, p.data.size // 4))
            for i in flat_idx:
                back = p.data.reshape(-1)[i]
                h = 1e-5
                with ad.no_grad():
                    p.data.reshape(-1)[i] = back + h
                    up = task_loss(model, ids, 1).item()
                    p.data.reshape(-1)[i] = back - h
                    down = task_loss(model, ids, 1).item()
                    p.data.reshape(-1)[i] = back
                fd = (up - down) / (2 * h)
                err = abs(g.data.reshape(-1)[i] - fd) / max(abs(fd), 1.0)
                assert err < 1e-3, f"model seed {seed} {name}[{i}]: err {err:.3g}"
                worst_model = max(worst_model, err)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(1, "gradient checks", elapsed,
           f"28 primitives x 10 seeds worst={worst:.2e}; model worst={worst_model:.2e}")


# ---------------------------------------------------------------------------
# 2. sparsemax vs brute force


def test_criterion_02_sparsemax_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst_gap = 0.0
    for trial in range(100):
        dim = 2 + trial % 2
        z = rng.normal(size=dim) * 1.5
        got = ad.sparsemax_project(z)
        want = grid_project(z, GRIDS[dim])
        gap = float(np.max(np.abs(got - want)))
        assert gap <= 2e-3, f"trial {trial}: grid gap {gap:.3g}"
        worst_gap = max(worst_gap, gap)

    checked = 0
    worst_jac = 0.0
    rng = np.random.default_rng(21)
    while checked < 10:
        z = rng.normal(size=3) * 0.5
        if not _support_stable(z):
            continue
        checked += 1
        for row_target in range(3):
            t = Tensor(z, requires_grad=True, dtype=np.float64)
            out = ad.sparsemax(t)
            pick = np.zeros(3)
            pick[row_target] = 1.0
            row = ad.backward(ad.tsum(ad.mul(out, ad.constant(pick))), [t])[0].data

            def comp(probe):
                return float(ad.sparsemax_project(probe[0])[row_target])

            want_row = fd_gradients(comp, [z], h=1e-6)[0]
            err = rel_err(row, want_row)
            assert err < 1e-4, f"jacobian row {row_target} at {z}: {err:.3g}"
            worst_jac = max(worst_jac, err)

    for dim in (2, 3, 6):
        assert np.array_equal(ad.sparsemax_project(np.zeros(dim)),
                              np.full(dim, 1.0 / dim))

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sparsemax oracle took {elapsed:.1f}s"
    report(2, "sparsemax vs grid search", elapsed,
           f"100 trials worst gap={worst_gap:.2e}; jacobian worst={worst_jac:.2e}")


# ---------------------------------------------------------------------------
# 3. hypergradient against the composed outer loss


def _length4_examples(rng, vocab_size, count):
    """Length-4 sequences labeled by a low-id cue, so the teacher has
    something real to learn and the hypergradient a real signal."""
    out = []
    for _ in range(count):
        ids = rng.integers(2, vocab_size, size=4)
        out.append(Example(tokens=[f"t{i}" for i in ids],
                           label=int(np.any(ids < 8)),
                           token_ids=[int(i) for i in ids]))
    return out


def test_criterion_03_hypergradient_fidelity():
    t0 = time.perf_counter()
    cfg_model = tiny_config(vocab_size=16, max_len=4)
    pool = _length4_examples(np.random.default_rng([60, 2]), 16, 80)
    teacher = MiniTransformer(cfg_model, seed=5, dtype=np.float64)
    train_supervised(teacher, pool, lr=0.1, momentum=0.9, steps=80,
                     batch_size=16, seed=0)
    train_batch = pool[:8]
    outer_batch = pool[8:16]

    updates = {}
    fd_err = None
    for mode in ("central", "exact"):
        config = TrainConfig(mode="smat", steps=1, batch_size=8, seed=0, hypergrad=mode)
        tctx = TeacherContext(teacher, config)
        student = MiniTransformer(cfg_model, seed=0, dtype=np.float64)
        scope = config.explainer_scope()
        phi_s = Tensor(np.zeros(len(scope_head_indices(student, scope))),
                       requires_grad=True, dtype=np.float64)
        phi_t = Tensor(np.zeros(len(scope_head_indices(teacher, scope))),
                       requires_grad=True, dtype=np.float64)
        state = TrainState(student=student, phi_s=phi_s, phi_t=phi_t)
        inner_step(state, train_batch, config, tctx)

        phi0 = state.phi_t.data.copy()
        if mode == "central":
            h = 1e-4
            fd = np.zeros_like(phi0)
            for i in range(phi0.size):
                up, down = phi0.copy(), phi0.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (composed_outer_loss(state, tctx, train_batch, outer_batch, config, up)
                         - composed_outer_loss(state, tctx, train_batch, outer_batch,
                                               config, down)) / (2 * h)
        outer_step(state, train_batch, outer_batch, config, tctx)
        updates[mode] = (phi0 - state.phi_t.data) / config.eta_outer
        if mode == "central":
            fd_err = rel_err(updates[mode], fd)
            assert fd_err < 5e-2, f"hypergradient vs composed FD: rel err {fd_err:.3g}"

    agree = rel_err(updates["central"], updates["exact"])
    assert agree < 1e-2, f"central vs exact: rel err {agree:.3g}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"hypergradient check took {elapsed:.1f}s"
    report(3, "hypergradient fidelity", elapsed,
           f"composed-map FD err={fd_err:.3g}; central/exact gap={agree:.3g}")


# ---------------------------------------------------------------------------
# the shared desk-scale experiment (backs 4, 5, and 6)


TEACHER_SEED = 1
STUDENT_SEEDS = (0, 1, 2, 3, 4)


def _experiment_world():
    spec = SyntheticSpec(seed=7, vocab_size=200, noise_ratio=0.75, min_len=5, max_len=10)
    data = generate_synthetic(spec, 1600)
    vocab = build_vocab(data.examples)
    attach_token_ids(data, vocab)
    splits = split_dataset(data, seed=0)
    teacher = MiniTransformer(
        ModelConfig(vocab_size=len(vocab), max_len=10, num_layers=2, heads_per_layer=4,
                    model_dim=32, head_dim=8, ffn_dim=64), seed=TEACHER_SEED)
    train_supervised(teacher, splits.train, lr=0.1, momentum=0.9,
                     steps=600, batch_size=32, seed=0)
    student_pool = Splits(train=splits.train[:200], dev=splits.dev,
                          test=splits.test, task=splits.task)
    return teacher, splits, student_pool, vocab


def _student_config(vocab_size):
    return ModelConfig(vocab_size=vocab_size, max_len=10, num_layers=1,
                       heads_per_layer=2, model_dim=8, head_dim=4, ffn_dim=16)


def _train_config(mode, seed, normalize="sparsemax", steps=150):
    return TrainConfig(mode=mode, steps=steps, batch_size=32, seed=seed,
                       normalize=normalize, eta_outer=0.2, eval_every=10_000)


@pytest.fixture(scope="module")
def experiment():
    t0 = time.perf_counter()
    teacher, splits, student_pool, vocab = _experiment_world()
    scfg = _student_config(len(vocab))
    sims = {}
    phis = []
    for mode in ("none", "static:attn_all", "smat"):
        # one teacher context per mode, shared by its seeds and their test sims
        tctx = TeacherContext(teacher, _train_config(mode, STUDENT_SEEDS[0]))
        values = []
        for seed in STUDENT_SEEDS:
            config = _train_config(mode, seed)
            result = train(config, teacher, student_pool, scfg, tctx=tctx)
            values.append(simulability(result.student, tctx, student_pool.test))
            if mode == "smat":
                phis.append(result.phi_t.data.copy())
        sims[mode] = metrics.aggregate_median_iqr(values)
    return {
        "teacher": teacher,
        "splits": splits,
        "student_pool": student_pool,
        "vocab": vocab,
        "sims": sims,
        "phis": phis,
        "train_seconds": time.perf_counter() - t0,
    }


def test_criterion_04_scaffolded_simulability(experiment):
    t0 = time.perf_counter()
    teacher = experiment["teacher"]
    splits = experiment["splits"]
    acc = gold_accuracy(teacher, splits.test)
    assert acc >= 0.95, f"teacher gold accuracy {acc:.4f} < 0.95"

    none = experiment["sims"]["none"]
    attn = experiment["sims"]["static:attn_all"]
    smat = experiment["sims"]["smat"]
    assert smat.median > none.median, (
        f"median sim: smat {smat.median:.4f} <= none {none.median:.4f}")
    assert smat.iqr_low > none.iqr_high, (
        f"IQRs overlap: smat [{smat.iqr_low:.4f},{smat.iqr_high:.4f}] vs "
        f"none [{none.iqr_low:.4f},{none.iqr_high:.4f}]")
    assert smat.median >= attn.median, (
        f"median sim: smat {smat.median:.4f} < attn_all {attn.median:.4f}")

    elapsed = experiment["train_seconds"] + (time.perf_counter() - t0)
    assert elapsed < 1200.0, f"experiment took {elapsed:.1f}s"
    report(4, "scaffolded simulability", elapsed,
           f"teacher acc={acc:.4f}; none={none.median:.4f} "
           f"[{none.iqr_low:.4f},{none.iqr_high:.4f}] attn={attn.median:.4f} "
           f"smat={smat.median:.4f} [{smat.iqr_low:.4f},{smat.iqr_high:.4f}]")


def test_criterion_05_plausibility_ordering(experiment):
    t0 = time.perf_counter()
    teacher = experiment["teacher"]
    test = [ex for ex in experiment["splits"].test if ex.rationale is not None]

    attn_pairs = [(compute_static_saliency(teacher, ex.token_ids, "attn_all").scores,
                   ex.rationale) for ex in test]
    auc_attn, used, skipped = metrics.corpus_auc(attn_pairs)

    smat_aucs = []
    for phi in experiment["phis"]:
        params = ExplainerParams(phi=Tensor(phi), normalize="sparsemax", scope="all")
        pairs = [(explain_parameterized(teacher, ex.token_ids, params).scores,
                  ex.rationale) for ex in test]
        auc, _, _ = metrics.corpus_auc(pairs)
        smat_aucs.append(auc)
    auc_smat = metrics.aggregate_median_iqr(smat_aucs).median

    seed0 = ExplainerParams(phi=Tensor(experiment["phis"][0]),
                            normalize="sparsemax", scope="all")
    smat_pairs = [(explain_parameterized(teacher, ex.token_ids, seed0).scores,
                   ex.rationale) for ex in test]
    rng = np.random.default_rng(50)
    shuffle_aucs = {}
    for name, pairs in (("smat", smat_pairs), ("attn_all", attn_pairs)):
        shuffled = [(s, list(rng.permutation(m))) for s, m in pairs]
        auc_sh, _, _ = metrics.corpus_auc(shuffled)
        shuffle_aucs[name] = round(auc_sh, 4)
        assert abs(auc_sh - 0.5) <= 0.05, f"shuffled-mask AUC({name}) = {auc_sh:.4f}"

    assert auc_smat >= auc_attn, f"AUC smat {auc_smat:.4f} < attn_all {auc_attn:.4f}"
    assert auc_smat >= 0.7, f"AUC smat {auc_smat:.4f} < 0.7"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"plausibility took {elapsed:.1f}s"
    report(5, "plausibility ordering", elapsed,
           f"smat median={auc_smat:.4f} (seeds {['%.3f' % a for a in smat_aucs]}) "
           f">= attn_all={auc_attn:.4f}; shuffled={shuffle_aucs}")


def test_criterion_06_head_sparsity(experiment):
    t0 = time.perf_counter()
    for i, phi in enumerate(experiment["phis"]):
        lam = normalize_coefficients(Tensor(phi), "sparsemax").data
        zeros = int(np.sum(lam == 0.0))
        assert zeros >= 1, f"seed {i}: no exactly-zero coefficient in {lam}"
        assert float(lam.max()) > 1.0 / lam.size, (
            f"seed {i}: max coefficient {lam.max():.4f} <= uniform {1.0 / lam.size:.4f}")

    teacher = experiment["teacher"]
    scfg = _student_config(len(experiment["vocab"]))
    config = _train_config("smat", 0, normalize="softmax", steps=40)
    result = train(config, teacher, experiment["student_pool"], scfg)
    lam_soft = normalize_coefficients(result.phi_t, "softmax").data
    assert np.all(lam_soft > 0.0), f"softmax coefficients hit zero: {lam_soft}"

    elapsed = time.perf_counter() - t0
    report(6, "head sparsity", elapsed,
           f"sparsemax zero-counts={[int((normalize_coefficients(Tensor(p), 'sparsemax').data == 0).sum()) for p in experiment['phis']]}; "
           f"softmax min={lam_soft.min():.4f}")


# ---------------------------------------------------------------------------
# 7. integrated-gradients completeness


def test_criterion_07_integrated_gradients_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    table = rng.normal(size=(6, 3))
    linear = LinearScorer(table, rng.normal(size=3))
    ids = [1, 3, 4]
    gxi = compute_static_saliency(linear, ids, "grad_x_input")
    for steps in (1, 7, 50):
        ig = compute_static_saliency(linear, ids, "integrated_gradients", ig_steps=steps)
        gap = float(np.max(np.abs(ig.raw - gxi.raw)))
        assert gap <= 1e-6, f"linear scorer, steps={steps}: |IG - grad*input| {gap:.3g}"

    data = generate_synthetic(SyntheticSpec(seed=3, vocab_size=40, min_len=5, max_len=8), 400)
    vocab = build_vocab(data.examples)
    attach_token_ids(data, vocab)
    splits = split_dataset(data, seed=0)
    model = MiniTransformer(
        ModelConfig(vocab_size=len(vocab), max_len=8, num_layers=2, heads_per_layer=2,
                    model_dim=8, head_dim=4, ffn_dim=16), seed=0)
    train_supervised(model, splits.train, lr=0.1, momentum=0.9,
                     steps=120, batch_size=16, seed=0)
    acc = gold_accuracy(model, splits.test)

    rows = []
    for ex in splits.test[:6]:
        raw50, at_x, at_0 = integrated_gradients_raw(model, ex.token_ids, steps=50)
        raw500, _, _ = integrated_gradients_raw(model, ex.token_ids, steps=500)
        delta = at_x - at_0
        err50 = abs(float(raw50.sum()) - delta) / max(abs(delta), 1e-12)
        err500 = abs(float(raw500.sum()) - delta) / max(abs(delta), 1e-12)
        rows.append((err50, err500, delta))

    elapsed = time.perf_counter() - t0
    detail = (f"trained acc={acc:.3f}; per-example (err@50, err@500, delta): "
              + " ".join(f"({e50:.1%}, {e500:.1%}, {d:+.3f})" for e50, e500, d in rows))
    worst = max(e50 for e50, _, _ in rows)
    # Known red: the first pre-layer-norm block makes f(alpha*x) ~ f(x) for
    # alpha above ~sqrt(eps), so the entire f(x) - f(0) drop sits below the
    # first Riemann sample and no uniform step count recovers it. The scheme
    # itself is pinned exactly by the closed-form quadratic-scorer test in
    # test_explainers. See README, "Known limitations".
    assert worst <= 0.02, f"completeness at steps=50: worst {worst:.1%}; {detail}"
    report(7, "integrated-gradients completeness", elapsed, detail)


# ---------------------------------------------------------------------------
# 8. metric examples, verbatim


def test_criterion_08_metric_examples():
    t0 = time.perf_counter()
    assert metrics.simulability_accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert metrics.simulability_accuracy([1, 1, 1, 1], [1, 0, 1, 0]) == 0.5
    assert metrics.simulability_accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    assert metrics.simulability_pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)
    assert metrics.simulability_pearson([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]) == pytest.approx(-1.0)
    assert metrics.simulability_pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)

    assert metrics.plausibility_auc([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0]) == 1.0
    assert metrics.plausibility_auc([0.1, 0.9], [1, 0]) == 0.0
    assert metrics.plausibility_auc([0.4, 0.4, 0.4], [1, 0, 1]) == 0.5

    agg = metrics.aggregate_median_iqr([1, 2, 3, 4, 5])
    assert (agg.median, agg.iqr_low, agg.iqr_high) == (3, 2, 4)
    agg = metrics.aggregate_median_iqr([7])
    assert (agg.median, agg.iqr_low, agg.iqr_high) == (7, 7, 7)
    agg = metrics.aggregate_median_iqr([1, 2, 3, 4])
    assert (agg.median, agg.iqr_low, agg.iqr_high) == (2, 1, 3)

    disjoint = {"a": metrics.SkillRating(mu=3.0, sigma=0.1),
                "b": metrics.SkillRating(mu=0.0, sigma=0.1)}
    assert metrics.rank_with_confidence(disjoint) == {"a": (1, 1), "b": (2, 2)}
    overlapping = {"a": metrics.SkillRating(mu=0.1, sigma=0.5),
                   "b": metrics.SkillRating(mu=-0.1, sigma=0.5)}
    assert metrics.rank_with_confidence(overlapping) == {"a": (1, 2), "b": (1, 2)}

    z = 1.96
    published = {
        "d": metrics.SkillRating(mu=-2.7, sigma=0.67 / z),
        "c": metrics.SkillRating(mu=-2.1, sigma=0.67 / z),
        "b": metrics.SkillRating(mu=0.7, sigma=0.67 / z),
        "a": metrics.SkillRating(mu=4.3, sigma=0.70 / z),
    }
    ranks = metrics.rank_with_confidence(published)
    assert ranks == {"d": (3, 4), "c": (3, 4), "b": (2, 2), "a": (1, 1)}
    assert metrics.format_rank(ranks["d"]) == "3-4"
    assert metrics.format_rank(ranks["a"]) == "1"

    elapsed = time.perf_counter() - t0
    report(8, "metric examples", elapsed, "accuracy/pearson/auc/median-iqr/ranks all exact")


# ---------------------------------------------------------------------------
# 9. skill-rating behavior


def test_criterion_09_skill_rating_oracle():
    t0 = time.perf_counter()
    prior = metrics.SkillRating()
    one = metrics.trueskill_update(
        {"a": prior, "b": metrics.SkillRating()}, ["a", "b"])
    assert one["a"].mu > 0.0
    assert one["a"].mu == pytest.approx(-one["b"].mu, abs=1e-12)
    assert one["a"].sigma == pytest.approx(one["b"].sigma, abs=1e-12)
    assert one["a"].sigma < prior.sigma
    draw = metrics.trueskill_update(
        {"a": metrics.SkillRating(), "b": metrics.SkillRating()}, [["a", "b"]])
    assert draw["a"].mu == 0.0 and draw["b"].mu == 0.0

    latent = {"a": 2.0, "b": 0.7, "c": -0.5, "d": -1.8}
    names = list(latent)
    latent_pos = {n: i for i, n in enumerate(sorted(names, key=lambda n: -latent[n]))}
    rng = np.random.default_rng(123)
    taus = []
    for _ in range(1000):
        ratings = metrics.fresh_ratings(names)
        for _ in range(12):
            perf = {n: latent[n] + rng.normal(0.0, 1.0) for n in names}
            ratings = metrics.trueskill_update(
                ratings, sorted(names, key=lambda n: -perf[n]))
        mu_pos = {n: i for i, n in enumerate(sorted(names, key=lambda n: -ratings[n].mu))}
        conc = sum(
            1 if (mu_pos[x] - mu_pos[y]) * (latent_pos[x] - latent_pos[y]) > 0 else -1
            for i, x in enumerate(names) for y in names[i + 1:])
        taus.append(conc / 6.0)
    mean_tau = float(np.mean(taus))
    assert mean_tau >= 0.9, f"Kendall tau {mean_tau:.4f} < 0.9 over 1000 tournaments"

    elapsed = time.perf_counter() - t0
    report(9, "skill-rating oracle", elapsed,
           f"mean Kendall tau={mean_tau:.4f}; single-match symmetry exact")


# ---------------------------------------------------------------------------
# 10. determinism and persistence


PIPELINE_CONFIG = {
    "data": {
        "path": "corpus.tsv",
        "synthetic": {"seed": 0, "min_len": 5, "max_len": 8, "vocab_size": 40},
        "n": 120,
        "split_seed": 0,
        "student_train_size": 40,
    },
    "model": {"max_len": 8, "num_layers": 2, "heads_per_layer": 2, "model_dim": 8,
              "head_dim": 4, "ffn_dim": 16, "task": "classification", "num_classes": 2},
    "student_model": {"max_len": 8, "num_layers": 1, "heads_per_layer": 2, "model_dim": 8,
                      "head_dim": 4, "ffn_dim": 16, "task": "classification",
                      "num_classes": 2},
    "teacher_train": {"lr": 0.05, "momentum": 0.9, "steps": 60, "batch_size": 16, "seed": 0},
    "train": {"steps": 3, "batch_size": 4, "eval_every": 2, "seed": 0},
}


def _run_pipeline(root):
    root.mkdir()
    config = root / "config.json"
    config.write_text(json.dumps(PIPELINE_CONFIG))
    assert cli_main(["make-data", "--config", str(config),
                     "--out", str(root / "corpus.tsv")]) == 0
    assert cli_main(["train-teacher", "--config", str(config),
                     "--out", str(root / "teacher.smat")]) == 0
    assert cli_main(["train-student", "--config", str(config),
                     "--teacher", str(root / "teacher.smat"),
                     "--mode", "smat", "--seeds", "2",
                     "--out", str(root / "students")]) == 0
    summary = json.loads((root / "students" / "summary.json").read_text())
    return summary


def test_criterion_10_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    a = _run_pipeline(tmp_path / "a")
    b = _run_pipeline(tmp_path / "b")

    assert a["test_simulability"] == b["test_simulability"]
    for run_a, run_b in zip(a["runs"], b["runs"]):
        for key in ("seed", "test_simulability", "dev_simulability", "active_heads"):
            assert run_a[key] == run_b[key], key
    for rel in ("corpus.tsv", "teacher.smat", "teacher.smat.json"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    for run in a["runs"]:
        for key in ("student", "phi_t"):
            rel = "students/" + run[key].replace("\\", "/")
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

    # round-trip stability and truncation rejection on a real checkpoint
    student_path = tmp_path / "a" / "students" / a["runs"][0]["student"]
    original = student_path.read_bytes()
    tensors = load_checkpoint(str(student_path))
    resaved = tmp_path / "resaved.smat"
    save_checkpoint(tensors, str(resaved))
    assert resaved.read_bytes() == original

    for cut in (len(original) - 1, len(original) // 2, 3):
        clipped = tmp_path / f"clipped_{cut}.smat"
        clipped.write_bytes(original[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(clipped))

    elapsed = time.perf_counter() - t0
    report(10, "determinism and persistence", elapsed,
           f"two pipelines bit-identical; round-trip exact; {3} truncations rejected")
