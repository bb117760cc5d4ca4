"""Student loss, inner/outer steps, hypergradient fidelity, full runs."""

import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from smat import autodiff as ad
from smat import training
from smat.autodiff import Tensor
from smat.data import SyntheticSpec, attach_token_ids, build_vocab, generate_synthetic, split_dataset
from smat.explainers import ExplainerParams, compute_static_saliency, scope_head_indices
from smat.model import MiniTransformer, ModelConfig, PreparedIds, task_loss
from smat.training import (
    TeacherContext,
    TrainConfig,
    TrainState,
    count_active_heads,
    gold_accuracy,
    inner_step,
    outer_step,
    simulability,
    student_loss,
    train,
    train_supervised,
    _sim_only_loss,
)
from conftest import rel_err, tiny_config, tiny_model


def make_setup(mode="smat", dtype=np.float64, n=60, seed=0, **config_overrides):
    """Tiny synthetic task with a random (untrained) teacher; fast and exact."""
    data = generate_synthetic(SyntheticSpec(seed=seed), n)
    vocab = build_vocab(data.examples)
    data = attach_token_ids(data, vocab)
    splits = split_dataset(data, seed=seed)
    teacher = MiniTransformer(
        tiny_config(vocab_size=len(vocab), max_len=10), seed=seed + 1, dtype=dtype)
    student_config = tiny_config(
        vocab_size=len(vocab), max_len=10, num_layers=1, heads_per_layer=2,
        model_dim=8, head_dim=4, ffn_dim=16)
    defaults = dict(mode=mode, steps=2, batch_size=4, seed=seed, eval_every=1)
    defaults.update(config_overrides)
    config = TrainConfig(**defaults)
    return teacher, splits, student_config, config


def make_state(teacher, splits, student_config, config, dtype=np.float64):
    tctx = TeacherContext(teacher, config)
    student = MiniTransformer(student_config, seed=config.seed, dtype=dtype)
    scope = config.explainer_scope()
    phi_s = Tensor(np.zeros(len(scope_head_indices(student, scope)), dtype=dtype),
                   requires_grad=True, name="phi_s")
    phi_t = Tensor(np.zeros(len(scope_head_indices(teacher, scope)), dtype=dtype),
                   requires_grad=True, name="phi_t")
    return TrainState(student=student, phi_s=phi_s, phi_t=phi_t), tctx


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="distill")
    with pytest.raises(ValueError):
        TrainConfig(mode="static:lime")
    with pytest.raises(ValueError):
        TrainConfig(normalize="entmax")
    with pytest.raises(ValueError):
        TrainConfig(hypergrad="forward")
    with pytest.raises(ValueError):
        TrainConfig(beta=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(eta_inner=0.0)


@pytest.mark.parametrize("mode", ["smat:x", "none:x", "static", "static:", "smat:attn_all", None, 3])
def test_a_mode_must_be_none_smat_or_a_static_explainer_exactly(mode):
    """Only the part before ':' used to be checked, so "smat:x" trained as smat."""
    with pytest.raises(ValueError, match=r"^unknown mode "):
        TrainConfig(mode=mode)


def test_mode_none_forces_beta_zero(caplog):
    import logging
    config = TrainConfig(mode="none", beta=5.0)
    with caplog.at_level(logging.WARNING):
        assert config.effective_beta() == 0.0
    assert any("beta" in rec.message for rec in caplog.records)


def test_a_mode_none_run_warns_once_about_beta(caplog):
    import logging
    with caplog.at_level(logging.WARNING):
        teacher, splits, student_config, config = make_setup("none", beta=5.0, steps=20)
        train(config, teacher, splits, student_config)
    assert sum("forces beta" in rec.message for rec in caplog.records) == 1


def test_default_beta_follows_explainer_family():
    assert TrainConfig(mode="smat").effective_beta() == 5.0
    assert TrainConfig(mode="static:attn_all").effective_beta() == 5.0
    assert TrainConfig(mode="static:grad_l2").effective_beta() == 0.2
    assert TrainConfig(mode="static:integrated_gradients").effective_beta() == 0.2
    assert TrainConfig(mode="smat", beta=1.5).effective_beta() == 1.5


def test_scope_follows_static_name():
    assert TrainConfig(mode="static:attn_last").explainer_scope() == "last"
    assert TrainConfig(mode="static:attn_all").explainer_scope() == "all"
    assert TrainConfig(mode="smat").explainer_scope() == "all"


def test_config_round_trips_through_dict():
    config = TrainConfig(mode="static:grad_l2", beta=0.7, steps=5)
    assert TrainConfig(**asdict(config)) == config


# ---------------------------------------------------------------------------
# student loss


def test_beta_zero_reduces_to_simulation_loss():
    teacher, splits, student_config, _ = make_setup()
    config_none = TrainConfig(mode="none", steps=1, batch_size=4)
    config_zero = TrainConfig(mode="smat", beta=0.0, steps=1, batch_size=4)
    batch = splits.train[:4]
    state, tctx = make_state(teacher, splits, student_config, config_none)
    plain = student_loss(state.student, tctx, state.phi_s, state.phi_t, batch, config_none)
    zeroed = student_loss(state.student, tctx, state.phi_s, state.phi_t, batch, config_zero)
    assert plain.item() == zeroed.item()


def test_identical_models_have_zero_explanation_term():
    """Student == teacher and phi_S == phi_T: the KL term vanishes exactly."""
    teacher, splits, _, _ = make_setup()
    config = TrainConfig(mode="smat", steps=1, batch_size=2)
    tctx = TeacherContext(teacher, config)
    student = MiniTransformer(teacher.config, seed=0, dtype=teacher.dtype)
    student.load_param_data(teacher.clone_param_data())
    heads = teacher.config.total_heads
    phi = Tensor(np.zeros(heads, dtype=teacher.dtype), requires_grad=True)
    batch = splits.train[:2]
    state = TrainState(student=student, phi_s=phi, phi_t=phi)
    with_expl = student_loss(student, tctx, phi, phi, batch, config)
    sim_only = _sim_only_loss(student, tctx, batch, config, None)
    assert with_expl.item() == pytest.approx(sim_only.item(), abs=1e-12)


def test_uniform_logits_give_ln2_simulation_loss():
    teacher, splits, student_config, _ = make_setup()
    config = TrainConfig(mode="none", steps=1, batch_size=2)
    state, tctx = make_state(teacher, splits, student_config, config)
    with ad.no_grad():
        state.student.params["head.weight"].data[:] = 0.0
        state.student.params["head.bias"].data[:] = 0.0
    batch = splits.train[:2]
    loss = student_loss(state.student, tctx, state.phi_s, state.phi_t, batch, config)
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_student_loss_rejects_empty_batch():
    teacher, splits, student_config, config = make_setup()
    state, tctx = make_state(teacher, splits, student_config, config)
    with pytest.raises(ValueError):
        student_loss(state.student, tctx, state.phi_s, state.phi_t, [], config)


# ---------------------------------------------------------------------------
# inner step


def test_inner_step_is_sgd_on_shared_loss():
    teacher, splits, student_config, config = make_setup(mode="smat")
    batch = splits.train[:4]
    state, tctx = make_state(teacher, splits, student_config, config)
    loss = student_loss(state.student, tctx, state.phi_s, state.phi_t, batch, config)
    params = state.student.param_list() + [state.phi_s]
    grads = ad.backward(loss, params)
    want = [p.data - config.eta_inner * g.data for p, g in zip(params, grads)]
    inner_step(state, batch, config, tctx)
    got = state.student.param_list() + [state.phi_s]
    for w, g in zip(want, got):
        assert np.array_equal(w, g.data)


def test_inner_step_leaves_phi_t_untouched():
    teacher, splits, student_config, config = make_setup(mode="smat")
    state, tctx = make_state(teacher, splits, student_config, config)
    before = state.phi_t.data.copy()
    inner_step(state, splits.train[:4], config, tctx)
    assert np.array_equal(state.phi_t.data, before)


def test_inner_step_beta_zero_leaves_phi_s_untouched():
    teacher, splits, student_config, _ = make_setup()
    config = TrainConfig(mode="none", steps=1, batch_size=4)
    state, tctx = make_state(teacher, splits, student_config, config)
    before = state.phi_s.data.copy()
    inner_step(state, splits.train[:4], config, tctx)
    assert np.array_equal(state.phi_s.data, before)


def test_inner_step_is_deterministic():
    teacher, splits, student_config, config = make_setup(mode="smat")
    batch = splits.train[:4]
    results = []
    for _ in range(2):
        state, tctx = make_state(teacher, splits, student_config, config)
        inner_step(state, batch, config, tctx)
        results.append(state.student.clone_param_data())
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name])


def test_inner_step_decreases_loss_for_small_rate():
    teacher, splits, student_config, _ = make_setup()
    config = TrainConfig(mode="smat", steps=1, batch_size=4, eta_inner=1e-3)
    batch = splits.train[:4]
    state, tctx = make_state(teacher, splits, student_config, config)
    before = student_loss(state.student, tctx, state.phi_s, state.phi_t, batch, config).item()
    inner_step(state, batch, config, tctx)
    after = student_loss(state.student, tctx, state.phi_s, state.phi_t, batch, config).item()
    assert after < before


def test_sgd_arithmetic_on_scalar_surrogate():
    """theta = 1, L = theta^2 / 2, eta = 0.1: one step lands exactly on 0.9."""
    theta = Tensor(1.0, requires_grad=True, dtype=np.float64)
    loss = ad.mul(ad.mul(theta, theta), ad.constant(np.asarray(0.5)))
    (g,) = ad.backward(loss, [theta])
    theta.data = theta.data - 0.1 * g.data
    assert float(theta.data) == 0.9


# ---------------------------------------------------------------------------
# outer step and the hypergradient


def test_outer_step_noop_for_non_smat_modes():
    teacher, splits, student_config, _ = make_setup()
    for mode in ("none", "static:attn_all"):
        config = TrainConfig(mode=mode, steps=1, batch_size=4)
        state, tctx = make_state(teacher, splits, student_config, config)
        before = state.phi_t.data.copy()
        outer_step(state, splits.train[:4], splits.dev[:4], config, tctx)
        assert np.array_equal(state.phi_t.data, before)


def test_outer_step_noop_when_beta_or_rate_is_zero():
    teacher, splits, student_config, _ = make_setup()
    for overrides in (dict(beta=0.0), dict(eta_outer=0.0)):
        config = TrainConfig(mode="smat", steps=1, batch_size=4, **overrides)
        state, tctx = make_state(teacher, splits, student_config, config)
        before = state.phi_t.data.copy()
        outer_step(state, splits.train[:4], splits.dev[:4], config, tctx)
        assert np.array_equal(state.phi_t.data, before)


@pytest.mark.parametrize("overrides, calls", [({}, 3), ({"beta": 0.0}, 0), ({"eta_outer": 0.0}, 0)])
def test_a_smat_run_calls_outer_step_only_when_it_moves_phi_t(monkeypatch, overrides, calls):
    """A run with beta or eta_outer 0 used to draw an outer batch per step and
    call an outer step that returned at once."""
    teacher, splits, student_config, config = make_setup("smat", steps=3, **overrides)
    seen = []

    def counting(*args, **kwargs):
        seen.append(1)
        return outer_step(*args, **kwargs)

    monkeypatch.setattr(training, "outer_step", counting)
    train(config, teacher, splits, student_config)
    assert len(seen) == calls


def test_outer_step_keeps_student_committed():
    teacher, splits, student_config, config = make_setup(mode="smat")
    state, tctx = make_state(teacher, splits, student_config, config)
    inner_step(state, splits.train[:4], config, tctx)
    theta_before = state.student.clone_param_data()
    phi_s_before = state.phi_s.data.copy()
    outer_step(state, splits.train[:4], splits.dev[:4], config, tctx)
    for name, arr in state.student.clone_param_data().items():
        assert np.array_equal(arr, theta_before[name])
    assert np.array_equal(state.phi_s.data, phi_s_before)
    assert not np.array_equal(state.phi_t.data, np.zeros_like(state.phi_t.data))


def analytic_surrogate_hypergradient(theta0=1.0, eta=0.1, phi0=0.0, mode="central"):
    """The scalar warm-up: L_student = theta^2/2 + phi*theta, L_out = theta'^2/2.

    One committed inner step (phi frozen at phi0) lands on theta_c; the pilot
    then takes another uncommitted step from theta_c with phi live.  The
    finite-difference oracle holds theta_c fixed and differentiates
    phi -> pilot(phi) -> outer loss, which is what the update must match.
    """
    theta_c = theta0 - eta * (theta0 + phi0)

    def pilot(phi):
        return theta_c - eta * (theta_c + phi)

    def outer(phi):
        return 0.5 * pilot(phi) ** 2

    h = 1e-6
    fd = (outer(phi0 + h) - outer(phi0 - h)) / (2.0 * h)

    def loss_student(theta, phi):
        return ad.add(ad.mul(ad.mul(theta, theta), ad.constant(np.asarray(0.5))),
                      ad.mul(phi, theta))

    theta = Tensor(theta_c, requires_grad=True, dtype=np.float64)
    phi = Tensor(phi0, requires_grad=True, dtype=np.float64)
    if mode == "exact":
        (g_theta,) = ad.backward(loss_student(theta, phi), [theta], create_graph=True)
        pilot_t = ad.sub(theta, ad.mul(ad.constant(np.asarray(eta)), g_theta))
        outer_t = ad.mul(ad.mul(pilot_t, pilot_t), ad.constant(np.asarray(0.5)))
        hyper = float(ad.backward(outer_t, [phi])[0].data)
    else:
        (g_theta,) = ad.backward(loss_student(theta, phi), [theta])
        pilot_value = theta_c - eta * float(g_theta.data)
        pilot_leaf = Tensor(pilot_value, requires_grad=True, dtype=np.float64)
        outer_t = ad.mul(ad.mul(pilot_leaf, pilot_leaf), ad.constant(np.asarray(0.5)))
        v = float(ad.backward(outer_t, [pilot_leaf])[0].data)
        eps = ad.HVP_EPS0 / max(abs(v), ad.HVP_DELTA)

        def dphi_at(theta_probe):
            t = Tensor(theta_probe, dtype=np.float64)
            p = Tensor(phi0, requires_grad=True, dtype=np.float64)
            return float(ad.backward(loss_student(t, p), [p])[0].data)

        mv = (dphi_at(theta_c + eps * v) - dphi_at(theta_c - eps * v)) / (2.0 * eps)
        hyper = -eta * mv
    return hyper, fd


def test_surrogate_hypergradient_matches_composed_map():
    """theta_c = 0.9, pilot = 0.81, d outer / d phi = 0.81 * (-0.1) = -0.081."""
    for mode in ("central", "exact"):
        hyper, fd = analytic_surrogate_hypergradient(mode=mode)
        assert hyper == pytest.approx(fd, rel=1e-3), mode
        assert hyper == pytest.approx(-0.081, rel=1e-6), mode


def composed_outer_loss(state, tctx, train_batch, outer_batch, config, phi_value):
    """Value of the outer objective as a pure function of phi_T.

    Pilot weights come from one uncommitted SGD step at the committed
    student weights; the simulation loss is then read at the pilot point.
    """
    phi = Tensor(np.asarray(phi_value, dtype=np.float64), requires_grad=True, name="phi_probe")
    loss_train = student_loss(state.student, tctx, state.phi_s, phi, train_batch, config)
    theta = state.student.param_list()
    grads = ad.backward(loss_train, theta)
    pilot = {
        name: Tensor(t.data - config.eta_inner * g.data, name=name)
        for name, t, g in zip(state.student.param_names(), theta, grads)
    }
    with ad.no_grad():
        return _sim_only_loss(state.student, tctx, outer_batch, config, pilot).item()


def test_tiny_model_hypergradient_matches_finite_differences():
    """Criterion-scale check: outer_step vs per-coordinate FD of the
    composed outer loss, on sequences of length 4 and batches of 8."""
    teacher, splits, student_config, _ = make_setup(n=120, seed=1)
    config = TrainConfig(mode="smat", steps=1, batch_size=8, seed=1, hypergrad="central")
    state, tctx = make_state(teacher, splits, student_config, config)
    train_batch = [ex for ex in splits.train if len(ex.tokens) <= 6][:8]
    outer_batch = [ex for ex in splits.dev if len(ex.tokens) <= 8][:8]
    assert len(train_batch) == 8 and len(outer_batch) >= 4
    inner_step(state, train_batch, config, tctx)

    phi0 = state.phi_t.data.copy()
    h = 1e-4
    fd = np.zeros_like(phi0)
    for i in range(phi0.size):
        up = phi0.copy()
        up[i] += h
        down = phi0.copy()
        down[i] -= h
        fd[i] = (composed_outer_loss(state, tctx, train_batch, outer_batch, config, up)
                 - composed_outer_loss(state, tctx, train_batch, outer_batch, config, down)) / (2 * h)

    outer_step(state, train_batch, outer_batch, config, tctx)
    hyper = (phi0 - state.phi_t.data) / config.eta_outer
    assert rel_err(hyper, fd) < 5e-2, f"hyper={hyper} fd={fd}"


def test_exact_and_central_hypergradients_agree():
    teacher, splits, student_config, _ = make_setup(n=120, seed=2)
    updates = {}
    for mode in ("central", "exact"):
        config = TrainConfig(mode="smat", steps=1, batch_size=8, seed=2, hypergrad=mode)
        state, tctx = make_state(teacher, splits, student_config, config)
        train_batch = splits.train[:8]
        outer_batch = splits.dev[:8]
        inner_step(state, train_batch, config, tctx)
        phi0 = state.phi_t.data.copy()
        outer_step(state, train_batch, outer_batch, config, tctx)
        updates[mode] = (phi0 - state.phi_t.data) / config.eta_outer
    assert rel_err(updates["central"], updates["exact"]) < 1e-2


# eta_outer for reading a hypergradient back from outer_step's update: a power
# of two scales float32 exactly, and phi_T - 2**30 * hyper rounds once, at
# most 2**-24 of |hyper| once phi_T / 2**30 is negligible.
READBACK_ETA = 2.0**30
# Measured by the test below (float32 rel err against float64 exact after 1,
# 20 and 60 steps): central 1.0e-4 to 3.5e-4, exact 3.1e-7 to 8.4e-7, and
# exact beat central by 265x to 513x. Each bound leaves about 5x of margin.
CENTRAL_REL_ERR = 2e-3
EXACT_REL_ERR = 4e-6
EXACT_OVER_CENTRAL = 2e-2


def _outer_hypergradient(state, dtype, hypergrad, tctx, config, train_batch, outer_batch):
    """outer_step's hypergradient at a copy of ``state`` in ``dtype``, as float64."""
    student = MiniTransformer(state.student.config, seed=0, dtype=dtype)
    student.load_param_data(state.student.clone_param_data())
    copy = TrainState(student=student,
                      phi_s=Tensor(state.phi_s.data, requires_grad=True, dtype=dtype),
                      phi_t=Tensor(state.phi_t.data, requires_grad=True, dtype=dtype))
    before = copy.phi_t.data.astype(np.float64)
    outer_step(copy, train_batch, outer_batch,
               replace(config, hypergrad=hypergrad, eta_outer=READBACK_ETA), tctx)
    return (before - copy.phi_t.data.astype(np.float64)) / READBACK_ETA


def test_float32_hypergradient_estimators_against_float64_exact():
    """At the acceptance experiment's shapes (a fresh teacher, batches of 32),
    the float32 central and exact hypergradients stay within measured bounds
    of the float64 exact one, at states along a float32 central smat run."""
    data = generate_synthetic(SyntheticSpec(seed=7, vocab_size=200, noise_ratio=0.75,
                                            min_len=5, max_len=10), 300)
    vocab = build_vocab(data.examples)
    splits = split_dataset(attach_token_ids(data, vocab), seed=0)
    shape = dict(vocab_size=len(vocab), max_len=10)
    teachers = {dtype: MiniTransformer(ModelConfig(**shape, num_layers=2, heads_per_layer=4,
                                                   model_dim=32, head_dim=8, ffn_dim=64),
                                       seed=1, dtype=dtype)
                for dtype in (np.float32, np.float64)}
    teachers[np.float64].load_param_data(teachers[np.float32].clone_param_data())
    config = TrainConfig(mode="smat", steps=60, batch_size=32, seed=0, eta_outer=0.2)
    tctxs = {dtype: TeacherContext(t, config) for dtype, t in teachers.items()}
    student_config = ModelConfig(**shape, num_layers=1, heads_per_layer=2, model_dim=8,
                                 head_dim=4, ffn_dim=16)
    state, _ = make_state(teachers[np.float32], splits, student_config, config, np.float32)
    tctx = tctxs[np.float32]
    rng = np.random.default_rng(0)
    step = 0
    for at in (1, 20, 60):
        while step < at:
            train_batch = [splits.train[i] for i in rng.integers(0, len(splits.train), 32)]
            outer_batch = [splits.dev[i] for i in rng.integers(0, len(splits.dev), 32)]
            inner_step(state, train_batch, config, tctx)
            outer_step(state, train_batch, outer_batch, config, tctx)
            step += 1
        batches = (config, train_batch, outer_batch)
        want = _outer_hypergradient(state, np.float64, "exact", tctxs[np.float64], *batches)
        assert np.count_nonzero(want) > 1
        errs = {mode: rel_err(_outer_hypergradient(state, np.float32, mode, tctx, *batches), want)
                for mode in ("central", "exact")}
        assert errs["central"] < CENTRAL_REL_ERR, (at, errs)
        assert errs["exact"] < EXACT_REL_ERR, (at, errs)
        assert errs["exact"] < EXACT_OVER_CENTRAL * errs["central"], (at, errs)


# ---------------------------------------------------------------------------
# full runs


def test_train_zero_steps_returns_initialized_student():
    teacher, splits, student_config, _ = make_setup()
    config = TrainConfig(mode="none", steps=0, batch_size=4)
    result = train(config, teacher, splits, student_config)
    fresh = MiniTransformer(student_config, seed=config.seed, dtype=teacher.dtype)
    for name in fresh.param_names():
        assert np.array_equal(result.student.params[name].data, fresh.params[name].data)
    assert result.log == []


def test_train_is_deterministic():
    teacher, splits, student_config, _ = make_setup(n=80)
    config = TrainConfig(mode="smat", steps=3, batch_size=4, eval_every=2)
    a = train(config, teacher, splits, student_config)
    b = train(config, teacher, splits, student_config)
    for name in a.student.param_names():
        assert np.array_equal(a.student.params[name].data, b.student.params[name].data)
    assert np.array_equal(a.phi_t.data, b.phi_t.data)
    assert np.array_equal(a.phi_s.data, b.phi_s.data)
    assert [asdict(r) for r in a.log] == [asdict(r) for r in b.log]


def test_train_never_touches_teacher():
    teacher, splits, student_config, _ = make_setup(n=80)
    before = teacher.clone_param_data()
    config = TrainConfig(mode="smat", steps=2, batch_size=4)
    train(config, teacher, splits, student_config)
    after = teacher.clone_param_data()
    for name in before:
        assert np.array_equal(before[name], after[name])


def test_train_rejects_missing_token_ids():
    teacher, splits, student_config, config = make_setup()
    stripped = type(splits)(
        train=[Example_without_ids(ex) for ex in splits.train],
        dev=splits.dev,
        test=splits.test,
    )
    with pytest.raises(ValueError):
        train(config, teacher, stripped, student_config)


def test_an_integral_float_in_an_integer_field_becomes_its_int():
    config = TrainConfig(steps=3.0, batch_size=np.int64(4), seed=2.0, eval_every=np.float32(5))
    got = (config.steps, config.batch_size, config.seed, config.eval_every)
    assert got == (3, 4, 2, 5) and all(type(v) is int for v in got)


def test_train_supervised_checks_its_arguments_before_any_step():
    model = tiny_model()
    before = model.clone_param_data()
    pool = make_setup("none")[1].train
    for bad, name in (({"steps": -1}, "steps"), ({"batch_size": 0}, "batch_size"),
                      ({"lr": True}, "lr"), ({"momentum": "0.9"}, "momentum"),
                      ({"seed": True}, "seed"), ({"seed": 2.5}, "seed")):
        with pytest.raises(training.FieldError, match=name):
            train_supervised(model, pool, **bad)
    assert all(np.array_equal(model.params[n].data, v) for n, v in before.items())


def test_soft_targets_on_a_regression_student_are_rejected():
    teacher, splits, student_config, config = fixture_shaped_setup(
        "none", task="regression", soft_targets=True)
    with pytest.raises(ValueError, match="soft_targets"):
        train(config, teacher, splits, student_config)


def test_student_task_unlike_the_teacher_task_is_rejected():
    _, splits, student_config, config = make_setup(mode="none")
    teacher = MiniTransformer(tiny_config(vocab_size=student_config.vocab_size, max_len=10,
                                          task="regression"), seed=1, dtype=np.float64)
    with pytest.raises(ValueError, match="'classification'.*'regression'"):
        train(config, teacher, splits, student_config)


@pytest.mark.parametrize("soft_targets", [False, True])
@pytest.mark.parametrize("student_classes, teacher_classes", [(3, 2), (2, 3)])
def test_a_student_with_other_num_classes_than_the_teacher_is_rejected(
        soft_targets, student_classes, teacher_classes):
    """A 3-class student of a 2-class teacher used to train (hard targets) or
    fail to broadcast (32,2) against (32,3) (soft targets); a 2-class student
    of a 3-class teacher failed once the teacher predicted class 2."""
    _, splits, student_config, config = make_setup(mode="none", soft_targets=soft_targets)
    teacher = MiniTransformer(tiny_config(vocab_size=student_config.vocab_size, max_len=10,
                                          num_classes=teacher_classes), seed=1, dtype=np.float64)
    student_config = replace(student_config, num_classes=student_classes)
    with pytest.raises(ValueError, match=f"^student num_classes {student_classes} does not match "
                                         f"teacher num_classes {teacher_classes}$"):
        train(config, teacher, splits, student_config)


@pytest.mark.parametrize("split", ["train", "dev", "test"])
@pytest.mark.parametrize("model", ["student", "teacher"])
def test_a_sequence_longer_than_either_max_len_is_rejected_naming_the_split_and_model(split, model):
    """An 11-token sequence against max_len 10 used to raise "sequence length
    11 exceeds max_len 10" from a forward, or, in the test split, nothing."""
    teacher, splits, student_config, config = make_setup(mode="none")
    part = getattr(splits, split)
    long = replace(part[0], token_ids=part[0].token_ids[:1] * 11)
    splits = replace(splits, **{split: [long] + part[1:]})
    if model == "student":  # the other model reads 12 tokens
        teacher = MiniTransformer(replace(teacher.config, max_len=12), seed=1, dtype=np.float64)
    else:
        student_config = replace(student_config, max_len=12)
    with pytest.raises(ValueError, match=f"^the {split} split holds a sequence of 11 tokens, "
                                         f"more than the {model}'s max_len 10$"):
        train(config, teacher, splits, student_config)


def Example_without_ids(ex):
    from dataclasses import replace
    return replace(ex, token_ids=None)


def test_train_logs_at_eval_interval():
    teacher, splits, student_config, _ = make_setup(n=80)
    config = TrainConfig(mode="smat", steps=4, batch_size=4, eval_every=2)
    result = train(config, teacher, splits, student_config)
    assert [r.step for r in result.log] == [2, 4]
    for record in result.log:
        assert record.dev_simulability is not None
        assert 0.0 <= record.dev_simulability <= 1.0
        assert record.active_heads >= 1


def test_initial_teacher_explanation_is_static_attention():
    """phi_T = 0 reproduces the all-heads attention mean, bit for bit."""
    teacher, splits, student_config, config = make_setup(mode="smat")
    state, tctx = make_state(teacher, splits, student_config, config)
    ex = splits.train[0]
    learned = tctx.teacher_saliency([ex.token_ids], state.phi_t)
    static = compute_static_saliency(teacher, ex.token_ids, "attn_all")
    assert np.array_equal(learned.data, static.scores[None])


def test_count_active_heads():
    phi = Tensor(np.array([2.0, -2.0, 0.0, 0.1]), dtype=np.float64)
    assert count_active_heads(phi, "sparsemax") == 1
    assert count_active_heads(phi, "softmax") == 4
    assert count_active_heads(Tensor(np.zeros(4)), "sparsemax") == 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_count_active_heads_counts_a_small_positive_coefficient(dtype):
    """By hand: sparsemax of [1, 5e-4, -5] has threshold tau = (1 + 5e-4 - 1) / 2
    = 2.5e-4 over its two largest entries, so lambda = [0.99975, 2.5e-4, 0] and
    two heads are active. A count that ignores coefficients under 1e-3 says one."""
    phi = Tensor(np.array([1.0, 5e-4, -5.0], dtype=dtype))
    with ad.no_grad():
        lam = training.normalize_coefficients(phi, "sparsemax").data
    # tau comes from a sum of order 1, so the small entry is good to a few ulps of 1
    np.testing.assert_allclose(lam, [0.99975, 2.5e-4, 0.0], rtol=0, atol=4 * np.finfo(dtype).eps)
    assert count_active_heads(phi, "sparsemax") == 2
    assert count_active_heads(phi, "softmax") == 3
    assert count_active_heads(phi, "none") == 3


def test_simulability_of_identical_models_is_one():
    teacher, splits, student_config, config = make_setup()
    tctx = TeacherContext(teacher, config)
    clone = MiniTransformer(teacher.config, seed=0, dtype=teacher.dtype)
    clone.load_param_data(teacher.clone_param_data())
    assert simulability(clone, tctx, splits.test) == 1.0


def test_static_mode_uses_cached_teacher_saliency():
    teacher, splits, student_config, _ = make_setup()
    config = TrainConfig(mode="static:attn_all", steps=1, batch_size=4)
    tctx = TeacherContext(teacher, config)
    ex = splits.train[0]
    sal = tctx.teacher_saliency([ex.token_ids], Tensor(np.zeros(1)))
    want = compute_static_saliency(teacher, ex.token_ids, "attn_all")
    assert np.array_equal(sal.data, want.scores[None])
    assert tctx.teacher_saliency([ex.token_ids], Tensor(np.zeros(1))).data is not None


# ---------------------------------------------------------------------------
# one teacher cache per run schedule, shared across runs


def fixture_shaped_setup(mode, seed=0, task="classification", **overrides):
    """float32 teacher at the acceptance experiment's shapes, lengths 5-10."""
    data = generate_synthetic(SyntheticSpec(seed=7, vocab_size=200, noise_ratio=0.75,
                                            min_len=5, max_len=10), 120)
    vocab = build_vocab(data.examples)
    data = attach_token_ids(data, vocab)
    splits = split_dataset(data, seed=0)
    teacher = MiniTransformer(
        ModelConfig(vocab_size=len(vocab), max_len=10, num_layers=2, heads_per_layer=4,
                    model_dim=32, head_dim=8, ffn_dim=64, task=task), seed=1, dtype=np.float32)
    student_config = ModelConfig(vocab_size=len(vocab), max_len=10, num_layers=1,
                                 heads_per_layer=2, model_dim=8, head_dim=4, ffn_dim=16,
                                 task=task)
    defaults = dict(mode=mode, steps=5, batch_size=8, seed=seed, eta_outer=0.2, eval_every=2)
    defaults.update(overrides)
    return teacher, splits, student_config, TrainConfig(**defaults)


def lazy_train(config, teacher, splits, student_config):
    """Oracle: the step loop with interleaved batch draws and a context that
    computes each teacher value the first time a step asks for it."""
    state, tctx = make_state(teacher, splits, student_config, config, dtype=np.float32)
    rng_inner = np.random.default_rng([config.seed, 0])
    rng_outer = np.random.default_rng([config.seed, 1])
    log = []
    for step in range(1, config.steps + 1):
        batch = [splits.train[int(i)] for i in rng_inner.integers(
            0, len(splits.train), size=min(config.batch_size, len(splits.train)))]
        inner_step(state, batch, config, tctx)
        if config.mode_kind() == "smat":
            outer = [splits.dev[int(i)] for i in rng_outer.integers(
                0, len(splits.dev), size=min(config.batch_size, len(splits.dev)))]
            outer_step(state, batch, outer, config, tctx)
        if step % config.eval_every == 0 or step == config.steps:
            log.append((step, state.last_loss, simulability(state.student, tctx, splits.dev),
                        count_active_heads(state.phi_t, config.normalize)))
    return state, log


def assert_same_run(result, state, log):
    for name in state.student.param_names():
        got, want = result.student.params[name].data, state.student.params[name].data
        assert got.dtype == np.float32 and np.array_equal(got, want), name
    assert np.array_equal(result.phi_t.data, state.phi_t.data)
    assert np.array_equal(result.phi_s.data, state.phi_s.data)
    assert [(r.step, r.train_loss, r.dev_simulability, r.active_heads) for r in result.log] == log


@pytest.mark.parametrize("mode", ["smat", "static:attn_all", "none"])
def test_float32_train_with_a_fresh_or_shared_filled_context_is_bit_identical(mode):
    teacher, splits, student_config, config = fixture_shaped_setup(mode)
    state, log = lazy_train(config, teacher, splits, student_config)
    assert_same_run(train(config, teacher, splits, student_config), state, log)
    shared = TeacherContext(teacher, config)
    train(replace(config, seed=1), teacher, splits, student_config, tctx=shared)
    for _ in range(2):  # partly filled by seed 1, then filled by this run
        assert_same_run(train(config, teacher, splits, student_config, tctx=shared), state, log)


def run_sha256(result):
    """Hash of a run's student weights, phi_S, phi_T and log."""
    h = hashlib.sha256()
    for name in result.student.param_names():
        h.update(result.student.params[name].data.tobytes())
    h.update(result.phi_s.data.tobytes())
    h.update(result.phi_t.data.tobytes())
    h.update(json.dumps([asdict(r) for r in result.log]).encode())
    return h.hexdigest()


# Recorded with the squared-error simulation loss the regression student
# trained on when it had to be chosen by a config field.
REGRESSION_RUN_SHA256 = {
    ("none", "central"): "1049fa31bb5754cf582bfa1e0520e2cb753a29bd2858b5dcee8568a3de336353",
    ("static:attn_all", "central"):
        "6d6a0b6665dde8b3adc4a564bdde8c6f2d68baeb0ad7c56c9299c054e37a4d54",
    ("smat", "central"): "e8441014e2fdfc485503fbd927384763e2c14c3778add5a83ff26d0d61de4629",
    ("smat", "exact"): "7e3fd763429e869eb79a34289190256f8c963aefe06e6e6b1b16b85137359b64",
}


@pytest.mark.parametrize("mode,hypergrad", list(REGRESSION_RUN_SHA256))
def test_float32_regression_train_is_pinned(mode, hypergrad):
    teacher, splits, student_config, config = fixture_shaped_setup(
        mode, task="regression", steps=12, eval_every=4, hypergrad=hypergrad)
    result = train(config, teacher, splits, student_config)
    assert run_sha256(result) == REGRESSION_RUN_SHA256[mode, hypergrad]


def record_teacher_calls(monkeypatch, tctx):
    """(kind, sequence count) of each teacher call the context makes."""
    calls = []
    lookup = tctx._lookup

    def recording(kind, token_ids, compute):
        def counted(batch):
            calls.append((kind, len(batch)))
            return compute(batch)
        return lookup(kind, token_ids, counted)

    monkeypatch.setattr(tctx, "_lookup", recording)
    return calls


@pytest.mark.parametrize("mode,overrides,kinds", [
    ("smat", {}, ["target", "head_logits"]),
    ("static:attn_all", {}, ["target", "static"]),
    ("none", {}, ["target"]),
    ("smat", {"soft_targets": True}, ["probs", "target", "head_logits"]),
])
def test_a_run_computes_each_teacher_kind_once_before_its_first_step(monkeypatch, mode, overrides,
                                                                     kinds):
    teacher, splits, student_config, config = fixture_shaped_setup(mode, steps=8, batch_size=4,
                                                                   **overrides)
    # small enough that the first run's schedule draws every sequence
    splits = replace(splits, train=splits.train[:5], dev=splits.dev[:5])
    tctx = TeacherContext(teacher, config)
    calls = record_teacher_calls(monkeypatch, tctx)
    in_step, forwards = [False], []

    def counting(fn):
        def wrapper(*args, **kwargs):
            forwards.append(in_step[0])
            return fn(*args, **kwargs)
        return wrapper

    def stepping(fn):
        def wrapper(*args, **kwargs):
            in_step[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                in_step[0] = False
        return wrapper

    monkeypatch.setattr(teacher, "forward", counting(teacher.forward))
    monkeypatch.setattr(teacher, "forward_from_embeddings", counting(teacher.forward_from_embeddings))
    monkeypatch.setattr(training, "inner_step", stepping(training.inner_step))
    monkeypatch.setattr(training, "outer_step", stepping(training.outer_step))
    train(config, teacher, splits, student_config, tctx=tctx)
    assert [kind for kind, _ in calls] == kinds
    assert forwards and not any(forwards)  # teacher forwards ran, none inside a step
    ran = len(forwards)
    train(replace(config, seed=1), teacher, splits, student_config, tctx=tctx)
    assert len(calls) == len(kinds) and len(forwards) == ran


def test_a_short_run_fills_only_the_sequences_its_schedule_touches(monkeypatch):
    teacher, splits, student_config, config = fixture_shaped_setup("smat", steps=1, batch_size=4)
    tctx = TeacherContext(teacher, config)
    calls = record_teacher_calls(monkeypatch, tctx)
    train(config, teacher, splits, student_config, tctx=tctx)
    sizes = dict(calls)
    assert len(calls) == len(sizes) and len(splits.train) > 4
    assert 1 <= sizes["head_logits"] <= 4  # one inner batch, not the train split
    assert len(splits.dev) <= sizes["target"] <= len(splits.dev) + 4


PADDED, UNPADDED, LONGER = [5, 6, 0], [5, 6], [5, 6, 7, 8]
PAD_FOUND = "pad id 0 found in a token sequence"


def _assert_same(a, b):
    assert np.shape(a) == np.shape(b) and np.array_equal(a, b)


@pytest.mark.parametrize("mode,kind", [("smat", "target"), ("smat", "probs"),
                                       ("smat", "head_logits"), ("static:attn_all", "static_saliency")])
def test_every_form_of_a_sequence_reads_one_cache_entry_and_a_padded_one_raises(mode, kind):
    teacher, _, _, config = make_setup(mode, dtype=np.float32)
    tctx = TeacherContext(teacher, config)
    value = getattr(tctx, kind)(UNPADDED)
    assert getattr(tctx, kind)([LONGER, UNPADDED])[1] is value
    assert getattr(tctx, kind)(np.array(UNPADDED)) is value
    for same in (tuple(UNPADDED), np.array(UNPADDED, dtype=np.int32),
                 [np.int64(i) for i in UNPADDED]):
        assert getattr(tctx, kind)(same) is value
        assert getattr(tctx, kind)([same, LONGER])[0] is value
    assert len(tctx._cache) == 2
    # a pad id is no token, so a padded sequence is no key for its unpadded value
    for padded in (PADDED, [LONGER, PADDED], np.array(PADDED)):
        with pytest.raises(ValueError, match=PAD_FOUND):
            getattr(tctx, kind)(padded)
    assert len(tctx._cache) == 2


@pytest.mark.parametrize("mode", ["smat", "static:attn_all"])
def test_teacher_saliency_of_one_sequence_raises(mode):
    """E_T is a (B, L) batch; one sequence raises, even after the batch of
    one with the same sequence was built."""
    teacher, _, _, config = make_setup(mode, dtype=np.float32)
    tctx = TeacherContext(teacher, config)
    phi_t = Tensor(np.zeros(len(scope_head_indices(teacher, "all")), dtype=np.float32))
    assert tctx.teacher_saliency([UNPADDED], phi_t).shape == (1, len(UNPADDED))
    for one in (UNPADDED, tuple(UNPADDED), np.array(UNPADDED), PreparedIds(UNPADDED)):
        with pytest.raises(ValueError, match="a batch of sequences, not one sequence"):
            tctx.teacher_saliency(one, phi_t)
    with pytest.raises(ValueError, match=PAD_FOUND):
        tctx.teacher_saliency(PADDED, phi_t)


@pytest.mark.parametrize("mode", ["smat", "static:attn_all"])
def test_teacher_saliency_is_zero_past_a_sequence_and_rejects_a_padded_one(mode):
    teacher, _, _, config = make_setup(mode, dtype=np.float32)
    phi_t = Tensor(np.linspace(-1, 1, len(scope_head_indices(teacher, "all")), dtype=np.float32))

    def e_t(ids):
        return TeacherContext(teacher, config).teacher_saliency(ids, phi_t).data

    beside = e_t([UNPADDED, LONGER])
    assert beside.shape == (2, len(LONGER)) and (beside[0, 2:] == 0).all()
    for padded in ([PADDED], [PADDED, LONGER]):
        with pytest.raises(ValueError, match=PAD_FOUND):
            e_t(padded)


# ---------------------------------------------------------------------------
# one teacher explanation E_T per smat step


def count_e_t_builds(monkeypatch):
    """One entry per E_T that teacher_saliency builds: a head mix of the
    teacher's cached logits, a constant leaf, where E_S mixes the logits of
    a student forward."""
    builds = []
    mix = ExplainerParams.mix

    def counting(self, logits, *args, **kwargs):
        if logits._op == "leaf":
            builds.append(1)
        return mix(self, logits, *args, **kwargs)

    monkeypatch.setattr(ExplainerParams, "mix", counting)
    return builds


def test_a_central_smat_step_builds_e_t_once_for_its_four_uses(monkeypatch):
    teacher, splits, student_config, config = fixture_shaped_setup("smat")
    state, tctx = make_state(teacher, splits, student_config, config, dtype=np.float32)
    builds, uses = count_e_t_builds(monkeypatch), []
    kl_divergence = ad.kl_divergence

    def recording(p, q):
        uses.append(p)
        return kl_divergence(p, q)

    monkeypatch.setattr(ad, "kl_divergence", recording)
    for step, start in enumerate((0, 8), start=1):
        batch, outer = splits.train[start : start + 8], splits.dev[start : start + 8]
        e_t = inner_step(state, batch, config, tctx)
        before = state.phi_t.data.copy()
        outer_step(state, batch, outer, config, tctx, e_t)
        assert not np.array_equal(state.phi_t.data, before)
        # inner step, committed-weight loss and both probes read the one E_T
        assert e_t.requires_grad and len(builds) == step
        assert len(uses) == 4 * step and all(use is e_t for use in uses[-4:])


@pytest.mark.parametrize("hypergrad", training.HYPERGRAD_MODES)
def test_train_builds_one_e_t_per_smat_step(monkeypatch, hypergrad):
    teacher, splits, student_config, config = fixture_shaped_setup(
        "smat", steps=3, hypergrad=hypergrad)
    builds = count_e_t_builds(monkeypatch)
    state = train(config, teacher, splits, student_config)
    assert len(builds) == config.steps and state.phi_t.data.any()


@pytest.mark.parametrize("hypergrad", training.HYPERGRAD_MODES)
def test_outer_step_given_the_inner_steps_e_t_builds_none(monkeypatch, hypergrad):
    teacher, splits, student_config, config = fixture_shaped_setup("smat", hypergrad=hypergrad)
    batch, outer = splits.train[:8], splits.dev[:8]
    builds = count_e_t_builds(monkeypatch)
    handed, tctx = make_state(teacher, splits, student_config, config, dtype=np.float32)
    e_t = inner_step(handed, batch, config, tctx)
    assert len(builds) == 1
    outer_step(handed, batch, outer, config, tctx, e_t)
    assert len(builds) == 1 and handed.phi_t.data.any()
    # a caller that hands over no E_T gets one built, and the same update
    built, tctx = make_state(teacher, splits, student_config, config, dtype=np.float32)
    inner_step(built, batch, config, tctx)
    outer_step(built, batch, outer, config, tctx)
    assert len(builds) == 3 and np.array_equal(built.phi_t.data, handed.phi_t.data)
    # a context's E_T follows phi_T as a fresh context's does: after the
    # update, and after an in-place write to phi_T
    ids, fresh = [ex.token_ids for ex in batch], TeacherContext(teacher, config)
    updated = tctx.teacher_saliency(ids, handed.phi_t).data
    assert not np.array_equal(updated, e_t.data)
    assert np.array_equal(updated, fresh.teacher_saliency(ids, handed.phi_t).data)
    handed.phi_t.data[0] += 1.0
    written = tctx.teacher_saliency(ids, handed.phi_t).data
    assert not np.array_equal(written, updated)
    assert np.array_equal(written, fresh.teacher_saliency(ids, handed.phi_t).data)


def tensors_in(value) -> int:
    """The number of Tensors inside ``value``'s dicts, lists and tuples."""
    if isinstance(value, Tensor):
        return 1
    if isinstance(value, dict):
        return tensors_in(list(value.items()))
    if isinstance(value, (list, tuple)):
        return sum(tensors_in(item) for item in value)
    return 0


def test_a_context_two_seeds_share_holds_no_tensor_of_either_run():
    teacher, splits, student_config, config = fixture_shaped_setup("smat", steps=3)
    tctx = TeacherContext(teacher, config)
    runs = [train(replace(config, seed=seed), teacher, splits, student_config, tctx=tctx)
            for seed in (0, 1)]
    assert tensors_in([value for name, value in vars(tctx).items() if name != "teacher"]) == 0
    # and the second run is the one a fresh context gives
    alone = train(replace(config, seed=1), teacher, splits, student_config)
    assert np.array_equal(runs[1].phi_t.data, alone.phi_t.data)
    for name in alone.student.param_names():
        assert np.array_equal(runs[1].student.params[name].data, alone.student.params[name].data)


def unshared_phi_t_gradient(tctx):
    """The probe gradient through an E_T of its own, built from ``tctx`` on
    a copy of phi_T; the step's ``e_t`` is not read."""
    def gradient(state, batch, config, e_t, probe_params):
        ids = batch.sequences()
        phi_leaf = Tensor(state.phi_t.data.copy(), requires_grad=True, name="phi_t_probe")
        with ad.no_grad():
            internals = state.student.attention_internals(ids, params=probe_params)
            e_s = training.saliency_from_internals(
                internals, ExplainerParams(phi=state.phi_s, normalize=config.normalize,
                                           scope=config.explainer_scope()))
        expl = ad.kl_divergence(tctx.teacher_saliency(ids, phi_leaf), e_s)
        factor = ad.constant(np.asarray(config.effective_beta() / len(ids), dtype=expl.dtype))
        return ad.backward(ad.mul(expl, factor), [phi_leaf])[0].data
    return gradient


@pytest.mark.parametrize("hypergrad", ["central", "exact"])
def test_float32_train_with_one_shared_e_t_is_bit_identical_to_unshared(monkeypatch, hypergrad):
    teacher, splits, student_config, config = fixture_shaped_setup(
        "smat", steps=10, batch_size=16, hypergrad=hypergrad)
    shared = train(config, teacher, splits, student_config)
    builds = count_e_t_builds(monkeypatch)

    def unshared_loss(*args):  # drops the step's e_t, so the loss builds its own
        return student_loss(*args[:6])

    tctx = TeacherContext(teacher, config)
    monkeypatch.setattr(training, "student_loss", unshared_loss)
    monkeypatch.setattr(training, "_phi_t_gradient", unshared_phi_t_gradient(tctx))
    alone = train(config, teacher, splits, student_config, tctx=tctx)
    # inner_step's own E_T, then one each for the inner loss, the committed-weight
    # loss and each central probe
    assert len(builds) == (5 if hypergrad == "central" else 3) * config.steps
    for name in shared.student.param_names():
        got, want = shared.student.params[name].data, alone.student.params[name].data
        assert got.dtype == np.float32 and np.array_equal(got, want), name
    assert np.array_equal(shared.phi_t.data, alone.phi_t.data)
    assert np.array_equal(shared.phi_s.data, alone.phi_s.data)
    assert [asdict(r) for r in shared.log] == [asdict(r) for r in alone.log]
    assert shared.phi_t.data.any()  # the outer steps moved phi_T off its zero start


# ---------------------------------------------------------------------------
# each batch prepared once per step


def count_preparations(monkeypatch):
    """The sequence count of each PreparedIds built from raw token ids."""
    sizes = []
    init = PreparedIds.__init__

    def counting(self, token_ids):
        sizes.append(len(token_ids))
        init(self, token_ids)

    monkeypatch.setattr(PreparedIds, "__init__", counting)
    return sizes


@pytest.mark.parametrize("mode,hypergrad,per_step", [
    ("smat", "central", 2), ("smat", "exact", 2),
    ("none", "central", 1), ("static:attn_all", "central", 1),
])
def test_a_step_prepares_each_of_its_batches_once(monkeypatch, mode, hypergrad, per_step):
    teacher, splits, student_config, config = fixture_shaped_setup(
        mode, steps=3, eval_every=3, hypergrad=hypergrad)
    tctx = TeacherContext(teacher, config)
    train(config, teacher, splits, student_config, tctx=tctx)  # fills the cache: no teacher forward
    sizes = count_preparations(monkeypatch)
    train(config, teacher, splits, student_config, tctx=tctx)
    # each step's train batch (and outer batch), then the dev evaluation's one predict forward
    assert len(splits.dev) <= training.PREDICT_CHUNK
    assert sizes == [config.batch_size] * (per_step * config.steps) + [len(splits.dev)]


def test_a_batch_with_the_same_lengths_and_other_ids_gets_its_own_values():
    teacher, splits, student_config, config = fixture_shaped_setup("smat")
    state, tctx = make_state(teacher, splits, student_config, config, dtype=np.float32)
    first = splits.train[:8]
    second = [replace(ex, token_ids=ex.token_ids[::-1]) for ex in first]
    assert [ex.token_ids for ex in second] != [ex.token_ids for ex in first]
    wrt = state.student.param_list() + [state.phi_s, state.phi_t]
    for batch in (first, second):  # one context: the second batch follows the first's E_T
        step = PreparedIds([ex.token_ids for ex in batch])
        e_t = tctx.teacher_saliency(step, state.phi_t)
        got = ad.backward(student_loss(state.student, tctx, state.phi_s, state.phi_t, step,
                                       config), wrt)
        fresh = TeacherContext(teacher, config)
        assert np.array_equal(e_t.data, fresh.teacher_saliency(
            [ex.token_ids for ex in batch], state.phi_t).data)
        want = ad.backward(student_loss(state.student, fresh, state.phi_s, state.phi_t,
                                        list(batch), config), wrt)
        for g, w in zip(got, want):
            assert np.array_equal(g.data, w.data)


def test_train_prepares_each_step_from_the_token_ids_its_examples_then_hold(monkeypatch):
    teacher, splits, student_config, config = fixture_shaped_setup("smat", steps=4)
    splits = replace(splits, train=[replace(ex) for ex in splits.train])
    inner, outer, seen = training.inner_step, training.outer_step, []
    rng = np.random.default_rng([config.seed, 0])  # the run's schedule, drawn again
    schedule = [training._sample_batch(rng, splits.train, config.batch_size)
                for _ in range(config.steps)]

    def checking(state, batch, *args):
        examples = schedule[len(seen)]
        seen.append(batch.sequences() == [tuple(ex.token_ids) for ex in examples])
        return inner(state, batch, *args)

    def replacing(*args):
        out = outer(*args)
        for ex in splits.train:  # between steps: the same lengths, other ids
            ex.token_ids = ex.token_ids[::-1]
        return out

    monkeypatch.setattr(training, "inner_step", checking)
    monkeypatch.setattr(training, "outer_step", replacing)
    train(config, teacher, splits, student_config)
    assert seen == [True] * config.steps


def test_train_rejects_a_context_for_another_run():
    teacher, splits, student_config, config = make_setup(mode="smat", normalize="softmax")
    other = MiniTransformer(teacher.config, seed=9, dtype=teacher.dtype)
    with pytest.raises(ValueError, match="another teacher"):
        train(config, teacher, splits, student_config, tctx=TeacherContext(other, config))
    for field_, value in (("mode", "static:attn_all"), ("normalize", "sparsemax")):
        tctx = TeacherContext(teacher, replace(config, **{field_: value}))
        with pytest.raises(ValueError, match=field_):
            train(config, teacher, splits, student_config, tctx=tctx)
    # another seed, step count or rate is fine
    train(config, teacher, splits, student_config,
          tctx=TeacherContext(teacher, replace(config, seed=4, steps=1, eta_outer=0.0)))


# ---------------------------------------------------------------------------
# supervised teacher training


def test_train_supervised_single_step_arithmetic():
    teacher, splits, student_config, _ = make_setup(n=40)
    model = MiniTransformer(student_config, seed=3, dtype=np.float64)
    reference = MiniTransformer(student_config, seed=3, dtype=np.float64)
    losses = train_supervised(model, splits.train, lr=0.05, momentum=0.9,
                              steps=1, batch_size=4, seed=5)
    assert len(losses) == 1
    # replay the same batch by hand: velocity = grad, p -= lr * grad
    rng = np.random.default_rng([5, 2])
    idx = rng.integers(0, len(splits.train), size=4)
    batch = [splits.train[int(i)] for i in idx]
    loss = task_loss(reference, [ex.token_ids for ex in batch], [ex.label for ex in batch])
    grads = ad.backward(loss, reference.param_list())
    for name, p, g in zip(reference.param_names(), reference.param_list(), grads):
        want = p.data - 0.05 * g.data
        assert np.array_equal(model.params[name].data, want), name


def test_train_supervised_learns_the_synthetic_task():
    data = generate_synthetic(SyntheticSpec(seed=9), 300)
    vocab = build_vocab(data.examples)
    data = attach_token_ids(data, vocab)
    splits = split_dataset(data, seed=0)
    model = MiniTransformer(
        tiny_config(vocab_size=len(vocab), max_len=10), seed=0, dtype=np.float32)
    train_supervised(model, splits.train, lr=0.2, momentum=0.9, steps=120,
                     batch_size=16, seed=0)
    assert gold_accuracy(model, splits.train) > 0.8
