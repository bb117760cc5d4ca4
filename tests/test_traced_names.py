"""The names the benchmark's tracer wraps exist, and are put back after it.

``perfbench/tracing.py`` wraps smat's functions and methods by name wherever
a module binds them, and raises if a name is gone. Its own tests run only
under ``pytest perfbench``; this runs its install and restore in the main
suite, so renaming or deleting a traced name fails here too.
"""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from smat import model, training

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, imported under a name of its own (its dataclasses
    look their module up in sys.modules) and dropped again afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def bindings():
    """Every name bound in smat's modules and on the two traced classes."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "smat" or name.startswith("smat."):
            found.update({(name, k): v for k, v in vars(module).items()})
    for cls in (model.MiniTransformer, training.TeacherContext):
        found.update({(cls.__name__, k): v for k, v in cls.__dict__.items()})
    return found


@pytest.mark.parametrize("instrument", ["Tracer", "StepClock"])
def test_the_tracer_wraps_each_traced_name_and_puts_every_binding_back(tracing, instrument):
    if instrument == "Tracer":
        tool = tracing.Tracer()
        must_wrap = {("smat.autodiff", op) for op in tracing.AUTODIFF_OPS}
        must_wrap |= {("smat.autodiff", name) for name in ("_from_op", "_toposort", "backward")}
        must_wrap |= {("MiniTransformer", name)
                      for name in ("forward", "forward_from_embeddings", "predict")}
        must_wrap |= {("TeacherContext", name) for name in tracing.TEACHER_CACHE_LOOKUPS}
        must_wrap |= {("smat.training", name) for name in (
            "train_supervised", "inner_step", "outer_step", "student_loss", "simulability")}
        must_wrap |= {("smat.training", "head_logit_matrix"),
                      ("smat.explainers", "explain_parameterized")}
    else:
        tool = tracing.StepClock(tracing.HostSpeed())
        must_wrap = {("smat.training", name)
                     for name in ("train_supervised", "train", "inner_step", "outer_step")}
    before, callbacks = bindings(), list(gc.callbacks)
    tool.install()  # raises if a traced name is gone
    try:
        during = bindings()
        wrapped = {key for key in before if during[key] is not before[key]}
        assert must_wrap <= wrapped, sorted(must_wrap - wrapped)
    finally:
        tool.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert gc.callbacks == callbacks
