"""Benchmark command for smat.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It imports smat from the checkout's
``src`` and nothing else, sets up the workload several times (the median
is ``setup_s``), then repeats the workload's measured pass until
``--seconds`` have passed, at least twice. Repeats of one seed must give
bit-identical outputs. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` ones, with
``--trace 1`` its ``per_layer`` ones, from one untraced and one traced
set-up plus pass. The line before it records the environment.

Exit codes: 0 for a result (which may say ``"correct": false``), 1 when no
pass completed, 2 when smat cannot be imported from the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.0  # cheap set-ups repeat until this much time is spent
MIN_UNITS = 2  # the determinism guard needs a repeat


def import_smat() -> None:
    """Import smat from the checkout's ``src``; raise ImportError otherwise."""
    if not (SRC / "smat" / "__init__.py").is_file():
        raise ImportError(f"no smat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import smat

    if Path(smat.__file__).resolve().parent != SRC / "smat":
        raise ImportError(f"smat imported from {smat.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _attempt(ctx, what: str, fn, *args):
    """Run one set-up or pass; an exception is a failed operation."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark reports and carries on
        traceback.print_exc()
        ctx.checks.check(False, f"{what} raised")
        return None


def measure(workload, ctx, seconds: float) -> dict[str, float] | None:
    """End-to-end metrics from repeated set-ups and measured passes."""
    setup_times, state = [], None
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
    ):
        done = _attempt(ctx, "set-up", ctx.timed, workload.setup, ctx, len(setup_times))
        if done is None:
            return None
        new, span = done
        setup_times.append(span.total)
        if state is not None:
            ctx.checks.check(new["digest"] == state["digest"], "set-up differs between repeats")
        state = new

    ctx.clock.phase = "unit"
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        gc.collect()
        unit = _attempt(ctx, "measured pass", workload.unit, ctx, state)
        if unit is None:
            break
        if units:
            ctx.checks.check(unit.quality == units[0].quality and unit.digest == units[0].digest,
                             f"repeat {len(units)} differs from the first: "
                             f"{unit.quality} vs {units[0].quality}")
        units.append(unit)
    if not units:
        return None

    steps = ctx.clock.select(*workload.step_source)
    # Pass metrics leave collector pauses out; setup_s keeps them (see workloads.Span).
    step_ms = [s.ms for s in steps]
    gc_ms = sum(s.gc_ms for s in steps)
    out = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(u.wall_s for u in units),
        "train_examples_per_s": sum(s.examples for s in steps) / (sum(step_ms) / 1000.0),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": statistics.quantiles(step_ms, n=10, method="inclusive")[-1],
        "predict_examples_per_s": sum(u.predict.examples for u in units)
        / sum(u.predict.seconds for u in units),
        "explain_examples_per_s": sum(u.explain.examples for u in units)
        / sum(u.explain.seconds for u in units),
    }
    out.update(units[0].quality)
    print(f"perfbench: {len(setup_times)} set-ups, {len(units)} passes, {len(step_ms)} steps "
          f"({gc_ms / (sum(step_ms) + gc_ms):.1%} of step time in collector pauses); "
          f"host slowdown median {statistics.median(ctx.speed.samples):.3f}, "
          f"range {min(ctx.speed.samples):.3f}-{max(ctx.speed.samples):.3f}", file=sys.stderr)
    return out


def measure_traced(workload, ctx) -> dict[str, float] | None:
    """Per-layer metrics from a traced set-up and pass, next to an untraced pair.

    Times here are raw: host-speed sampling would land inside the traced
    functions' times.
    """
    from tracing import Tracer

    ctx.speed.off = True
    passes = []
    for traced in (False, True):
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        ctx.tracer = tracer
        try:
            state = _attempt(ctx, "set-up", workload.setup, ctx, len(passes))
            unit = state and _attempt(ctx, "measured pass", workload.unit, ctx, state)
        finally:
            if tracer is not None:
                tracer.restore()
            ctx.tracer = None
        if unit is None:
            return None
        passes.append((state, unit, tracer))

    (plain_state, plain, _), (traced_state, traced_unit, tracer) = passes
    ctx.checks.check(traced_unit.quality == plain.quality,
                     f"traced quality {traced_unit.quality} differs from untraced {plain.quality}")
    ctx.checks.check(traced_state["digest"] == plain_state["digest"]
                     and traced_unit.digest == plain.digest,
                     "traced outputs differ from untraced")
    out = tracer.metrics()
    out["trace.overhead_s"] = traced_unit.wall_s - plain.wall_s
    out["trace.overhead_frac"] = out["trace.overhead_s"] / plain.wall_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="also run one pass on this seed and print its quality metrics")
    args = parser.parse_args(argv)

    try:
        import_smat()
    except ImportError as err:
        print(f"perfbench: cannot import smat from the checkout: {err}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print("perfbench: env " + json.dumps(environment(), sort_keys=True))

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(seed=args.seed, sizes=workloads.Sizes(), workdir=workdir)
    ctx.clock.install()
    try:
        if args.trace:
            values = measure_traced(workload, ctx)
        else:
            values = measure(workload, ctx, args.seconds)
            if values is not None:
                values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if values is not None and args.heldout_seed is not None:
            heldout(workload, ctx, args.heldout_seed)
    finally:
        ctx.clock.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if values is None:
        print("perfbench: no measured pass completed", file=sys.stderr)
        return 1

    attempted = ctx.checks.attempted + ctx.clock.runs + len(ctx.clock.steps)
    failed = ctx.checks.failed + sum(not math.isfinite(s.loss) for s in ctx.clock.steps)
    if not args.trace:
        values["success_frac"] = 1.0 - failed / attempted
    section = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in section} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


def heldout(workload, ctx, seed: int) -> None:
    """One extra set-up and pass on a held-out seed; quality goes to its own line."""
    import workloads

    held = workloads.Context(seed=seed, sizes=ctx.sizes, workdir=ctx.workdir / "heldout",
                             checks=ctx.checks, speed=ctx.speed)
    held.clock = ctx.clock
    state = _attempt(held, "held-out set-up", workload.setup, held, 0)
    unit = state and _attempt(held, "held-out pass", workload.unit, held, state)
    if unit is not None:
        print("perfbench: heldout " + json.dumps({"seed": seed, **unit.quality}, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
