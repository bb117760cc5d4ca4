"""Paired perfbench and README-pipeline runs of two checkouts, summarized per metric.

    git worktree add ../parent HEAD~1 && git worktree add ../change HEAD
    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload smat_student:10 --workload teacher_fit --workload explain_eval \\
        --heldout-seed 1000 --traced-seed 3 --pipeline 5 --claim smat_student:step_ms_p50 \\
        --what "..." --out BENCH_N.json

Both sides should be fresh copies of committed trees (``git worktree add``
or ``git archive``) at paths of equal length. With ``--change .``,
smat_student's ``predict_examples_per_s`` read 12% low in two 5-pair runs
where fresh copies of the same files read within 1.1%, and identical
copies whose directory names differed only in length read explain_eval's
12% apart (causes unknown), so check a gap in a metric a change does not
touch from a second pair of directories. The report records both resolved
paths; a warning goes to stderr before the first run when their lengths differ.

Each checkout runs its own ``perfbench/run.py`` for the ``run_seconds`` of
the change's ``BENCHMARK.json``, one run at a time; a workload given no
pair count gets 5 pairs. Pair i runs both sides with ``--seed i``, the
parent first in odd pairs (1, 3, ...) and the change first in even ones.
Every end-to-end metric of that file gets each side's median and quartiles
(linear interpolation, as numpy's default percentile), the relative change
of the medians, the pairs won and lost, whether the change is worse than
the metric's bound and whether a gain exceeds the parent's interquartile
range. ``--heldout-seed H`` adds one run per side with ``--seed H
--heldout-seed H+1``; ``--traced-seed N`` one ``--trace 1`` run per side.
The output keeps the layout of the committed ``BENCH_*.json`` files.

``--pipeline PAIRS`` runs the README walkthrough (``COMMANDS`` on the
first ``json`` block of the change's README) in as many pairs, alternating
as above, each command a ``python -m smat.cli`` subprocess with
``PYTHONPATH`` set to that checkout's ``src``. All runs share one temporary
working directory, since ``summary.json`` records the teacher's absolute
path; after each run its outputs and each command's exit code, stdout and
stderr are moved to ``pair_<i>/<side>`` beside it, and each pair's two
trees are compared byte for byte. Each command's wall time and the total
are summarized as above with the ``wall_s`` entry, and ``--claim
pipeline:<command>`` or ``pipeline:total`` claims one. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

QUALITY = ("final_loss", "teacher_acc", "test_sim", "auc")
DEFAULT_PAIRS = 5
ORDERS = (("parent", "change"), ("change", "parent"))  # the run order of odd and even pairs
RANKINGS = "smat,attn,none\nsmat=attn,none\nattn,smat,none\nsmat,none,attn\n"

# (name, arguments of ``smat``) in run order, as README's walkthrough gives them
COMMANDS = [
    ("make-data", ["make-data", "--config", "config.json", "--out", "corpus.tsv"]),
    ("train-teacher", ["train-teacher", "--config", "config.json", "--out", "teacher.smat"]),
    *[(f"train-student-{out}", ["train-student", "--config", "config.json",
                                "--teacher", "teacher.smat", "--mode", mode, "--seeds", "5",
                                "--out", f"runs/{out}"])
      for mode, out in (("none", "none"), ("static:attn_all", "attn"), ("smat", "smat"))],
    *[(f"evaluate-{out}-{metric}", ["evaluate", "--students", f"runs/{out}",
                                    "--teacher", "teacher.smat", "--data", "corpus.tsv",
                                    "--metric", metric])
      for out in ("smat", "attn") for metric in ("sim", "auc")],
    ("explain-attn_all-html", ["explain", "--model", "teacher.smat", "--explainer", "attn_all",
                               "--data", "corpus.tsv", "--format", "html", "--out", "report.html"]),
    ("explain-parameterized-jsonl", ["explain", "--model", "teacher.smat", "--explainer",
                                     "parameterized", "--phi", "runs/smat/seed_0/phi_t.smat",
                                     "--data", "corpus.tsv", "--format", "jsonl",
                                     "--out", "explanations.jsonl"]),
    ("explain-integrated_gradients-jsonl", ["explain", "--model", "teacher.smat", "--explainer",
                                            "integrated_gradients", "--data", "corpus.tsv",
                                            "--format", "jsonl", "--out", "ig.jsonl"]),
    ("trueskill", ["trueskill", "--rankings", "rankings.txt"]),
]
PIPELINE_METRICS = [*(name for name, _ in COMMANDS), "total"]


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0,
              heldout_seed: int | None = None) -> dict:
    """One ``perfbench/run.py`` run: its result line, env and held-out quality."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if heldout_seed is not None:
        cmd += ["--heldout-seed", str(heldout_seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        for tag in ("env", "heldout"):
            if line.startswith(f"perfbench: {tag} "):
                out[tag] = json.loads(line[len(f"perfbench: {tag} "):])
    return out


def spread(values: list[float]) -> dict:
    """Median, linear-interpolation quartiles and IQR of a list of runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's summary over paired runs; ``spec`` is its BENCHMARK.json entry."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = spread(parent), spread(change)
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "median_change_rel": rel,
        "pairs_won": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs_lost": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "worse_than_bound": -sign * rel > spec["bound"],
        "gain_beyond_parent_iqr": sign * (c["median"] - p["median"]) > p["iqr"],
    }


def verdict(workload: str, metric: str, s: dict) -> dict:
    """The claim of a gain in ``metric`` on ``workload``, judged from its
    ``compare`` summary ``s``: met at >= 9 of 10 pairs won with the median
    gap beyond the parent's IQR."""
    return {
        "metric": metric,
        "workload": workload,
        "bound": s["bound"],
        "target": ">= 9/10 pairs won and median gap > parent IQR",
        "pairs_won": s["pairs_won"],
        "pairs": s["pairs"],
        "parent_median": s["parent"]["median"],
        "parent_iqr": s["parent"]["iqr"],
        "change_median": s["change"]["median"],
        "median_change_rel": s["median_change_rel"],
        "met": s["pairs_won"] >= 0.9 * s["pairs"] and s["gain_beyond_parent_iqr"],
    }


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def readme_config(readme: Path) -> str:
    """The first ``json`` code block of ``readme``."""
    found = re.search(r"```json\n(.*?)```", readme.read_text(), re.DOTALL)
    if not found:
        raise ValueError(f"{readme}: no json code block")
    return found.group(1)


def run_side(checkout: Path, workdir: Path, keep: Path, config: str) -> dict:
    """The pipeline of ``checkout`` run in the empty ``workdir``, its outputs
    then moved to ``keep / "files"`` and its streams written to ``keep /
    "streams"``; returns each command's exit code and wall time by name."""
    (workdir / "config.json").write_text(config)
    (workdir / "rankings.txt").write_text(RANKINGS)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    streams = keep / "streams"
    streams.mkdir(parents=True)
    timings = {}
    for i, (name, args) in enumerate(COMMANDS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "smat.cli", *args], cwd=workdir, env=env,
                              capture_output=True)
        timings[name] = {"exit": proc.returncode, "wall_s": time.perf_counter() - start}
        for suffix, body in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("exit", f"{proc.returncode}\n".encode())):
            (streams / f"{i:02d}-{name}.{suffix}").write_bytes(body)
    files = keep / "files"
    files.mkdir()
    for entry in workdir.iterdir():
        shutil.move(str(entry), str(files / entry.name))
    return timings


def compare_trees(parent: Path, change: Path) -> dict:
    """Every file under ``parent`` and ``change`` compared byte for byte, by
    relative path."""
    sides = {side: {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    both = sorted(sides["parent"].keys() & sides["change"].keys())
    differ = [rel for rel in both
              if sides["parent"][rel].read_bytes() != sides["change"][rel].read_bytes()]
    only = {f"only_{side}": sorted(paths.keys() - sides[other].keys())
            for (side, paths), other in zip(sides.items(), ("change", "parent"))}
    return {"artifacts_identical": not differ and not any(only.values()),
            "files_compared": len(both), "differ": differ, **only}


def pipeline(sides: dict[str, Path], pairs: int, config: str, wall: dict) -> dict:
    """The README pipeline of both checkouts run in ``pairs`` alternating
    pairs, each pair's outputs compared and each command's wall time and the
    total summarized by ``compare`` with ``wall``, the ``wall_s`` entry."""
    kept = Path(tempfile.mkdtemp(prefix="bench_pairs_pipeline_"))
    workdir = kept / "work"
    workdir.mkdir()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    compared = []
    for i in range(pairs):
        pair = kept / f"pair_{i + 1}"
        for side in ORDERS[i % 2]:
            print(f"bench_pairs: pipeline pair {i + 1}/{pairs} {side}", file=sys.stderr)
            commands = run_side(sides[side], workdir, pair / side, config)
            runs[side].append({"pair": i + 1, "commands": commands})
        compared.append({"pair": i + 1, **compare_trees(pair / "parent", pair / "change")})
    workdir.rmdir()

    def walls(side: str, name: str) -> list[float]:
        return [sum(t["wall_s"] for t in run["commands"].values()) if name == "total"
                else run["commands"][name]["wall_s"] for run in runs[side]]

    return {
        "artifacts_identical": all(pair["artifacts_identical"] for pair in compared),
        "commands": {name: "smat " + " ".join(args) for name, args in COMMANDS},
        "compared": compared,
        "failed_commands": {side: sum(t["exit"] != 0 for run in runs[side]
                                      for t in run["commands"].values()) for side in runs},
        "metrics": {name: compare(wall, walls("parent", name), walls("change", name))
                    for name in PIPELINE_METRICS},
        "runs": runs,
        "outputs": str(kept),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME or NAME:PAIRS; repeat for more workloads")
    parser.add_argument("--heldout-seed", type=int, default=None)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--pipeline", type=int, default=None, metavar="PAIRS",
                        help="pairs of README pipeline runs, compared byte for byte and timed")
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC or pipeline:COMMAND the change claims to improve")
    parser.add_argument("--what", default="", help="one line on what the change is")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = {}  # every argument is checked here, before the first run
    for entry in args.workload:
        name, _, count = entry.partition(":")
        if name not in known or name in workloads or not re.fullmatch(r"([1-9][0-9]*)?", count):
            parser.error(f"--workload {entry!r} is not NAME[:PAIRS] with NAME one of BENCHMARK.json's "
                         f"workloads {known}, not given before, and PAIRS an integer >= 1")
        workloads[name] = int(count or DEFAULT_PAIRS)
    if args.pipeline is not None and args.pipeline < 1:
        parser.error(f"--pipeline {args.pipeline}: PAIRS must be an integer >= 1")
    config = readme_config(sides["change"] / "README.md") if args.pipeline else ""
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        claimable = {name: list(spec) for name in workloads}
        if args.pipeline:
            claimable["pipeline"] = PIPELINE_METRICS
        if claim_workload not in claimable:
            parser.error(f"--claim workload {claim_workload!r} is not a --workload or a --pipeline")
        if claim_metric not in claimable[claim_workload]:
            parser.error(f"--claim metric {claim_metric!r} is not one of {claimable[claim_workload]}")
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"bench_pairs: warning: the checkout paths differ in length "
              f"({sides['parent']} vs {sides['change']}); path length alone has moved "
              f"explain_eval's examples_per_s metrics by 12%", file=sys.stderr)
    command = f"python3 perfbench/run.py --workload <w> --seed <i> --seconds {seconds:g} --trace 0"
    report: dict = {
        "what": args.what,
        "command": command + (" (pair i uses seed i; odd pairs run the parent "
                              "first, even pairs the change first)"),
        "checkouts": {side: str(path) for side, path in sides.items()},
        "workloads": {},
        "failed_operations": {},
        "quality_bit_identical": {},
    }
    envs = []
    for name, pairs in workloads.items():
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        seeds = list(range(pairs))
        for i, seed in enumerate(seeds):
            for side in ORDERS[i % 2]:
                print(f"bench_pairs: {name} pair {i + 1}/{pairs} seed {seed} {side}", file=sys.stderr)
                runs[side].append({"seed": seed, **perfbench(sides[side], name, seed, seconds)})
        envs += [run.get("env") for side in runs.values() for run in side]
        metrics = {m: compare(spec[m], values(runs["parent"], m), values(runs["change"], m))
                   for m in spec}
        report["workloads"][name] = {"seeds": seeds, "metrics": metrics, "runs": runs}
        report["failed_operations"][name] = {
            side: sum(run["result"]["failed"] for run in side_runs) for side, side_runs in runs.items()}
        report["quality_bit_identical"][name] = all(
            values(runs["parent"], m) == values(runs["change"], m) for m in QUALITY)

    report["env"] = envs[0]
    report["env_identical_across_runs"] = all(env == envs[0] for env in envs)
    measured = dict(report["workloads"])
    if args.pipeline:
        measured["pipeline"] = report["pipeline"] = pipeline(sides, args.pipeline, config,
                                                             spec["wall_s"])
    report["regressions"] = [f"{w}.{m}" for w, body in measured.items()
                             for m, s in body["metrics"].items() if s["worse_than_bound"]]

    if args.heldout_seed is not None:
        h = args.heldout_seed
        report["heldout_command"] = (f"python3 perfbench/run.py --workload <w> --seed {h} "
                                     f"--seconds {seconds:g} --trace 0 --heldout-seed {h + 1}")
        report["heldout"] = {}
        for name in report["workloads"]:
            report["heldout"][name] = {}
            for side, path in sides.items():
                print(f"bench_pairs: {name} held-out seed {h} {side}", file=sys.stderr)
                run = perfbench(path, name, h, seconds, heldout_seed=h + 1)
                report["heldout"][name][side] = {"seed": h, "heldout_seed": h + 1, **run}

    if args.traced_seed is not None:
        t = args.traced_seed
        report["traced_command"] = (f"python3 perfbench/run.py --workload <w> --seed {t} "
                                    f"--seconds {seconds:g} --trace 1")
        report["traced"] = {}
        for name in report["workloads"]:
            report["traced"][name] = {}
            for side, path in sides.items():
                print(f"bench_pairs: {name} traced seed {t} {side}", file=sys.stderr)
                run = perfbench(path, name, t, seconds, trace=1)
                report["traced"][name][side] = {"seed": t, **run}
        report["traced_failed"] = {
            name: {side: run["result"]["failed"] for side, run in body.items()}
            for name, body in report["traced"].items()}

    if args.claim:
        claim = verdict(claim_workload, claim_metric,
                        measured[claim_workload]["metrics"][claim_metric])
        if claim_workload in report.get("heldout", {}):
            claim[f"heldout_seed_{args.heldout_seed}"] = {
                side: run["result"]["metrics"][claim_metric]["value"]
                for side, run in report["heldout"][claim_workload].items()}
        report["claim"] = claim

    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"bench_pairs: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
