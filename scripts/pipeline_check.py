"""Run the README pipeline from two checkouts and compare every output byte for byte.

    git worktree add ../parent HEAD~1 && git worktree add ../change HEAD
    python3 scripts/pipeline_check.py --parent ../parent --change ../change \\
        --out PIPELINE_N.json

Each side runs the README's example config (the first ``json`` block of
the change's README) through the README commands, each a
``python -m smat.cli`` subprocess with ``PYTHONPATH`` set to that
checkout's ``src``: ``make-data``, ``train-teacher``, ``train-student
--seeds 5`` in the three modes, ``evaluate`` sim and auc on ``runs/smat``
and ``runs/attn``, ``explain`` with attn_all (html), parameterized and
integrated_gradients (jsonl), and ``trueskill`` on a fixed rankings file.

Both sides run in one working directory (``--workdir``, a new temporary
directory by default), the parent first: ``summary.json`` records the
teacher's absolute path, so two directories would differ there alone.
After a side's run its outputs are moved aside to ``<keep>/<side>/files``
and each command's exit code, stdout and stderr written to
``<keep>/<side>/streams``; the two trees are then compared file by file.
The JSON report holds ``artifacts_identical``, the paths that differ or
exist on one side only, and each command's exit codes and wall times (one
run per side, informational only). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

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
    ("explain-parameterized-jsonl", ["explain", "--model", "teacher.smat",
                                     "--explainer", "parameterized",
                                     "--phi", "runs/smat/seed_0/phi_t.smat", "--data", "corpus.tsv",
                                     "--format", "jsonl", "--out", "explanations.jsonl"]),
    ("explain-integrated_gradients-jsonl", ["explain", "--model", "teacher.smat",
                                            "--explainer", "integrated_gradients",
                                            "--data", "corpus.tsv", "--format", "jsonl",
                                            "--out", "ig.jsonl"]),
    ("trueskill", ["trueskill", "--rankings", "rankings.txt"]),
]


def readme_config(readme: Path) -> str:
    """The first ``json`` code block of ``readme``."""
    found = re.search(r"```json\n(.*?)```", readme.read_text(), re.DOTALL)
    if not found:
        raise ValueError(f"{readme}: no json code block")
    return found.group(1)


def run_side(checkout: Path, workdir: Path, keep: Path, config: str) -> list[dict]:
    """The pipeline of ``checkout`` run in ``workdir``, its outputs then moved
    to ``keep / "files"`` and its streams written to ``keep / "streams"``;
    returns each command's exit code and wall time."""
    if any(workdir.iterdir()):
        raise RuntimeError(f"{workdir} is not empty")
    (workdir / "config.json").write_text(config)
    (workdir / "rankings.txt").write_text(RANKINGS)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    streams = keep / "streams"
    streams.mkdir(parents=True)
    timings = []
    for i, (name, args) in enumerate(COMMANDS):
        print(f"pipeline_check: {checkout.name}: {name}", file=sys.stderr)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "smat.cli", *args], cwd=workdir, env=env,
                              capture_output=True)
        timings.append({"exit": proc.returncode, "wall_s": time.perf_counter() - start})
        stem = streams / f"{i:02d}-{name}"
        Path(f"{stem}.stdout").write_bytes(proc.stdout)
        Path(f"{stem}.stderr").write_bytes(proc.stderr)
        Path(f"{stem}.exit").write_text(f"{proc.returncode}\n")
    files = keep / "files"
    files.mkdir()
    for entry in workdir.iterdir():
        shutil.move(str(entry), str(files / entry.name))
    return timings


def compare_trees(parent: Path, change: Path) -> dict:
    """Every file under ``parent`` and ``change`` compared byte for byte, by
    relative path."""
    sides = {}
    for side, root in (("parent", parent), ("change", change)):
        sides[side] = {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
    both = sorted(sides["parent"].keys() & sides["change"].keys())
    differ = [rel for rel in both
              if sides["parent"][rel].read_bytes() != sides["change"][rel].read_bytes()]
    only = {side: sorted(paths.keys() - sides[other].keys())
            for (side, paths), other in zip(sides.items(), ("change", "parent"))}
    return {
        "artifacts_identical": not differ and not only["parent"] and not only["change"],
        "files_compared": len(both),
        "differ": differ,
        "only_parent": only["parent"],
        "only_change": only["change"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="empty directory both sides run in (default: a new temporary one)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="where each side's outputs are moved (default: a new temporary one)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="pipeline_check_run_"))
    workdir.mkdir(parents=True, exist_ok=True)
    keep = args.keep or Path(tempfile.mkdtemp(prefix="pipeline_check_keep_"))
    checkouts = {"parent": args.parent, "change": args.change}
    config = readme_config(args.change / "README.md")
    timings = {side: run_side(path.resolve(), workdir, keep / side, config)
               for side, path in checkouts.items()}
    report = {
        "what": "the README pipeline run from each checkout in one working directory, "
                "every output file and command stream compared byte for byte",
        "checkouts": {side: str(path) for side, path in checkouts.items()},
        **compare_trees(keep / "parent", keep / "change"),
        "commands": [
            {"name": name, "argv": ["smat", *args_],
             **{side: timings[side][i] for side in checkouts}}
            for i, (name, args_) in enumerate(COMMANDS)],
        "total_wall_s": {side: sum(t["wall_s"] for t in timings[side]) for side in checkouts},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"pipeline_check: artifacts_identical={report['artifacts_identical']}; "
          f"outputs kept in {keep}; wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
