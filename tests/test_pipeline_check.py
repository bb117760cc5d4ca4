"""scripts/pipeline_check.py's tree compare and runner, with the real pipeline never run.

The compare runs on hand-made temporary trees; the runner runs with
``subprocess.run`` replaced by a fake that records where and with which
``PYTHONPATH`` each command would have run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pipeline_check", Path(__file__).resolve().parents[1] / "scripts" / "pipeline_check.py")
pipeline_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pipeline_check)


def make_tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, body in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(body)
    return root


FILES = {"corpus.tsv": b"good film\t1\n", "runs/smat/seed_0/student.smat": bytes(range(256)),
         "streams/00-make-data.stdout": b"wrote 1 examples\n"}


def test_identical_trees_compare_identical(tmp_path):
    report = pipeline_check.compare_trees(make_tree(tmp_path / "a", FILES),
                                          make_tree(tmp_path / "b", FILES))
    assert report == {"artifacts_identical": True, "files_compared": 3, "differ": [],
                      "only_parent": [], "only_change": []}


def test_one_changed_byte_is_named(tmp_path):
    changed = dict(FILES)
    body = bytearray(FILES["runs/smat/seed_0/student.smat"])
    body[100] ^= 1
    changed["runs/smat/seed_0/student.smat"] = bytes(body)
    report = pipeline_check.compare_trees(make_tree(tmp_path / "a", FILES),
                                          make_tree(tmp_path / "b", changed))
    assert not report["artifacts_identical"]
    assert report["differ"] == ["runs/smat/seed_0/student.smat"]
    assert report["only_parent"] == report["only_change"] == []


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_file_on_one_side_only_is_named(tmp_path, side):
    more = {**FILES, "runs/none/summary.json": b"{}\n"}
    trees = {"parent": FILES, "change": FILES, side: more}
    report = pipeline_check.compare_trees(make_tree(tmp_path / "a", trees["parent"]),
                                          make_tree(tmp_path / "b", trees["change"]))
    assert not report["artifacts_identical"] and report["differ"] == []
    assert report[f"only_{side}"] == ["runs/none/summary.json"]
    assert report[f"only_{'change' if side == 'parent' else 'parent'}"] == []


def fake_run(calls, output):
    """A ``subprocess.run`` that records each call and writes ``output(call)``
    into the command's working directory."""
    def run(argv, cwd, env, capture_output):
        assert capture_output
        call = {"argv": argv, "cwd": Path(cwd), "pythonpath": env["PYTHONPATH"]}
        calls.append(call)
        (Path(cwd) / f"out{len(calls) % len(pipeline_check.COMMANDS)}.txt").write_text(output(call))
        return subprocess.CompletedProcess(argv, 0, stdout=b"ok\n", stderr=b"")
    return run


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "README.md").write_text('intro\n```json\n{"data": {}}\n```\n')
    return tmp_path / "parent", tmp_path / "change"


def run_main(tmp_path, checkouts, monkeypatch, output):
    calls = []
    monkeypatch.setattr(pipeline_check.subprocess, "run", fake_run(calls, output))
    parent, change = checkouts
    out = tmp_path / "report.json"
    assert pipeline_check.main(["--parent", str(parent), "--change", str(change),
                                "--workdir", str(tmp_path / "work"), "--keep", str(tmp_path / "keep"),
                                "--out", str(out)]) == 0
    return calls, json.loads(out.read_text())


def test_both_sides_run_in_one_directory_each_with_its_own_src(tmp_path, checkouts, monkeypatch):
    calls, report = run_main(tmp_path, checkouts, monkeypatch, lambda call: "same\n")
    n = len(pipeline_check.COMMANDS)
    assert len(calls) == 2 * n
    assert {call["cwd"] for call in calls} == {tmp_path / "work"}
    parent, change = checkouts
    assert [call["pythonpath"] for call in calls] == (
        [str(parent.resolve() / "src")] * n + [str(change.resolve() / "src")] * n)
    assert all(call["argv"][:3] == [sys.executable, "-m", "smat.cli"] for call in calls)
    assert [call["argv"][3:] for call in calls[:n]] == [args for _, args in pipeline_check.COMMANDS]
    # each side's outputs were moved aside, so the change ran in an empty directory
    assert not any((tmp_path / "work").iterdir())
    files = tmp_path / "keep" / "parent" / "files"
    assert (files / "config.json").read_text() == '{"data": {}}\n'
    assert (files / "rankings.txt").read_text() == pipeline_check.RANKINGS
    assert report["artifacts_identical"] and report["files_compared"] == n + 2 + 3 * n
    assert [c["name"] for c in report["commands"]] == [name for name, _ in pipeline_check.COMMANDS]
    assert all(c["parent"]["exit"] == c["change"]["exit"] == 0 for c in report["commands"])


def test_an_output_that_depends_on_the_side_is_reported(tmp_path, checkouts, monkeypatch):
    _, report = run_main(tmp_path, checkouts, monkeypatch,
                         lambda call: call["pythonpath"] if call["argv"][3] == "trueskill" else "")
    assert not report["artifacts_identical"]
    assert report["differ"] == ["files/out0.txt"]
    assert report["only_parent"] == report["only_change"] == []
