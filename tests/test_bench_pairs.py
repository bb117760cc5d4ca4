"""scripts/bench_pairs.py's per-metric summary, claim verdict, argument checks
and README-pipeline runner, with no benchmark or pipeline ever run.

Every speed claim in a ``BENCH_*.json`` is decided by ``compare`` and
``verdict``; these tests feed them hand-made run values. The tree compare
runs on hand-made temporary trees, and the pipeline runner with
``subprocess.run`` replaced by a fake that records where and with which
``PYTHONPATH`` each command, and each fixture timing run, would have run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
END_TO_END = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
N = len(bench_pairs.COMMANDS)

LOWER = {"unit": "ms", "better": "lower", "bound": 0.2}
HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.2}
# quartiles 9 and 11 (inclusive interpolation), so the parent's IQR is 2
PARENT = [8.0, 9.0, 10.0, 11.0, 12.0]


def test_ties_count_for_neither_side():
    s = bench_pairs.compare(LOWER, [3.0, 1.0, 2.0], [3.0, 0.5, 2.5])
    assert (s["pairs_won"], s["pairs_lost"], s["pairs"]) == (1, 1, 3)
    s = bench_pairs.compare(HIGHER, PARENT, list(PARENT))
    assert (s["pairs_won"], s["pairs_lost"]) == (0, 0)
    assert s["median_change_rel"] == 0.0
    assert not s["worse_than_bound"] and not s["gain_beyond_parent_iqr"]


@pytest.mark.parametrize("spec, sign", [(LOWER, -1.0), (HIGHER, 1.0)])
def test_a_pair_is_won_by_the_side_the_metric_calls_better(spec, sign):
    better = [p + sign for p in PARENT]
    worse = [p - sign for p in PARENT]
    s = bench_pairs.compare(spec, PARENT, better)
    assert (s["pairs_won"], s["pairs_lost"]) == (5, 0)
    assert s["median_change_rel"] == pytest.approx(sign * 0.1)
    s = bench_pairs.compare(spec, PARENT, worse)
    assert (s["pairs_won"], s["pairs_lost"]) == (0, 5)


@pytest.mark.parametrize("spec, sign", [(LOWER, -1.0), (HIGHER, 1.0)])
def test_worse_than_bound_only_past_the_bound_on_the_worse_side(spec, sign):
    def worse(rel):
        return bench_pairs.compare(spec, PARENT, [p * (1 + rel) for p in PARENT])["worse_than_bound"]

    assert worse(-sign * 0.25)
    assert not worse(-sign * 0.15)
    assert not worse(sign * 0.5)  # a large gain is not a regression


@pytest.mark.parametrize("spec, sign", [(LOWER, -1.0), (HIGHER, 1.0)])
def test_gain_beyond_parent_iqr_needs_the_median_gap_to_exceed_it(spec, sign):
    def beyond(gap):
        s = bench_pairs.compare(spec, PARENT, [p + sign * gap for p in PARENT])
        assert s["parent"]["iqr"] == 2.0
        return s["gain_beyond_parent_iqr"]

    assert beyond(2.5)
    assert not beyond(1.5)
    assert not beyond(-2.5)  # a loss beyond the IQR is no gain


@pytest.mark.parametrize("won, met", [(10, True), (9, True), (8, False)])
def test_a_claim_is_met_at_nine_of_ten_pairs_won(won, met):
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [p - 1.0 if i < won else p + 0.5 for i, p in enumerate(parent)]
    s = bench_pairs.compare(LOWER, parent, change)
    assert s["pairs_won"] == won and s["gain_beyond_parent_iqr"]
    claim = bench_pairs.verdict("teacher_fit", "step_ms_p50", s)
    assert claim["met"] is met
    assert (claim["workload"], claim["metric"], claim["pairs"]) == ("teacher_fit", "step_ms_p50", 10)


def test_a_claim_is_not_met_when_the_gain_is_inside_the_parent_iqr():
    change = [p - 0.5 for p in PARENT * 2]
    s = bench_pairs.compare(LOWER, PARENT * 2, change)
    assert s["pairs_won"] == 10 and not s["gain_beyond_parent_iqr"]
    assert bench_pairs.verdict("smat_student", "step_ms_p50", s)["met"] is False


def exits_2_before_the_first_run(monkeypatch, tmp_path, capsys, argv) -> str:
    """``main(argv)`` from this repository as both checkouts: it must exit 2
    with no perfbench run, no pipeline command and no --out; returns stderr."""
    calls = []
    monkeypatch.setattr(bench_pairs, "perfbench", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(REPO), "--change", str(REPO), *argv, "--out", str(out)])
    assert exit_.value.code == 2
    assert calls == [] and not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("claim, named", [("teacher_fit:step_ms_p5", "metric 'step_ms_p5'"),
                                          ("smat_student:step_ms_p50", "workload 'smat_student'"),
                                          ("pipeline:nope", "metric 'nope'")])
def test_a_claim_it_cannot_judge_exits_2_before_the_first_run(monkeypatch, tmp_path, capsys,
                                                             claim, named):
    """A misspelt metric used to raise KeyError after every run, writing no --out."""
    assert named in exits_2_before_the_first_run(
        monkeypatch, tmp_path, capsys,
        ["--workload", "teacher_fit:3", "--pipeline", "1", "--claim", claim])


@pytest.mark.parametrize("argv, named", [
    (["--workload", "teacher_fit:0"], "'teacher_fit:0'"),
    (["--workload", "smat_student:10", "--workload", "teacher_fit:x"], "'teacher_fit:x'"),
    (["--workload", "teacher_fit", "--workload", "nope"], "'nope'"),
    (["--workload", "teacher_fit", "--workload", "teacher_fit:3"], "'teacher_fit:3'"),
    (["--workload", "teacher_fit", "--pipeline", "0"], "--pipeline 0"),
    (["--workload", "teacher_fit", "--pipeline", "x"], "--pipeline"),
    (["--workload", "teacher_fit", "--claim", "pipeline:total"], "workload 'pipeline'"),
])
def test_a_workload_or_pipeline_it_cannot_run_exits_2_before_the_first_run(
        monkeypatch, tmp_path, capsys, argv, named):
    """A pair count of 0 used to reach spread([]) and raise IndexError, and a
    bad name or count failed only when its turn came, after every run before it."""
    assert named in exits_2_before_the_first_run(monkeypatch, tmp_path, capsys, argv)


def fake_perfbench(checkout, workload, seed, seconds, **kwargs):
    print(f"ran {checkout}", file=sys.stderr)
    return {"result": {"metrics": {m: {"value": 1.0} for m in END_TO_END}, "failed": 0}, "env": {}}


@pytest.mark.parametrize("change_dir, warned", [("bb", True), ("b", False)])
def test_the_report_names_both_checkouts_and_a_length_mismatch_is_warned_first(
        monkeypatch, tmp_path, capsys, change_dir, warned):
    sides = {"parent": tmp_path / "a", "change": tmp_path / change_dir}
    for path in sides.values():
        path.mkdir()
        (path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                             "--workload", "teacher_fit:1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checkouts"] == {side: str(path.resolve()) for side, path in sides.items()}
    err = capsys.readouterr().err
    assert ("warning: the checkout paths differ in length" in err) is warned
    if warned:
        assert err.index("warning") < err.index("ran ")


def make_tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, body in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(body)
    return root


FILES = {"corpus.tsv": b"good film\t1\n", "runs/smat/seed_0/student.smat": bytes(range(256)),
         "streams/00-make-data.stdout": b"wrote 1 examples\n"}


def test_identical_trees_compare_identical(tmp_path):
    report = bench_pairs.compare_trees(make_tree(tmp_path / "a", FILES),
                                       make_tree(tmp_path / "b", FILES))
    assert report == {"artifacts_identical": True, "files_compared": 3, "differ": [],
                      "only_parent": [], "only_change": []}


def test_one_changed_byte_is_named(tmp_path):
    changed = dict(FILES)
    body = bytearray(FILES["runs/smat/seed_0/student.smat"])
    body[100] ^= 1
    changed["runs/smat/seed_0/student.smat"] = bytes(body)
    report = bench_pairs.compare_trees(make_tree(tmp_path / "a", FILES),
                                       make_tree(tmp_path / "b", changed))
    assert not report["artifacts_identical"]
    assert report["differ"] == ["runs/smat/seed_0/student.smat"]
    assert report["only_parent"] == report["only_change"] == []


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_file_on_one_side_only_is_named(tmp_path, side):
    more = {**FILES, "runs/none/summary.json": b"{}\n"}
    trees = {"parent": FILES, "change": FILES, side: more}
    report = bench_pairs.compare_trees(make_tree(tmp_path / "a", trees["parent"]),
                                       make_tree(tmp_path / "b", trees["change"]))
    assert not report["artifacts_identical"] and report["differ"] == []
    assert report[f"only_{side}"] == ["runs/none/summary.json"]
    assert report[f"only_{'change' if side == 'parent' else 'parent'}"] == []


def fake_run(calls, output, fixtures=None):
    """A ``subprocess.run`` that records each pipeline command, with the pair
    it belongs to, and writes ``output(call)`` into its working directory.
    A fixture timing run is recorded in ``fixtures`` instead, and prints the
    criterion 04 setup time 10 s plus its index there."""
    fixtures = [] if fixtures is None else fixtures

    def run(argv, cwd, env, capture_output):
        assert capture_output
        if argv[1:] == bench_pairs.FIXTURE_COMMAND:
            seconds = 10.0 + len(fixtures)
            fixtures.append({"argv": argv, "cwd": Path(cwd), "pythonpath": env["PYTHONPATH"],
                             "seconds": seconds})
            stdout = (f"{seconds:.2f}s setup    tests/test_acceptance.py::"
                      f"test_criterion_04_scaffolded_simulability\n").encode()
            return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr=b"")
        call = {"argv": argv, "cwd": Path(cwd), "pythonpath": env["PYTHONPATH"],
                "pair": len(calls) // (2 * N) + 1, "command": len(calls) % N}
        calls.append(call)
        (Path(cwd) / f"out{call['command']}.txt").write_text(output(call))
        return subprocess.CompletedProcess(argv, 0, stdout=b"ok\n", stderr=b"")
    return run


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """Two checkouts, each with a ``src``, the change's README holding a json
    block; perfbench is faked, and temporary directories go under tmp_path."""
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "README.md").write_text('intro\n```json\n{"data": {}}\n```\n')
    (tmp_path / "change" / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
    monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(tmp_path))
    return tmp_path / "parent", tmp_path / "change"


def run_pipeline(checkouts, monkeypatch, output, pairs=1, argv=(), fixtures=None):
    """``main`` with ``--pipeline pairs`` and one faked teacher_fit pair;
    returns the pipeline commands run and the report's pipeline section."""
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run(calls, output, fixtures))
    parent, change = checkouts
    out = parent.parent / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "teacher_fit:1", "--pipeline", str(pairs), *argv,
                             "--out", str(out)]) == 0
    return calls, json.loads(out.read_text())


def test_both_sides_run_in_one_directory_each_with_its_own_src(checkouts, monkeypatch):
    calls, report = run_pipeline(checkouts, monkeypatch, lambda call: "same\n")
    assert len(calls) == 2 * N
    kept = Path(report["pipeline"]["outputs"])
    assert kept.parent == checkouts[0].parent
    assert {call["cwd"] for call in calls} == {kept / "work"}
    parent, change = checkouts
    assert [call["pythonpath"] for call in calls] == (
        [str(parent.resolve() / "src")] * N + [str(change.resolve() / "src")] * N)
    assert all(call["argv"][:3] == [sys.executable, "-m", "smat.cli"] for call in calls)
    assert [call["argv"][3:] for call in calls[:N]] == [args for _, args in bench_pairs.COMMANDS]
    # each side's outputs were moved aside, so the change ran in an empty
    # directory, which is removed once every pair has run
    assert not (kept / "work").exists()
    files = kept / "pair_1" / "parent" / "files"
    assert (files / "config.json").read_text() == '{"data": {}}\n'
    assert (files / "rankings.txt").read_text() == bench_pairs.RANKINGS
    pipeline = report["pipeline"]
    assert pipeline["artifacts_identical"]
    assert [pair["files_compared"] for pair in pipeline["compared"]] == [N + 2 + 3 * N]
    assert pipeline["failed_commands"] == {"parent": 0, "change": 0}
    assert list(pipeline["metrics"]) == [name for name, _ in bench_pairs.COMMANDS] + [
        "total", "fixture_setup_s"]
    assert all(t["exit"] == 0 for side in pipeline["runs"].values() for run in side
               for t in run["commands"].values())


def test_an_output_that_depends_on_the_side_is_reported(checkouts, monkeypatch):
    _, report = run_pipeline(checkouts, monkeypatch,
                             lambda call: call["pythonpath"] if call["argv"][3] == "trueskill" else "")
    assert not report["pipeline"]["artifacts_identical"]
    (pair,) = report["pipeline"]["compared"]
    assert pair["differ"] == [f"files/out{N - 1}.txt"]
    assert pair["only_parent"] == pair["only_change"] == []


def test_the_side_order_alternates_by_pair(checkouts, monkeypatch):
    calls, _ = run_pipeline(checkouts, monkeypatch, lambda call: "", pairs=3)
    parent, change = (str(path.resolve() / "src") for path in checkouts)
    assert [call["pythonpath"] for call in calls[::N]] == [parent, change, change, parent,
                                                           parent, change]


def test_an_output_that_differs_only_in_pair_2_makes_the_artifacts_differ(checkouts, monkeypatch):
    _, report = run_pipeline(
        checkouts, monkeypatch, pairs=3,
        output=lambda call: call["pythonpath"] if call["pair"] == 2 and call["command"] == 0 else "")
    pipeline = report["pipeline"]
    assert not pipeline["artifacts_identical"]
    assert [pair["artifacts_identical"] for pair in pipeline["compared"]] == [True, False, True]
    assert pipeline["compared"][1]["differ"] == ["files/out0.txt"]


def test_each_commands_wall_times_and_their_total_reach_compare_as_per_side_lists(
        checkouts, monkeypatch):
    """Pair p's command k takes p + k/100 s on the parent and 2p + k/100 s on
    the change, read from a fake clock the fake commands advance."""
    clock = [0.0]
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    seen = []
    real_compare = bench_pairs.compare
    monkeypatch.setattr(bench_pairs, "compare",
                        lambda spec, p, c: seen.append((spec, p, c)) or real_compare(spec, p, c))
    parent_src = str(checkouts[0].resolve() / "src")

    def output(call):
        clock[0] += (1 if call["pythonpath"] == parent_src else 2) * call["pair"] + call["command"] / 100
        return ""

    fixtures = []
    _, report = run_pipeline(checkouts, monkeypatch, output, pairs=3,
                             argv=["--claim", "pipeline:total"], fixtures=fixtures)
    wall = next(m for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
                if m["name"] == "wall_s")
    piped = [(spec, p, c) for spec, p, c in seen if len(p) == 3]  # teacher_fit ran 1 pair
    expected = [([p + k / 100 for p in (1, 2, 3)], [2 * p + k / 100 for p in (1, 2, 3)])
                for k in range(N)]
    expected.append(tuple([sum(walls[side][i] for walls in expected) for i in range(3)]
                          for side in (0, 1)))
    expected.append(tuple([f["seconds"] for f in fixtures if f["cwd"] == path.resolve()]
                          for path in checkouts))
    assert piped == [(wall, pytest.approx(p), pytest.approx(c)) for p, c in expected]
    metrics = report["pipeline"]["metrics"]
    assert metrics["make-data"]["parent"]["median"] == pytest.approx(2.0)
    assert metrics["make-data"]["pairs_lost"] == 3 and metrics["total"]["worse_than_bound"]
    assert "pipeline.total" in report["regressions"]
    assert report["claim"] == bench_pairs.verdict("pipeline", "total", metrics["total"])
    assert report["claim"]["met"] is False


def test_each_side_times_the_fixture_once_a_pair_in_its_own_checkout(checkouts, monkeypatch):
    fixtures = []
    run_pipeline(checkouts, monkeypatch, lambda call: "", pairs=3, fixtures=fixtures)
    parent, change = (path.resolve() for path in checkouts)
    assert [f["cwd"] for f in fixtures] == [parent, change, change, parent, parent, change]
    assert all(f["pythonpath"] == str(f["cwd"] / "src") for f in fixtures)
    assert all(f["argv"] == [sys.executable, *bench_pairs.FIXTURE_COMMAND] for f in fixtures)
    pipeline = json.loads((checkouts[0].parent / "bench.json").read_text())["pipeline"]
    assert [run["fixture_setup_s"] for run in pipeline["runs"]["parent"]] == [10.0, 13.0, 14.0]
    assert [run["fixture_setup_s"] for run in pipeline["runs"]["change"]] == [11.0, 12.0, 15.0]
    setup = pipeline["metrics"]["fixture_setup_s"]
    assert (setup["parent"]["median"], setup["change"]["median"]) == (13.0, 12.0)
    assert (setup["pairs_won"], setup["pairs_lost"]) == (1, 2)
    assert pipeline["fixture_command"] == "python " + " ".join(bench_pairs.FIXTURE_COMMAND)


@pytest.mark.parametrize("exit_code, stdout", [(1, b"1 failed\n"), (0, b"1 passed\n")])
def test_a_fixture_run_without_a_setup_time_raises_naming_the_checkout(tmp_path, monkeypatch,
                                                                      exit_code, stdout):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kwargs: (
        subprocess.CompletedProcess(argv, exit_code, stdout=stdout, stderr=b"")))
    with pytest.raises(RuntimeError, match=f"in {tmp_path} exited {exit_code}"):
        bench_pairs.fixture_setup(tmp_path)
