"""scripts/bench_pairs.py's per-metric summary and claim verdict, on synthetic runs.

Every speed claim in a ``BENCH_*.json`` is decided by ``compare`` and
``verdict``; these tests feed them hand-made run values, with no subprocess.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

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


@pytest.mark.parametrize("claim, named", [("teacher_fit:step_ms_p5", "metric 'step_ms_p5'"),
                                          ("smat_student:step_ms_p50", "workload 'smat_student'")])
def test_a_claim_it_cannot_judge_exits_2_before_the_first_run(monkeypatch, tmp_path, capsys,
                                                             claim, named):
    """A misspelt metric used to raise KeyError after every run, writing no --out."""
    calls = []
    monkeypatch.setattr(bench_pairs, "perfbench", lambda *args, **kwargs: calls.append(args))
    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(repo), "--change", str(repo),
                          "--workload", "teacher_fit:3", "--claim", claim, "--out", str(out)])
    assert exit_.value.code == 2
    assert calls == [] and not out.exists()
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("change_dir, warned", [("bb", True), ("b", False)])
def test_the_report_names_both_checkouts_and_a_length_mismatch_is_warned_first(
        monkeypatch, tmp_path, capsys, change_dir, warned):
    repo = Path(__file__).resolve().parents[1]
    sides = {"parent": tmp_path / "a", "change": tmp_path / change_dir}
    for path in sides.values():
        path.mkdir()
        (path / "BENCHMARK.json").write_text((repo / "BENCHMARK.json").read_text())
    names = [m["name"] for m in json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_perfbench(checkout, workload, seed, seconds, **kwargs):
        print(f"ran {checkout}", file=sys.stderr)
        return {"result": {"metrics": {m: {"value": 1.0} for m in names}, "failed": 0}, "env": {}}

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
