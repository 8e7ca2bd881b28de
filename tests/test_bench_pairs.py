"""``tools/bench_pairs.summarize`` on synthetic runs: wins, ties, the gain
signed by each metric's better direction, and the bound; and the parent
commit a BENCH file names."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {"run_s": ("lower", 0.25), "cells_per_s": ("higher", 0.25)}


def _runs(metric, parent, change):
    """Alternating runs of one metric, pair i holding parent[i], change[i]."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change), 1):
        out.append({"pair": i, "side": "parent", metric: p})
        out.append({"pair": i, "side": "change", metric: c})
    return out


def _summary(metric, parent, change):
    return bench_pairs.summarize(_runs(metric, parent, change),
                                 BOUNDS)[metric]


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0]     # median 12, quartiles 11-13


class TestSummarize:
    def test_higher_is_better_gain(self):
        s = _summary("cells_per_s", PARENT, [v + 3.0 for v in PARENT])
        assert s["median_gain"] == 3.0
        assert s["median_gain_exceeds_parent_quartile_spread"]
        assert (s["pairs_change_better"], s["pairs_parent_better"]) == (5, 0)
        assert s["change_worse_by_relative"] == -0.25
        assert s["within_bound"]

    def test_higher_is_better_regression_is_no_gain(self):
        s = _summary("cells_per_s", PARENT, [v - 3.0 for v in PARENT])
        assert s["median_gain"] == -3.0
        assert not s["median_gain_exceeds_parent_quartile_spread"]
        assert (s["pairs_change_better"], s["pairs_parent_better"]) == (0, 5)
        assert s["change_worse_by_relative"] == 0.25

    def test_lower_is_better_gain(self):
        s = _summary("run_s", PARENT, [v - 3.0 for v in PARENT])
        assert s["median_gain"] == 3.0
        assert s["median_gain_exceeds_parent_quartile_spread"]
        assert (s["pairs_change_better"], s["pairs_parent_better"]) == (5, 0)
        assert s["relative_change"] == -0.25

    def test_lower_is_better_regression_is_no_gain(self):
        # a regression wider than the parent's spread: the unsigned gap
        # exceeds the spread, the gain does not
        s = _summary("run_s", PARENT, [v + 3.0 for v in PARENT])
        assert s["median_gain"] == -3.0
        assert abs(s["change_median"] - s["parent_median"]) > 2.0
        assert not s["median_gain_exceeds_parent_quartile_spread"]
        assert (s["pairs_change_better"], s["pairs_parent_better"]) == (0, 5)
        assert s["change_worse_by_relative"] == 0.25

    def test_ties_count_for_neither_side(self):
        change = [10.0, 12.0, 11.0, 13.0, 13.0]
        s = _summary("run_s", PARENT, change)
        # pairs 1 and 4 tie, pair 2 is slower, pairs 3 and 5 are faster
        assert (s["pairs_change_better"], s["pairs_parent_better"]) == (2, 1)
        assert s["pairs"] == 5
        s = _summary("cells_per_s", PARENT, list(PARENT))
        assert (s["pairs_change_better"], s["pairs_parent_better"]) == (0, 0)
        assert s["median_gain"] == 0.0
        assert not s["median_gain_exceeds_parent_quartile_spread"]

    def test_gain_must_exceed_the_spread(self):
        s = _summary("cells_per_s", PARENT, [v + 1.5 for v in PARENT])
        assert s["pairs_change_better"] == 5
        assert s["parent_quartiles"] == [11.0, 13.0]
        assert not s["median_gain_exceeds_parent_quartile_spread"]

    @pytest.mark.parametrize("metric, change, within", [
        ("run_s", [v * 1.25 for v in PARENT], True),
        ("run_s", [v * 1.26 for v in PARENT], False),
        ("cells_per_s", [v * 0.75 for v in PARENT], True),
        ("cells_per_s", [v * 0.74 for v in PARENT], False)])
    def test_within_bound(self, metric, change, within):
        s = _summary(metric, PARENT, change)
        assert s["bound"] == 0.25
        assert s["within_bound"] == within

    def test_unpaired_runs_and_absent_metrics_are_left_out(self):
        runs = _runs("run_s", PARENT, PARENT)
        runs.append({"pair": 6, "side": "parent", "run_s": 100.0})
        out = bench_pairs.summarize(runs, BOUNDS)
        assert list(out) == ["run_s"]
        assert out["run_s"]["pairs"] == 5
        assert out["run_s"]["parent_median"] == 12.0


@pytest.mark.skipif(not os.path.exists(os.path.join(ROOT, ".git")),
                    reason="needs a git checkout")
def test_parent_resolved_to_its_commit():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.resolve("HEAD") == head
    assert bench_pairs.resolve(head[:12]) == head
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.resolve("no-such-revision")


def test_file_of_another_parent_refused(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    assert bench_pairs.open_doc(path, "a" * 40) is None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"parent_commit": "a" * 40, "workloads": {}}, fh)
    assert bench_pairs.open_doc(path, "a" * 40)["workloads"] == {}
    with pytest.raises(SystemExit, match="measured parent a+, not b+"):
        bench_pairs.open_doc(path, "b" * 40)
