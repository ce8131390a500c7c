"""The statistics and report of tools/ab.py, on canned runs whose numbers are known."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}


def _runs(parent, change, order=None):
    """Raw runs as run_pairs writes them: one per side and pair."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        first = order[i] if order else ("parent", "change")[i % 2]
        for k, (side, values) in enumerate(sorted(
                (("parent", p), ("change", c)), key=lambda sv: sv[0] != first)):
            runs.append({"pair": i, "side": side, "order": k, "correct": True,
                         "attempted": 10, "failed": 0, "metrics": values})
    return runs


def test_quartiles_are_inclusive_and_one_run_has_no_spread(ab):
    assert ab.quartiles([130, 100, 120, 110]) == (107.5, 115, 122.5)
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1, 2]) == (1.25, 1.5, 1.75)


def test_compare_higher_is_better(ab):
    row = ab.compare(OPS, [100, 110, 120, 130], [140, 105, 150, 160])
    assert row["parent_median"] == 115 and row["change_median"] == 145
    assert row["rel"] == pytest.approx(145 / 115 - 1)
    # 140 > 100, 105 < 110, 150 > 120, 160 > 130.
    assert row["wins"] == 3 and row["pairs"] == 4
    assert row["parent_iqr"] == 15 and row["change_iqr"] == 21.25
    assert row["beyond_parent_iqr"] and not row["past_bound"]
    # A quarter worse is at the bound, more is past it.
    assert not ab.compare(OPS, [100] * 4, [75] * 4)["past_bound"]
    assert ab.compare(OPS, [100] * 4, [74, 75, 74, 75])["past_bound"]


def test_compare_lower_is_better(ab):
    row = ab.compare(P50, [4, 4, 4, 4], [5, 5, 5, 6])
    assert row["change_median"] == 5 and row["rel"] == 0.25
    assert row["wins"] == 0 and not row["past_bound"]
    assert row["beyond_parent_iqr"]  # the parent's IQR is 0
    assert ab.compare(P50, [4, 4, 4, 4], [5, 6, 5, 6])["past_bound"]
    row = ab.compare(P50, [4, 5, 6, 7], [3, 6, 5, 6])
    assert row["wins"] == 3 and not row["beyond_parent_iqr"]  # |5.5 - 5.5| <= 1.5
    with pytest.raises(ValueError):
        ab.compare(P50, [1, 2], [1])


def test_summarize_pairs_runs_by_pair_whatever_the_order(ab):
    parent = [{"ops_per_s": v, "op_p50_ms": 1.0} for v in (100, 110, 120, 130)]
    change = [{"ops_per_s": v, "op_p50_ms": 0.5} for v in (140, 105, 150, 160)]
    runs = _runs(parent, change)
    assert [(r["pair"], r["side"]) for r in runs[:4]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    rows = ab.summarize([OPS, P50], runs)
    assert rows[0] == ab.compare(OPS, [100, 110, 120, 130], [140, 105, 150, 160])
    assert rows[1]["wins"] == 4 and rows[1]["rel"] == -0.5
    # A pair whose other side produced no result is left out of the statistics.
    assert ab.summarize([OPS], runs[1:])[0]["pairs"] == 3
    assert ab.summarize([OPS], []) == []


def test_render_reports_every_run_and_a_changed_harness(ab):
    runs = _runs([{"ops_per_s": 100}], [{"ops_per_s": 120}])
    runs[1].update(correct=False, failed=2)
    report = {"workload": "highrank-classes", "seed": 7, "pairs": 1, "seconds": 1,
              "parent": "abc", "change": "working tree", "bench_differs": [],
              "runs": runs}
    rows = ab.summarize([OPS], runs)
    text = ab.render(report, rows)
    assert "| ops_per_s (higher is better) | 100 | 120 | +20.0% | 1/1 | 0 | 0 | yes | no |" in text
    assert "- pair 0 parent, first: correct true, failed 0/10" in text
    assert "- pair 0 change, second: correct false, failed 2/10" in text
    assert "harnesses" not in text
    report["bench_differs"] = ["run.py"]
    assert "`bench/` trees differ (run.py)" in ab.render(report, rows)
    json.dumps(report)  # the raw runs are what --out writes


def test_tree_differences_compares_contents(ab, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub" / "__pycache__").mkdir(parents=True)
        (root / "same.py").write_text("x = 1\n")
        (root / "sub" / "__pycache__" / "m.pyc").write_bytes(str(root).encode())
    (a / "sub" / "edited.py").write_text("x = 1\n")
    (b / "sub" / "edited.py").write_text("x = 2\n")
    (a / "only_a.py").write_text("")
    assert ab.tree_differences(a, b) == ["only_a.py", "sub/edited.py"]
    assert ab.tree_differences(a, a) == []
