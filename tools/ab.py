"""Parent/change comparison on the benchmark, in alternating pairs of runs.

    python3 tools/ab.py --workload highrank-classes --seed 1
                        [--parent REV] [--change REV] [--pairs 10] [--seconds 5]
                        [--out ab-highrank-classes-1.json]

The parent side is the commit ``--parent`` (default ``HEAD``); the change
side is the commit ``--change``, or by default the working tree: its tracked
files and its untracked files that git does not ignore, as they are on disk.
Each side is exported into its own temporary directory (``git archive``, or
a copy of the working tree's files), so nothing is registered in the
repository and an interrupted run leaves nothing behind in it.  Each run is
that side's own ``bench/run.py --trace 0`` in a fresh process.  Pair i runs
the parent first when i is even and the change first when i is odd.

For every end-to-end metric of ``BENCHMARK.json`` the report gives both
medians, the relative change of the medians, the change's wins out of the
pairs, both sides' interquartile ranges, whether the medians differ by more
than the parent's IQR, and whether the change is worse than the parent by
more than the metric's bound.  It lists ``correct`` and the failed
operations of every run, and says when the two sides' ``bench/`` trees
differ, since the numbers then compare two harnesses as well.  The raw runs
go to ``--out`` as JSON.

Exit status: 1 if any run is not ``correct`` or fails to produce a result,
else 0.  Timing decides nothing here.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rank2-steinberg", "highrank-classes", "cli-cold")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile); one value is all three."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(spec: dict, parent, change) -> dict:
    """One metric's statistics over paired runs: parent[i] and change[i] share pair i.

    ``spec`` is the metric's entry of ``BENCHMARK.json``: ``name``,
    ``better`` ("lower" or "higher") and ``bound``, the relative worsening
    of the median that the benchmark tolerates.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{spec['name']}: need equal, nonempty run lists")
    lower = spec["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = (cm - pm) if lower else (pm - cm)
    return {
        "name": spec["name"],
        "better": spec["better"],
        "parent_median": pm,
        "change_median": cm,
        "rel": cm / pm - 1 if pm else None,
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": p3 - p1,
        "change_iqr": c3 - c1,
        "beyond_parent_iqr": abs(cm - pm) > p3 - p1,
        "past_bound": worse > spec["bound"] * abs(pm),
    }


def summarize(specs, runs) -> list:
    """``compare`` for each metric of ``specs`` over the raw runs of ``run_pairs``."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    if not pairs:
        return []
    rows = []
    for spec in specs:
        name = spec["name"]
        parent = [sides["parent"][i]["metrics"][name] for i in pairs]
        change = [sides["change"][i]["metrics"][name] for i in pairs]
        rows.append(compare(spec, parent, change))
    return rows


def _num(x) -> str:
    return f"{x:.4g}"


def render(report: dict, rows) -> str:
    """The Markdown block of one comparison."""
    head = (f"`{report['workload']}` seed {report['seed']}, {report['pairs']} pairs, "
            f"--seconds {report['seconds']}: parent {report['parent']} against "
            f"change {report['change']}")
    lines = [head, ""]
    if report["bench_differs"]:
        lines += ["The two sides' `bench/` trees differ (" + ", ".join(report["bench_differs"])
                  + "): these numbers compare two harnesses as well.", ""]
    lines += ["| metric | parent median | change median | change | wins | parent IQR "
              "| change IQR | beyond parent IQR | past bound |",
              "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        rel = "n/a" if r["rel"] is None else f"{100 * r['rel']:+.1f}%"
        lines.append(
            f"| {r['name']} ({r['better']} is better) | {_num(r['parent_median'])} "
            f"| {_num(r['change_median'])} | {rel} | {r['wins']}/{r['pairs']} "
            f"| {_num(r['parent_iqr'])} | {_num(r['change_iqr'])} "
            f"| {'yes' if r['beyond_parent_iqr'] else 'no'} "
            f"| {'YES' if r['past_bound'] else 'no'} |")
    lines.append("")
    for run in report["runs"]:
        status = run.get("error") or f"correct {str(run['correct']).lower()}, " \
                                     f"failed {run['failed']}/{run['attempted']}"
        lines.append(f"- pair {run['pair']} {run['side']}, "
                     f"{('first', 'second')[run['order']]}: {status}")
    return "\n".join(lines)


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev, dest: Path) -> str:
    """Write the files of commit ``rev``, or of the working tree if None, to dest.

    Returns the commit's hash, or "working tree".
    """
    dest.mkdir(parents=True)
    if rev is None:
        names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, names.decode().split("\0")):
            src = ROOT / name
            if src.is_file():  # a tracked file deleted on disk is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return "working tree"
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit[:12]


def tree_differences(a: Path, b: Path) -> list:
    """Relative paths of the files that differ between two trees, or are in one only."""
    def files(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*")
                if p.is_file() and "__pycache__" not in p.parts}

    fa, fb = files(a), files(b)
    return sorted(name for name in fa.keys() | fb.keys()
                  if name not in fa or name not in fb
                  or fa[name].read_bytes() != fb[name].read_bytes())


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py --trace 0`` in checkout; its last stdout line, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"no result (exit {proc.returncode}): {tail[0]}", "correct": False}
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def run_pairs(dirs: dict, workload: str, seed: int, seconds: int, pairs: int, log=print) -> list:
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for k, side in enumerate(order):
            result = run_side(dirs[side], workload, seed, seconds)
            runs.append({"pair": i, "side": side, "order": k, **result})
            log(f"pair {i} {side}: " + (result.get("error") or
                f"correct {result['correct']}, failed {result['failed']}"), file=sys.stderr)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=None,
                        help="a commit; default: the working tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None,
                        help="raw runs as JSON; default ab-<workload>-<seed>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = args.out or Path(f"ab-{args.workload}-{args.seed}.json")
    with tempfile.TemporaryDirectory(prefix="steinberg-ab-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        report = {
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "seconds": args.seconds,
            "parent": export(args.parent, dirs["parent"]),
            "change": export(args.change, dirs["change"]),
        }
        report["bench_differs"] = tree_differences(dirs["parent"] / "bench",
                                                   dirs["change"] / "bench")
        report["runs"] = run_pairs(dirs, args.workload, args.seed, args.seconds, args.pairs)
    ok = all(run.get("correct") is True for run in report["runs"])
    timed = [run for run in report["runs"] if "metrics" in run]
    report["summary"] = summarize(specs, timed)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(render(report, report["summary"]))
    print(f"\nraw runs: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
