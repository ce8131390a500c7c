#!/usr/bin/env python3
"""Benchmark of the steinberg library: three fixed workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload rank2-steinberg --seed 1 --seconds 5 --trace 0

``--workload all`` runs the three workloads one after another.  The
library is imported from the checkout's ``src`` directory; nothing is
installed.  Every workload process is fresh, so library caches start cold.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``.  A run repeats the seed's
round of operations, each time in fresh processes, at least ``MIN_ROUNDS``
times and until ``--seconds`` have passed.  Each round's times are scaled
to the machine's quiet speed with the reference loop of ``reference.py``;
an operation's latency is then its fastest scaled time over the rounds.
``--trace 1`` runs the round twice, once untraced and once with the tracer
of ``tracer.py``, and prints per-layer metrics named
``<module>.<function>.<stat>`` plus the tracing overhead (both unscaled).
Human-readable lines (the machine, unscaled metrics, ``fail_frac``) come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cli_workload
import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("rank2-steinberg", "highrank-classes", "cli-cold")
# Rounds per timed run at least, each in fresh processes.  cli-cold runs
# fewer because its round of 101 processes takes longest.
MIN_ROUNDS = {"rank2-steinberg": 3, "highrank-classes": 3, "cli-cold": 2}
# Set-up samples per run (fresh processes; the median is reported).  Each
# library round gives one; cheap set-ups get extra processes.
SETUP_SAMPLES = {"rank2-steinberg": 9, "highrank-classes": 3, "cli-cold": 11}
STARTUP_REF_SAMPLES = 20  # reference samples before each cli start-up sample
RUN_BUDGET_S = 170.0
CLI_MAIN = "from steinberg.cli import main; main()"


class BenchError(Exception):
    """A benchmark process failed or ran out of time; no result is printed."""


class Runner:
    """Starts child processes of one run and keeps them inside its time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        path = os.environ.get("PYTHONPATH")
        # Children use a bytecode cache inside the checkout, as an installed
        # package would, whatever the caller's PYTHONDONTWRITEBYTECODE says.
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench-pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, cmd, env=None, pass_fds=()):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run exceeded its time budget")
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=env or self.env, timeout=timeout, pass_fds=pass_fds)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(cmd[:4])} ...") from exc

    def worker(self, *args):
        proc = self.run([sys.executable, str(BENCH / "worker.py"), *args])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli_child(self, argv=()):
        """Run cli_child.py; returns (exit code, stdout, stderr, its report)."""
        read_fd, write_fd = os.pipe()
        try:
            env = dict(self.env, BENCH_SPAWNED_AT=repr(time.monotonic()),
                       BENCH_REPORT_FD=str(write_fd))
            proc = self.run([sys.executable, str(BENCH / "cli_child.py"), *argv], env=env,
                            pass_fds=(write_fd,))
            os.close(write_fd)
            write_fd = None
            with os.fdopen(read_fd) as fh:
                read_fd = None
                text = fh.read()
        finally:
            for fd in (read_fd, write_fd):
                if fd is not None:
                    os.close(fd)
        if not text:
            raise BenchError(f"cli child {' '.join(argv)} wrote no report: {proc.stderr}")
        return proc.returncode, proc.stdout, proc.stderr, json.loads(text)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def latency_metrics(rounds) -> dict:
    """Metrics of each operation's fastest time over the rounds."""
    best = [min(times) for times in zip(*rounds)]
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (deciles[4] * 1000, "ms"),
        "op_p90_ms": (deciles[8] * 1000, "ms"),
    }


@dataclass
class Round:
    """One round of a workload: per-operation latencies and slowdowns, and checks."""

    latencies: list
    failed: int
    slowdowns: list = field(default_factory=list)
    ref: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def timing_metrics(rounds, setups):
    """Timing metrics scaled to the machine's quiet speed, and unscaled.

    ``setups`` holds ``(seconds, slowdown)`` pairs.  Each latency and each
    set-up is divided by its slowdown (see reference.py).
    """
    scaled = {"setup_s": (statistics.median(t / f for t, f in setups), "s"),
              **latency_metrics([[t / f for t, f in zip(r.latencies, r.slowdowns)]
                                 for r in rounds])}
    raw = {"setup_s": (statistics.median(t for t, _ in setups), "s"),
           **latency_metrics([r.latencies for r in rounds])}
    print(f"median slowdown of each round against the quiet machine: "
          f"{', '.join(f'{statistics.median(r.slowdowns):.2f}' for r in rounds)}")
    for name, (value, unit) in raw.items():
        print(f"  unscaled {name:39s} {value:14.6g} {unit}")
    return scaled


def repeat_rounds(workload, seconds, run_round):
    """Call ``run_round()`` at least MIN_ROUNDS times and until ``seconds`` have passed."""
    results = []
    start = time.monotonic()
    while len(results) < MIN_ROUNDS[workload] or time.monotonic() - start < seconds:
        results.append(run_round())
    return results


# Library workloads: every process is a worker.py running one round.


def library_round(runner, *args):
    res = runner.worker(*args)
    return res, Round(res["latencies"], res["failed"], res["slowdowns"])


def library_timed(runner, workload, seed, seconds):
    args = ("--workload", workload, "--seed", str(seed))
    results = repeat_rounds(workload, seconds, lambda: library_round(runner, *args))
    setups = [(res["setup_s"], res["setup_slowdown"]) for res, _ in results]
    while len(setups) < SETUP_SAMPLES[workload]:
        res = runner.worker(*args, "--setup-only")
        setups.append((res["setup_s"], res["setup_slowdown"]))
    rounds = [r for _, r in results]
    metrics = {**timing_metrics(rounds, setups),
               "peak_rss_mb": (max(res["rss_mb"] for res, _ in results), "MB")}
    return metrics, sum(len(r.latencies) for r in rounds), sum(r.failed for r in rounds)


def library_traced(runner, workload, seed):
    args = ("--workload", workload, "--seed", str(seed))
    _, plain = library_round(runner, *args)
    res, traced = library_round(runner, *args, "--trace", "1")
    traced.traces.append(res["trace"])
    return plain, traced


# cli-cold: every operation is one `steinberg` invocation in its own process.


def cli_round(runner, calls, traced):
    """Run the invocations once, each after a reference sample."""
    r = Round([], 0)
    for label, argv, check in calls:
        r.ref.append(reference.sample())
        t = time.perf_counter()
        if traced:
            code, out, err, report = runner.cli_child(argv)
            r.traces.append(report["trace"])
        else:
            proc = runner.run([sys.executable, "-c", CLI_MAIN, *argv])
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        r.latencies.append(time.perf_counter() - t)
        r.codes.append(code)
        if not check(code, out, err):
            r.failed += 1
            print(f"FAIL {label}: exit {code}\n{err}", file=sys.stderr)
    return r


def cli_calls(seed):
    import steinberg  # for references only; importable once main() has checked SRC

    return cli_workload.round_calls(steinberg, seed)


def known_defect_fails(runner) -> int:
    """1 while the defect named in cli_workload.KNOWN_DEFECT is present, else 0."""
    label, argv, expected = cli_workload.KNOWN_DEFECT
    code = runner.run([sys.executable, "-c", CLI_MAIN, *argv]).returncode
    print(f"known defect ({label}): exit {code}, expected {expected}")
    return int(code != expected)


def startup_samples(runner, count):
    """``(startup seconds, reference samples)`` of ``count`` cli_child.py processes."""
    out = []
    for _ in range(count):
        ref = [reference.sample() for _ in range(STARTUP_REF_SAMPLES)]
        out.append((runner.cli_child()[3]["startup_s"], ref))
    return out


def cli_timed(runner, seed, seconds):
    reference.samples(0)  # warm the loop up in this process
    startups = startup_samples(runner, SETUP_SAMPLES["cli-cold"])
    calls = cli_calls(seed)
    rounds = repeat_rounds("cli-cold", seconds, lambda: cli_round(runner, calls, traced=False))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    known_defect_fails(runner)
    # Every reference sample of cli-cold is taken in this process.
    floor = min(min(ref) for ref in [ref for _, ref in startups] + [r.ref for r in rounds])
    setups = [(t, reference.slowdown(ref, floor)) for t, ref in startups]
    for r in rounds:
        r.slowdowns = reference.op_slowdowns(r.ref, floor)
    metrics = {**timing_metrics(rounds, setups), "peak_rss_mb": (rss, "MB")}
    return metrics, sum(len(r.latencies) for r in rounds), sum(r.failed for r in rounds)


def cli_traced(runner, seed):
    calls = cli_calls(seed)
    return cli_round(runner, calls, traced=False), cli_round(runner, calls, traced=True)


def traced_metrics(runner, workload, seed):
    if workload == "cli-cold":
        plain, traced = cli_traced(runner, seed)
        defect = known_defect_fails(runner)
    else:
        plain, traced = library_traced(runner, workload, seed)
        defect = 0
    metrics = {}
    for name, entry in sorted(tracer.merge(traced.traces).items()):
        for key, value in entry.items():
            metrics[f"{name}.{key}"] = (value, "s" if key == "self_s" else "count")
    startup = statistics.median(t for t, _ in startup_samples(runner, 5))
    metrics["cli.startup_s"] = (startup, "s")
    for code in (0, 1, 2):
        metrics[f"cli.exit_{code}"] = (traced.codes.count(code), "count")
    metrics["cli.known_defect_fails"] = (defect, "count")
    metrics["trace.ops"] = (len(traced.latencies), "count")
    metrics["trace.op_s"] = (sum(traced.latencies), "s")
    metrics["trace.overhead_frac"] = (sum(traced.latencies) / sum(plain.latencies) - 1, "ratio")
    return metrics, len(plain.latencies) + len(traced.latencies), plain.failed + traced.failed


def run_workload(workload, seed, seconds, trace):
    runner = Runner()
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}")
    print(f"machine {json.dumps(machine())}")
    # Write the bytecode cache first so no sample pays for compiling.
    if runner.run([sys.executable, "-c", "import steinberg.cli"]).returncode != 0:
        raise BenchError("cannot import steinberg.cli from the checkout")
    if trace:
        metrics, attempted, failed = traced_metrics(runner, workload, seed)
    elif workload == "cli-cold":
        metrics, attempted, failed = cli_timed(runner, seed, seconds)
    else:
        metrics, attempted, failed = library_timed(runner, workload, seed, seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':48s} {failed / attempted:14.6g} ratio ({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "steinberg" / "__init__.py").is_file():
        sys.exit(f"run.py: no library sources at {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        # One process per workload, so child resource usage is not mixed.
        for workload in WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code:
                sys.exit(code)
        return
    sys.path.insert(1, str(SRC))
    try:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.exit(f"run.py: {exc}")


if __name__ == "__main__":
    main()
