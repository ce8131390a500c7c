"""One fresh process of a library workload: set-up, then one round.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on stdout.  Set-up is timed from before
``import steinberg`` until every root system of the workload is built and
warmed up.  Then each operation of the seed's round is timed alone, and its
output is checked right after its timed interval.  Samples of the reference
loop (``reference.py``) are taken around set-up and before each operation,
untimed; the result reports the slowdowns of set-up and of each operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import reference
import workloads

SETUP_REF_SAMPLES = 150  # reference samples before and again after set-up
SRC = Path(__file__).resolve().parent.parent / "src"


def _lru_object(value):
    """The ``lru_cache`` object behind a library attribute (or a tracer wrapper), or None."""
    while value is not None and not hasattr(value, "cache_info"):
        value = getattr(value, "__wrapped__", None)
    return value


@contextmanager
def weyl_character_uncached():
    """Within the block, every ``steinberg`` namespace binds the uncached ``weyl_character``.

    ``weyl_character`` is the only library cache that operations fill after
    set-up (``generate`` and ``build_root_system`` are filled for every root
    system during set-up).  Checks run inside this block, so a later timed
    operation never finds a character that a check computed.
    """
    cached = _lru_object(sys.modules["steinberg.characters"].weyl_character)
    saved = []
    for name, module in list(sys.modules.items()):
        if name == "steinberg" or name.startswith("steinberg."):
            for attr, value in list(vars(module).items()):
                if callable(value) and _lru_object(value) is cached:
                    saved.append((module, attr, value))
                    setattr(module, attr, cached.__wrapped__)
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def run_ops(ops, tracer):
    latencies, ref = [], []
    failed = 0
    for label, run, check in ops:
        ref.append(reference.sample())
        t = time.perf_counter()
        try:
            out = run()
        except Exception:  # an operation that raises counts as failed
            latencies.append(time.perf_counter() - t)
            failed += 1
            print(f"FAIL {label}\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - t)
        if tracer:
            tracer.paused = True
        try:
            with weyl_character_uncached():
                ok = check(out)
        except Exception:
            ok = False
            print(traceback.format_exc(), file=sys.stderr)
        finally:
            if tracer:
                tracer.paused = False
        if not ok:
            failed += 1
            print(f"FAIL {label}: result differs from its reference", file=sys.stderr)
    return {"latencies": latencies, "ref": ref, "failed": failed}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setup_ref = reference.samples(SETUP_REF_SAMPLES)
    t0 = time.perf_counter()
    import steinberg as S

    if not Path(S.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"worker: imported steinberg from {S.__file__}, not from {SRC}")
    if tracer:
        tracer.install()
    built = workloads.systems(S, args.workload)
    for rs in built.values():
        workloads.warm_up(S, rs)
    setup_s = time.perf_counter() - t0
    setup_ref += reference.samples(SETUP_REF_SAMPLES)
    result = {"setup_s": setup_s}

    if not args.setup_only:
        ops = workloads.round_ops(S, args.workload, built, args.seed)
        result.update(run_ops(ops, tracer))
    op_ref = result.pop("ref", [])
    floor = min(setup_ref + op_ref)
    result["setup_slowdown"] = reference.slowdown(setup_ref, floor)
    result["slowdowns"] = reference.op_slowdowns(op_ref, floor)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["trace"] = tracer.totals()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
