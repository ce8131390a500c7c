"""The measurements behind the library's dispatch rules, re-run.

    python tools/calibrate.py

Takes no options: every sweep and input is fixed.  Prints the machine and
Python version, then one section per rule, each naming the constants it
derives:

1. the Kronecker kernel against the pair loop in ``characters._convolve``
   (``_PAIR_COST``, ``_DECODE_COST``): every ``_convolve`` call of one
   round of each library workload, forced both ways, and a random sweep;
4. Weyl's character formula against Freudenthal's recursion
   (``_DENSE_RANK``), timed on fixed characters of ranks 2 to 4;
5. the ``weyl_character`` cache itself (``characters._cached``, under
   ``_WEYL_CACHE_TERMS``), replayed on each workload's lookups of Weyl
   characters, the only values it holds: its misses, their recompute time
   and the most terms it held.  No code here decides what a cache keeps.

There are no sections 2 or 3: no dispatch rule is left for them to time.
The other sections keep their numbers, by which the project's notes cite
them.

The workloads' traffic is replayed from ``bench/workloads.py`` (imported,
never changed), as ``bench/worker.py`` runs a round: set-up and warm-up,
then each operation, its check with the uncached ``weyl_character``.  A
route is forced by setting a constant on its module, as the tests do.
Times are the least of a few runs of ``time.perf_counter`` with the
garbage collector off.  The whole run takes about half a minute on two
cores.  Standard library only; the package is imported from ``src/``.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import sys
from collections import namedtuple
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import groupby
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))

import steinberg as S  # noqa: E402
import workloads  # noqa: E402
from steinberg import characters, grothendieck, kronecker  # noqa: E402

# Each rule's constants, by module: the tables read them at call time.
CONSTANTS = (
    (characters, "_PAIR_COST"),
    (characters, "_DECODE_COST"),
    (characters, "_DENSE_RANK"),
    (characters, "_WEYL_CACHE_TERMS"),
)

Table = namedtuple("Table", "title columns rows notes")


def constants() -> dict:
    """{name: value} of every constant a table derives, read from the library."""
    return {name: getattr(module, name) for module, name in CONSTANTS}


@contextmanager
def patched(module, **values):
    """Set module attributes for the block; an attribute the module lacks raises."""
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@contextmanager
def rebound(target, replacement):
    """Bind replacement wherever a module of the package binds target, for the block."""
    sites = [(m, name) for key, m in list(sys.modules.items())
             if key == "steinberg" or key.startswith("steinberg.")
             for name, value in list(vars(m).items()) if value is target]
    for m, name in sites:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m, name in sites:
            setattr(m, name, target)


def _calls(module, name, fn, *args) -> bool:
    """Whether fn(*args) calls the function bound to ``name`` in module: the route it takes."""
    seen = []
    real = getattr(module, name)

    def spy(*spied):
        seen.append(spied)
        return real(*spied)

    with patched(module, **{name: spy}):
        fn(*args)
    return bool(seen)


def best(fn, repeat=15, budget=0.5) -> float:
    """The least of up to ``repeat`` timings of fn(), stopping once ``budget`` seconds are spent."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        while len(times) < repeat and sum(times) < budget:
            t = perf_counter()
            fn()
            times.append(perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return min(times)


def crossing(points):
    """Where y reaches 1, by a least-squares line of log y on log x over the (x, y) points.

    Only points with y in [1/2, 2] take part, so the fit is local to the
    tie and one noisy timing cannot place it; None unless at least two take
    part and the tie lies within their x range.
    """
    near = [(math.log(x), math.log(y)) for x, y in points if 0.5 <= y <= 2]
    if len(near) < 2:
        return None
    mx, my = (sum(c) / len(near) for c in zip(*near))
    sxx = sum((x - mx) ** 2 for x, _ in near)
    slope = sum((x - mx) * (y - my) for x, y in near) / sxx if sxx else 0
    if not slope:
        return None
    x = mx - my / slope
    return math.exp(x) if min(near)[0] <= x <= max(near)[0] else None


def _ms(seconds) -> str:
    return f"{seconds * 1e3:.3f}"


def _span(values, fmt="{:.2f}") -> str:
    values = list(values)
    if not values:
        return "-"
    lo, hi = min(values), max(values)
    return fmt.format(lo) if lo == hi else f"{fmt.format(lo)}-{fmt.format(hi)}"


def _type(rs) -> str:
    return f"{rs.series}{rs.rank}"


# Traffic: one round of a library workload, as the benchmark's worker runs it.

Traffic = namedtuple("Traffic", "convolve klimyk cache misses")

# A lookup in the ``weyl_character`` cache: its key, the Weyl character at
# highest over rs.
Lookup = namedtuple("Lookup", "rs highest")


def traffic(workload: str, seed: int) -> Traffic:
    """The library calls of one round of a workload, from a cold ``weyl_character`` cache.

    Records every ``_convolve`` call (a, b), every ``char_to_class`` call
    (rs, chi) on an unformed product, which holds the pair ``tensor`` was
    given (``klimyk``), and every lookup in the ``weyl_character`` cache (a ``Lookup``) of set-up
    and of the operations, not of their checks; ``misses`` is the cache's
    own count at the end.
    """
    log = Traffic([], [], [], None)
    weyl = S.weyl_character
    convolve = characters._convolve
    cached = characters._cached
    to_class = grothendieck.char_to_class

    def convolve_spy(a, b):
        log.convolve.append((a, b))
        return convolve(a, b)

    def to_class_spy(rs, chi):
        if chi._pair() is not None:
            log.klimyk.append((rs, chi))
        return to_class(rs, chi)

    def cached_spy(rs, highest):
        log.cache.append(Lookup(rs, highest))
        return cached(rs, highest)

    spies = ((convolve, convolve_spy), (to_class, to_class_spy), (cached, cached_spy))

    @contextmanager
    def recording():
        with ExitStack() as stack:
            for target, spy in spies:
                stack.enter_context(rebound(target, spy))
            yield

    weyl.cache_clear()
    built = workloads.systems(S, workload)
    with recording():
        for rs in built.values():
            workloads.warm_up(S, rs)
    for label, run, check in workloads.round_ops(S, workload, built, seed):
        with recording():
            out = run()
        with rebound(weyl, weyl.__wrapped__):
            if not check(out):
                raise RuntimeError(f"{workload} seed {seed}: {label} failed its check")
    return log._replace(misses=weyl.cache_info().misses)


# 1. The Kronecker kernel against the pair loop.

_RATIO_EDGES = (1 / 16, 1 / 4, 1, 4)
_RATIO_BINS = ("<1/16", "1/16-1/4", "1/4-1", "1-4", ">4", "no slot")


def _ratio_bin(ratio) -> int:
    # The index in _RATIO_BINS of the rule's cost over budget.
    return len(_RATIO_EDGES) + 1 if ratio == math.inf else sum(ratio > e for e in _RATIO_EDGES)


def _convolved(a, b) -> dict:
    # _convolve's terms, the kernel's slots decoded, as a reader of its weights pays for them.
    return S.Character._raw(characters._convolve(a, b), None)._terms


def kernel_call(a, b) -> dict:
    """One ``_convolve`` call: the route its rule takes, its cost over budget, and both times.

    ``route`` is the kernel the rule takes (full or mirrored) or
    ``pair -> k``, the pair loop, with k the kernel that forcing takes;
    ``ratio`` is the rule's kernel cost over its pair budget, at most 1
    exactly when the rule takes the kernel; ``bytes`` is the kernel's
    slot width times the slots of its box.  Forcing sets ``_PAIR_COST``
    to 10**9 (kernel) or 0 (pair loop).  Both routes are timed to terms:
    the kernel's slots are decoded inside the timed call.  A cached Weyl
    character keeps its box and slot bytes after the first call
    (``characters._operand``), so its later calls are timed with them, as
    a round reuses them; ``nb``, the larger factor's term count, is read
    from the factors, as the kernel takes no packed items for it.
    """
    seen = []
    kronecker = characters._kronecker

    def spy(aitems, operand, ranges, bound, mirror=False):
        seen.append((len(aitems), math.prod(map(len, ranges)), bound, mirror))
        return kronecker(aitems, operand, ranges, bound, mirror)

    pair_cost, decode_cost = characters._PAIR_COST, characters._DECODE_COST
    with patched(characters, _kronecker=spy):
        characters._convolve(a, b)
        taken = bool(seen)
        with patched(characters, _PAIR_COST=10**9):
            seen.clear()
            characters._convolve(a, b)
    with patched(characters, _PAIR_COST=0):
        pair = best(lambda: _convolved(a, b), repeat=7)
    if not seen:  # no slot holds the bound: only the pair loop runs
        return {"route": "pair", "ratio": math.inf, "bytes": math.inf, "kernel": math.inf,
                "pair": pair}
    na, slots, bound, mirror = seen[0]
    nb = max(len(a), len(b))
    kind = "mirrored" if mirror else "full"
    nbytes = characters._slot_width(bound)[0] * slots
    with patched(characters, _PAIR_COST=10**9):
        kernel = best(lambda: _convolved(a, b), repeat=7)
    return {"route": kind if taken else f"pair -> {kind}",
            "ratio": nbytes * (na + decode_cost) / (pair_cost * na * nb),
            "bytes": nbytes, "kernel": kernel, "pair": pair}


def _route_and_bin(record):
    return record["route"], _ratio_bin(record["ratio"])


def kernel_traffic(calls_by_workload: dict) -> Table:
    """Section 1a: each workload's ``_convolve`` calls, by route and the rule's cost ratio."""
    rows = []
    for workload, calls in calls_by_workload.items():
        records = sorted((kernel_call(*call) for call in calls), key=_route_and_bin)
        for (route, ratio_bin), group in groupby(records, key=_route_and_bin):
            group = list(group)
            taken = sum(r["pair"] if route.startswith("pair") else r["kernel"] for r in group)
            fastest = sum(min(r["kernel"], r["pair"]) for r in group)
            rows.append([workload, route, _RATIO_BINS[ratio_bin], len(group),
                         sum(r["kernel"] < r["pair"] for r in group),
                         _span((r["kernel"] / r["pair"] for r in group), "{:.2g}"),
                         _ms(sum(r["kernel"] for r in group)), _ms(sum(r["pair"] for r in group)),
                         _ms(taken), _ms(taken - fastest)])
    return Table(
        "1a. Kernel against pair loop on the workloads' _convolve calls "
        "(rule: kernel when width * slots * (|a| + _DECODE_COST) <= _PAIR_COST * |a| * |b|)",
        ["workload", "route", "cost/budget", "calls", "kernel faster", "kernel/pair time",
         "kernel ms", "pair ms", "rule ms", "rule - best ms"],
        rows,
        ["route: the kernel the rule takes, or 'pair -> k' for the pair loop, k what forcing takes",
         "cost/budget: the rule's kernel cost over its pair budget (<= 1: kernel)"]
        + [f"{workload}: no _convolve calls" for workload, calls in calls_by_workload.items()
           if not calls])


def _random_character(rng, sides, terms):
    # terms distinct weights in the box prod [0, side), multiplicities 1 to 3.
    weights = []
    for k in rng.sample(range(math.prod(sides)), terms):
        w = []
        for side in reversed(sides):
            k, x = divmod(k, side)
            w.append(x)
        weights.append(tuple(reversed(w)))
    return S.Character({w: rng.randint(1, 3) for w in weights})


def kernel_sweep(ranks=range(1, 7), sizes=(1, 4, 16, 64), nb=256, steps=32) -> Table:
    """Section 1b: where the two kernels tie on random untagged products, in slot bytes per term of b.

    For each rank and |a|, a compact a of |a| terms is multiplied by b's of
    ``nb`` random terms in a box grown one coordinate at a time, so the
    slot bytes per term of b rise by a few tens of percent per step; both
    kernels are timed until the kernel has lost three times in a row.  The
    tie is where kernel time over pair time reaches 1 (``crossing``); the
    rule allows _PAIR_COST * |a| / (|a| + _DECODE_COST) slot bytes per term
    of b.
    """
    rows = []
    for na in sizes:
        allowed = characters._PAIR_COST * na / (na + characters._DECODE_COST)
        for rank in ranks:
            rng = random.Random(f"sweep/{rank}/{na}")
            a = _random_character(rng, [math.ceil(na ** (1 / rank))] * rank, na)
            sides = [math.ceil((2 * nb) ** (1 / rank))] * rank
            points, lost = [], 0
            for step in range(steps):
                call = kernel_call(a, _random_character(rng, sides, nb))
                points.append((call["bytes"] / nb, call["kernel"] / call["pair"]))
                lost = lost + 1 if call["kernel"] > call["pair"] else 0
                if lost == 3:
                    break
                i = step % rank
                sides[i] += max(1, sides[i] // 4)
            tie = crossing(points)
            rows.append([na, rank, len(points), _span([points[0][0], points[-1][0]], "{:.0f}"),
                         "-" if tie is None else f"{tie:.0f}", f"{allowed:.1f}",
                         "-" if tie is None else f"{tie / allowed:.2f}"])
    return Table(
        "1b. Kernel against pair loop on random products, 2-byte slots (b has "
        f"{nb} terms)",
        ["|a|", "rank", "points", "swept B/term", "tie B/term", "rule allows", "tie/rule"],
        rows,
        ["B/term: slot bytes of the product's box per term of b; '-': no crossing in the sweep",
         "rule allows: _PAIR_COST * |a| / (|a| + _DECODE_COST) B/term"])


# 4. Weyl's formula against Freudenthal's recursion.

WEYL_INPUTS = (
    ("A", 2, ((0, 0), (1, 0), (0, 5), (3, 3))),
    ("B", 2, ((1, 0), (1, 1), (3, 3))),
    ("G", 2, ((1, 0), (0, 1), (0, 2), (3, 3))),
    ("A", 3, ((1, 0, 0), (1, 1, 1), (3, 3, 3))),
    ("B", 3, ((1, 0, 0), (1, 1, 1), (2, 2, 2))),
    ("C", 3, ((1, 1, 1), (2, 2, 2))),
    ("A", 4, ((1, 0, 0, 0), (1, 1, 1, 1))),
    ("D", 4, ((1, 0, 0, 0), (1, 1, 1, 1))),
    ("F", 4, ((1, 0, 0, 0),)),
)


def _formula_terms(rs, highest) -> dict:
    # Weyl's formula with its slots decoded, as a reader of its weights pays for it.
    return kronecker._weights_at(*characters._weyl_formula(rs, highest))


def weyl_routes(inputs) -> Table:
    """Section 4: ``_weyl_formula`` against ``_freudenthal`` per (rs, highest); both must agree.

    The formula is timed with its slots decoded, so both routes give terms.
    """
    rows = []
    for rs, highest in inputs:
        terms = characters._freudenthal(rs, highest)
        if _formula_terms(rs, highest) != terms:
            raise RuntimeError(f"{_type(rs)} {list(highest)}: the two Weyl routes disagree")
        formula = best(lambda: _formula_terms(rs, highest))
        recursion = best(lambda: characters._freudenthal(rs, highest))
        rows.append([_type(rs), list(highest), len(terms), _ms(formula), _ms(recursion),
                     f"{formula / recursion:.2f}",
                     "formula" if _calls(characters, "_weyl_formula",
                                         characters._weyl_character, rs, highest)
                     else "recursion"])
    return Table("4. Weyl character routes: _weyl_formula against _freudenthal",
                 ["type", "weight", "terms", "formula ms", "recursion ms", "formula/recursion",
                  "rule takes"], rows,
                 ["the rule takes the formula when rank <= _DENSE_RANK"])


# 5. The Weyl-character cache, replayed.

def cache_replay(rounds: dict) -> Table:
    """Section 5: each workload's ``Traffic`` lookups, replayed through the library's own cache.

    Each distinct key is computed and timed once, uncached, as its route
    computes it.  ``characters._cached`` then runs from an empty cache, with
    ``_weyl_character`` patched to hand back the key's character and charge
    its time, so a miss costs what computing its character again costs.
    Raises when the replay's misses differ from the round's own count.
    """
    rows = []
    for workload, log in rounds.items():
        costs, spent, peak = {}, [], 0
        for key in dict.fromkeys(log.cache):
            compute = partial(characters._weyl_character, *key)
            costs[key] = compute(), best(compute)

        def recorded(rs, highest):
            chi, seconds = costs[rs, highest]
            spent.append(seconds)
            return chi

        S.weyl_character.cache_clear()
        with patched(characters, _weyl_character=recorded):
            for rs, highest in log.cache:
                characters._cached(rs, highest)
                peak = max(peak, characters._weyl_terms)
        misses = S.weyl_character.cache_info().misses
        if misses != log.misses:
            raise RuntimeError(f"{workload}: the replay took {misses} misses, the round "
                               f"{log.misses}")
        rows.append([workload, len(log.cache), misses, _ms(sum(spent)), peak])
    return Table("5. weyl_character cache replayed on each workload's lookups",
                 ["workload", "lookups", "misses", "recompute ms", "peak terms"], rows,
                 ["peak terms: the most the cache held, a ghost counting one, against "
                  f"_WEYL_CACHE_TERMS = {characters._WEYL_CACHE_TERMS}"])


def render(table: Table) -> str:
    cells = [table.columns] + [[str(c) for c in row] for row in table.rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = [table.title, ""]
    for row in cells[:1] + [["-" * w for w in widths]] + cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip())
    lines += [f"  {note}" for note in table.notes]
    return "\n".join(lines) + "\n"


def header() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    lines = [f"machine: {model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}",
             f"python: {platform.python_implementation()} {platform.python_version()}",
             "constants: " + ", ".join(f"{k} = {v}" for k, v in constants().items())]
    return "\n".join(lines) + "\n"


def _inputs(spec):
    return [(S.build_root_system(series, rank), w) for series, rank, weights in spec
            for w in weights]


def main(argv) -> int:
    if argv:
        print("usage: python tools/calibrate.py (it takes no options)", file=sys.stderr)
        return 2
    start = perf_counter()
    print(header())
    seed1 = {w: traffic(w, 1) for w in ("rank2-steinberg", "highrank-classes")}
    print(render(kernel_traffic({w: t.convolve for w, t in seed1.items()})))
    print(render(kernel_sweep()))
    print(render(weyl_routes(_inputs(WEYL_INPUTS))))
    print(render(cache_replay(seed1)))
    print(f"total {perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
