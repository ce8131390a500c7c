"""The measurements behind the library's dispatch rules, re-run.

    python tools/calibrate.py

Takes no options: every sweep and input is fixed.  Prints the machine and
Python version, then one section per rule, each naming the constants it
derives:

1. the Kronecker kernel against the pair loop in ``characters._convolve``
   (``_PAIR_COST``, ``_DECODE_COST``): every ``_convolve`` call of one
   round of each library workload, forced both ways, and a random sweep;
2. Brauer's formula by one product with the Weyl denominator against
   straightening, in ``grothendieck._brauer`` (``_DENSE_RANK``,
   ``_TERMS_PER_ELEMENT``), by rank and terms per element of W (t/e);
3. Steinberg multiplicities by |W| lookups against contraction and
   straightening (``_TERMS_PER_ELEMENT``);
4. Weyl's character formula against Freudenthal's recursion
   (``_DENSE_RANK``), and what each costs per term to compute again;
5. the ``weyl_character`` cache (``_WEYL_CACHE_TERMS`` and its doorkeeper)
   against plain LRU caches, replayed on each workload's requests.

The workloads' traffic is replayed from ``bench/workloads.py`` (imported,
never changed), as ``bench/worker.py`` runs a round: set-up and warm-up,
then each operation, its check with the uncached ``weyl_character``.  A
route is forced by setting a constant on its module, as the tests do.
Times are the least of a few runs of ``time.perf_counter`` with the
garbage collector off.  The whole run takes about a minute on two cores.
Standard library only; the package is imported from ``src/``.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import sys
from collections import OrderedDict, namedtuple
from contextlib import ExitStack, contextmanager
from itertools import groupby
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))

import steinberg as S  # noqa: E402
import workloads  # noqa: E402
from steinberg import characters, grothendieck  # noqa: E402

# Each rule's constants, by module: the tables read them at call time.
CONSTANTS = (
    (characters, "_PAIR_COST"),
    (characters, "_DECODE_COST"),
    (characters, "_DENSE_RANK"),
    (characters, "_WEYL_CACHE_TERMS"),
    (grothendieck, "_TERMS_PER_ELEMENT"),
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

Traffic = namedtuple("Traffic", "convolve brauer weyl stmult misses")


def traffic(workload: str, seed: int) -> Traffic:
    """The library calls of one round of a workload, from a cold ``weyl_character`` cache.

    Records every ``_convolve`` call (a, b, floor), every ``_brauer`` call
    (rs, chi), every ``weyl_character`` request (rs, highest) and every
    ``steinberg_delta_multiplicity`` call (rs, chi, lam, p) of set-up and
    of the operations, not of their checks; ``misses`` is the cache's own
    count at the end.
    """
    log = Traffic([], [], [], [], None)
    weyl = S.weyl_character
    convolve, brauer = characters._convolve, grothendieck._brauer
    stmult = grothendieck.steinberg_delta_multiplicity

    def convolve_spy(a, b, floor=None):
        log.convolve.append((a, b, floor))
        return convolve(a, b, floor)

    def brauer_spy(rs, chi):
        log.brauer.append((rs, chi))
        return brauer(rs, chi)

    def weyl_spy(rs, highest):
        log.weyl.append((rs, tuple(highest)))
        return weyl(rs, highest)

    def stmult_spy(rs, chi, lam, p):
        log.stmult.append((rs, chi, lam, p))
        return stmult(rs, chi, lam, p)

    spies = ((convolve, convolve_spy), (brauer, brauer_spy), (weyl, weyl_spy),
             (stmult, stmult_spy))

    def recording():
        stack = ExitStack()
        for target, spy in spies:
            stack.enter_context(rebound(target, spy))
        return stack

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


def kernel_call(a, b, floor=None) -> dict:
    """One ``_convolve`` call: the route its rule takes, its cost over budget, and both times.

    ``route`` is the kernel the rule takes (floored, full or mirrored) or
    ``pair -> k``, the pair loop, with k the kernel that forcing takes;
    ``ratio`` is the rule's kernel cost over its pair budget, at most 1
    exactly when the rule takes the kernel; ``bytes`` is the kernel's
    slot width times the slots of its box.  Forcing sets ``_PAIR_COST``
    to 10**9 (kernel) or 0 (pair loop).
    """
    seen = []
    kronecker = characters._kronecker

    def spy(aitems, bitems, ranges, bound, floor=None, mirror=False):
        seen.append((len(aitems), len(bitems), math.prod(map(len, ranges)), bound, mirror))
        return kronecker(aitems, bitems, ranges, bound, floor, mirror)

    pair_cost, decode_cost = characters._PAIR_COST, characters._DECODE_COST
    with patched(characters, _kronecker=spy):
        characters._convolve(a, b, floor)
        taken = bool(seen)
        with patched(characters, _PAIR_COST=10**9):
            seen.clear()
            characters._convolve(a, b, floor)
    with patched(characters, _PAIR_COST=0):
        pair = best(lambda: characters._convolve(a, b, floor), repeat=7)
    if not seen:  # no slot holds the bound: only the pair loop runs
        return {"route": "pair", "ratio": math.inf, "bytes": math.inf, "kernel": math.inf,
                "pair": pair}
    na, nb, slots, bound, mirror = seen[0]
    kind = "floored" if floor is not None else "mirrored" if mirror else "full"
    nbytes = characters._slot_width(bound)[0] * slots
    with patched(characters, _PAIR_COST=10**9):
        kernel = best(lambda: characters._convolve(a, b, floor), repeat=7)
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
         "cost/budget: the rule's kernel cost over its pair budget (<= 1: kernel)"])


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
        ["B/term: slot bytes of the product's box per term of b; '-': no crossing in the sweep"])


# 2. Brauer's formula: one product with the Weyl denominator against straightening.

# Weyl characters of each type, from a few to about 50 terms per element of W.
BRAUER_INPUTS = (
    ("A", 2, ((1, 1), (2, 2), (0, 6), (3, 3), (3, 4), (4, 4), (6, 6), (9, 9))),
    ("B", 2, ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (6, 6))),
    ("G", 2, ((1, 1), (2, 1), (1, 3), (2, 2), (3, 3), (5, 5))),
    ("A", 3, ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 3), (3, 3, 3), (4, 4, 4))),
    ("B", 3, ((1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 3, 3))),
    ("C", 3, ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 3, 3))),
    ("A", 4, ((1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2), (3, 3, 3, 3))),
    ("B", 4, ((1, 0, 0, 1), (1, 1, 1, 1), (2, 1, 1, 1))),
    ("D", 4, ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 2))),
    ("F", 4, ((0, 0, 1, 1), (1, 1, 0, 0), (0, 0, 2, 2))),
)


def brauer_route(inputs) -> Table:
    """Section 2a: product with the Weyl denominator over straightening, per input.

    ``inputs`` are (rs, highest); each Weyl character is expanded both ways
    and the two classes must agree.
    """
    rows = []
    for rs, highest in inputs:
        chi = S.weyl_character(rs, highest)
        product, straightened = _brauer_times(rs, chi)
        rows.append([_type(rs), list(highest), len(chi), round(len(chi) / rs.weyl_order, 1),
                     _ms(product), _ms(straightened), round(product / straightened, 2),
                     "product" if _takes_product(rs, chi) else "straighten"])
    return Table(
        "2a. Brauer route on Weyl characters: _convolve(chi, D, 0) against _straighten",
        ["type", "weight", "terms", "t/e", "product ms", "straighten ms", "product/straighten",
         "rule takes"],
        rows,
        ["t/e: terms of chi per element of W; the rule takes the product when "
         "rank <= _DENSE_RANK and t/e >= _TERMS_PER_ELEMENT"])


def _brauer_times(rs, chi):
    zero = (0,) * rs.rank
    d = grothendieck._weyl_denominator(rs)
    expected = grothendieck._straighten(rs, chi.items())
    if characters._convolve(chi, d, zero) != dict(expected.items()):
        raise RuntimeError(f"{_type(rs)}: the two Brauer routes disagree")
    return (best(lambda: characters._convolve(chi, d, zero)),
            best(lambda: grothendieck._straighten(rs, chi.items())))


def _takes_product(rs, chi) -> bool:
    return _calls(grothendieck, "_convolve", grothendieck._brauer, rs, chi)


def brauer_ties(table: Table) -> Table:
    """Section 2b: per type, the t/e where the product starts to win, from section 2a's rows."""
    rows = []
    for name, group in groupby(table.rows, key=lambda row: row[0]):
        points = sorted((row[3], row[6]) for row in group)
        tie = crossing(points)
        taken = [row[3] for row in table.rows if row[0] == name and row[7] == "product"]
        rows.append([name, _span([p[0] for p in points], "{:.1f}"),
                     "-" if tie is None else f"{tie:.1f}", min(taken, default="never")])
    return Table("2b. Brauer route: tie per type",
                 ["type", "swept t/e", "tie t/e", "rule's first product t/e"], rows,
                 ["'-': the product never crossed straightening in the sweep"])


_TE_EDGES = (1, 4, 8, 16)
_TE_BANDS = ("<1", "1-4", "4-8", "8-16", ">=16")


def _te_band(rs, chi) -> int:
    # The index in _TE_BANDS of chi's terms per element of W.
    return sum(len(chi) >= edge * rs.weyl_order for edge in _TE_EDGES)


def brauer_traffic(calls_by_workload: dict) -> Table:
    """Section 2c: the workloads' ``_brauer`` calls, both routes timed, by type and t/e."""
    rows = []
    for workload, calls in calls_by_workload.items():
        records = sorted(((_type(rs), _te_band(rs, chi)), *_brauer_times(rs, chi),
                          _takes_product(rs, chi)) for rs, chi in calls if chi)
        for (name, band), group in groupby(records, key=lambda r: r[0]):
            group = list(group)
            rule = sum(r[1] if r[3] else r[2] for r in group)
            fastest = sum(min(r[1], r[2]) for r in group)
            rows.append([workload, name, _TE_BANDS[band], len(group), sum(r[3] for r in group),
                         sum(r[1] < r[2] for r in group), _ms(sum(r[1] for r in group)),
                         _ms(sum(r[2] for r in group)), _ms(rule), _ms(rule - fastest)])
    return Table(
        "2c. Brauer route on the workloads' _brauer calls",
        ["workload", "type", "t/e", "calls", "rule: product", "product faster", "product ms",
         "straighten ms", "rule ms", "rule - best ms"],
        rows, [])


# 3. Steinberg multiplicities: |W| lookups against contraction and straightening.

def stmult_routes(calls_by_seed: dict) -> Table:
    """Section 3: ``steinberg_delta_multiplicity`` calls of each seed, under each route.

    Forcing sets ``_TERMS_PER_ELEMENT`` to 0 (lookups) or 10**9
    (straightening).  The three totals are the best of 31 loops over the
    seed's calls each; the last two columns compare the routes call by call.
    """
    fn = grothendieck.steinberg_delta_multiplicity
    rows = []
    for seed, calls in calls_by_seed.items():

        def loop():
            for rs, chi, lam, p in calls:
                fn(rs, chi, lam, p)

        # The three settings take turns, so a slow spell of the machine
        # falls on all of them.
        settings = (0, 10**9, grothendieck._TERMS_PER_ELEMENT)
        totals = [math.inf] * len(settings)
        for _ in range(31):
            for i, forced in enumerate(settings):
                with patched(grothendieck, _TERMS_PER_ELEMENT=forced):
                    totals[i] = min(totals[i], best(loop, repeat=1))
        faster = []
        for rs, chi, lam, p in calls:
            with patched(grothendieck, _TERMS_PER_ELEMENT=0):
                lookup = best(lambda: fn(rs, chi, lam, p))
            with patched(grothendieck, _TERMS_PER_ELEMENT=10**9):
                if best(lambda: fn(rs, chi, lam, p)) < lookup:
                    faster.append(len(chi) / rs.weyl_order)
        sent = sum(_calls(grothendieck, "_straighten", fn, *call) for call in calls)
        rows.append([seed, len(calls), sent, *map(_ms, totals), len(faster), _span(faster)])
    return Table(
        "3. Steinberg multiplicities on rank2-steinberg: |W| lookups against straightening",
        ["seed", "calls", "rule: straighten", "lookups ms", "straighten ms", "rule ms",
         "straighten faster", "at t/e"],
        rows,
        ["the rule takes lookups when t/e >= _TERMS_PER_ELEMENT, the constant of section 2"])


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


def weyl_routes(inputs) -> Table:
    """Section 4a: ``_weyl_formula`` against ``_freudenthal`` per (rs, highest); both must agree."""
    rows = []
    for rs, highest in inputs:
        terms = characters._freudenthal(rs, highest)
        if characters._weyl_formula(rs, highest) != terms:
            raise RuntimeError(f"{_type(rs)} {list(highest)}: the two Weyl routes disagree")
        formula = best(lambda: characters._weyl_formula(rs, highest))
        recursion = best(lambda: characters._freudenthal(rs, highest))
        rows.append([_type(rs), list(highest), len(terms), _ms(formula), _ms(recursion),
                     f"{formula / recursion:.2f}",
                     "formula" if _calls(characters, "_weyl_formula",
                                         characters._weyl_character, rs, highest)
                     else "recursion"])
    return Table("4a. Weyl character routes: _weyl_formula against _freudenthal",
                 ["type", "weight", "terms", "formula ms", "recursion ms", "formula/recursion",
                  "rule takes"], rows,
                 ["the rule takes the formula when rank <= _DENSE_RANK"])


def recompute_cost(formula_inputs, recursion_inputs) -> Table:
    """Section 4b: microseconds per term of each route, on the characters the rule sends it."""
    rows, per_term = [], {"formula": [], "recursion": []}
    for route, inputs in (("formula", formula_inputs), ("recursion", recursion_inputs)):
        fn = characters._weyl_formula if route == "formula" else characters._freudenthal
        for rs, highest in inputs:
            n = len(fn(rs, highest))
            us = best(lambda: fn(rs, highest)) / n * 1e6
            per_term[route].append(us)
            rows.append([route, _type(rs), list(highest), n, f"{us:.3f}"])
    f, r = per_term["formula"], per_term["recursion"]
    return Table("4b. Cost per term of computing a Weyl character again",
                 ["route", "type", "weight", "terms", "us/term"], rows,
                 [f"recursion over formula, per term: {min(r) / max(f):.1f}-{max(r) / min(f):.1f}x"])


# 5. The Weyl-character cache, replayed.

def replay(trace, budget: int, doorkeeper: bool):
    """(misses, recompute seconds, peak terms held) of a cache policy on a request trace.

    ``trace`` lists (key, terms, rank, seconds), one per request.  The cache
    holds at most ``budget`` terms, drops least recently used entries first,
    and never keeps a character of more than ``budget`` terms.  Under the
    doorkeeper a first miss of rank <= ``_DENSE_RANK`` stores a ghost,
    counted as one term, and a miss on a ghost stores the character; a
    plain LRU stores every miss.
    """
    cache, held, peak, misses, spent = OrderedDict(), 0, 0, 0, 0.0
    for key, terms, rank, seconds in trace:
        found = cache.get(key, KeyError)
        if found is not KeyError:
            cache.move_to_end(key)
            if found is not None:
                continue
        misses += 1
        spent += seconds
        admit = not doorkeeper or found is None or rank > characters._DENSE_RANK
        if terms <= budget and admit:
            if found is None:
                held -= 1
            cache[key] = terms
            held += terms
        elif doorkeeper and found is KeyError:
            cache[key] = None
            held += 1
        while held > budget:
            held -= cache.popitem(last=False)[1] or 1
        peak = max(peak, held)
    return misses, spent, peak


def weyl_trace(requests) -> list:
    """(key, terms, rank, seconds) per ``weyl_character`` request, each key computed and timed once."""
    cost = {}
    for key in requests:
        if key not in cost:
            terms = len(characters._weyl_character(*key))
            cost[key] = terms, best(lambda: characters._weyl_character(*key))
    return [(key, cost[key][0], key[0].rank, cost[key][1]) for key in requests]


def cache_replay(traces: dict, library_misses: dict, budgets=(1 << 12, 1 << 13, 1 << 14)) -> Table:
    """Section 5: the doorkeeper at ``_WEYL_CACHE_TERMS`` and plain LRUs at several budgets."""
    rows, notes = [], []
    for workload, trace in traces.items():
        policies = [("doorkeeper", characters._WEYL_CACHE_TERMS, True)]
        policies += [("lru", b, False) for b in (*budgets, characters._WEYL_CACHE_TERMS)]
        for name, budget, doorkeeper in policies:
            misses, spent, peak = replay(trace, budget, doorkeeper)
            rows.append([workload, name, budget, len(trace), misses, _ms(spent), peak])
        notes.append(f"{workload}: the library's own cache counted {library_misses[workload]} "
                     "misses")
    return Table("5. weyl_character cache replayed on each workload's requests",
                 ["workload", "policy", "budget terms", "requests", "misses", "recompute ms",
                  "peak terms"], rows, notes)


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
    rank2 = {seed: traffic("rank2-steinberg", seed) for seed in (1, 2, 3)}
    highrank = traffic("highrank-classes", 1)
    seed1 = {"rank2-steinberg": rank2[1], "highrank-classes": highrank}
    print(render(kernel_traffic({w: t.convolve for w, t in seed1.items()})))
    print(render(kernel_sweep()))
    sweep = brauer_route(_inputs(BRAUER_INPUTS))
    print(render(sweep))
    print(render(brauer_ties(sweep)))
    print(render(brauer_traffic({w: t.brauer for w, t in seed1.items()})))
    print(render(stmult_routes({seed: t.stmult for seed, t in rank2.items()})))
    print(render(weyl_routes(_inputs(WEYL_INPUTS))))
    # The formula on the 12 largest characters of the rank-2 round (targets
    # Delta(p . lam) of the twist identity), the recursion on every nonzero
    # weight of the high-rank round.
    largest = sorted(dict.fromkeys(rank2[1].weyl), key=lambda k: -len(S.weyl_character(*k)))
    recursion = [(rs, highest) for rs, highest in dict.fromkeys(highrank.weyl) if any(highest)]
    print(render(recompute_cost(largest[:12], recursion)))
    print(render(cache_replay({w: weyl_trace(t.weyl) for w, t in seed1.items()},
                              {w: t.misses for w, t in seed1.items()})))
    print(f"total {perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
