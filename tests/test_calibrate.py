"""The calibration script in tools/calibrate.py, on tiny fixed inputs.

The script reaches private names of the library (its dispatch constants,
``_convolve``, ``_kronecker``, ``_straighten`` and the cache's uncached
computation), so these tests are what keeps it running as the library
changes.
"""

import importlib.util
from pathlib import Path

import pytest

from steinberg import (
    Character,
    build_root_system,
    characters,
    contract_weights,
    grothendieck,
    tensor,
    weyl_character,
)

TOOL = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"
RULE_CONSTANTS = {
    "_PAIR_COST": characters,
    "_DECODE_COST": characters,
    "_DENSE_RANK": characters,
    "_WEYL_CACHE_TERMS": characters,
    "_TERMS_PER_ELEMENT": grothendieck,
}


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names(table, *constants) -> bool:
    """Whether the table's title or notes name every one of the constants."""
    text = " ".join([table.title, *table.notes])
    return all(name in text for name in constants)


def test_every_rule_constant_is_read_from_the_library(calibrate):
    # A renamed constant makes constants() raise, and the header with it.
    assert calibrate.constants() == {
        name: getattr(module, name) for name, module in RULE_CONSTANTS.items()
    }
    header = calibrate.header()
    for name, module in RULE_CONSTANTS.items():
        assert f"{name} = {getattr(module, name)}" in header


def test_kernel_tables(calibrate):
    # The G2 pair is mirrored (-1 is in W); the A2 pair takes the full kernel.
    g2, a2 = build_root_system("G", 2), build_root_system("A", 2)
    a, b = weyl_character(g2, (1, 0)), weyl_character(g2, (0, 1))
    c = weyl_character(a2, (3, 3))
    table = calibrate.kernel_traffic({"tiny": [(a, b), (c, c)]})
    assert table.columns == ["workload", "route", "cost/budget", "calls", "kernel faster",
                             "kernel/pair time", "kernel ms", "pair ms", "rule ms",
                             "rule - best ms"]
    assert sorted(row[1] for row in table.rows) == ["full", "mirrored"]
    assert sum(row[3] for row in table.rows) == 2
    # A workload without calls gets a note, not a row.
    quiet = calibrate.kernel_traffic({"tiny": [(a, b)], "none": []})
    assert [row[0] for row in quiet.rows] == ["tiny"] and quiet.notes[-1] == "none: no _convolve calls"
    # Two weights far apart: a box of about 10^6 slots for 2 pairs.
    call = calibrate.kernel_call(Character({(0, 0): 1}), Character({(999, 0): 1, (0, 999): 2}))
    assert call["route"] == "pair -> full" and call["ratio"] > 1000
    sweep = calibrate.kernel_sweep(ranks=[1], sizes=[1], nb=8, steps=3)
    assert sweep.columns == ["|a|", "rank", "points", "swept B/term", "tie B/term",
                             "rule allows", "tie/rule"]
    assert [row[:2] for row in sweep.rows] == [[1, 1]]
    assert names(table, "_PAIR_COST", "_DECODE_COST")
    assert names(sweep, "_PAIR_COST", "_DECODE_COST")


def test_stmult_table(calibrate):
    a2, a3 = build_root_system("A", 2), build_root_system("A", 3)
    small, large = weyl_character(a2, (1, 0)), weyl_character(a2, (4, 4))
    # A3's 4 (x) 4* = 15 + 1 has 13 weights, 0.54 per element of W: the rule straightens.
    product = tensor(weyl_character(a3, (1, 0, 0)), weyl_character(a3, (0, 0, 1)))
    assert (len(product), a3.weyl_order) == (13, 24)
    table = calibrate.stmult_routes({1: [(a2, small, (0, 0), 2), (a2, large, (1, 1), 3),
                                         (a3, product, (0, 0, 0), 2)]})
    assert table.columns == ["seed", "calls", "rule: straighten", "lookups ms", "straighten ms",
                             "rule ms", "straighten faster", "at t/e"]
    assert table.rows[0][:3] == [1, 3, 2]
    assert names(table, "_TERMS_PER_ELEMENT")


def test_weyl_tables(calibrate):
    a2, a3 = build_root_system("A", 2), build_root_system("A", 3)
    table = calibrate.weyl_routes([(a2, (1, 0)), (a3, (1, 0, 0))])
    assert table.columns == ["type", "weight", "terms", "formula ms", "recursion ms",
                             "formula/recursion", "rule takes"]
    assert [row[:3] + row[-1:] for row in table.rows] == [
        ["A2", [1, 0], 3, "formula"], ["A3", [1, 0, 0], 4, "recursion"]]
    assert names(table, "_DENSE_RANK")
    # A3 (1, 1, 0): the 12 weights of its orbit and the 4 of (0, 0, 1).
    cost = calibrate.recompute_cost([(a2, (2, 2))], [(a3, (1, 1, 0))])
    assert cost.columns == ["route", "type", "weight", "terms", "us/term"]
    assert [row[:4] for row in cost.rows] == [["formula", "A2", [2, 2], 19],
                                              ["recursion", "A3", [1, 1, 0], 16]]
    assert names(cost, "_DENSE_RANK")


def test_cache_replay_on_a_synthetic_trace(calibrate):
    # Keys a, b of rank 2 (3 and 4 terms), c of rank 3 (5 terms); budget 8.
    a, b, c = ("a", 3, 2, 1.0), ("b", 4, 2, 2.0), ("c", 5, 3, 4.0)
    trace = [a, b, a, c, a, b]
    # Doorkeeper: ghosts a, b (2 terms); a stored (4); c stored at once, the
    # ghost of b dropped (8); a hit; b a ghost again, c dropped (4).
    assert calibrate.replay(trace, 8, True) == (5, 10.0, 8)
    # Plain LRU: a, b stored (7); a hit; c stored, b dropped (8); a hit; b
    # stored again, c dropped (7).
    assert calibrate.replay(trace, 8, False) == (4, 9.0, 8)
    # A character over the budget is never stored.  The doorkeeper keeps
    # the ghost of one of rank 2, which it held back, but leaves none for
    # one of rank 3, which it admits at once.
    big = ("e", 5, 2, 1.0)
    assert calibrate.replay([big, big], 4, True) == (2, 2.0, 1)
    assert calibrate.replay([c, c], 4, True) == (2, 8.0, 0)
    assert calibrate.replay([c, c], 4, False) == (2, 8.0, 0)
    table = calibrate.cache_replay({"tiny": trace}, {"tiny": 5}, budgets=(8,))
    assert table.columns == ["workload", "policy", "budget terms", "lookups", "misses",
                             "recompute ms", "peak terms"]
    assert [row[1:3] for row in table.rows] == [
        ["doorkeeper", characters._WEYL_CACHE_TERMS], ["lru", 8],
        ["lru", characters._WEYL_CACHE_TERMS]]
    assert names(table, "_WEYL_CACHE_TERMS")


def _weyl_characters_only(log) -> bool:
    # Every lookup is of one highest weight of its root system.
    return all(len(lookup.highest) == lookup.rs.rank
               and all(type(x) is int for x in lookup.highest) for lookup in log.cache)


def test_traffic_replays_a_workload_round(calibrate):
    # The census of one seed-1 highrank-classes round: 141 cache lookups,
    # all of Weyl characters, and no convolution.  Each of the 20 products
    # that char_to_class expands over the pair it holds comes unformed, and
    # is still unformed once the round's checks have read it, and its
    # contractions by residue classes are those of its convolution.  The
    # replayed doorkeeper counts the cache's misses.
    log = calibrate.traffic("highrank-classes", 1)
    assert len(log.cache) == 141 and _weyl_characters_only(log)
    assert log.convolve == []
    trace = calibrate.weyl_trace(log.cache)
    assert calibrate.replay(trace, characters._WEYL_CACHE_TERMS, True)[0] == log.misses == 14
    assert len(log.klimyk) == 20
    for rs, chi, formed in log.klimyk:
        pair = chi._pair()
        assert len(chi._factors) == 2 and not formed and not chi._formed()
        expected = Character._raw(characters._convolve(*pair), rs)
        for p in (2, 3):
            assert contract_weights(chi, p) == contract_weights(expected, p)
        assert not chi._formed()
    assert not log.stmult
    requests = calibrate.weyl_requests(log.cache)
    assert len(requests) == len(set(requests)) == 14


def test_traffic_marks_the_products_its_operations_never_formed(calibrate):
    # The census of one seed-1 rank2-steinberg round: 992 cache lookups,
    # all of Weyl characters, 186 of them misses, and 288 convolutions.
    # Each of the 120 products char_to_class expands over the pair it holds
    # comes unformed; 48 of them are formed by the end of the round, by its
    # operations or their checks.
    log = calibrate.traffic("rank2-steinberg", 1)
    assert len(log.cache) == 992 and log.misses == 186 and _weyl_characters_only(log)
    assert len(log.convolve) == 288
    assert len(log.klimyk) == 120 and not any(formed for *_, formed in log.klimyk)
    assert sum(chi._formed() for _, chi, _ in log.klimyk) == 48
    trace = calibrate.weyl_trace(log.cache)
    assert calibrate.replay(trace, characters._WEYL_CACHE_TERMS, True)[0] == log.misses
