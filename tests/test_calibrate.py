"""The calibration script in tools/calibrate.py, on tiny fixed inputs.

The script reaches private names of the library (its dispatch constants,
``_convolve``, ``_kronecker``, ``_straighten`` and the cache's uncached
computation), so these tests are what keeps it running as the library
changes.
"""

import importlib.util
from pathlib import Path

import pytest

from steinberg import Character, build_root_system, characters, grothendieck, weyl_character

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


def test_every_rule_constant_is_read_from_the_library(calibrate):
    # A renamed constant makes constants() raise, and the header with it.
    assert calibrate.constants() == {
        name: getattr(module, name) for name, module in RULE_CONSTANTS.items()
    }
    header = calibrate.header()
    for name, module in RULE_CONSTANTS.items():
        assert f"{name} = {getattr(module, name)}" in header


def test_kernel_tables(calibrate):
    g2 = build_root_system("G", 2)
    a, b = weyl_character(g2, (1, 0)), weyl_character(g2, (0, 1))
    table = calibrate.kernel_traffic({"tiny": [(a, b, None), (a, b, (0, 0))]})
    assert table.columns == ["workload", "route", "cost/budget", "calls", "kernel faster",
                             "kernel/pair time", "kernel ms", "pair ms", "rule ms",
                             "rule - best ms"]
    assert sorted(row[1] for row in table.rows) == ["floored", "mirrored"]
    assert sum(row[3] for row in table.rows) == 2
    # Two weights far apart: a box of about 10^6 slots for 2 pairs.
    call = calibrate.kernel_call(Character({(0, 0): 1}), Character({(999, 0): 1, (0, 999): 2}))
    assert call["route"] == "pair -> full" and call["ratio"] > 1000
    sweep = calibrate.kernel_sweep(ranks=[1], sizes=[1], nb=8, steps=3)
    assert sweep.columns == ["|a|", "rank", "points", "swept B/term", "tie B/term",
                             "rule allows", "tie/rule"]
    assert [row[:2] for row in sweep.rows] == [[1, 1]]


def test_brauer_tables(calibrate):
    a2 = build_root_system("A", 2)
    table = calibrate.brauer_route([(a2, (1, 1)), (a2, (4, 4))])
    assert table.columns == ["type", "weight", "terms", "t/e", "product ms", "straighten ms",
                             "product/straighten", "rule takes"]
    assert [row[:3] + row[-1:] for row in table.rows] == [
        ["A2", [1, 1], 7, "straighten"], ["A2", [4, 4], 61, "product"]]
    ties = calibrate.brauer_ties(table)
    assert ties.columns == ["type", "swept t/e", "tie t/e", "rule's first product t/e"]
    assert [row[0] for row in ties.rows] == ["A2"] and ties.rows[0][-1] == 10.2
    chi = weyl_character(a2, (3, 3))
    calls = calibrate.brauer_traffic({"tiny": [(a2, chi), (a2, chi)]})
    assert calls.columns[:6] == ["workload", "type", "t/e", "calls", "rule: product",
                                 "product faster"]
    assert [row[:5] for row in calls.rows] == [["tiny", "A2", "4-8", 2, 2]]


def test_stmult_table(calibrate):
    a2 = build_root_system("A", 2)
    small, large = weyl_character(a2, (1, 0)), weyl_character(a2, (4, 4))
    table = calibrate.stmult_routes({1: [(a2, small, (0, 0), 2), (a2, large, (1, 1), 3)]})
    assert table.columns == ["seed", "calls", "rule: straighten", "lookups ms", "straighten ms",
                             "rule ms", "straighten faster", "at t/e"]
    assert table.rows[0][:3] == [1, 2, 1]


def test_weyl_tables(calibrate):
    a2, a3 = build_root_system("A", 2), build_root_system("A", 3)
    table = calibrate.weyl_routes([(a2, (1, 0)), (a3, (1, 0, 0))])
    assert table.columns == ["type", "weight", "terms", "formula ms", "recursion ms",
                             "formula/recursion", "rule takes"]
    assert [row[:3] + row[-1:] for row in table.rows] == [
        ["A2", [1, 0], 3, "formula"], ["A3", [1, 0, 0], 4, "recursion"]]
    # A3 (1, 1, 0): the 12 weights of its orbit and the 4 of (0, 0, 1).
    cost = calibrate.recompute_cost([(a2, (2, 2))], [(a3, (1, 1, 0))])
    assert cost.columns == ["route", "type", "weight", "terms", "us/term"]
    assert [row[:4] for row in cost.rows] == [["formula", "A2", [2, 2], 19],
                                              ["recursion", "A3", [1, 1, 0], 16]]


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
    # A character over the budget is never stored; the doorkeeper keeps its ghost.
    assert calibrate.replay([c, c], 4, True) == (2, 8.0, 1)
    assert calibrate.replay([c, c], 4, False) == (2, 8.0, 0)
    table = calibrate.cache_replay({"tiny": trace}, {"tiny": 5}, budgets=(8,))
    assert table.columns == ["workload", "policy", "budget terms", "requests", "misses",
                             "recompute ms", "peak terms"]
    assert [row[1:3] for row in table.rows] == [
        ["doorkeeper", characters._WEYL_CACHE_TERMS], ["lru", 8],
        ["lru", characters._WEYL_CACHE_TERMS]]


def test_traffic_replays_a_workload_round(calibrate):
    # The census of one seed-1 highrank-classes round: 59 products, 21 of them
    # by the mirrored kernel; the replayed doorkeeper counts the cache's misses.
    log = calibrate.traffic("highrank-classes", 1)
    assert len(log.convolve) == 59
    mirrored = [call for call in log.convolve
                if calibrate.kernel_call(*call)["route"] == "mirrored"]
    assert len(mirrored) == 21
    trace = calibrate.weyl_trace(log.weyl)
    assert calibrate.replay(trace, characters._WEYL_CACHE_TERMS, True)[0] == log.misses
    assert log.brauer and not log.stmult
