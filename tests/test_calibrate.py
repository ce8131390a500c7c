"""The calibration script in tools/calibrate.py, on tiny fixed inputs.

The script reaches private names of the library (its dispatch constants,
``_convolve``, ``_kronecker``, ``_weyl_formula``, and the cache itself with
its term count and its uncached computation), so these tests are what keeps
it running as the library changes.
"""

import importlib.util
from pathlib import Path

import pytest

from steinberg import (
    Character,
    build_root_system,
    characters,
    contract_weights,
    weyl_character,
)

TOOL = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"
RULE_CONSTANTS = {
    "_PAIR_COST": characters,
    "_DECODE_COST": characters,
    "_DENSE_RANK": characters,
    "_WEYL_CACHE_TERMS": characters,
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


def test_weyl_tables(calibrate):
    a2, a3 = build_root_system("A", 2), build_root_system("A", 3)
    table = calibrate.weyl_routes([(a2, (1, 0)), (a3, (1, 0, 0))])
    assert table.columns == ["type", "weight", "terms", "formula ms", "recursion ms",
                             "formula/recursion", "rule takes"]
    assert [row[:3] + row[-1:] for row in table.rows] == [
        ["A2", [1, 0], 3, "formula"], ["A3", [1, 0, 0], 4, "recursion"]]
    assert names(table, "_DENSE_RANK")


def test_cache_replay_runs_the_library_cache(calibrate):
    # Under the doorkeeper: a ghost of (1, 0), then its 3 terms in the
    # ghost's place, a hit, and a ghost of (0, 1): 3 misses, 4 terms held.
    a2 = build_root_system("A", 2)
    lookups = [calibrate.Lookup(a2, (1, 0))] * 3 + [calibrate.Lookup(a2, (0, 1))]
    log = calibrate.Traffic([], [], lookups, 3)
    table = calibrate.cache_replay({"tiny": log})
    assert table.columns == ["workload", "lookups", "misses", "recompute ms", "peak terms"]
    assert [row[:3] + row[4:] for row in table.rows] == [["tiny", 4, 3, 4]]
    assert names(table, "_WEYL_CACHE_TERMS")
    with pytest.raises(RuntimeError, match="tiny: the replay took 3 misses, the round 2"):
        calibrate.cache_replay({"tiny": log._replace(misses=2)})


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
    # library's cache, replayed on its 14 distinct lookups, takes the
    # round's 14 misses and holds at most 376 terms.
    log = calibrate.traffic("highrank-classes", 1)
    assert len(log.cache) == 141 and _weyl_characters_only(log)
    assert log.convolve == []
    [row] = calibrate.cache_replay({"highrank-classes": log}).rows
    assert row[:3] + row[4:] == ["highrank-classes", 141, 14, 376]
    assert len(set(log.cache)) == 14
    assert len(log.klimyk) == 20
    for rs, chi in log.klimyk:
        pair = chi._pair()
        assert [side._highest is not None for side in pair] == [True, True]
        assert not chi._formed()
        expected = Character._raw(characters._convolve(*pair), rs)
        for p in (2, 3):
            assert contract_weights(chi, p) == contract_weights(expected, p)
        assert not chi._formed()


def test_traffic_marks_the_products_its_operations_never_formed(calibrate):
    # The census of one seed-1 rank2-steinberg round: 992 cache lookups,
    # all of Weyl characters, 186 of them misses, and 288 convolutions.
    # Each of the 120 products char_to_class expands over the pair it holds
    # comes unformed; 48 of them are formed by the end of the round, by its
    # operations or their checks, and hold no pair from then on.
    log = calibrate.traffic("rank2-steinberg", 1)
    assert len(log.cache) == 992 and log.misses == 186 and _weyl_characters_only(log)
    assert len(log.convolve) == 288
    assert len(log.klimyk) == 120
    assert sum(chi._formed() for _, chi in log.klimyk) == 48
    assert all(chi._formed() is (chi._pair() is None) for _, chi in log.klimyk)
