"""Character arithmetic: Weyl characters, products, twists, contractions."""

import gc
import random
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import pytest

import oracles
from steinberg import characters
from steinberg import (
    Character,
    ConfigurationError,
    DomainError,
    KElement,
    Lattice,
    build_root_system,
    char_to_class,
    class_to_char,
    contract_weights,
    dot_multiply,
    euler_characteristic,
    frobenius_twist,
    make_dominant,
    steinberg_character,
    tensor,
    weyl_character,
)
from steinberg.characters import require_w_invariant

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
RANK2 = [A2, B2, G2]
A3 = build_root_system("A", 3)
B3 = build_root_system("B", 3)


def test_a1_weyl_characters_match_rank_one_theory():
    assert dict(weyl_character(A1, (0,)).items()) == {(0,): 1}
    assert dict(weyl_character(A1, (2,)).items()) == {(2,): 1, (0,): 1, (-2,): 1}
    for m in range(31):
        assert dict(weyl_character(A1, (m,)).items()) == oracles.a1_weyl_character_weights(m)
    with pytest.raises(DomainError):
        weyl_character(A1, (-1,))


def test_non_integer_highest_weights_never_reach_the_cache():
    # A float or bool coordinate used to be cached under a key equal to the
    # int weight's, so the int call that followed returned float weights.
    weyl_character.cache_clear()
    for bad in ((1.0, 0), (True, 0), (1, False), (1, 0.0), (Fraction(1), 0)):
        with pytest.raises(DomainError):
            weyl_character(G2, bad)
    chi = weyl_character(G2, (1, 0))
    assert all(type(x) is int for w in chi.support() for x in w)
    assert type(chi.dim()) is int and chi.dim() == 7
    assert chi.to_dict() == {"weights": [{"w": list(w), "mult": 1} for w in sorted(chi.support())]}
    assert all(type(x) is int for e in chi.to_dict()["weights"] for x in e["w"])
    assert repr(char_to_class(G2, chi)) == "KElement({[1, 0]:1})"


def test_non_integer_highest_weights_are_rejected_on_a_warm_cache():
    # lru_cache keys (1.0, 0) and (True, 0) equal to (1, 0); the weight is
    # checked before the lookup, so the order of the calls does not matter.
    for bad in ((1.0, 0), (True, 0)):
        for warm_first in (False, True):
            weyl_character.cache_clear()
            if warm_first:
                weyl_character(G2, (1, 0))
            with pytest.raises(DomainError):
                weyl_character(G2, bad)
            if not warm_first:
                assert weyl_character(G2, (1, 0)).dim() == 7
            with pytest.raises(DomainError):
                weyl_character(G2, bad)


def test_uncached_weyl_character_leaves_the_cache_alone():
    weyl_character.cache_clear()
    chi = weyl_character(A2, (2, 1))
    assert weyl_character(A2, (2, 1)) == chi
    before = weyl_character.cache_info()
    assert before.misses == 2 and before.currsize == 1
    assert weyl_character.__wrapped__(A2, (2, 1)) == chi
    assert weyl_character.__wrapped__(A2, (3, 0)) == weyl_character(A2, (3, 0))
    assert weyl_character.cache_info().misses == before.misses + 1
    before = weyl_character.cache_info()
    weyl_character.__wrapped__(B2, (1, 1))
    assert weyl_character.cache_info() == before
    with pytest.raises(DomainError):
        weyl_character.__wrapped__(G2, (1.0, 0))
    weyl_character.cache_clear()
    assert weyl_character.cache_info().currsize == 0


def _cached_terms() -> int:
    # The terms the Weyl-character cache holds, counted afresh; a ghost (a
    # key asked for once, held without its character) counts one.
    terms = sum(1 if chi is None else len(chi) for chi in characters._weyl_cache.values())
    assert terms == characters._weyl_terms
    return terms


def _cached(rs, weight) -> bool:
    # Whether the cache holds the character itself, not a ghost.
    return characters._weyl_cache.get((rs, weight)) is not None


def test_weyl_cache_holds_at_most_its_term_budget():
    # The G2 targets Delta(p . lam) of the twist identity at p = 5 and 7
    # hold 65,780 terms together, twice the budget.  Each is asked for
    # twice, so that it is kept.
    weyl_character.cache_clear()
    total = 0
    for p in (5, 7):
        for size in range(4):
            for a in range(size + 1):
                target = dot_multiply(p, (a, size - a))
                total += len(weyl_character(G2, target))
                weyl_character(G2, target)
                assert _cached(G2, target) and _cached_terms() <= 2**15
    assert total > 2**15
    assert weyl_character.cache_info().maxsize == 2**15
    # The most recent target is kept.
    assert _cached(G2, dot_multiply(7, (3, 0)))


def test_oversized_weyl_character_is_returned_but_not_kept():
    # Not even on its second request, which would keep a smaller one.
    weyl_character.cache_clear()
    weyl_character(A2, (1, 1))
    small = weyl_character(A2, (1, 1))
    big = weyl_character(A2, (120, 120))
    assert len(big) > 2**15
    assert big == weyl_character.__wrapped__(A2, (120, 120))
    assert big.dim() == oracles.weyl_dimension("A", 2, (120, 120))
    assert weyl_character(A2, (120, 120)) == big
    assert not _cached(A2, (120, 120)) and _cached(A2, (1, 1))
    assert _cached_terms() == len(small) + 1  # the big one's ghost
    # Not kept, so asking again is another miss, and evicts nothing.
    info = weyl_character.cache_info()
    assert weyl_character(A2, (120, 120)) == big
    assert weyl_character.cache_info().misses == info.misses + 1
    assert weyl_character(A2, (1, 1)) is small
    assert weyl_character.cache_info().hits == info.hits + 1


def test_weyl_cache_hit_protects_an_entry_from_the_next_eviction(monkeypatch):
    # A3's (1, 0, 0) and (0, 0, 1) have 4 terms each and rank 3, so each is
    # kept from its first request; A2's (1, 1) has 7 and rank 2, so it is
    # kept from its second.  With a budget of 11, keeping (1, 1) evicts one
    # of the first two.
    monkeypatch.setattr(characters, "_WEYL_CACHE_TERMS", 11)
    first, last = (A3, (1, 0, 0)), (A3, (0, 0, 1))
    for touched, dropped in ((first, last), (last, first)):
        weyl_character.cache_clear()
        for key in (first, last, touched, (A2, (1, 1))):
            weyl_character(*key)
        # The ghost of (1, 1) is charged one term.
        assert _cached_terms() == 9 and not _cached(A2, (1, 1))
        weyl_character(A2, (1, 1))
        assert _cached(*touched) and _cached(A2, (1, 1)) and not _cached(*dropped)
        assert _cached_terms() == 11
        assert weyl_character.cache_info() == (1, 4, 11, 2)
    # Without the hit, the oldest entry goes first.
    weyl_character.cache_clear()
    for key in (first, last, (A2, (1, 1)), (A2, (1, 1))):
        weyl_character(*key)
    assert list(characters._weyl_cache) == [last, (A2, (1, 1))]
    # A ghost evicts like a one-term character: at 11 terms, the ghost of
    # (2, 1) drops the least recently used character.
    weyl_character(A2, (2, 1))
    assert list(characters._weyl_cache) == [(A2, (1, 1)), (A2, (2, 1))]
    assert _cached_terms() == 8 and weyl_character.cache_info().currsize == 1


def test_weyl_cache_clear_empties_the_cache_and_resets_its_counts():
    # Two characters and the ghost of (0, 2), which currsize leaves out.
    weyl_character.cache_clear()
    for weight in ((1, 1), (1, 1), (2, 1), (2, 1), (1, 1), (0, 2)):
        weyl_character(B2, weight)
    assert weyl_character.cache_info() == (1, 5, 2**15, 2)
    assert len(characters._weyl_cache) == 3
    assert _cached_terms() > 0
    weyl_character.cache_clear()
    assert weyl_character.cache_info() == (0, 0, 2**15, 0)
    assert _cached_terms() == 0 and not characters._weyl_cache
    # The ghost went too: (0, 2) is a first request again.
    weyl_character(B2, (0, 2))
    assert weyl_character.cache_info() == (0, 1, 2**15, 0)


def test_weyl_cache_names_the_benchmark_reads():
    # The benchmark's tracer counts a call's misses as the rise of
    # cache_info().misses across it, and its worker finds the cached function
    # by following __wrapped__ to the first value with cache_info, then binds
    # that value's __wrapped__ to run uncached.
    weyl_character.cache_clear()

    def traced(*args):
        return weyl_character(*args)

    traced.__wrapped__ = weyl_character
    found = traced
    while not hasattr(found, "cache_info"):
        found = found.__wrapped__
    assert found is weyl_character
    uncached = found.__wrapped__
    assert not hasattr(uncached, "cache_info")
    # A first request leaves a ghost and misses; the second misses again
    # and keeps the character; the third hits.
    for weight, missed in (((2, 1), 1), ((2, 1), 1), ((1, 2), 1), ((2, 1), 0)):
        before = weyl_character.cache_info().misses
        traced(G2, weight)
        assert weyl_character.cache_info().misses - before == missed
    info = weyl_character.cache_info()
    assert uncached(G2, (3, 3)) == weyl_character(G2, (3, 3))
    assert uncached(G2, (2, 1)) == weyl_character(G2, (2, 1))
    assert weyl_character.cache_info() == (info.hits + 1, info.misses + 1, 2**15, 1)


def _twist_sweep():
    # The twist identity ch St * (ch Delta(lam))^(1) = ch Delta(p . lam) as a
    # rank2-steinberg benchmark round sweeps it, whatever its seed: A2, B2
    # and G2 at p = 2, 3, 5, 7 and every lam with |lam| <= 3.
    for rs in RANK2:
        for p in (2, 3, 5, 7):
            st = steinberg_character(rs, p)
            for size in range(4):
                for a in range(size + 1):
                    lam = (a, size - a)
                    lhs = tensor(st, frobenius_twist(weyl_character(rs, lam), 1, p))
                    assert lhs == weyl_character(rs, dot_multiply(p, lam))


def test_weyl_cache_retains_a_bounded_amount_of_memory():
    # An entry-count bound kept all 147 characters of the sweep, 11 MB; the
    # term budget alone kept about 3.5 MB, most of it characters asked for
    # once; keeping a character only from its second request keeps 0.3 MB.
    weyl_character.cache_clear()
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _twist_sweep()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert _cached_terms() <= 2**15
    assert retained < 1_000_000, retained


def _by_recursion(rs) -> bool:
    # Whether Freudenthal's recursion computes the characters, not Weyl's formula.
    return rs.rank > characters._DENSE_RANK


def test_weyl_characters_asked_for_once_are_not_kept():
    # Weyl's formula computes every rank-2 character.
    weyl_character.cache_clear()
    keys = [(rs, (a, b)) for rs in RANK2 for a in range(6) for b in range(6)]
    for rs, weight in keys:
        assert not _by_recursion(rs)
        weyl_character(rs, weight)
    assert weyl_character.cache_info() == (0, len(keys), 2**15, 0)
    assert list(characters._weyl_cache) == keys
    assert _cached_terms() == len(keys)


def test_characters_of_the_recursion_are_kept_from_their_first_request():
    # Rank 3 to 6.
    C3, D4, F4, E6 = (build_root_system(*key)
                      for key in (("C", 3), ("D", 4), ("F", 4), ("E", 6)))
    keys = [(A3, (1, 0, 0)), (A3, (0, 1, 1)), (B3, (0, 0, 1)), (C3, (0, 0, 0)),
            (D4, (0, 1, 0, 0)), (F4, (0, 0, 0, 1)), (E6, (1, 0, 0, 0, 0, 0))]
    weyl_character.cache_clear()
    for rs, weight in keys:
        assert _by_recursion(rs)
        assert weyl_character(rs, weight) == weyl_character.__wrapped__(rs, weight)
        assert _cached(rs, weight)
    assert weyl_character.cache_info() == (0, len(keys), 2**15, len(keys))
    for rs, weight in keys:
        weyl_character(rs, weight)
    assert weyl_character.cache_info() == (len(keys), len(keys), 2**15, len(keys))
    assert _cached_terms() == sum(len(characters._weyl_cache[key]) for key in keys)
    weyl_character.cache_clear()


def _admit(model, key, size, recursion, budget):
    # The cache's rule in brief, on a model mapping each key to the size of
    # the character it keeps, or None for a ghost; least recently used first.
    second = key in model
    model.setdefault(key, None)
    model.move_to_end(key)
    if model[key] is None and (second or recursion) and size <= budget:
        model[key] = size
    while sum(1 if kept is None else kept for kept in model.values()) > budget:
        model.popitem(last=False)


def test_weyl_cache_follows_its_admission_rule_on_random_requests(monkeypatch):
    # Characters of 1 to 37 terms against a budget of 20: some fit together,
    # some evict all others, and (3, 3) on A2 or B2 never fits.  Weyl's
    # formula computes the 32 of A2 and B2; Freudenthal's recursion the 10
    # of A3 and B3, of 1 to 19 terms.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget = 20
    monkeypatch.setattr(characters, "_WEYL_CACHE_TERMS", budget)
    keys = [(rs, (a, b)) for rs in (A2, B2) for a in range(4) for b in range(4)]
    keys += [(A3, w) for w in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1),
                               (0, 1, 1), (1, 1, 0))]
    keys += [(B3, w) for w in ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
    recursion = {key: _by_recursion(key[0]) for key in keys}
    assert sum(recursion.values()) == 10

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.sampled_from(keys), max_size=40))
    def check(requests):
        weyl_character.cache_clear()
        model, hits = OrderedDict(), 0
        for calls, key in enumerate(requests, 1):
            hits += model.get(key) is not None
            chi = weyl_character(*key)
            assert chi == weyl_character.__wrapped__(*key)
            _admit(model, key, len(chi), recursion[key], budget)
            assert _cached_terms() <= budget
            assert list(characters._weyl_cache) == list(model)
            kept = {k for k, v in model.items() if v is not None}
            assert {k for k, v in characters._weyl_cache.items() if v is not None} == kept
            assert weyl_character.cache_info() == (hits, calls - hits, budget, len(kept))

    try:
        check()
    finally:
        weyl_character.cache_clear()


def test_mixed_ranks_are_rejected():
    with pytest.raises(DomainError):
        Character({(1,): 1, (1, 2): 1})
    with pytest.raises(DomainError):
        Character([((1, 2), 1), ((1,), -1)])
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(DomainError):
            op(Character({(1,): 1}), Character({(1, 2): 1}))
        # An empty value has no rank, and a zero multiplicity is no weight.
        assert op(Character(), Character({(1, 2): 1})).dim() in (1, -1)
    assert Character({(1,): 0, (1, 2): 1}) == Character({(1, 2): 1})


def test_a2_adjoint_character():
    chi = weyl_character(A2, (1, 1))
    assert chi.dim() == 8
    assert chi.mult((0, 0)) == 2
    assert chi.mult((1, 1)) == 1
    assert len(chi) == 7


@pytest.mark.parametrize("rs", RANK2, ids=lambda r: repr(r))
def test_dimensions_match_weyl_formula(rs):
    # G2 at p = 7 reaches (6, 27) and (27, 6) in the benchmark's sweep.
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (0, 3), (4, 0), (6, 27), (27, 6)]:
        expected = oracles.weyl_dimension(rs.series, rs.rank, lam)
        assert weyl_character(rs, lam).dim() == expected


@pytest.mark.parametrize("rs", RANK2, ids=lambda r: repr(r))
def test_multiplicities_match_partition_function_formula(rs):
    group = oracles.weyl_group(rs)
    # Weyl's formula computes every one of these; G2's roots reach +-3 in
    # fundamental coordinates, so its box reaches far outside the dominant
    # chamber at (3, 0), (0, 3) and (4, 1).
    for lam in [(1, 1), (2, 0), (2, 2), (1, 3), (3, 0), (0, 3), (4, 1)]:
        expected = oracles.character_by_weyl_sum(rs, group, lam)
        assert dict(weyl_character(rs, lam).items()) == expected


def test_weyl_characters_are_weyl_invariant_with_normalized_top():
    for rs, lam in [(A2, (2, 1)), (B2, (1, 2)), (G2, (1, 1))]:
        chi = weyl_character(rs, lam)
        require_w_invariant(rs, chi)
        assert chi.mult(lam) == 1
        seen_tops = [w for w in chi.support() if make_dominant(rs, w)[0] == lam]
        assert set(seen_tops) == oracles.orbit_by_search(rs, lam)
        # Support lies under lam: the gap has nonnegative root coordinates.
        for w in chi.support():
            gap = tuple(a - b for a, b in zip(lam, w))
            coords = oracles.root_coordinates(rs, gap)
            assert all(c >= 0 and c.denominator == 1 for c in coords)


def test_tensor_unit_and_hand_values():
    chi = weyl_character(A2, (1, 1))
    unit = Character({(0, 0): 1})
    assert tensor(chi, unit) == chi
    d1 = weyl_character(A1, (1,))
    assert dict(tensor(d1, d1).items()) == {(2,): 1, (0,): 2, (-2,): 1}
    assert tensor(Character(), chi) == Character()
    with pytest.raises(DomainError):
        tensor(d1, chi)  # mismatched ranks


def test_tensor_dim_multiplicative_and_commutative():
    rng = random.Random(7)
    for rs in [A1, A2, B2]:
        for _ in range(8):
            a = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            b = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            ca, cb = weyl_character(rs, a), weyl_character(rs, b)
            prod = tensor(ca, cb)
            assert prod.dim() == ca.dim() * cb.dim()
            assert prod == tensor(cb, ca)


def test_a1_tensor_matches_clebsch_gordan():
    for a in range(5):
        for b in range(5):
            total = Character()
            for k in oracles.a1_clebsch_gordan(a, b):
                total = total + weyl_character(A1, (k,))
            assert tensor(weyl_character(A1, (a,)), weyl_character(A1, (b,))) == total


def test_frobenius_twist():
    chi = Character({(1,): 1, (-1,): 1})
    assert dict(frobenius_twist(chi, 1, 3).items()) == {(3,): 1, (-3,): 1}
    assert frobenius_twist(chi, 0, 3) == chi
    big = weyl_character(B2, (2, 1))
    assert frobenius_twist(big, 2, 2).dim() == big.dim()
    with pytest.raises(DomainError):
        frobenius_twist(chi, -1, 3)
    for p in (1, 0, -3):
        for r in (0, 1):
            with pytest.raises(DomainError, match="p >= 2"):
                frobenius_twist(chi, r, p)


def test_steinberg_characters():
    assert steinberg_character(A1, 3) == weyl_character(A1, (2,))
    assert dict(steinberg_character(A1, 2).items()) == {(1,): 1, (-1,): 1}
    st2 = steinberg_character(A1, 3, r=2)
    assert st2 == weyl_character(A1, (8,))
    assert st2.dim() == 9
    with pytest.raises(ConfigurationError):
        steinberg_character(A1, 2, lattice=Lattice.ADJOINT)


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda r: repr(r))
@pytest.mark.parametrize("p", [2, 3])
def test_steinberg_factorizes_into_twisted_layers(rs, p):
    # St_r equals the product of the twisted first Steinberg characters.
    for r in (1, 2):
        prod = Character({(0,) * rs.rank: 1})
        for j in range(r):
            prod = tensor(prod, frobenius_twist(steinberg_character(rs, p), j, p))
        assert prod == steinberg_character(rs, p, r)


def test_euler_characteristic_examples():
    assert not euler_characteristic(A1, (-1,))
    assert euler_characteristic(A1, (-2,)) == -weyl_character(A1, (0,))
    assert euler_characteristic(A1, (3,)) == weyl_character(A1, (3,))
    # Dot-reflecting the argument flips the sign.
    rng = random.Random(13)
    for rs in [A2, B2, G2]:
        for _ in range(10):
            lam = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
            base = euler_characteristic(rs, lam)
            for w, sign in oracles.weyl_group(rs):
                assert euler_characteristic(rs, oracles.dot(w, lam)) == sign * base


def test_contract_weights():
    d5 = weyl_character(A1, (5,))
    assert dict(contract_weights(d5, 3).items()) == {(1,): 1, (-1,): 1}
    assert dict(contract_weights(steinberg_character(A1, 3), 3).items()) == {(0,): 1}
    rng = random.Random(3)
    for rs in [A1, A2, G2]:
        for p in (2, 3, 5):
            for _ in range(5):
                lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
                chi = weyl_character(rs, lam)
                assert contract_weights(frobenius_twist(chi, 1, p), p) == chi


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda r: repr(r))
@pytest.mark.parametrize("p", [2, 3])
def test_steinberg_twist_identity_small(rs, p):
    # ch St * (ch Delta(lam))^(1) = ch Delta(p . lam); the full sweep is in
    # the acceptance suite.
    st = steinberg_character(rs, p)
    for lam in [(0,) * rs.rank, (1,) * rs.rank, (2,) + (0,) * (rs.rank - 1)]:
        lhs = tensor(st, frobenius_twist(weyl_character(rs, lam), 1, p))
        assert lhs == weyl_character(rs, dot_multiply(p, lam))


def test_steinberg_twist_identity_euler_level():
    for rs in [A1, A2]:
        st = steinberg_character(rs, 3)
        for lam in [(-2,) * rs.rank, (-1, 3)[: rs.rank], (2, -4)[: rs.rank]]:
            lhs = tensor(st, frobenius_twist(euler_characteristic(rs, lam), 1, 3))
            assert lhs == euler_characteristic(rs, dot_multiply(3, lam))


def test_payloads_naming_a_weight_twice_are_rejected():
    # Summing the entries would hide the error: +1 and -1 at one weight
    # would give the zero character, coefficients 2 and 3 a single 5.
    for cls, payload in (
        (Character, {"weights": [{"w": [1], "mult": 1}, {"w": [1], "mult": -1}]}),
        (Character, {"weights": [{"w": [1, 0], "mult": 1}, {"w": [0, 1], "mult": 2},
                                 {"w": [1, 0], "mult": 1}]}),
        (Character, {"weights": [{"w": [0], "mult": 0}, {"w": [0], "mult": 3}]}),
        (KElement, {"terms": [{"w": [1], "coeff": 2}, {"w": [1], "coeff": 3}]}),
    ):
        with pytest.raises(ValueError, match="twice"):
            cls.from_dict(payload)
    # to_dict writes each weight once, so its payloads load back.
    for value in (weyl_character(G2, (2, 1)) - weyl_character(G2, (0, 1)),
                  char_to_class(B2, tensor(weyl_character(B2, (1, 1)), weyl_character(B2, (0, 1))))):
        data = value.to_dict()
        entries = data.get("weights", data.get("terms"))
        assert len({tuple(e["w"]) for e in entries}) == len(entries) == len(value)
        assert type(value).from_dict(data) == value


def test_character_equality_is_pointwise_and_serialization_roundtrips():
    chi = weyl_character(B2, (1, 1)) - 2 * weyl_character(B2, (0, 1))
    data = chi.to_dict()
    assert Character.from_dict(data) == chi
    for bad in (
        {"weights": [{"w": [1.5], "mult": 1}]},
        {"weights": [{"w": [1], "mult": 1.5}]},
        {"weights": [{"w": [1], "mult": True}]},
        {"weights": [{"w": [1]}]},
        {"weights": ""},
        {"weights": {}},
        [],
    ):
        with pytest.raises(ValueError):
            Character.from_dict(bad)
    # Canonical ordering: lexicographic by coordinates.
    ws = [entry["w"] for entry in data["weights"]]
    assert ws == sorted(ws)
    assert Character(dict(chi.items())) == chi
    assert Character() == Character({(0, 0): 0})
    assert not Character()
    # Scaling takes integers only.
    for scalar in (0.5, Fraction(1, 3), True, 2.0, "2"):
        with pytest.raises(TypeError):
            scalar * chi
        with pytest.raises(TypeError):
            chi * scalar
    assert 3 * chi == chi * 3 == chi + chi + chi


def test_w_invariance_rejection():
    # Value mismatch within an orbit.
    with pytest.raises(DomainError):
        require_w_invariant(A2, Character({(1, 0): 1, (-1, 1): 2, (0, -1): 1}))
    # Incomplete orbit.
    with pytest.raises(DomainError):
        require_w_invariant(A2, Character({(1, 0): 1}))
    # Signed combinations of Weyl characters are fine, also when scanned.
    chi = weyl_character(A2, (1, 1)) - 3 * weyl_character(A2, (1, 0))
    require_w_invariant(A2, chi)
    require_w_invariant(A2, Character(chi.items()))


RANK_AT_MOST_3 = [(s, r) for s, r in sorted(oracles.POSITIVE_ROOT_COUNTS) if r <= 3]


@pytest.mark.parametrize("series,rank", RANK_AT_MOST_3)
def test_library_built_values_carry_invariance(series, rank):
    # Every value the library tags as invariant for rs is invariant by the
    # orbit count, whichever construction built it.
    rs = build_root_system(series, rank)
    rng = random.Random(f"tag/{series}{rank}")
    small = [tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(3)]
    chis = [weyl_character(rs, lam) for lam in small]
    a, b, c = chis
    values = chis + [
        a + b, a - c, -b, 3 * a, a * -2, 0 * c, Character() + b, a + Character(), a - a,
        tensor(a, b), a * c, tensor(Character(), a),
        frobenius_twist(b, 1, 2), frobenius_twist(c, 2, 3),
        steinberg_character(rs, 2),
        contract_weights(tensor(a, b), 2), contract_weights(c, 3),
    ]
    for _ in range(4):
        lam = tuple(rng.randint(-4, 3) for _ in range(rank))
        values.append(euler_characteristic(rs, lam))
    values.append(euler_characteristic(rs, (-1,) * rank))  # singular: empty
    classes = [
        KElement({lam: rng.choice((-2, -1, 1, 3)) for lam in small}),
        KElement({lam: 1 for lam in small[:1]}),
        KElement(),
    ]
    values += [class_to_char(rs, el) for el in classes]
    for chi in values:
        assert chi._invariant_for is rs, chi
        assert oracles.w_invariant_by_orbits(rs, chi), chi
        require_w_invariant(rs, Character(chi.items()))
    # One pass through class_to_char gives the same sum as adding up.
    el = classes[0]
    total = Character()
    for lam, coeff in el.items():
        total = total + coeff * weyl_character(rs, lam)
    assert class_to_char(rs, el) == total


def test_invariance_tag_is_invisible():
    chi = weyl_character(B2, (1, 1)) - weyl_character(B2, (0, 1))
    plain = Character(chi.items())
    assert chi._invariant_for is B2 and plain._invariant_for is None
    assert chi == plain and plain == chi
    assert repr(chi) == repr(plain)
    assert chi.to_dict() == plain.to_dict()
    assert Character.from_dict(chi.to_dict()) == chi
    assert Character._raw({}, A2) == Character()


def test_untagged_values_are_scanned():
    bad = Character({(1, 0): 1})
    a2 = weyl_character(A2, (1, 0))
    b2 = weyl_character(B2, (1, 0))
    # Neither constructor tags, even for invariant input.
    assert Character(a2.items())._invariant_for is None
    assert Character.from_dict(a2.to_dict())._invariant_for is None
    # Mixing root systems, or an untagged operand, drops the tag.
    for chi in (a2 + b2, a2 - b2, tensor(a2, b2), a2 + bad, tensor(a2, bad),
                frobenius_twist(bad, 1, 2), contract_weights(bad, 2), -bad, 2 * bad):
        assert chi._invariant_for is None, chi
    for chi in (a2 + b2, tensor(a2, b2), a2 + bad, tensor(a2, bad), -bad, 2 * bad):
        assert not oracles.w_invariant_by_orbits(A2, chi)
        with pytest.raises(DomainError, match="not Weyl-invariant"):
            require_w_invariant(A2, chi)
    # A tag names one root system: an A2 value checked against B2 is scanned.
    assert not oracles.w_invariant_by_orbits(B2, a2)
    with pytest.raises(DomainError, match="not Weyl-invariant"):
        require_w_invariant(B2, a2)
