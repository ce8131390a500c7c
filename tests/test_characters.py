"""Character arithmetic: Weyl characters, products, twists, contractions."""

import collections
import copy
import gc
import itertools
import pickle
import random
import sys
import threading
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import pytest

import oracles
from steinberg import characters, grothendieck, kronecker
from steinberg import (
    Character,
    ConfigurationError,
    DomainError,
    KElement,
    Lattice,
    RootSystem,
    build_root_system,
    char_to_class,
    class_to_char,
    contract_weights,
    dot_multiply,
    euler_characteristic,
    frobenius_contract_class,
    frobenius_twist,
    make_dominant,
    steinberg_character,
    steinberg_delta_multiplicity,
    tensor,
    tensor_delta_expansion,
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


def _key(rs, weight) -> tuple:
    # The cache's key for the Weyl character at weight.
    return rs, weight


def _holds_weyl_characters_only() -> bool:
    # Every key of the cache is one highest weight, and every value held
    # is the Weyl character there, never a product.
    return all(all(type(x) is int for x in weight) and (chi is None or chi._highest == weight)
               for (_, weight), chi in characters._weyl_cache.items())


def _cached(rs, weight) -> bool:
    # Whether the cache holds the character itself, not a ghost.
    return characters._weyl_cache.get(_key(rs, weight)) is not None


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


def test_oversized_weyl_character_is_returned_but_not_kept(monkeypatch):
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
    # One of rank 3 is admitted at its first request, so it leaves no ghost:
    # A3's (1, 1, 1) has 38 terms, over a budget of 37.
    monkeypatch.setattr(characters, "_WEYL_CACHE_TERMS", 37)
    weyl_character.cache_clear()
    for misses in (1, 2):
        assert len(weyl_character(A3, (1, 1, 1))) == 38
        assert not characters._weyl_cache and _cached_terms() == 0
        assert weyl_character.cache_info() == (0, misses, 37, 0)


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
    assert list(characters._weyl_cache) == [_key(*last), _key(A2, (1, 1))]
    # A ghost evicts like a one-term character: at 11 terms, the ghost of
    # (2, 1) drops the least recently used character.
    weyl_character(A2, (2, 1))
    assert list(characters._weyl_cache) == [_key(A2, (1, 1)), _key(A2, (2, 1))]
    assert _cached_terms() == 8 and weyl_character.cache_info().currsize == 1


def test_a_character_stored_while_this_call_computed_is_returned(monkeypatch):
    # Another caller stores A3's (1, 0, 0) while this call computes it (a
    # rank-3 character is kept from its first miss).  This call returns the
    # stored character, and its terms are counted once.
    weyl_character.cache_clear()
    real, stored = characters._weyl_character, []

    def racing(rs, lam):
        if not stored:
            stored.append(None)
            stored.append(weyl_character(rs, lam))  # the other caller, done first
        return real(rs, lam)

    monkeypatch.setattr(characters, "_weyl_character", racing)
    chi = weyl_character(A3, (1, 0, 0))
    assert chi is stored[1] and _cached(A3, (1, 0, 0))
    assert _cached_terms() == len(chi) == 4
    assert weyl_character.cache_info() == (0, 2, 2**15, 1)
    weyl_character.cache_clear()


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
    assert list(characters._weyl_cache) == [_key(*key) for key in keys]
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
    assert _cached_terms() == sum(len(characters._weyl_cache[_key(*key)]) for key in keys)
    weyl_character.cache_clear()


def _admit(model, key, size, recursion, budget):
    # The cache's rule in brief, on a model mapping each key to the size of
    # the character it keeps, or None for a ghost; least recently used first.
    # A miss on a ghost or of the recursion is admitted and kept if it fits;
    # any other miss leaves a ghost.
    if model.get(key) is None:
        if key not in model and not recursion:
            model[key] = None
        elif size <= budget:
            model[key] = size
    if key in model:
        model.move_to_end(key)
    while sum(1 if kept is None else kept for kept in model.values()) > budget:
        model.popitem(last=False)


def test_weyl_cache_follows_its_admission_rule_on_random_requests(monkeypatch):
    # Characters of 1 to 37 terms against a budget of 20: some fit together,
    # some evict all others, and (3, 3) on A2 or B2 never fits.  Weyl's
    # formula computes the 32 of A2 and B2; Freudenthal's recursion the 10
    # of A3 and B3, of 1 to 19 terms.  A request of two keys of one root
    # system asks for both characters, then for their product by tensor,
    # which hands it out unformed over the two characters at every rank:
    # the cache never sees it.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget = 20
    monkeypatch.setattr(characters, "_WEYL_CACHE_TERMS", budget)
    keys = [(rs, (a, b)) for rs in (A2, B2) for a in range(4) for b in range(4)]
    keys += [(A3, w) for w in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1),
                               (0, 1, 1), (1, 1, 0))]
    keys += [(B3, w) for w in ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
    recursion = {rs: _by_recursion(rs) for rs, _ in keys}
    assert sum(recursion[rs] for rs, _ in keys) == 10
    pairs = [(k, m) for k in keys for m in keys if k[0] is m[0]]

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.one_of(st.sampled_from(keys), st.sampled_from(pairs)),
                               max_size=40))
    def check(requests):
        weyl_character.cache_clear()
        model, hits, lookups = OrderedDict(), 0, 0

        def looked_up(key, chi, expected):
            nonlocal hits, lookups
            assert chi == expected
            lookups += 1
            hits += model.get(key) is not None
            _admit(model, key, len(chi), recursion[key[0]], budget)

        for request in requests:
            product = not isinstance(request[0], RootSystem)
            factors = []
            for key in request if product else (request,):
                factors.append(weyl_character(*key))
                looked_up(_key(*key), factors[-1], weyl_character.__wrapped__(*key))
            if product:
                expected = tensor(*(weyl_character.__wrapped__(*key) for key in request))
                chi = tensor(*factors)
                a, b = chi._pair()
                assert a is factors[0] and b is factors[1] and not chi._formed()
                assert (a._highest, b._highest) == tuple(lam for _, lam in request)
                assert chi == expected and chi._formed() and chi._pair() is None
            assert _cached_terms() <= budget
            assert list(characters._weyl_cache) == list(model)
            kept = {k for k, v in model.items() if v is not None}
            assert {k for k, v in characters._weyl_cache.items() if v is not None} == kept
            assert weyl_character.cache_info() == (hits, lookups - hits, budget, len(kept))

    try:
        check()
    finally:
        weyl_character.cache_clear()


F4 = build_root_system("F", 4)
# Small dominant weights per root system: Weyl's formula on A2, B2 and G2,
# Freudenthal's recursion on A3 and F4.
PRODUCT_WEIGHTS = {
    A2: [(a, b) for a in range(3) for b in range(3)],
    B2: [(a, b) for a in range(3) for b in range(3)],
    G2: [(a, b) for a in range(3) for b in range(3)],
    A3: [(a, b, c) for a in range(2) for b in range(2) for c in range(2)],
    F4: [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)],
}


@pytest.mark.parametrize("rs", list(PRODUCT_WEIGHTS), ids=repr)
def test_cached_products_are_the_convolutions_of_their_factors(rs):
    # Random multisets of 2 or 3 highest weights, multiplied in random
    # orders from a cold cache, then from a warm one.  No product is kept,
    # at any rank: each request hands out a fresh unformed value over the
    # two factors given, whose first read convolves them and drops the
    # pair.  A product with a formed product is formed at once.
    rng = random.Random(f"products/{rs!r}")
    uncached = weyl_character.__wrapped__
    for _ in range(6):
        lams = [rng.choice(PRODUCT_WEIGHTS[rs]) for _ in range(rng.randint(2, 3))]
        expected = uncached(rs, lams[0])
        for lam in lams[1:]:
            expected = Character._raw(characters._convolve(expected, uncached(rs, lam)), rs)
        weyl_character.cache_clear()
        for _ in range(3):
            order = rng.sample(lams, len(lams))
            chi = weyl_character(rs, order[0])
            assert chi._highest == order[0]
            for lam in order[1:]:
                chi = tensor(chi, weyl_character(rs, lam))
                assert not chi._formed() and chi._highest is None
            assert chi == expected and chi._invariant_for is rs
            assert chi._formed() and chi._pair() is None
        a, b = weyl_character(rs, order[0]), weyl_character(rs, order[1])
        if len(lams) == 3:
            b = tensor(b, weyl_character(rs, order[2]))
        ab, ba = tensor(a, b), tensor(b, a)
        assert ab is not ba and ab._highest is ba._highest is None
        assert [list(map(id, x._pair())) for x in (ab, ba)] == [[id(a), id(b)], [id(b), id(a)]]
        assert not ab._formed() and ab == ba == expected and ab._formed()
        assert ab._pair() is ba._pair() is None
        assert tensor(ab, a)._pair() is None and tensor(a, ab)._pair() is None
        assert _holds_weyl_characters_only()
    weyl_character.cache_clear()


# Small fundamental weights (0-based) per type, as the benchmark's
# highrank-classes workload pairs them.
HIGHRANK_FUNDAMENTALS = {("D", 5): (0, 1, 3, 4), ("F", 4): (0, 2, 3), ("B", 5): (0, 4),
                         ("E", 6): (0, 5)}


def test_products_above_rank_two_are_expanded_and_contracted_without_convolving(monkeypatch):
    # The Weyl-basis work of a highrank-classes round, on every pair of its
    # fundamental weights, from a cold cache: char_to_class of the product,
    # tensor_delta_expansion, and the product's contraction class and a
    # Steinberg multiplicity at p = 2 and 3.  _convolve never runs, where
    # forming each product would run it once per pair.  The tracer of
    # bench/tracer.py counts len() of what tensor returns, which forms an
    # unformed product, so its traced characters.tensor counts do not show
    # this.  Each result is then checked against the formed product.
    convolved = []
    real = characters._convolve

    def spy(a, b):
        convolved.append((a, b))
        return real(a, b)

    monkeypatch.setattr(characters, "_convolve", spy)
    weyl_character.cache_clear()
    results = []
    for key, indices in HIGHRANK_FUNDAMENTALS.items():
        rs = build_root_system(*key)
        fundamental = [tuple(int(j == i) for j in range(rs.rank)) for i in indices]
        for lam, mu in itertools.combinations_with_replacement(fundamental, 2):
            chi = tensor(weyl_character(rs, lam), weyl_character(rs, mu))
            out = [char_to_class(rs, chi),
                   tensor_delta_expansion(rs, lam, weyl_character(rs, mu))]
            for p in (2, 3):
                out += [contract_weights(chi, p), frobenius_contract_class(rs, chi, p),
                        steinberg_delta_multiplicity(rs, chi, (0,) * rs.rank, p)]
            assert not chi._formed()
            results.append((rs, lam, mu, out))
    assert len(results) == 22 and convolved == []
    for rs, lam, mu, out in results:
        uncached = weyl_character.__wrapped__
        formed = Character._raw(real(uncached(rs, lam), uncached(rs, mu)), rs)
        expected = [char_to_class(rs, formed)] * 2
        for p in (2, 3):
            contracted = frobenius_contract_class(rs, formed, p)
            expected += [contract_weights(formed, p), contracted, contracted.coeff((0,) * rs.rank)]
        assert out == expected, (rs, lam, mu)
    weyl_character.cache_clear()


def test_char_to_class_forms_the_rest_of_a_product_once(monkeypatch):
    # D5's (omega_1 (x) omega_2) (x) omega_5, expanded 201 times: Brauer-
    # Klimyk takes the single Weyl character omega_5 as top and the inner
    # product, the caller's own value, as N, whose terms the first call
    # forms by one convolution.  No call looks a Weyl character up, and
    # the outer product is never formed.  An N built anew from the
    # product's factors on each call would be convolved 201 times.
    D5 = build_root_system("D", 5)
    omega = [tuple(int(j == i) for j in range(5)) for i in range(5)]
    uncached = weyl_character.__wrapped__
    formed = tensor(tensor(uncached(D5, omega[0]), uncached(D5, omega[1])), uncached(D5, omega[4]))
    expected = char_to_class(D5, formed)
    weyl_character.cache_clear()
    inner = tensor(weyl_character(D5, omega[0]), weyl_character(D5, omega[1]))
    chi = tensor(inner, weyl_character(D5, omega[4]))
    convolved = []
    real = characters._convolve

    def spy(a, b):
        convolved.append((a, b))
        return real(a, b)

    def refuse(*args):
        raise AssertionError("char_to_class looked up a Weyl character")

    monkeypatch.setattr(characters, "_convolve", spy)
    monkeypatch.setattr(characters, "_cached", refuse)
    pair = inner._pair()
    for _ in range(201):
        assert char_to_class(D5, chi) == expected
    assert len(convolved) == 1 and all(x is y for x, y in zip(convolved[0], pair))
    assert inner._formed() and inner._pair() is None and not chi._formed()
    weyl_character.cache_clear()


def test_values_built_outside_the_cache_never_reach_it():
    # Only what the cache hands out carries _highest; tensor on anything
    # else, or on cached values of two root systems, neither looks up nor
    # stores, and forms the product at once, holding no pair.
    weyl_character.cache_clear()
    C2 = build_root_system("C", 2)
    a, b = weyl_character(B2, (1, 0)), weyl_character(B2, (1, 1))
    other = weyl_character(C2, (1, 0))
    plain = [weyl_character.__wrapped__(B2, (1, 0)), Character(a.items()),
             Character.from_dict(a.to_dict()), frobenius_twist(a, 1, 2), a + b, a - b, -a,
             2 * a, contract_weights(b, 2), class_to_char(B2, char_to_class(B2, b)),
             euler_characteristic(B2, (-3, 0))]
    assert all(chi._highest is None for chi in plain)
    before = list(characters._weyl_cache), weyl_character.cache_info()
    for x in plain:
        for y in (x, a, b):
            for chi in (tensor(x, y), tensor(y, x)):
                assert chi._highest is None and chi._pair() is None
    assert tensor(a, other)._highest is None and tensor(a, other)._pair() is None
    assert (list(characters._weyl_cache), weyl_character.cache_info()) == before
    weyl_character.cache_clear()


def test_products_asked_for_by_several_threads_keep_the_cache_consistent():
    # Four threads on two cores ask for the same characters and products at
    # once, switching every microsecond, so lookups interleave with
    # computations.  Every result is right, and a lost update would break
    # the cache's running term count or its lookup counts.  A product is
    # never looked up, so each request makes two lookups.  Every product
    # comes unformed.  An A3 product's contractions at p = 2 and 3 read the
    # residue classes that the threads memoize on the shared A3 characters
    # at once, and an A2 product's form it.  The contraction classes of the
    # shared characters are memoized on them at once too.
    keys = [(A3, (1, 0, 0)), (A3, (0, 1, 0)), (A3, (0, 0, 1)), (A2, (1, 1)), (A2, (2, 0))]
    pairs = [(k, m) for k in keys for m in keys if k[0] is m[0]]
    expected = {pair: tensor(*(weyl_character.__wrapped__(*key) for key in pair))
                for pair in pairs}
    contracted = {(pair, p): contract_weights(chi, p) for pair, chi in expected.items()
                  for p in (2, 3)}
    classes = {(key, p): frobenius_contract_class(key[0], weyl_character.__wrapped__(*key), p)
               for key in keys for p in (2, 3)}
    rounds, errors = 200, []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(rounds):
                pair = rng.choice(pairs)
                factors = [weyl_character(*key) for key in pair]
                chi = tensor(*factors)
                p = rng.choice((2, 3))
                if chi._formed() or contract_weights(chi, p) != contracted[pair, p]:
                    errors.append((pair, p))
                key = pair[0]
                if frobenius_contract_class(key[0], factors[0], p) != classes[key, p]:
                    errors.append((key, p))
                if chi != expected[pair]:
                    errors.append(pair)
        except Exception as exc:  # reported below, from the test's thread
            errors.append(exc)

    weyl_character.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    info = weyl_character.cache_info()
    assert info.hits + info.misses == 2 * 4 * rounds
    assert _cached_terms() <= 2**15
    assert _holds_weyl_characters_only()
    weyl_character.cache_clear()


def _unformed_product(rs, lam, mu):
    # The product of two cached Weyl characters: handed out with empty
    # terms over the pair.
    chi = tensor(weyl_character(rs, lam), weyl_character(rs, mu))
    a, b = chi._pair()
    assert (a._highest, b._highest) == (lam, mu) and not chi._formed()
    return chi


def _slotted(chi):
    # chi, asserted to hold the undecoded slots of a kernel or Weyl's formula.
    assert chi._slots() is not None
    return chi


def _deferred_values(rs, lam, mu) -> dict:
    """Makers of fresh values whose terms are not formed, by kind, with their terms.

    An unformed product, a product of two uncached Weyl characters that the
    kernel forms, and the Weyl character at lam by Weyl's formula; the terms
    come from the tuple convolution and Freudenthal's recursion.
    """
    uncached = weyl_character.__wrapped__
    product = Character(oracles.convolve_naive(uncached(rs, lam), uncached(rs, mu)))
    return {
        "unformed product": (lambda: _unformed_product(rs, lam, mu), product),
        "kernel product": (lambda: _slotted(tensor(uncached(rs, lam), uncached(rs, mu))),
                           product),
        "Weyl's formula": (lambda: _slotted(uncached(rs, lam)),
                           Character(characters._freudenthal(rs, lam))),
    }


def test_unformed_products_pickle_and_copy_as_formed_values():
    # Pickle and copy read the terms, so they give formed values, equal to
    # the product, with its tag and nothing pending.  So do values that
    # hold slots.  The product itself drops its pair once formed, as a
    # value with slots drops them once decoded.  A cached Weyl character's
    # clone keeps its highest weight.
    clones = (lambda chi: pickle.loads(pickle.dumps(chi)), copy.deepcopy, copy.copy)
    for rs in RANK2:
        for kind, (make, expected) in _deferred_values(rs, (1, 0), (0, 1)).items():
            for clone in clones:
                chi = make()
                twin = clone(chi)
                assert twin._pending is None and chi._formed() and chi._pair() is None, (rs, kind)
                assert chi._slots() is None and twin == expected == chi, (rs, kind)
                assert twin._invariant_for is rs and twin._highest is chi._highest is None
        for clone in clones:
            assert clone(weyl_character(rs, (1, 0)))._highest == (1, 0)
    weyl_character.cache_clear()


def test_unformed_products_read_like_formed_ones(monkeypatch):
    # Each reader gives on a fresh value whose terms are not formed what it
    # gives on a formed copy with the same tag; == compares the
    # value with a fresh twin of its kind.  Every reader but the tag check
    # forms an unformed product, whether the kernel or the pair loop
    # convolves it; len, bool, dim and == decode no slots, so a value the
    # kernel or Weyl's formula gave keeps them.
    readers = {
        "==": lambda chi, other: chi == other and other == chi,
        "repr": lambda chi, other: repr(chi),
        "len": lambda chi, other: len(chi),
        "bool": lambda chi, other: bool(chi),
        "to_dict": lambda chi, other: chi.to_dict(),
        "dim": lambda chi, other: chi.dim(),
        "require_w_invariant": lambda chi, other: require_w_invariant(chi._invariant_for, chi),
    }
    for rs in RANK2:
        for pair_cost in (characters._PAIR_COST, 0):
            # The pair loop convolves every pair once a pair costs nothing.
            monkeypatch.setattr(characters, "_PAIR_COST", pair_cost)
            for kind, (make, expected) in _deferred_values(rs, (1, 1), (2, 0)).items():
                if pair_cost == 0 and kind != "unformed product":
                    continue
                formed = make()
                len(formed.items())
                assert formed._formed() and formed._slots() is None and formed == expected
                for name, read in readers.items():
                    chi, twin = make(), make()
                    assert read(chi, twin) == read(formed, formed), (rs, kind, name)
                    if kind == "unformed product":
                        formed_now = name != "require_w_invariant"
                    else:
                        formed_now = name in ("repr", "to_dict")
                    assert chi._formed() == formed_now, (rs, kind, name)
                    assert (chi._pair() is None) is (formed_now or kind != "unformed product")
    weyl_character.cache_clear()


def test_unformed_products_read_by_several_threads_at_once():
    # Four threads read one value at once, switching every microsecond, so
    # one may find the terms empty after another has formed them, or find
    # slots that another thread is decoding and then clears.  Every reader
    # sees the whole value, through its slots (len, dim, == against a value
    # with slots over the same box) and through its terms (== against a
    # formed value).  A product drops its pair once formed.
    rs = G2
    errors = []

    def read(chi, twin, expected, barrier, decoder):
        # A decoder reads the terms first; the other threads read the slots
        # twenty times meanwhile, then the terms.
        try:
            barrier.wait()
            right = not decoder or chi == expected
            for _ in range(1 if decoder else 20):
                right = (right and len(chi) == len(expected) and chi.dim() == expected.dim()
                         and chi == twin)
            if not (right and chi == expected):
                errors.append(dict(chi.items()))
        except Exception as exc:  # reported below, from the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind, (make, expected) in _deferred_values(rs, (2, 1), (1, 2)).items():
            for _ in range(100):
                chi, twin = make(), make()
                barrier = threading.Barrier(4, timeout=60)
                threads = [threading.Thread(target=read,
                                            args=(chi, twin, expected, barrier, i % 2))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert chi._formed() and chi._slots() is None and chi._pair() is None, kind
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    weyl_character.cache_clear()


def test_twist_identity_reads_slots_and_decodes_no_weight(monkeypatch):
    # Criterion 1's sweep on A2, B2 and G2 (every lam in [0, 4]^2), at
    # p <= 7: St (x) Delta(lam)^(1) from the kernel and Delta(p . lam) from
    # Weyl's formula hold slots over one box, so == and dim compare and sum
    # slot lists and decode no weight.  A copy with one slot changed
    # compares unequal, also without a decode; a value with slots equals a
    # Character built from its items, once decoded.
    decodes = []
    real = kronecker._weights_at

    def spy(vals, ranges):
        decodes.append(len(vals))
        return real(vals, ranges)

    for module in (kronecker, characters):
        monkeypatch.setattr(module, "_weights_at", spy)
    weyl_character.cache_clear()
    slotted = cases = 0
    for rs in RANK2:
        for p in (2, 3, 5, 7):
            st = steinberg_character(rs, p)
            for lam in itertools.product(range(5), repeat=2):
                cases += 1
                target = dot_multiply(p, lam)
                lhs = tensor(st, frobenius_twist(weyl_character(rs, lam), 1, p))
                rhs = weyl_character(rs, target)
                if lhs._pending is None or rhs._pending is None:
                    assert lhs == rhs, (rs, p, lam)
                    continue
                slotted += 1
                del decodes[:]
                assert lhs._slots()[1] == rhs._slots()[1], (rs, p, lam)
                assert lhs == rhs and rhs == lhs, (rs, p, lam)
                assert lhs.dim() == rhs.dim() == characters._weyl_dimension(rs, target)
                vals, box = lhs._slots()
                changed = list(vals)
                changed[len(changed) // 2] += 1
                other = Character._raw((changed, box), rs)
                assert lhs != other and other != lhs
                assert not decodes, (rs, p, lam)
                built = Character(Character._raw((vals, box), rs).items())
                assert decodes and lhs._pending is not None
                assert lhs == built and built == lhs
                assert lhs._pending is None
    weyl_character.cache_clear()
    print(f"\ntwist identity: {slotted} of {cases} pairs compared slot lists")
    assert slotted


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


def test_repeated_weights_that_cancel_leave_no_term():
    # The constructor sums the entries of a weight and drops it when they cancel.
    for cls in (Character, KElement):
        value = cls([((1,), 2), ((1,), -2)])
        assert not value and value == cls()
    assert Character([((1,), 2), ((0,), 1), ((1,), -2)]) == Character({(0,): 1})


def test_characters_and_classes_do_not_combine():
    # Nor do they compare equal, a character that holds slots included.
    el = KElement({(1,): 1})
    for chi in (Character({(1,): 1}), _slotted(weyl_character.__wrapped__(A1, (1,)))):
        for a, b in ((chi, el), (el, chi)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
            assert a != b and not a == b


def test_a2_adjoint_character():
    chi = weyl_character(A2, (1, 1))
    assert chi.dim() == 8
    assert chi.mult((0, 0)) == 2
    assert chi.mult((1, 1)) == 1
    assert len(chi) == 7


def test_freudenthal_recursion_raises_on_a_non_integer_multiplicity():
    # B3 rebuilt with its symmetrizer reversed is no root datum: the
    # recursion's quotient at (1, 0, 1) below (1, 1, 1) is 278/32.
    b3 = {name: getattr(B3, name) for name in RootSystem.__slots__}
    fake = RootSystem(**{**b3, "symmetrizer": B3.symmetrizer[::-1]})
    with pytest.raises(ArithmeticError, match=r"at \[1, 0, 1\] below \[1, 1, 1\] gave 278/32"):
        characters._freudenthal(fake, (1, 1, 1))


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
    with pytest.raises(ConfigurationError, match="characteristic must be at least 2, got 1"):
        steinberg_character(A1, 1)
    with pytest.raises(ConfigurationError, match="twist degree must be at least 1, got 0"):
        steinberg_character(A1, 3, r=0)


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


def test_contract_weights_matches_per_weight_oracle(monkeypatch):
    # Signed weights, most of whose coordinates are multiples of p, so that
    # some weights fail on one coordinate only, the last included.
    rng = random.Random(19)
    d4 = build_root_system("D", 4)
    for rs in (A1, G2, B3, d4):
        for p in (2, 3, 7):
            terms = {}
            for _ in range(300):
                w = [p * rng.randint(-5, 5) for _ in range(rs.rank)]
                for j in range(rs.rank):
                    if rng.random() < 0.2:
                        w[j] += rng.randint(1, p - 1)
                terms[tuple(w)] = rng.choice((-2, -1, 1, 4))
            chi = Character(terms)
            out = contract_weights(chi, p)
            assert dict(out.items()) == {
                tuple(x // p for x in w): m for w, m in terms.items() if all(x % p == 0 for x in w)
            }
            assert out and out._invariant_for is None
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            assert contract_weights(weyl_character(rs, lam), p)._invariant_for is rs
    for p in (2, 3, 7):
        empty = contract_weights(Character({}), p)
        assert not empty and empty._invariant_for is None
        cancelled = weyl_character(A1, (0,)) - weyl_character(A1, (0,))
        assert contract_weights(cancelled, p)._invariant_for is A1
    # Values that hold slots: random slots over boxes that start anywhere
    # mod p, one box with no multiple of p in a coordinate (an empty
    # sub-grid), a rank-3 Weyl character from the formula, and cached Weyl
    # characters and their unformed products, whose convolution the kernel
    # or the pair loop forms.  Each is contracted on its terms, which the
    # contraction forms and keeps.
    C2 = build_root_system("C", 2)
    reached = collections.Counter()
    pair_cost = characters._PAIR_COST
    for rs in (A1, A2, B2, C2, G2, B3):
        for p in (2, 3, 5, 7):
            values = []
            for _ in range(4):
                ranges = [range(start, start + rng.randint(1, 12))
                          for start in (rng.randint(-9, 9) for _ in range(rs.rank))]
                vals = [rng.choice((0, 0, -1, 1, 3)) for _ in itertools.product(*ranges)]
                values.append((vals, ranges))
                reached["box off pX"] += any(r.start % p for r in ranges)
            ranges = [range(-3 * p, 3 * p + 1)] * (rs.rank - 1) + [range(1, p)]
            values.append(([1] * (6 * p + 1) ** (rs.rank - 1) * (p - 1), ranges))
            lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            values.append(characters._weyl_formula(rs, lam))
            for vals, ranges in values:
                chi = Character._raw((vals, ranges), rs)
                want = oracles.contract_naive(kronecker._weights_at(vals, ranges), p)
                assert dict(contract_weights(chi, p).items()) == want, (rs, p, ranges)
                reached["empty" if not want else "nonempty"] += 1
            if rs.rank > 2:
                continue
            mu = tuple(reversed(lam))
            # The pair loop costs nothing when _PAIR_COST is 0, so it forms
            # every product.
            cases = [(lambda: weyl_character.__wrapped__(rs, lam), pair_cost)]
            cases += [(lambda: tensor(weyl_character(rs, lam), weyl_character(rs, mu)), cost)
                      for cost in (pair_cost, 0)]
            for build, cost in cases:
                monkeypatch.setattr(characters, "_PAIR_COST", cost)
                want = oracles.contract_naive(dict(build().items()), p)
                chi = build()
                pair = chi._pair()
                kernel = (type(characters._convolve(*pair)) is not dict if pair
                          else chi._slots() is not None)
                assert dict(contract_weights(chi, p).items()) == want, (rs, p, lam)
                assert chi._formed(), (rs, p, lam)
                reached["Weyl character" if not pair else "product, kernel" if kernel
                        else "product, pair loop"] += 1
    print(f"\ncontraction cases of values with slots: {dict(reached)}")
    assert len(reached) == 6


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


def test_untagged_values_are_scanned(monkeypatch):
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
    assert a2._invariant_for is A2
    # A failed scan leaves no tag; a passed one tags the value, so a second
    # call on it neither scans nor straightens.
    for chi in (a2 + b2, a2 + bad, -bad, 2 * bad):
        assert chi._invariant_for is None, chi
    reflected, straightened = [], []
    reflect, straighten = characters.apply_simple_reflection, grothendieck._straighten
    monkeypatch.setattr(characters, "apply_simple_reflection",
                        lambda *args: reflected.append(args) or reflect(*args))
    monkeypatch.setattr(grothendieck, "_straighten",
                        lambda *args: straightened.append(args) or straighten(*args))
    for user in (Character(a2.items()), Character.from_dict(a2.to_dict())):
        expected = frobenius_contract_class(A2, a2, 2)
        del reflected[:], straightened[:]
        assert frobenius_contract_class(A2, user, 2) == expected
        assert user._invariant_for is A2 and reflected and len(straightened) == 1
        del reflected[:], straightened[:]
        assert frobenius_contract_class(A2, user, 2) == expected
        assert steinberg_delta_multiplicity(A2, user, (0, 0), 2) == expected.coeff((0, 0))
        assert reflected == straightened == []
    with pytest.raises(DomainError, match="not Weyl-invariant"):
        frobenius_contract_class(A2, bad, 2)
    assert bad._invariant_for is None
