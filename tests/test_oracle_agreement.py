"""Library routes that never enumerate W, against sums and searches over all of W.

The library expands characters by Brauer straightening, decides linkage by
closed-alcove normal forms, checks W-invariance by simple reflections and
convolves on packed integer keys.  The oracles sum over, or search, the
whole Weyl group, which only ``oracles.weyl_group`` lists, count whole
orbits, or convolve on tuple keys, instead.  Class expansions read off one product with the Weyl denominator
are checked against straightening and peeling, and the denominator against
the product of 1 - e^-alpha over the positive roots.  Weyl characters from
Weyl's character formula are checked against the partition-function formula
and Freudenthal's recursion, with the route each input takes.  The last
tests check that the package defines no enumeration API, and that every
name the benchmark looks up in it resolves.
"""

import ast
import importlib
import io
import json
import math
import pkgutil
import random
from pathlib import Path

import pytest

import oracles
from steinberg import (
    Character,
    DomainError,
    KElement,
    block_decompose,
    build_root_system,
    char_to_class,
    char_to_class_by_peeling,
    contract_weights,
    dot_multiply,
    frobenius_contract_class,
    frobenius_twist,
    highest_root_index,
    linked,
    pr_block,
    require_w_invariant,
    steinberg_character,
    steinberg_delta_multiplicity,
    tensor,
    tensor_delta_expansion,
    weyl_character,
)
import steinberg
from steinberg import characters, grothendieck
from steinberg.characters import _kronecker, _slot_width
from steinberg.kronecker import _read_slots, _slot_int
from steinberg.cli import run

TYPES = sorted(oracles.POSITIVE_ROOT_COUNTS)
# Above this group order one alternating sum takes a noticeable fraction of
# a second, so those types expand a single fundamental character only.
LARGE_ORDER = 6000


def _fundamental(rs, i):
    return _fundamental_of(rs.rank, i)


def _fundamental_of(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


def _linked_image(rng, rs, group, lam, p):
    """w . lam + p * beta for a random w in W and beta in the root lattice."""
    w, _ = rng.choice(group)
    beta = [rng.randint(-1, 1) for _ in range(rs.rank)]
    return tuple(
        x + p * sum(rs.cartan[k][j] * beta[j] for j in range(rs.rank))
        for k, x in enumerate(oracles.dot(w, lam))
    )


@pytest.mark.parametrize("series,rank", TYPES)
def test_class_routes_match_alternating_sums(series, rank):
    rs = build_root_system(series, rank)
    group = oracles.weyl_group(rs)
    first, last = _fundamental(rs, 0), _fundamental(rs, rank - 1)
    small = weyl_character(rs, first)
    chi = small if len(group) > LARGE_ORDER else tensor(small, weyl_character(rs, last))

    assert char_to_class(rs, chi) == KElement(oracles.alternating_expansion(rs, group, chi))
    assert tensor_delta_expansion(rs, last, small) == KElement(
        oracles.alternating_expansion(rs, group, small, mu=last)
    )
    for p in (2, 3):
        expected = oracles.alternating_expansion(rs, group, chi, p=p)
        assert frobenius_contract_class(rs, chi, p) == KElement(expected)
        for lam, c in expected.items():
            assert steinberg_delta_multiplicity(rs, chi, lam, p) == c
    rho = (1,) * rank
    assert steinberg_delta_multiplicity(rs, chi, rho, 2) == oracles.alternating_coefficient(
        group, chi, rho, p=2
    )


@pytest.mark.parametrize("series,rank", TYPES)
def test_linked_matches_search_over_w(series, rank):
    rs = build_root_system(series, rank)
    group = oracles.weyl_group(rs)
    rng = random.Random(f"linked/{series}{rank}")
    # E6 and F4 run every prime, with pairs linked by construction, because
    # random pairs there are almost never linked.
    primes = (2, 3, 5) if (series, rank) in (("E", 6), ("F", 4)) else (rng.choice((2, 3, 5)),)
    for p in primes:
        lam = tuple(rng.randint(-2, 2) for _ in range(rank))
        mu = _linked_image(rng, rs, group, lam, p)
        assert oracles.linked_unchecked(rs, group, lam, mu, p), (lam, mu, p)
        assert linked(rs, lam, mu, p), (lam, mu, p)
        nu = tuple(rng.randint(-3, 3) for _ in range(rank))
        assert linked(rs, lam, nu, p) == oracles.linked_unchecked(rs, group, lam, nu, p)


def _accepts(rs, chi) -> bool:
    # The verdict on chi, which may pass on its invariance tag alone, must
    # match the scan of an untagged copy.
    verdicts = []
    for value in (chi, Character(chi.items())):
        try:
            require_w_invariant(rs, value)
        except DomainError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    assert verdicts[0] == verdicts[1], chi
    return verdicts[0]


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("B", 3), ("D", 4)])
def test_w_invariance_matches_orbit_count(series, rank):
    rs = build_root_system(series, rank)
    rng = random.Random(f"invariant/{series}{rank}")
    top = 2 if rank == 2 else 1
    rejected = 0
    for _ in range(6):
        chi = Character()
        for _ in range(rng.randint(1, 3)):
            lam = tuple(rng.randint(0, top) for _ in range(rank))
            chi = chi + rng.choice((-2, -1, 1, 3)) * weyl_character(rs, lam)
        assert oracles.w_invariant_by_orbits(rs, chi) and _accepts(rs, chi)
        if not chi:
            continue
        terms = dict(chi.items())
        w = rng.choice(sorted(terms))
        changed = Character({**terms, w: terms[w] + rng.choice((-1, 1, 2))})
        removed = Character({v: m for v, m in terms.items() if v != w})
        for mutant in (changed, removed):
            verdict = oracles.w_invariant_by_orbits(rs, mutant)
            assert _accepts(rs, mutant) == verdict, (w, mutant)
            rejected += not verdict
    assert rejected >= 6


def _random_character(rng, rank) -> Character:
    """A signed character with up to 12 weights, coordinates in [-4, 4]."""
    terms = {}
    for _ in range(rng.randint(2, 12)):
        w = tuple(rng.randint(-4, 4) for _ in range(rank))
        terms[w] = rng.choice((-5, -3, -2, -1, 1, 2, 4))
    return Character(terms)


def _convolution_agrees(a, b) -> Character:
    prod = tensor(a, b)
    assert dict(prod.items()) == oracles.convolve_naive(a, b)
    assert 0 not in dict(prod.items()).values()
    assert tensor(b, a) == prod
    return prod


@pytest.mark.parametrize("rank", range(1, 7))
def test_tensor_matches_tuple_convolution(rank):
    rng = random.Random(f"convolve/{rank}")
    for _ in range(6):
        a, b = _random_character(rng, rank), _random_character(rng, rank)
        # Twisted by 7^3: coordinates in the hundreds, of both signs.
        ta, tb = frobenius_twist(a, 3, 7), frobenius_twist(b, 3, 7)
        for x, y in ((a, b), (a, tb), (ta, b), (ta, tb), (a, a - 2 * b)):
            _convolution_agrees(x, y)
        # One-weight factors shift and scale.
        w = tuple(rng.randint(-300, 300) for _ in range(rank))
        shifted = _convolution_agrees(Character({w: -3}), a)
        assert shifted == Character(
            {tuple(x + y for x, y in zip(w, v)): -3 * m for v, m in a.items()}
        )
        _convolution_agrees(Character({w: 2}), Character({(0,) * rank: 5}))
    # (1 - x)(1 + x + ... + x^n) = 1 - x^(n+1): every inner sum cancels.
    step = tuple(rng.choice((-343, -2, -1, 1, 2, 343)) for _ in range(rank))
    n = 9
    telescope = Character({tuple(k * x for x in step): 1 for k in range(n + 1)})
    first = Character({(0,) * rank: 1, step: -1})
    assert _convolution_agrees(first, telescope) == Character(
        {(0,) * rank: 1, tuple((n + 1) * x for x in step): -1}
    )
    # An empty factor, also one that cancelled to empty, gives the empty product.
    for empty in (Character(), a - a):
        assert _convolution_agrees(empty, a) == Character()
        assert not tensor(empty, empty)
    if rank < 6:
        with pytest.raises(DomainError):
            tensor(a, _random_character(rng, rank + 1))


def _kernel_direct(a, b, bound=None, floor=None) -> dict:
    """``_kronecker`` on a and b, packed in the layout ``tensor`` uses.

    Keys count the product's box with the last coordinate fastest, each
    factor's key relative to its own minimum.  The bound defaults to
    sum|a| * max|b|; a floor keeps the weights >= floor only.
    """
    cols_a, cols_b = list(zip(*a.support())), list(zip(*b.support()))
    lo_a, lo_b = [min(c) for c in cols_a], [min(c) for c in cols_b]
    widths = [max(x) - l + max(y) - k + 1 for x, l, y, k in zip(cols_a, lo_a, cols_b, lo_b)]
    strides = [math.prod(widths[j + 1:]) for j in range(len(widths))]

    def packed(chi, lo):
        return [(sum((x - l) * s for x, l, s in zip(w, lo, strides)), m) for w, m in chi.items()]

    if bound is None:
        bound = sum(abs(m) for _, m in a.items()) * max(abs(m) for _, m in b.items())
    ranges = [range(l + k, l + k + n) for l, k, n in zip(lo_a, lo_b, widths)]
    return _kronecker(packed(a, lo_a), packed(b, lo_b), ranges, bound, floor)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The bound of every ``_kronecker`` call that ``tensor`` makes."""
    calls = []
    real = characters._kronecker

    def spy(aitems, bitems, ranges, bound, floor=None):
        calls.append(bound)
        return real(aitems, bitems, ranges, bound, floor)

    monkeypatch.setattr(characters, "_kronecker", spy)
    return calls


def _both_paths_agree(a, b, kernel_calls):
    """The product, and whether tensor took the kernel for it.

    tensor, and the kernel called directly on either order of the factors,
    all equal the tuple convolution.
    """
    before = len(kernel_calls)
    prod = _convolution_agrees(a, b)
    assert _kernel_direct(a, b) == _kernel_direct(b, a) == dict(prod.items())
    return prod, len(kernel_calls) > before


@pytest.mark.parametrize("rs", [build_root_system(*key) for key in (("A", 2), ("B", 2), ("G", 2))],
                         ids=repr)
def test_kronecker_kernel_on_dense_products(rs, kernel_calls):
    for lam, mu in (((3, 3), (3, 3)), ((4, 2), (2, 4)), ((3, 3), (4, 4))):
        a, b = weyl_character(rs, lam), weyl_character(rs, mu)
        prod, kernel = _both_paths_agree(a, b, kernel_calls)
        assert kernel and prod._invariant_for is rs
        # Signed, with cancellation: a - 2b against b.
        prod, kernel = _both_paths_agree(a - 2 * b, b, kernel_calls)
        assert kernel and prod._invariant_for is rs
    # The twist identity's products: St (x) Delta(lam)^(1) = Delta(p . lam).
    # On A2 and B2 the weights fill at most a third or a half of the box
    # (one coset of the root lattice), and the twisted factor is spread over
    # a box p times wider; the kernel still runs, as its cost grows with the
    # box per term of the larger factor, not per pair.
    for p in (5, 7):
        st = steinberg_character(rs, p)
        for lam in ((2, 0), (3, 3)):
            twisted = frobenius_twist(weyl_character(rs, lam), 1, p)
            prod, kernel = _both_paths_agree(st, twisted, kernel_calls)
            assert prod == weyl_character(rs, dot_multiply(p, lam))
            assert kernel and prod._invariant_for is rs


@pytest.mark.parametrize("nbytes,fmt", [(2, "h"), (4, "i"), (8, "q")])
def test_slot_k_is_the_field_at_bit_b_times_k(nbytes, fmt):
    # The layout both the kernel and Weyl's formula shift by, whatever the
    # machine's byte order: slot k of an int has place value 2^(b*k).
    rng = random.Random(f"slots/{nbytes}")
    bits, top = 8 * nbytes, (1 << (8 * nbytes - 1)) - 1
    for _ in range(20):
        items = dict((rng.randrange(30), rng.randint(-top, top)) for _ in range(12))
        n, value = _slot_int(list(items.items()), nbytes, fmt)
        assert n == max(items) + 1
        assert value == sum(m << bits * k for k, m in items.items())
        # Nonnegative slots read back unchanged, in a box of 5 x 7 slots.
        kept = {k: abs(m) for k, m in items.items() if m}
        packed = sum(m << bits * k for k, m in kept.items())
        assert _read_slots(packed, nbytes, fmt, [range(2, 7), range(-3, 4)]) == {
            (2 + k // 7, -3 + k % 7): m for k, m in kept.items()}


@pytest.mark.parametrize("nbytes,fmt", [(2, "h"), (4, "i"), (8, "q")])
def test_read_slots_matches_the_per_slot_oracle(nbytes, fmt):
    # Random slot integers with signed slots, dense and sparse, the all-zero
    # one and one-slot boxes, read whole and above random floors.
    rng = random.Random(f"read/{nbytes}")
    bits, top = 8 * nbytes, 1 << (8 * nbytes - 1)
    for rank in (1, 2, 3):
        for _ in range(12):
            ranges = [range(s, s + rng.randint(1, 6)) for s in
                      (rng.randint(-5, 5) for _ in range(rank))]
            n = math.prod(map(len, ranges))
            occupied = rng.choice((0.0, 0.1, 0.5, 1.0))
            fields = [rng.randrange(-top, top) if rng.random() < occupied else 0
                      for _ in range(n)]
            value = sum((m % (1 << bits)) << bits * k for k, m in enumerate(fields))
            one = [range(r.start, r.start + 1) for r in ranges]
            cases = [(value, ranges), (0, ranges), (fields[0] % (1 << bits), one)]
            for v, box in cases:
                floors = [None, tuple(r.start for r in box), tuple(r.stop for r in box),
                          tuple(rng.randint(r.start - 1, r.stop) for r in box)]
                for floor in floors:
                    assert _read_slots(v, nbytes, fmt, box, floor) == (
                        oracles.read_slots(v, nbytes, box, floor)), (v, box, floor)
    # A slot at the bottom of the range and one at the top, next to zeros.
    box = [range(-1, 2), range(0, 2)]
    value = (top << bits * 5) | (top - 1) << bits * 1
    assert _read_slots(value, nbytes, fmt, box) == {(-1, 1): top - 1, (1, 1): -top}


def test_reach_filter_keeps_every_term_that_reaches_the_floor(monkeypatch):
    # _convolve(a, b, floor) drops the terms of a factor that cannot reach
    # floor with any term of the other; what it returns must still be the
    # whole product restricted to weights >= floor.
    sizes = []
    real = characters._packed

    def spy(cols, vals, *rest):
        sizes.append(len(vals))
        return real(cols, vals, *rest)

    monkeypatch.setattr(characters, "_packed", spy)

    def agrees(a, b, floor):
        kept = {w: m for w, m in oracles.convolve_naive(a, b).items()
                if all(x >= f for x, f in zip(w, floor))}
        assert characters._convolve(a, b, floor) == kept, (a, b, floor)
        return kept

    # The filter empties a factor: b's terms all lie below floor - max(a).
    a = Character({(0, 0): 1, (1, 2): -3})
    b = Character({(-5, -5): 2, (-4, 6): 1, (3, -9): 1})
    del sizes[:]
    assert agrees(a, b, (2, 0)) == {} and not sizes
    # The filter changes which factor is smaller: b has 5 terms to a's 2,
    # but only one of b's reaches floor (6, 0), so b is packed first.
    a = Character({(1, 0): 2, (1, 1): -1})
    b = Character({(5, 0): 3, (-3, 0): 1, (-2, 1): 4, (0, -2): -1, (1, 5): 2})
    del sizes[:]
    assert agrees(a, b, (6, 0)) == {(6, 0): 6, (6, 1): -3}
    assert sizes == [1, 2]
    # Signed factors against the Weyl denominator, whose positive
    # coordinates widen the shell of the other factor that is kept; random
    # pairs are covered by test_dominant_part_of_a_product_reads_only_its_sub_box.
    rng = random.Random("reach")
    for series, rank in (("A", 1), ("A", 2), ("G", 2), ("B", 3)):
        d = grothendieck._weyl_denominator(build_root_system(series, rank))
        for _ in range(8):
            a, b = _random_character(rng, rank), _random_character(rng, rank)
            signed = a - 2 * frobenius_twist(b, 1, 2) + tensor(a, b)
            for floor in ((0,) * rank, (-3,) * rank, (7,) * rank,
                          tuple(rng.randint(-5, 5) for _ in range(rank))):
                agrees(signed, d, floor)
                agrees(d, signed, floor)


def test_kronecker_kernel_cancels_telescoping_products(kernel_calls):
    # (1 - x)(1 + x + ... + x^n) = 1 - x^(n+1): every inner sum cancels.
    n = 40
    first = Character({(0,): 1, (1,): -1})
    telescope = Character({(k,): 1 for k in range(n + 1)})
    assert _kernel_direct(first, telescope) == {(0,): 1, (n + 1,): -1}
    # In two variables the box is dense, so tensor takes the kernel.
    square = Character({(i, j): 1 for i in range(n + 1) for j in range(n + 1)})
    corners = Character({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    prod, kernel = _both_paths_agree(corners, square, kernel_calls)
    assert kernel and prod == Character({(0, 0): 1, (n + 1, 0): -1, (0, n + 1): -1, (n + 1, n + 1): 1})


@pytest.mark.parametrize("total,nbytes", [
    (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8), (2**63 - 1, 8), (2**63, None),
])
def test_kronecker_slot_width_at_its_bounds(total, nbytes, kernel_calls):
    # sum|a| * max|b| = total, and the product reaches +-total, so a slot one
    # width too narrow would carry into its neighbour.
    n = 16
    a = Character({(0,): total - (n - 1), **{(i,): 1 for i in range(1, n)}})
    b = Character({(i,): 1 for i in range(n + 1)})
    width = _slot_width(total)
    assert (width and width[0]) == nbytes
    for sign in (1, -1):
        prod = _convolution_agrees(sign * a, b)
        assert prod.mult((n - 1,)) == prod.mult((n,)) == sign * total
        if nbytes is None:
            # Too wide for a 64-bit slot: tensor keeps the pair loop, and
            # the kernel refuses rather than return wrapped slots.
            assert not kernel_calls
            with pytest.raises(ArithmeticError):
                _kernel_direct(sign * a, b)
        else:
            assert kernel_calls[-1] == total
            assert _kernel_direct(sign * a, b) == dict(prod.items())


def test_kernel_cost_counts_slot_bytes(kernel_calls):
    # The kernel runs when slots * width * (|a| + 32) <= 512 * |a| * |b|.
    # b is |b| ones at 0..|b|-1; a has |a| terms spread to d, so the box has
    # d + |b| slots.  At each boundary d, 2-byte slots fit and d + 1 does
    # not; a bound of 2^15 needs 4-byte slots, which fit at d4 and not at
    # d4 + 1.
    for na, nb, d, d4 in ((2, 3, 42, 19), (10, 12, 719, 353), (40, 41, 5790, 2874)):
        b = Character({(i,): 1 for i in range(nb)})
        assert 2 * (d + nb) * (na + 32) <= 512 * na * nb < 2 * (d + 1 + nb) * (na + 32)
        assert 4 * (d4 + nb) * (na + 32) <= 512 * na * nb < 4 * (d4 + 1 + nb) * (na + 32)
        for top, reach, kernel in ((2**15 - na, d, True), (2**15 - na, d + 1, False),
                                   (2**15 - na + 1, d4, True), (2**15 - na + 1, d4 + 1, False)):
            a = Character({(0,): top, **{(i,): 1 for i in range(1, na - 1)}, (reach,): 1})
            prod, took = _both_paths_agree(a, b, kernel_calls)
            assert took == kernel and prod.mult((0,)) == top
            assert prod.mult((reach + nb - 1,)) == 1


def test_sparse_boxes_take_the_pair_loop_and_keep_tags(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Kronecker kernel ran on a sparse box")

    monkeypatch.setattr(characters, "_kronecker", refuse)
    rs = build_root_system("A", 2)
    # Two weights each, a million apart in six coordinates: the box has
    # about 6e37 slots against 4 pairs, so only the pair loop can answer.
    far = 10**6
    a = Character({(0,) * 6: 1, (far,) * 6: -2})
    b = Character({(0,) * 6: 3, (0, far, 0, far, 0, far): 1})
    assert dict(tensor(a, b).items()) == oracles.convolve_naive(a, b)
    # A sparse product of library-built values keeps their tag.
    sparse = frobenius_twist(weyl_character(rs, (1, 0)), 3, 7)
    prod = _convolution_agrees(sparse, weyl_character(rs, (0, 1)))
    assert prod._invariant_for is rs
    assert tensor(Character(sparse.items()), sparse)._invariant_for is None


SMALL_TYPES = [key for key in TYPES if key[1] <= 3]


@pytest.fixture
def denominator_products(monkeypatch):
    """Every product that ``grothendieck`` forms, as (left factor, right factor).

    The class routes form only the dominant part of a product, with
    ``characters._convolve``; each such call must ask for weights >= 0.
    """
    calls = []
    real = grothendieck._convolve

    def spy(a, b, floor=None):
        assert floor and not any(floor)
        calls.append((a, b))
        return real(a, b, floor)

    monkeypatch.setattr(grothendieck, "_convolve", spy)
    return calls


@pytest.mark.parametrize("series,rank", SMALL_TYPES)
def test_weyl_denominator_is_the_product_over_positive_roots(series, rank):
    rs = build_root_system(series, rank)
    zero = (0,) * rank
    expected = Character({zero: 1})
    for f in rs.positive_fund:
        factor = Character({zero: 1, tuple(-x for x in f): -1})
        expected = Character(oracles.convolve_naive(expected, factor))
    d = grothendieck._weyl_denominator(rs)
    assert d == expected
    assert len(d) == oracles.weyl_order_formula(series, rank)
    assert d._invariant_for is None


def _brauer_inputs(rs):
    """W-invariant characters of every kind the class routes meet, by name."""
    rank = rs.rank
    zero, rho = (0,) * rank, (1,) * rank
    first, last = _fundamental(rs, 0), _fundamental(rs, rank - 1)
    st = steinberg_character(rs, 3)
    product = tensor(weyl_character(rs, first), weyl_character(rs, last))
    # The highest root theta has the zero weight in its module with
    # multiplicity m > 0, so Delta(theta) - m * Delta(0) has a class
    # coefficient -m at 0, a dominant weight outside its support.
    theta = rs.positive_fund[highest_root_index(rs)]
    adjoint = weyl_character(rs, theta)
    signed = adjoint - adjoint.mult(zero) * weyl_character(rs, zero)
    assert signed.mult(zero) == 0 and signed
    inputs = {
        "trivial": weyl_character(rs, zero),
        "fundamental": weyl_character(rs, last),
        "rho": weyl_character(rs, rho),
        "steinberg": st,
        "product": product,
        "steinberg product": tensor(st, product),
        "twist product": tensor(st, frobenius_twist(weyl_character(rs, last), 1, 3)),
        "signed": signed,
        "signed product": tensor(signed, product) - 2 * product,
        "contraction": contract_weights(tensor(st, product), 3),
        "empty": Character(),
        "tagged empty": product - product,
    }
    if rank <= 2:
        inputs["large"] = weyl_character(rs, (4,) * rank)
    return inputs


@pytest.mark.parametrize("series,rank", SMALL_TYPES)
def test_denominator_route_matches_straightening_and_peeling(
        series, rank, monkeypatch, denominator_products):
    rs = build_root_system(series, rank)
    zero = (0,) * rank
    inputs = _brauer_inputs(rs)
    expected = {}
    for name, chi in inputs.items():
        expected[name] = grothendieck._straighten(rs, chi.items())
        assert char_to_class_by_peeling(rs, chi) == expected[name], name
        assert char_to_class(rs, chi) == expected[name], name
    assert expected["signed"].coeff(zero) < 0
    # On rank <= 2 every input now takes the product with the Weyl
    # denominator; on rank 3 none does, and the product itself is checked.
    monkeypatch.setattr(grothendieck, "_TERMS_PER_ELEMENT", 0)
    d = grothendieck._weyl_denominator(rs)
    product = rank <= 2
    for name, chi in inputs.items():
        del denominator_products[:]
        assert char_to_class(rs, chi) == expected[name], name
        assert denominator_products == ([(chi, d)] if product else []), name
        dominant_part = characters._convolve(chi, d, zero)
        assert dominant_part == dict(expected[name].items()), name
    chi = inputs["steinberg product"]
    for p in (2, 3):
        weights = contract_weights(chi, p)
        contracted = grothendieck._straighten(rs, weights.items())
        del denominator_products[:]
        assert frobenius_contract_class(rs, chi, p) == contracted
        assert denominator_products == ([(weights, d)] if product else [])
        assert characters._convolve(weights, d, zero) == dict(contracted.items())
        lams = set(contracted.support()) | {zero, (1,) * rank, (5,) * rank}
        for lam in lams:
            assert steinberg_delta_multiplicity(rs, chi, lam, p) == contracted.coeff(lam), lam


@pytest.mark.parametrize("series", ["A", "B", "G"])
def test_rank_two_steinberg_products_take_the_denominator_route(
        series, monkeypatch, denominator_products):
    rs = build_root_system(series, 2)
    d = grothendieck._weyl_denominator(rs)
    chis = [tensor(steinberg_character(rs, p), weyl_character(rs, (1, 1))) for p in (5, 7)]
    contracted = [grothendieck._straighten(rs, contract_weights(chi, p).items())
                  for chi, p in zip(chis, (5, 7))]
    # From here on no route may straighten term by term.
    monkeypatch.setattr(grothendieck, "_straighten", None)
    for chi, p, expected in zip(chis, (5, 7), contracted):
        del denominator_products[:]
        expansion = char_to_class(rs, chi)
        assert denominator_products == [(chi, d)]
        assert expansion == char_to_class_by_peeling(rs, chi)
        for lam in set(expected.support()) | {(0, 0), (2, 2)}:
            assert steinberg_delta_multiplicity(rs, chi, lam, p) == expected.coeff(lam)


@pytest.mark.parametrize("series,rank,pairs", [
    ("D", 5, [(0, 0), (0, 4), (1, 3)]),
    ("F", 4, [(0, 2), (2, 3), (3, 3)]),
    ("B", 5, [(0, 4), (4, 4)]),
    ("E", 6, [(0, 5)]),
])
def test_large_groups_keep_straightening(series, rank, pairs, monkeypatch):
    # Products of two small fundamental characters have far fewer than
    # 4 * |W| weights, so no class route builds the Weyl denominator.
    def refuse(rs):
        raise AssertionError(f"the Weyl denominator of {rs!r} was used")

    monkeypatch.setattr(grothendieck, "_weyl_denominator", refuse)
    rs = build_root_system(series, rank)
    for i, j in pairs:
        chi = tensor(weyl_character(rs, _fundamental(rs, i)), weyl_character(rs, _fundamental(rs, j)))
        assert char_to_class(rs, chi) == grothendieck._straighten(rs, chi.items())
        for p in (2, 3):
            frobenius_contract_class(rs, chi, p)
            steinberg_delta_multiplicity(rs, chi, (0,) * rank, p)


def test_thin_boxes_keep_straightening(denominator_products):
    # Delta(2,2,2,2) on A4 has 3081 weights, over 4 per element of W, but
    # they fill under 1% of the 390625 slots of its product with the Weyl
    # denominator.  Its rank is above 2, so char_to_class straightens it
    # term by term.
    rs = build_root_system("A", 4)
    chi = weyl_character(rs, (2, 2, 2, 2))
    assert len(chi) >= 4 * 120
    assert char_to_class(rs, chi) == grothendieck._straighten(rs, chi.items())
    assert not denominator_products


def test_dominant_part_of_a_product_reads_only_its_sub_box(monkeypatch):
    # The class routes ask _convolve for the weights >= floor only; on both
    # kernels that must be the product restricted to them.
    rng = random.Random("floor")
    for rank in (1, 2, 3):
        for i in range(8):
            a, b = _random_character(rng, rank), _random_character(rng, rank)
            if i % 2:
                # Spread over a box 7 times wider: the pair loop's case.
                a = frobenius_twist(a, 1, 7)
            full = dict(tensor(a, b).items())
            for floor in ((0,) * rank, (-2,) * rank, (-20,) * rank, (9,) * rank,
                          tuple(rng.randint(-4, 4) for _ in range(rank))):
                kept = {w: m for w, m in full.items() if all(x >= f for x, f in zip(w, floor))}
                assert characters._convolve(a, b, floor) == kept, (a, b, floor)
                if a and b:
                    assert _kernel_direct(a, b, floor=floor) == kept, (a, b, floor)


RANK_AT_MOST_TWO = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]


def _route_weights(rs):
    """0, the fundamentals, rho, the twist sweep's largest weights and random ones."""
    rank = rs.rank
    rng = random.Random(f"route/{rs.series}{rank}")
    big = [(27,), (6,)] if rank == 1 else [(27, 6), (6, 27)]
    weights = [(0,) * rank, (1,) * rank, *(_fundamental(rs, i) for i in range(rank)), *big]
    weights += [tuple(rng.randint(0, 9) for _ in range(rank)) for _ in range(6)]
    return weights


@pytest.mark.parametrize("series,rank", RANK_AT_MOST_TWO)
def test_weyl_formula_matches_partition_oracle_and_freudenthal(series, rank):
    rs = build_root_system(series, rank)
    group = oracles.weyl_group(rs)
    for lam in _route_weights(rs):
        route = characters._weyl_formula(rs, lam)
        assert route == characters._freudenthal(rs, lam), lam
        assert dict(weyl_character(rs, lam).items()) == route, lam
        assert sum(route.values()) == oracles.weyl_dimension(series, rank, lam)
        # The partition-function oracle takes 5 to 10 s on G2's largest two.
        if series != "G" or max(lam) < 20:
            assert route == oracles.character_by_weyl_sum(rs, group, lam), lam


def test_weyl_formula_on_a1_matches_rank_one_theory(monkeypatch):
    rs = build_root_system("A", 1)
    # Every weight of rank <= 2 takes the route.
    for m in range(40):
        assert characters._weyl_formula(rs, (m,)) == oracles.a1_weyl_character_weights(m)
    monkeypatch.setattr(characters, "_freudenthal", None)
    for m in range(40):
        assert dict(weyl_character.__wrapped__(rs, (m,)).items()) == (
            oracles.a1_weyl_character_weights(m))


@pytest.fixture
def slot_widths(monkeypatch):
    """The slot width in bytes of every ``_read_slots`` call."""
    widths = []
    real = characters._read_slots

    def spy(value, nbytes, *rest):
        widths.append(nbytes)
        return real(value, nbytes, *rest)

    monkeypatch.setattr(characters, "_read_slots", spy)
    return widths


def test_weyl_formula_widens_its_slots_with_the_multiplicities(slot_widths):
    # The route tries 2-byte slots first and widens only when the decoded
    # multiplicities do not sum to dim.  A2's weights have multiplicities of
    # at most min(a, b) + 1, so (30, 30), (31, 31) with dim 2^15 and
    # (40, 40) with dim 68921 > 2^16 all decode at 2 bytes.
    rs = build_root_system("A", 2)
    for lam, dim in (((30, 30), 29791), ((31, 31), 2**15), ((40, 40), 68921)):
        assert oracles.weyl_dimension("A", 2, lam) == dim
        del slot_widths[:]
        route = weyl_character.__wrapped__(rs, lam)
        assert slot_widths == [2], lam
        assert dict(route.items()) == characters._freudenthal(rs, lam)
        assert route.dim() == dim
    # G2's (23, 15) has a multiplicity of 32832 >= 2^15: at 2 bytes that slot
    # reads negative, the sum falls short of dim, and 4 bytes are exact.
    rs = build_root_system("G", 2)
    del slot_widths[:]
    route = weyl_character.__wrapped__(rs, (23, 15))
    assert slot_widths == [2, 4]
    assert dict(route.items()) == characters._freudenthal(rs, (23, 15))
    assert max(m for _, m in route.items()) == 32832
    assert route.dim() == oracles.weyl_dimension("G", 2, (23, 15))


@pytest.mark.parametrize("series", ["A", "B", "C", "G"])
def test_every_rank_two_weight_takes_weyls_formula(series, monkeypatch):
    # Small weights, whose boxes are sparse, included.
    rs = build_root_system(series, 2)
    weights = [(a, b) for a in range(7) for b in range(7)]
    expected = {lam: characters._freudenthal(rs, lam) for lam in weights}
    monkeypatch.setattr(characters, "_freudenthal", None)
    for lam in weights:
        chi = weyl_character.__wrapped__(rs, lam)
        assert dict(chi.items()) == expected[lam], lam
        assert chi._invariant_for is rs


def test_weyl_formula_raises_when_its_widest_slots_overflow(monkeypatch, slot_widths):
    # G2's (23, 15) has a multiplicity of 32832 >= 2^15, so with 2-byte
    # slots as the widest the multiplicities cannot sum to dim.
    rs = build_root_system("G", 2)
    monkeypatch.setattr(characters, "_SLOT_WIDTHS", characters._SLOT_WIDTHS[:1])
    assert characters._SLOT_WIDTHS[0][0] == 2
    with pytest.raises(ArithmeticError, match=r"at \[23, 15\]"):
        characters._weyl_formula(rs, (23, 15))
    assert slot_widths == [2]
    # A weight whose multiplicities fit still decodes.
    assert characters._weyl_formula(rs, (3, 2)) == characters._freudenthal(rs, (3, 2))


@pytest.mark.parametrize("series", ["A", "B", "G"])
def test_twist_sweep_weights_take_weyls_formula(series, monkeypatch):
    # Every p . lam of the benchmark's twist sweep (|lam| <= 3, p <= 7).
    rs = build_root_system(series, 2)
    weights = {dot_multiply(p, (a, b)) for p in (2, 3, 5, 7) for a in range(4) for b in range(4 - a)}
    expected = {lam: characters._freudenthal(rs, lam) for lam in weights}
    monkeypatch.setattr(characters, "_freudenthal", None)
    for lam in weights:
        assert dict(weyl_character.__wrapped__(rs, lam).items()) == expected[lam], lam


@pytest.mark.parametrize("series,rank,weights", [
    ("D", 5, [_fundamental_of(5, i) for i in (0, 1, 3, 4)]),
    ("F", 4, [_fundamental_of(4, i) for i in (0, 2, 3)]),
    ("B", 5, [_fundamental_of(5, i) for i in (0, 4)]),
    ("E", 6, [_fundamental_of(6, i) for i in (0, 5)]),
    ("A", 3, [(0, 0, 0), (1, 1, 1), (3, 2, 3), (0, 4, 1)]),
    ("B", 3, [(0, 0, 0), (1, 1, 1), (3, 2, 3), (2, 0, 4)]),
    ("C", 3, [(0, 0, 0), (1, 1, 1), (3, 2, 3), (4, 1, 0)]),
], ids=["D5", "F4", "B5", "E6", "A3", "B3", "C3"])
def test_rank_three_and_up_keep_freudenthal(series, rank, weights, monkeypatch):
    # Weyl's formula is many times slower there, so it must never run.
    def refuse(rs, *args):
        raise AssertionError(f"Weyl's character formula ran on {rs!r}")

    monkeypatch.setattr(characters, "_weyl_formula", refuse)
    rs = build_root_system(series, rank)
    for lam in weights:
        chi = weyl_character.__wrapped__(rs, lam)
        assert chi.dim() == characters._weyl_dimension(rs, lam), lam
        assert chi == weyl_character(rs, lam)


@pytest.mark.parametrize("series,rank", [
    ("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("F", 4),
])
def test_freudenthal_multiplicities_expand_to_one_weyl_class(series, rank):
    # A W-invariant character is the sum of its alternating-sum coefficients
    # times Weyl characters, so an expansion of exactly {lam: 1} checks every
    # multiplicity the recursion gives, not only their sum.
    rs = build_root_system(series, rank)
    group = oracles.weyl_group(rs)
    for lam in [(1,) * rank, (2,) + (0,) * (rank - 2) + (1,)]:
        chi = weyl_character.__wrapped__(rs, lam)
        require_w_invariant(rs, Character(chi.items()))
        assert oracles.alternating_expansion(rs, group, chi) == {lam: 1}, lam


# The Weyl-group enumeration API the package once had; only the oracles list W.
REMOVED_NAMES = {"generate", "WeylGroup", "WeylElement", "dominant_representative",
                 "weyl_orbit", "root_coordinates", "RANK_CAP"}


@pytest.mark.parametrize("series,rank", [("E", 6), ("G", 2)])
def test_library_never_enumerates_the_group(series, rank):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("steinberg.weyl")
    for info in pkgutil.iter_modules(steinberg.__path__):
        module = importlib.import_module(f"steinberg.{info.name}")
        assert not REMOVED_NAMES & set(vars(module)), info.name
    assert not REMOVED_NAMES & set(vars(steinberg))

    rs = build_root_system(series, rank)
    first, last = _fundamental(rs, 0), _fundamental(rs, rank - 1)
    chi = tensor(weyl_character(rs, first), weyl_character(rs, last))
    expansion = char_to_class(rs, chi)
    assert expansion.coeff(tuple(x + y for x, y in zip(first, last))) == 1
    assert tensor_delta_expansion(rs, first, weyl_character(rs, last)) == expansion
    contracted = frobenius_contract_class(rs, chi, 2)
    assert steinberg_delta_multiplicity(rs, chi, (0,) * rank, 2) == contracted.coeff((0,) * rank)
    assert linked(rs, first, first, 2)
    blocks = block_decompose(rs, expansion, 2)
    assert sum((comp for _, comp in blocks), KElement()) == expansion
    for rep, comp in blocks:
        assert pr_block(rs, expansion, rep, 2) == comp

    out, err = io.StringIO(), io.StringIO()
    assert run(["rs", "info", "--type", series, "--rank", str(rank)], out=out, err=err) == 0
    assert json.loads(out.getvalue())["weyl_order"] == oracles.weyl_order_formula(series, rank)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def test_benchmark_name_lookups_resolve():
    # The benchmark reaches the library by name, so a rename breaks it
    # without failing another test.  Its tracer wraps each function of
    # TRACED with getattr on every layer module that is imported, and skips
    # a layer that is not; its workloads call steinberg as S.<name>.
    traced = next(ast.literal_eval(node.value) for node in _bench_tree("tracer.py").body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    assert "characters" in traced
    for layer, names in traced.items():
        try:
            module = importlib.import_module(f"steinberg.{layer}")
        except ModuleNotFoundError as exc:
            if exc.name != f"steinberg.{layer}":
                raise
            continue
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for script in ("workloads.py", "cli_workload.py"):
        used = {node.attr for node in ast.walk(_bench_tree(script))
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "S"}
        assert used, script
        assert sorted(name for name in used if not hasattr(steinberg, name)) == [], script
