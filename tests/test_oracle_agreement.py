"""Library routes that never enumerate W, against sums and searches over all of W.

The library expands characters by Brauer straightening, decides linkage by
closed-alcove normal forms, checks W-invariance by simple reflections and
convolves on packed integer keys.  The oracles sum over, or search, the
whole Weyl group, which only ``oracles.weyl_group`` lists, count whole
orbits, or convolve on tuple keys, instead.  Class expansions by
straightening are checked against peeling, and Steinberg multiplicities,
read from the contraction class that each value keeps per root system and
prime, against straightening, peeling and |W| lookups in Weyl's
denominator.  Cached products of Weyl characters, which ``char_to_class``
expands over their factors, are checked against the same routes on
copies without factors, and their contractions by residue classes against
testing every weight for divisibility.  Weyl characters from Weyl's
character formula are checked against the partition-function formula,
Freudenthal's recursion and the principal specialization, with the route
each input takes.  The last tests check that the package defines no
enumeration API, and that every name the benchmark looks up in it
resolves.
"""

import ast
import collections
import copy
import importlib
import io
import itertools
import json
import math
import operator
import pickle
import pkgutil
import random
import struct
from functools import partial
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
    class_to_char,
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
from steinberg import characters, grothendieck, kronecker
from steinberg.characters import _kronecker, _slot_width
from steinberg.kronecker import _slot_int, _to_slots, _weights_at
from steinberg.rootdata import RootSystem, apply_simple_reflection
from steinberg.cli import run

TYPES = sorted(oracles.POSITIVE_ROOT_COUNTS)
# Above this group order one alternating sum takes a noticeable fraction of
# a second, so those types expand a single fundamental character only.
LARGE_ORDER = 6000


def _settings(hypothesis, max_examples):
    """The property tests' settings: the same examples on every run, none shrunk.

    A failing example is reported as generated, not minimized first, so a
    failure is seen in seconds; every example is still generated and checked.
    """
    return hypothesis.settings(
        max_examples=max_examples, deadline=None, derandomize=True, database=None,
        phases=[phase for phase in hypothesis.Phase if phase is not hypothesis.Phase.shrink])


def _fundamental(rs, i):
    return _fundamental_of(rs.rank, i)


def _fundamental_of(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


def _unfactored(chi):
    """A formed copy of chi that keeps its root-system tag and holds no pair or ``_highest``.

    ``char_to_class`` straightens such a copy term by term.
    """
    return Character._raw(dict(chi.items()), chi._invariant_for)


@pytest.fixture
def straightened(monkeypatch):
    """The root system of each ``grothendieck._straighten`` call the test makes, in order."""
    calls = []
    real = grothendieck._straighten

    def spy(rs, items):
        calls.append(rs)
        return real(rs, items)

    monkeypatch.setattr(grothendieck, "_straighten", spy)
    return calls


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

    expected = KElement(oracles.alternating_expansion(rs, group, chi))
    assert char_to_class(rs, chi) == char_to_class(rs, _unfactored(chi)) == expected
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


# Weyl characters that carry no ``_highest``: tensor forms their products on
# every call, so a test that counts the kernel paths of tensor sees each.
_uncached = weyl_character.__wrapped__


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


def _kernel_direct(a, b, bound=None) -> dict:
    """``_kronecker`` on a and b, packed in the layout ``tensor`` uses, decoded.

    Keys count the product's box with the last coordinate fastest, each
    factor's key relative to its own minimum.  The bound defaults to
    sum|a| * max|b|.  The kernel returns the slots of that box, which must
    be the box it was given.  b's operand is its packed items as one slot
    int (``_slot_int``).
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
    operand = partial(_slot_int, packed(b, lo_b))
    vals, box = _kronecker(packed(a, lo_a), operand, ranges, bound)
    assert box == ranges and len(vals) == math.prod(widths)
    return _weights_at(vals, box)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The bound of every ``_kronecker`` call that ``tensor`` makes."""
    calls = []
    real = characters._kronecker

    def spy(aitems, operand, ranges, bound, mirror=False):
        calls.append(bound)
        return real(aitems, operand, ranges, bound, mirror)

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
        a, b = _uncached(rs, lam), _uncached(rs, mu)
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


@pytest.fixture
def kernel_paths(kernel_calls, monkeypatch):
    """Per ``_kronecker`` call of ``tensor``: (mirror asked, path taken, slot bytes).

    The path is read off what the kernel reads back: the mirrored path
    reads the upper (N + 1) / 2 slots of a box of N, the full path all N.
    """
    paths, reads = [], []
    spy, to_slots = characters._kronecker, kronecker._to_slots

    def counted(value, n, nbytes, fmt):
        reads.append((n, nbytes))
        return to_slots(value, n, nbytes, fmt)

    def kernel(aitems, operand, ranges, bound, mirror=False):
        del reads[:]
        out = spy(aitems, operand, ranges, bound, mirror)
        box = math.prod(map(len, ranges))
        (n, nbytes), = reads
        paths.append((mirror, "mirrored" if n == box // 2 + 1 < box else "full", nbytes))
        return out

    monkeypatch.setattr(kronecker, "_to_slots", counted)
    monkeypatch.setattr(characters, "_kronecker", kernel)
    return paths


NEGATION_TYPES = [("A", 1), ("B", 2), ("G", 2), ("B", 3), ("C", 3), ("B", 4), ("C", 4),
                  ("D", 4), ("F", 4)]


@pytest.mark.parametrize("series,rank", NEGATION_TYPES)
def test_mirrored_kernel_on_types_with_negation_in_w(series, rank, kernel_paths):
    # -1 is in W, so a W-invariant product is symmetric and the kernel sums
    # only its upper half.  Products whose box is too sparse for the kernel
    # take the pair loop, so each type is checked to have mirrored some.
    rs = build_root_system(series, rank)
    assert rs.negation_in_w
    a, b = _uncached(rs, _fundamental(rs, 0)), _uncached(rs, _fundamental(rs, rank - 1))
    twisted = frobenius_twist(a, 1, 2)
    cases = [(a, b), (a - 2 * b, b), (tensor(a, b), a), (3 * a - b, twisted)]
    if rank <= 4 and series != "F":
        # The twist identity: St (x) Delta(lam)^(1) = Delta(p . lam).
        for p in (2, 3) if rank <= 3 else (2,):
            st = steinberg_character(rs, p)
            cases.append((st, frobenius_twist(a, 1, p)))
            if rank <= 3:
                expected = weyl_character(rs, dot_multiply(p, _fundamental(rs, 0)))
                assert tensor(st, frobenius_twist(a, 1, p)) == expected
    del kernel_paths[:]
    for x, y in cases:
        prod = _convolution_agrees(x, y)
        assert prod._invariant_for is rs
    assert kernel_paths and all(path == "mirrored" for _, path, _ in kernel_paths)


@pytest.mark.parametrize("series,rank", [("A", 2), ("D", 5), ("E", 6)])
def test_mirrored_kernel_needs_negation_in_w(series, rank, kernel_paths, monkeypatch):
    # On these types -w0 is a nontrivial diagram automorphism, so products
    # need not be symmetric.  The pair loop answers most of their products,
    # so the kernel is forced by making a pair cost more than any box.
    rs = build_root_system(series, rank)
    assert not rs.negation_in_w
    monkeypatch.setattr(characters, "_PAIR_COST", 10**9)
    a, b = _uncached(rs, _fundamental(rs, 0)), _uncached(rs, _fundamental(rs, 1))
    for x, y in ((a, a), (a, b), (a - 2 * b, b)):
        assert _convolution_agrees(x, y)._invariant_for is rs
    assert len(kernel_paths) == 6
    assert all(call[:2] == (False, "full") for call in kernel_paths)
    # The same forcing on a type with -1 in W mirrors.
    b5 = build_root_system("B", 5)
    del kernel_paths[:]
    _convolution_agrees(_uncached(b5, (1, 0, 0, 0, 0)), _uncached(b5, (0, 0, 0, 0, 1)))
    assert [path for _, path, _ in kernel_paths] == ["mirrored"] * 2


def test_mirrored_kernel_needs_both_tags(kernel_paths):
    b2, c2 = build_root_system("B", 2), build_root_system("C", 2)
    a, b = _uncached(b2, (3, 3)), _uncached(b2, (4, 2))
    del kernel_paths[:]
    _convolution_agrees(a, b)
    assert kernel_paths == [(True, "mirrored", 2)] * 2
    # An untagged factor, or factors tagged for two root systems (B2 and C2
    # share coordinates), take the full path.
    for x, y in ((Character(a.items()), b), (a, Character(b.items())),
                 (a, _uncached(c2, (4, 2)))):
        del kernel_paths[:]
        _convolution_agrees(x, y)
        assert kernel_paths == [(False, "full", 2)] * 2


def _read_box(value, nbytes, fmt, box) -> dict:
    # The slots of value over the box, decoded as a character's terms are.
    return _weights_at(_to_slots(value, math.prod(map(len, box)), nbytes, fmt), box)


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
        assert _read_box(packed, nbytes, fmt, [range(2, 7), range(-3, 4)]) == {
            (2 + k // 7, -3 + k % 7): m for k, m in kept.items()}


@pytest.mark.parametrize("nbytes,fmt", [(2, "h"), (4, "i"), (8, "q")])
def test_slot_codec_swaps_bytes_on_a_big_endian_machine(nbytes, fmt, monkeypatch):
    # A native slot buffer of a big-endian machine holds each slot's bytes
    # most significant first.  With the swap forced, such a buffer must read
    # as the int whose slot k is slot k, and that int must write back to
    # the same bytes; both hold on a machine of either byte order.
    rng = random.Random(f"big-endian/{nbytes}")
    bits, top = 8 * nbytes, 1 << (8 * nbytes - 1)
    vals = [rng.randrange(-top, top) for _ in range(9)] + [-1, 0, top - 1, -top]
    value = sum((m % (1 << bits)) << bits * k for k, m in enumerate(vals))
    native = b"".join(v.to_bytes(nbytes, "big", signed=True) for v in vals)
    assert native == struct.pack(f">{len(vals)}{fmt}", *vals)
    monkeypatch.setattr(kronecker, "_SWAP", True)
    assert kronecker._from_slots(native, fmt) == value
    assert kronecker._to_slots(value, len(vals), nbytes, fmt).tobytes() == native


@pytest.mark.parametrize("nbytes,fmt", [(2, "h"), (4, "i"), (8, "q")])
def test_decoded_slots_match_the_per_slot_oracle(nbytes, fmt):
    # Random slot integers with signed slots, dense and sparse, the all-zero
    # one and one-slot boxes.
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
                assert _read_box(v, nbytes, fmt, box) == oracles.read_slots(v, nbytes, box), (
                    v, box)
    # A slot at the bottom of the range and one at the top, next to zeros.
    box = [range(-1, 2), range(0, 2)]
    value = (top << bits * 5) | (top - 1) << bits * 1
    assert _read_box(value, nbytes, fmt, box) == {(-1, 1): top - 1, (1, 1): -top}


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


def _mirrored_slot_width_at_its_bounds(total, nbytes, kernel_calls, kernel_paths):
    # The mirrored path's guard slot is off by up to |a| terms, so its slots
    # are sized for bound + |a| = total.  On A1, a = x + Delta(2), with
    # terms 1, x + 1, 1 at -2, 0, 2, has |a| = 3 and sum|a| = x + 3; against
    # Delta(16), all ones, the bound is x + 3 and the product reaches it at 0.
    a1 = build_root_system("A", 1)
    a = (total - 6) * weyl_character(a1, (0,)) + weyl_character(a1, (2,))
    b = weyl_character(a1, (16,))
    for sign in (1, -1):
        del kernel_paths[:]
        prod = _convolution_agrees(sign * a, b)
        assert prod.mult((0,)) == sign * (total - 3)
        assert kernel_calls[-1] == total - 3
        if nbytes is None:
            # bound + |a| fits no slot, but the bound does: the full path.
            assert kernel_paths == [(True, "full", 8)] * 2
        else:
            assert kernel_paths == [(True, "mirrored", nbytes)] * 2


def test_mirrored_guard_slot_absorbs_the_floors(kernel_paths):
    # a = -5461 (Delta(1) + Delta(3)) on A1 against Delta(6): the bound is
    # 32766 < 2^15, and the product is -32766 at -1, the guard slot, which
    # the floored shifts lower by up to |a| = 4 more.  2-byte slots would
    # borrow from slot 0; the mirrored path takes 4.
    a1 = build_root_system("A", 1)
    a = -5461 * (weyl_character(a1, (1,)) + weyl_character(a1, (3,)))
    b = weyl_character(a1, (6,))
    del kernel_paths[:]
    prod = _convolution_agrees(a, b)
    assert prod.mult((-1,)) == prod.mult((1,)) == -32766
    assert kernel_paths == [(True, "mirrored", 4)] * 2


@pytest.mark.parametrize("total,nbytes", [
    (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8), (2**63 - 1, 8), (2**63, None),
])
def test_kronecker_slot_width_at_its_bounds(total, nbytes, kernel_calls, kernel_paths):
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
    _mirrored_slot_width_at_its_bounds(total, nbytes, kernel_calls, kernel_paths)


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


OPERAND_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
                 ("A", 4), ("B", 4), ("D", 4)]


def test_one_operand_serves_every_product_it_is_the_larger_factor_of(monkeypatch):
    # One value b is the larger factor of several products against smaller
    # factors whose boxes differ, so each product lays b's own slots into
    # other strides.  b is a cached Weyl character (slots up to rank 2,
    # terms above), or a signed product that holds the kernel's slots.  A
    # smaller factor is a Weyl character, twisted by 1, 2 or 3, scaled by
    # +-1, +-2^20 or 2^40 (2-, 4- and 8-byte slots) and tagged or not (the
    # mirrored and the full kernel).  Half the cases force the kernel, which
    # the rule gives few products above rank 3.  Every product equals the
    # naive one; a b that holds slots keeps them unread unless the pair loop
    # ran, and the cached b builds its bytes at most once per slot width
    # however often it is used.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = [build_root_system(*key) for key in OPERAND_TYPES]
    weights = {rs: [w for w in itertools.product(range(3), repeat=rs.rank)
                    if characters._weyl_dimension(rs, w) <= 400] for rs in systems}
    asked = []
    real_operand, real_parts = characters._operand, characters._slot_parts
    built = []

    def parts(*args):
        built.append(args[-1])
        return real_parts(*args)

    def operand(chi, box, cols, widths, nbytes, fmt):
        del built[:]
        out = real_operand(chi, box, cols, widths, nbytes, fmt)
        asked.append((chi, fmt, bool(built)))
        return out

    monkeypatch.setattr(characters, "_slot_parts", parts)
    monkeypatch.setattr(characters, "_operand", operand)
    reached = collections.Counter()
    uncached = weyl_character.__wrapped__
    pair_cost = characters._PAIR_COST

    @st.composite
    def cases(draw):
        rs = draw(st.sampled_from(systems))
        big = draw(st.sampled_from([w for w in weights[rs] if any(w)]))
        signed = draw(st.booleans())
        small = draw(st.lists(st.tuples(
            st.sampled_from(weights[rs]), st.sampled_from(((0, 2), (1, 2), (1, 3))),
            st.sampled_from((1, -1, 2**20, -(2**20), 2**40)), st.booleans()),
            min_size=2, max_size=5))
        return rs, big, signed, small, draw(st.booleans())

    @_settings(hypothesis, 60)
    @hypothesis.given(cases())
    def check(case):
        rs, big, signed, small, forced = case
        monkeypatch.setattr(characters, "_PAIR_COST", 10**9 if forced else pair_cost)
        weyl_character.cache_clear()
        if signed:
            x = weyl_character(rs, big) - 2 * weyl_character(rs, (0,) * rs.rank)
            b = tensor(x, weyl_character(rs, _fundamental(rs, 0)))
            y = uncached(rs, big) - 2 * uncached(rs, (0,) * rs.rank)
            twin = Character(oracles.convolve_naive(y, uncached(rs, _fundamental(rs, 0))))
        else:
            b, twin = weyl_character(rs, big), uncached(rs, big)
        slotted = b._slots() is not None
        del asked[:]
        used = 0
        for lam, (r, p), scale, tagged in small:
            a = scale * frobenius_twist(weyl_character(rs, lam), r, p)
            if not tagged:
                a = Character(a.items())
            if len(a) >= len(twin):
                continue
            expected = oracles.convolve_naive(a, twin)
            assert dict(tensor(a, b).items()) == expected == dict(tensor(b, a).items())
            used += 2
        mine = [(fmt, new) for chi, fmt, new in asked if chi is b]
        if slotted and len(mine) == used:  # the kernel ran every time
            assert b._slots() is not None
            reached["slots kept"] += 1
        if not signed:
            for fmt in {fmt for fmt, _ in mine}:
                assert sum(new for f, new in mine if f == fmt) <= 1, (fmt, mine)
            reached["reused"] += len(mine) > len({fmt for fmt, _ in mine})
        reached["signed slots" if signed and slotted else "signed" if signed else "cached"] += 1
        reached.update(f"width {fmt}" for fmt, _ in mine)
        reached[f"rank {rs.rank}"] += bool(mine)

    try:
        check()
    finally:
        weyl_character.cache_clear()
    print("\noperand branches reached: " + ", ".join(
        f"{branch} {n}" for branch, n in sorted(reached.items())))
    branches = ["reused", "signed slots", "cached", "slots kept", "width h", "width i", "width q"]
    assert [branch for branch in branches + [f"rank {r}" for r in range(1, 5)]
            if not reached[branch]] == []


@pytest.mark.parametrize("contract_first", [True, False], ids=["contract-first", "operand-first"])
@pytest.mark.parametrize("key", [("A", 3), ("B", 3)], ids=["A3", "B3"])
def test_contraction_and_operand_memo_entries_do_not_collide(key, contract_first, monkeypatch):
    # A value's _memo keeps its residue classes under the int p, its
    # contraction classes under (rs, p), and its kernel operand under "box"
    # and the slot format.  A cached Weyl character contracted at p = 2 (a
    # factor of an unformed product, and on its own), then the larger
    # factor of a product in 2-byte slots, or the same in the reverse
    # order, gives the naive product and the naive contractions.
    monkeypatch.setattr(characters, "_PAIR_COST", 10**9)  # the kernel for every product
    rs = build_root_system(*key)
    uncached = weyl_character.__wrapped__
    lam, mu = (1,) + (0,) * (rs.rank - 1), (1,) * rs.rank
    small, big = uncached(rs, lam), uncached(rs, mu)
    weyl_character.cache_clear()
    try:
        x, b = weyl_character(rs, lam), weyl_character(rs, mu)

        def contract():
            prod = tensor(x, b)
            assert prod._pair() is not None
            assert dict(contract_weights(prod, 2).items()) == oracles.contract_naive(
                oracles.convolve_naive(small, big), 2)
            assert dict(class_to_char(rs, frobenius_contract_class(rs, b, 2)).items()) == (
                oracles.contract_naive(dict(big.items()), 2))

        def operand():
            prod = tensor(Character(x.items()), b)
            assert dict(prod.items()) == oracles.convolve_naive(small, big)

        for step in (contract, operand) if contract_first else (operand, contract):
            step()
        assert {2, (rs, 2), "box", "h"} <= set(b._memo)
        for step in (contract, operand):  # each reads its own entries back
            step()
    finally:
        weyl_character.cache_clear()


SMALL_TYPES = [key for key in TYPES if key[1] <= 3]


def _class_inputs(rs):
    """W-invariant characters of every kind the class routes meet, by name."""
    rank = rs.rank
    zero, rho = (0,) * rank, (1,) * rank
    first, last = _fundamental(rs, 0), _fundamental(rs, rank - 1)
    st = steinberg_character(rs, 3)
    # Without its factors, so that char_to_class straightens it (and every
    # product with it) term by term.
    product = _unfactored(tensor(weyl_character(rs, first), weyl_character(rs, last)))
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
def test_class_routes_match_peeling_and_the_denominator_oracle(series, rank, straightened):
    # Class expansions of every kind of input agree with peeling; Steinberg
    # multiplicities agree with |W| lookups in the Weyl denominator
    # (oracles.denominator_coefficient) and with straightening and peeling
    # of the contracted weights, and read the class that
    # frobenius_contract_class kept without straightening again.
    rs = build_root_system(series, rank)
    zero = (0,) * rank
    inputs = _class_inputs(rs)
    expected = {}
    for name, chi in inputs.items():
        expected[name] = grothendieck._straighten(rs, chi.items())
        assert char_to_class_by_peeling(rs, chi) == expected[name], name
        assert char_to_class(rs, chi) == expected[name], name
    assert expected["signed"].coeff(zero) < 0
    chi = inputs["steinberg product"]
    for p in (2, 3):
        weights = contract_weights(chi, p)
        contracted = grothendieck._straighten(rs, weights.items())
        assert frobenius_contract_class(rs, chi, p) == contracted
        assert char_to_class_by_peeling(rs, weights) == contracted
        del straightened[:]
        lams = set(contracted.support()) | {zero, (1,) * rank, (5,) * rank}
        for lam in lams:
            assert steinberg_delta_multiplicity(rs, chi, lam, p) == contracted.coeff(lam) == (
                oracles.denominator_coefficient(rs, chi, lam, p)), lam
        assert straightened == []


@pytest.mark.parametrize("series", ["A", "B", "G"])
def test_rank_two_steinberg_multiplicities_straighten_once_per_p(series, straightened):
    # St (x) Delta(1, 1) at p = 5, 7: its Steinberg multiplicities equal |W|
    # lookups in the Weyl denominator (oracles.denominator_coefficient) and
    # the coefficients of its straightened contraction, which is straightened
    # once per p, on the first multiplicity read.
    rs = build_root_system(series, 2)
    chis = [_unfactored(tensor(steinberg_character(rs, p), weyl_character(rs, (1, 1))))
            for p in (5, 7)]
    for chi in chis:
        assert char_to_class(rs, chi) == char_to_class_by_peeling(rs, chi)
    contracted = [grothendieck._straighten(rs, contract_weights(chi, p).items())
                  for chi, p in zip(chis, (5, 7))]
    del straightened[:]
    for chi, p, expected in zip(chis, (5, 7), contracted):
        for lam in set(expected.support()) | {(0, 0), (2, 2)}:
            assert steinberg_delta_multiplicity(rs, chi, lam, p) == expected.coeff(lam) == (
                oracles.denominator_coefficient(rs, chi, lam, p))
    assert straightened == [rs, rs]


def _small_weights() -> dict:
    """Per type of the 22, its dominant weights of coordinate sum <= 2, by Weyl dimension."""
    weights = {}
    for key in TYPES:
        rs = build_root_system(*key)
        small = [w for w in itertools.product(range(3), repeat=rs.rank) if sum(w) <= 2]
        weights[rs] = sorted(small, key=lambda w: (characters._weyl_dimension(rs, w), w))
    return weights


def test_cached_products_expand_over_their_factors_and_nothing_else_does(monkeypatch):
    # Products of 2 to 4 cached Weyl characters at dominant weights of size
    # <= 2, on random types among the 22, whose dimensions multiply to at
    # most 20000: char_to_class expands each by Brauer-Klimyk over the pair
    # it holds while its terms are not formed, and must agree with
    # straightening a formed copy and with peeling.  Once its terms are
    # read, the product holds no pair and is straightened to the same
    # class.  A single Weyl character, a product of two products (no side is
    # a single Weyl character) and every value built another way (uncached,
    # user input, twists, negations, sums) is straightened term by term.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget = 20000
    weights = _small_weights()
    routes = []

    def spy(name, real):
        def route(*args):
            routes.append(name)
            return real(*args)
        return route

    monkeypatch.setattr(grothendieck, "_klimyk", spy("klimyk", grothendieck._klimyk))
    monkeypatch.setattr(grothendieck, "_straighten", spy("straighten", grothendieck._straighten))
    reached = collections.Counter()

    def expand(rs, chi, branch):
        # char_to_class of chi, which must take exactly the route of branch:
        # Brauer-Klimyk straightens once, over the product's factors.
        del routes[:]
        out = char_to_class(rs, chi)
        assert routes == {"klimyk": ["klimyk", "straighten"], "straighten": ["straighten"]}[
            branch[0]], branch
        reached[branch] += 1
        return out

    @st.composite
    def products(draw):
        rs = draw(st.sampled_from(list(weights)))
        lams, left = [], budget
        for _ in range(draw(st.integers(2, 4))):
            lam = draw(st.sampled_from([w for w in weights[rs]
                                        if characters._weyl_dimension(rs, w) <= left]))
            lams.append(lam)
            left //= characters._weyl_dimension(rs, lam)
        return rs, lams

    def request(rs, lams):
        chi = weyl_character(rs, lams[0])
        for lam in lams[1:]:
            chi = tensor(chi, weyl_character(rs, lam))
        return chi

    @_settings(hypothesis, 80)
    @hypothesis.given(products(), st.sampled_from((2, 3)))
    def check(case, p):
        rs, lams = case
        chi = request(rs, lams)
        a, b = chi._pair()
        assert b._highest == lams[-1]
        assert a._highest == lams[0] if len(lams) == 2 else a._pair() is not None
        unformed = expand(rs, chi, ("klimyk", f"{len(lams)} factors"))
        assert not chi._formed()
        copy = _unfactored(chi)
        expected = expand(rs, copy, ("straighten", "product without factors"))
        assert unformed == expected and chi._formed() and chi._pair() is None
        assert expand(rs, chi, ("straighten", "formed product")) == unformed
        assert char_to_class_by_peeling(rs, copy) == expected
        if len(lams) == 4:
            halves = tensor(request(rs, lams[:2]), request(rs, lams[2:]))
            assert [side._highest for side in halves._pair()] == [None, None]
            assert expand(rs, halves, ("straighten", "product of two products")) == expected
            assert char_to_class_by_peeling(rs, halves) == expected
        single = weyl_character(rs, lams[-1])
        assert expand(rs, single, ("straighten", "Weyl character")) == expand(
            rs, weyl_character.__wrapped__(rs, lams[-1]), ("straighten", "__wrapped__"))
        assert expand(rs, Character(chi.items()), ("straighten", "Character(...)")) == expected
        assert expand(rs, -chi, ("straighten", "negation")) == -expected
        assert expand(rs, chi + single, ("straighten", "sum")) == expected + expand(
            rs, single, ("straighten", "Weyl character"))
        expand(rs, frobenius_twist(chi, 1, p), ("straighten", "twist"))

    check()
    print("\nchar_to_class routes reached: " + ", ".join(
        f"{route} ({kind}) {n}" for (route, kind), n in sorted(reached.items())))
    kinds = ("product without factors", "formed product", "product of two products",
             "Weyl character", "__wrapped__", "Character(...)", "negation", "sum", "twist")
    branches = [("klimyk", f"{n} factors") for n in (2, 3, 4)] + [
        ("straighten", kind) for kind in kinds]
    assert [branch for branch in branches if not reached[branch]] == []


def _box_slots(a, b) -> int:
    # The slots of the box that tensor convolves a and b in; 0 if one is empty.
    if not a or not b:
        return 0
    cols = zip(zip(*a.support()), zip(*b.support()))
    return math.prod(max(x) - min(x) + max(y) - min(y) + 1 for x, y in cols)


def _reads_like_its_decoded_copy(result, tag, probes) -> None:
    """A value of a ``_convolve`` result reads as a copy with its terms decoded.

    Each reader gets a fresh value, so none sees terms another decoded.
    """
    def fresh():
        return Character._raw(result, tag)

    decoded = Character._raw(dict(fresh().items()), tag)
    assert type(result) is dict or fresh()._slots() is not None
    readers = {
        "==": lambda chi: (chi == decoded, decoded == chi),
        "len": len,
        "bool": bool,
        "dim": lambda chi: chi.dim(),
        "mult": lambda chi: [chi.mult(w) for w in probes],
        "items": lambda chi: sorted(chi.items()),
        "repr": repr,
        "to_dict": lambda chi: chi.to_dict(),
    }
    for name, read in readers.items():
        assert read(fresh()) == read(decoded), name
    assert fresh() == fresh()


def test_convolve_routes_agree_on_random_invariant_inputs(monkeypatch, kernel_paths):
    # Random W-invariant pairs on the 22 types: Weyl characters, products
    # of cached ones, Frobenius twists and signed sums, of dimension at most
    # 300.  Each pair is convolved by the pair loop (_PAIR_COST = 0) and by
    # the kernel (10**9), which sums half the box when both factors are
    # tagged for a type with -1 in W and the full box otherwise; there an
    # untagged copy of a factor forces the full box too.  A kernel whose
    # box exceeds 40000 slots is not forced.  Every result must be the
    # tuple convolution and read as its decoded copy does.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget, box_limit = 300, 40000
    weights = {rs: [w for w in small if characters._weyl_dimension(rs, w) <= budget]
               for rs, small in _small_weights().items()}
    pair_cost = characters._PAIR_COST
    reached = collections.Counter()

    @st.composite
    def invariant(draw, rs):
        lam = draw(st.sampled_from(weights[rs]))
        chi = weyl_character(rs, lam)
        kind = draw(st.sampled_from(("Weyl character", "product", "twist", "signed sum")))
        left = budget // characters._weyl_dimension(rs, lam)
        mu = draw(st.sampled_from([w for w in weights[rs]
                                   if characters._weyl_dimension(rs, w) <= max(left, 1)]))
        if kind == "product":
            chi = tensor(chi, weyl_character(rs, mu))
        elif kind == "twist":
            chi = frobenius_twist(chi, 1, draw(st.sampled_from((2, 3))))
        elif kind == "signed sum":
            chi = draw(st.integers(-3, 3)) * chi - 2 * weyl_character(rs, mu)
        return kind, chi

    @st.composite
    def pairs(draw):
        rs = draw(st.sampled_from(list(weights)))
        return rs, draw(invariant(rs)), draw(invariant(rs))

    @_settings(hypothesis, 80)
    @hypothesis.given(pairs())
    def check(case):
        rs, (kind_a, a), (kind_b, b) = case
        reached[kind_a] += 1
        reached[kind_b] += 1
        expected = oracles.convolve_naive(a, b)
        probes = sorted(expected)[:3] + [(99,) * rs.rank]
        forced = [(0, a), (10**9, a)]
        if rs.negation_in_w:
            forced.append((10**9, Character(a.items())))
        for cost, x in forced:
            if cost and _box_slots(x, b) > box_limit:
                reached["kernel not forced: box too large"] += 1
                continue
            monkeypatch.setattr(characters, "_PAIR_COST", cost)
            del kernel_paths[:]
            try:
                result = characters._convolve(x, b)
            finally:
                monkeypatch.setattr(characters, "_PAIR_COST", pair_cost)
            if not x or not b:
                route = "empty factor"
            elif kernel_paths:
                (_, route, _), = kernel_paths
            else:
                route = "pair loop"
            assert (route in ("full", "mirrored")) == (type(result) is not dict), route
            reached[route] += 1
            tag = characters._shared_tag(x, b)
            assert dict(Character._raw(result, tag).items()) == expected, route
            _reads_like_its_decoded_copy(result, tag, probes)

    check()
    print("\n_convolve branches reached: " + ", ".join(
        f"{branch} {n}" for branch, n in sorted(reached.items())))
    branches = ["Weyl character", "product", "twist", "signed sum", "pair loop", "full",
                "mirrored"]
    assert [branch for branch in branches if not reached[branch]] == []


def test_products_the_cache_drops_are_formed_only_when_read(monkeypatch):
    # Products of 2 to 4 cached Weyl characters, drawn as in the test above,
    # from a cold cache.  At every rank the cache holds only their Weyl
    # characters, and each request hands out a fresh product unformed over
    # the pair tensor was given: char_to_class expands it without forming
    # it, and so does contract_weights at p = 2 and 3 above rank 2, by
    # residue classes.  Its first read forms it once, by one convolution of
    # that pair, and touches no cache state; the product drops its pair.  Up
    # to rank 2 that read is the first contraction, so a later read
    # convolves nothing.  A second request is a new unformed value.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget = 20000
    weights = _small_weights()
    convolved = []
    real = characters._convolve

    def spy(a, b):
        convolved.append((a, b))
        return real(a, b)

    monkeypatch.setattr(characters, "_convolve", spy)
    reached = collections.Counter()
    uncached = weyl_character.__wrapped__

    def request(rs, lams):
        chi = weyl_character(rs, lams[0])
        for lam in lams[1:]:
            chi = tensor(chi, weyl_character(rs, lam))
        return chi

    @st.composite
    def products(draw):
        rs = draw(st.sampled_from(list(weights)))
        lams, left = [], budget
        for _ in range(draw(st.integers(2, 4))):
            lam = draw(st.sampled_from([w for w in weights[rs]
                                        if characters._weyl_dimension(rs, w) <= left]))
            lams.append(lam)
            left //= characters._weyl_dimension(rs, lam)
        return rs, lams

    @_settings(hypothesis, 120)
    @hypothesis.given(products())
    def check(case):
        rs, lams = case
        keys = {(rs, lam) for lam in lams}
        expected = uncached(rs, lams[0])
        for lam in lams[1:]:
            expected = Character._raw(real(expected, uncached(rs, lam)), rs)
        weyl_character.cache_clear()
        chi = request(rs, lams)
        dense = rs.rank <= characters._DENSE_RANK
        pair = chi._pair()
        assert pair is not None and set(characters._weyl_cache) == keys
        del convolved[:]
        expansion = char_to_class(rs, chi)
        assert not chi._formed()
        assert not any(a is pair[0] and b is pair[1] for a, b in convolved)
        contracted = {p: contract_weights(chi, p) for p in (2, 3)}
        assert chi._formed() is dense
        assert sum(a is pair[0] and b is pair[1] for a, b in convolved) == (1 if dense else 0)
        state = list(characters._weyl_cache), weyl_character.cache_info()
        del convolved[:]
        assert chi == expected and chi._formed() and chi._pair() is None
        assert sum(a is pair[0] and b is pair[1] for a, b in convolved) == (0 if dense else 1)
        del convolved[:]
        assert len(chi) == len(expected) and not convolved
        assert (list(characters._weyl_cache), weyl_character.cache_info()) == state
        copy = _unfactored(chi)
        assert expansion == char_to_class(rs, copy) == char_to_class_by_peeling(rs, copy)
        assert contracted == {p: contract_weights(copy, p) for p in (2, 3)}
        again = request(rs, lams)
        assert again is not chi and not again._formed() and again == expected
        # Peeling looked up other Weyl characters; still no key is a product's.
        assert all(type(x) is int for _, w in characters._weyl_cache for x in w)
        reached["rank <= 2" if dense else "rank >= 3"] += 1
        reached[f"{len(lams)} factors"] += 1

    try:
        check()
    finally:
        weyl_character.cache_clear()
    print("\nproduct branches reached: " + ", ".join(
        f"{branch} {n}" for branch, n in sorted(reached.items())))
    branches = ["rank <= 2", "rank >= 3"] + [f"{n} factors" for n in (2, 3, 4)]
    assert [branch for branch in branches if not reached[branch]] == []


def test_residue_class_contraction_matches_the_formed_product():
    # Products of 2 to 4 cached Weyl characters on the 22 types, whose
    # dimensions multiply to at most 3000, asked for from a cold cache, at
    # p in {2, 3, 5, 7}.  Each comes unformed over the pair tensor was
    # given; from three factors on, the pair's first value is an unformed
    # product too.  The residue-class contraction of the pair
    # (characters._contract_pair), and contract_weights itself, which
    # leaves the product unformed above rank 2 and forms it, once, up to
    # rank 2, equal contract_weights of the formed product and the oracle's
    # weight-by-weight contraction.  frobenius_contract_class and
    # steinberg_delta_multiplicity give the same on the unformed product and
    # on a formed copy.  A copy of the pair's first value with one
    # multiplicity raised by 1, at minus a weight of the second, is caught:
    # its residue-class contraction follows the oracle away from the
    # unraised one.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget = 3000
    weights = _small_weights()
    uncached = weyl_character.__wrapped__
    reached = collections.Counter()

    @st.composite
    def products(draw):
        rs = draw(st.sampled_from(list(weights)))
        lams, left = [], budget
        for _ in range(draw(st.integers(2, 4))):
            lam = draw(st.sampled_from([w for w in weights[rs]
                                        if characters._weyl_dimension(rs, w) <= left]))
            lams.append(lam)
            left //= characters._weyl_dimension(rs, lam)
        return rs, lams

    @_settings(hypothesis, 100)
    @hypothesis.given(products(), st.sampled_from((2, 3, 5, 7)))
    def check(case, p):
        rs, lams = case
        expected = uncached(rs, lams[0])
        for lam in lams[1:]:
            expected = Character(oracles.convolve_naive(expected, uncached(rs, lam)))
        want = oracles.contract_naive(dict(expected.items()), p)
        weyl_character.cache_clear()
        chi = weyl_character(rs, lams[0])
        for lam in lams[1:]:
            chi = tensor(chi, weyl_character(rs, lam))
        a, b = chi._pair()
        assert (a._pair() is not None and not a._formed()) is (len(lams) > 2)
        dense = rs.rank <= characters._DENSE_RANK
        ranks = "rank <= 2" if dense else "rank >= 3"
        reached[f"{ranks}: {len(lams)} factors"] += 1
        contracted = contract_weights(chi, p)
        assert chi._formed() is dense and dict(contracted.items()) == want
        reached[f"{ranks}: contract_weights {'formed' if dense else 'unformed'}"] += 1
        classes = frobenius_contract_class(rs, chi, p)
        lams_read = sorted(classes.support())[:2] + [(0,) * rs.rank]
        mults = [steinberg_delta_multiplicity(rs, chi, lam, p) for lam in lams_read]
        assert dense or not chi._formed()
        assert characters._contract_pair(a, b, p) == want
        assert dict(contract_weights(expected, p).items()) == want
        formed = Character._raw(dict(expected.items()), rs)
        assert frobenius_contract_class(rs, formed, p) == classes
        assert [steinberg_delta_multiplicity(rs, formed, lam, p) for lam in lams_read] == mults
        assert mults == [classes.coeff(lam) for lam in lams_read]
        reached["nonzero" if any(mults) else "zero"] += 1
        # Raise a's multiplicity at minus b's first weight: weight 0 of the
        # contraction gains b's multiplicity there.
        beta, m = next(iter(b.items()))
        raised = Character(a.items()) + Character({tuple(-x for x in beta): 1})
        after = characters._contract_pair(raised, b, p)
        assert after == oracles.contract_naive(oracles.convolve_naive(raised, b), p) != want
        assert after.get((0,) * rs.rank, 0) == want.get((0,) * rs.rank, 0) + m
        reached[f"p = {p}"] += 1

    try:
        check()
    finally:
        weyl_character.cache_clear()
    print("\nresidue-class contraction branches reached: " + ", ".join(
        f"{branch} {n}" for branch, n in sorted(reached.items())))
    branches = [f"{ranks}: {n} factors" for ranks in ("rank <= 2", "rank >= 3") for n in (2, 3, 4)]
    branches += ["rank <= 2: contract_weights formed", "rank >= 3: contract_weights unformed"]
    branches += ["nonzero", "zero"]
    branches += [f"p = {p}" for p in (2, 3, 5, 7)]
    assert [branch for branch in branches if not reached[branch]] == []


def test_contraction_classes_are_kept_per_value_root_system_and_prime(straightened):
    # A value keeps its contraction class per (rs, p): the first read
    # straightens it, and every later one, through either public function,
    # straightens nothing.  The trivial character is W-invariant on A2 and
    # on G2 alike, so one value holds a class per type and prime.  Pickling
    # and copying drop the classes, and an unformed product above rank 2
    # stays unformed through both functions.
    a2, g2 = build_root_system("A", 2), build_root_system("G", 2)
    for lam in ((3, 3), (1, 1)):
        chi = _unfactored(weyl_character(a2, lam))
        expected = grothendieck._straighten(a2, contract_weights(chi, 2).items())
        del straightened[:]
        for _ in range(2):
            assert steinberg_delta_multiplicity(a2, chi, (0, 0), 2) == expected.coeff((0, 0))
            assert frobenius_contract_class(a2, chi, 2) == expected
        assert straightened == [a2]

    trivial = Character({(0, 0): 1})
    del straightened[:]
    for rs in (a2, g2):
        for p in (2, 3):
            for _ in range(2):
                assert steinberg_delta_multiplicity(rs, trivial, (0, 0), p) == 1
                assert frobenius_contract_class(rs, trivial, p) == KElement({(0, 0): 1})
    assert straightened == [a2, a2, g2, g2]
    for clone in (pickle.loads(pickle.dumps(trivial)), copy.copy(trivial)):
        assert clone == trivial
        del straightened[:]
        assert frobenius_contract_class(g2, clone, 3) == KElement({(0, 0): 1})
        assert straightened == [g2]

    a3 = build_root_system("A", 3)
    factors = weyl_character(a3, (1, 0, 0)), weyl_character(a3, (0, 0, 1))
    chi = tensor(*factors)
    formed = Character(oracles.convolve_naive(*factors))
    for p in (2, 3):
        expected = frobenius_contract_class(a3, formed, p)
        assert frobenius_contract_class(a3, chi, p) == expected
        assert steinberg_delta_multiplicity(a3, chi, (0, 0, 0), p) == expected.coeff((0, 0, 0))
    assert not chi._formed()


def test_steinberg_multiplicity_routes_agree_on_random_invariant_inputs(straightened):
    # Random W-invariant characters on the 22 types: Weyl characters,
    # products of cached ones, Frobenius twists and signed sums, whose
    # dimensions stay within 3000.  steinberg_delta_multiplicity must give
    # the coefficient of frobenius_contract_class, which must equal peeling
    # of the contracted weights, at two weights of its support and at one
    # drawn weight, and read it from the class that call kept, without
    # straightening again.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    budget = 3000
    weights = {rs: [w for w in small if characters._weyl_dimension(rs, w) <= budget]
               for rs, small in _small_weights().items()}
    reached = collections.Counter()

    @st.composite
    def inputs(draw):
        rs = draw(st.sampled_from(list(weights)))
        lam = draw(st.sampled_from(weights[rs]))
        chi = weyl_character(rs, lam)
        kind = draw(st.sampled_from(("Weyl character", "product", "twist", "signed sum")))
        left = budget // characters._weyl_dimension(rs, lam)
        mu = draw(st.sampled_from([w for w in weights[rs]
                                   if characters._weyl_dimension(rs, w) <= max(left, 1)]))
        if kind == "product":
            chi = tensor(chi, weyl_character(rs, mu))
        elif kind == "twist":
            chi = frobenius_twist(chi, 1, draw(st.sampled_from((2, 3))))
        elif kind == "signed sum":
            chi = draw(st.integers(-3, 3)) * chi - 2 * weyl_character(rs, mu)
        top = (draw(st.integers(0, 3)),) * rs.rank
        return rs, kind, chi, top

    @_settings(hypothesis, 50)
    @hypothesis.given(inputs(), st.sampled_from((2, 3, 5)))
    def check(case, p):
        rs, kind, chi, drawn = case
        contracted = frobenius_contract_class(rs, chi, p)
        assert char_to_class_by_peeling(rs, contract_weights(chi, p)) == contracted
        reached[kind] += 1
        # A product above rank 2 comes unformed and stays unformed.
        unformed = not chi._formed() and rs.rank > characters._DENSE_RANK
        del straightened[:]
        for lam in sorted(contracted.support())[:2] + [drawn]:
            reached["nonzero" if contracted.coeff(lam) else "zero"] += 1
            assert steinberg_delta_multiplicity(rs, chi, lam, p) == contracted.coeff(lam), lam
        assert straightened == []
        if unformed:
            assert not chi._formed()
            reached["unformed product"] += 1

    check()
    print("\nSteinberg multiplicity branches reached: " + ", ".join(
        f"{branch} {n}" for branch, n in sorted(reached.items())))
    branches = ["Weyl character", "product", "twist", "signed sum", "nonzero", "zero",
                "unformed product"]
    assert [branch for branch in branches if not reached[branch]] == []


@pytest.mark.parametrize("series,rank,pairs", [
    ("D", 5, [(0, 0), (0, 4), (1, 3)]),
    ("F", 4, [(0, 2), (2, 3), (3, 3)]),
    ("B", 5, [(0, 4), (4, 4)]),
    ("E", 6, [(0, 5)]),
])
def test_large_groups_keep_straightening(series, rank, pairs, straightened):
    # Products of two small fundamental characters: each contraction class
    # is straightened once per p, agrees with peeling of the contracted
    # weights, and gives the Steinberg multiplicity at 0 without
    # straightening again.
    rs = build_root_system(series, rank)
    zero = (0,) * rank
    for i, j in pairs:
        chi = tensor(weyl_character(rs, _fundamental(rs, i)), weyl_character(rs, _fundamental(rs, j)))
        expected = grothendieck._straighten(rs, chi.items())
        assert char_to_class(rs, chi) == char_to_class(rs, _unfactored(chi)) == expected
        for p in (2, 3):
            del straightened[:]
            contracted = frobenius_contract_class(rs, chi, p)
            assert steinberg_delta_multiplicity(rs, chi, zero, p) == contracted.coeff(zero)
            assert straightened == [rs]
            assert char_to_class_by_peeling(rs, contract_weights(chi, p)) == contracted


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
        vals, box = characters._weyl_formula(rs, lam)
        route = _weights_at(vals, box)
        # The slots are cut to the tightest box of the support.
        assert box == [range(min(col), max(col) + 1) for col in zip(*route)], lam
        assert len(vals) == math.prod(map(len, box)), lam
        assert route == characters._freudenthal(rs, lam), lam
        assert dict(weyl_character(rs, lam).items()) == route, lam
        assert sum(route.values()) == oracles.weyl_dimension(series, rank, lam)
        assert oracles.principal_specialization(rs, route) == oracles.q_dimension(rs, lam), lam
        # The partition-function oracle takes 5 to 10 s on G2's largest two.
        if series != "G" or max(lam) < 20:
            assert route == oracles.character_by_weyl_sum(rs, group, lam), lam


def test_weyl_formula_on_a1_matches_rank_one_theory(monkeypatch):
    rs = build_root_system("A", 1)
    # Every weight of rank <= 2 takes the route.
    for m in range(40):
        assert _weights_at(*characters._weyl_formula(rs, (m,))) == (
            oracles.a1_weyl_character_weights(m))
    monkeypatch.setattr(characters, "_freudenthal", None)
    for m in range(40):
        assert dict(weyl_character.__wrapped__(rs, (m,)).items()) == (
            oracles.a1_weyl_character_weights(m))


def _numerator_keys(rs, group, lam):
    """(keys, n): the keys of the numerator's weights w . lam in the box of W lam.

    The box is the tightest around the orbit, found by search, and each key
    is shifted up by the key steps of the roots alpha whose -alpha steps
    down, as Weyl's formula shifts its numerator.
    """
    box = [range(min(col), max(col) + 1) for col in zip(*oracles.orbit_by_search(rs, lam))]
    widths = [len(r) for r in box]
    strides = kronecker._strides(widths)
    shift = sum(max(0, sum(map(operator.mul, f, strides))) for f in rs.positive_fund)
    keys = [sum((x - r.start) * s for x, r, s in zip(oracles.dot(m, lam), box, strides)) + shift
            for m, _ in group]
    return keys, math.prod(widths)


def test_weyl_formula_is_exact_where_its_numerator_leaves_or_aliases_in_the_box():
    # The formula keys its numerator in the box of W lam: some keys fall
    # outside its n slots, and on A2 and B2 two numerator weights can share
    # a slot, whose signs must be summed.  At every such nonzero weight of
    # size <= 4 (<= 20 on A1) it must agree with the recursion and the
    # partition function.
    outside, aliased = collections.Counter(), collections.Counter()
    for series, rank in RANK_AT_MOST_TWO:
        rs = build_root_system(series, rank)
        group = oracles.weyl_group(rs)
        name = f"{series}{rank}"
        for lam in itertools.product(range(21 if rank == 1 else 5), repeat=rank):
            if not any(lam):
                continue  # the trivial character, returned before any key is formed
            keys, n = _numerator_keys(rs, group, lam)
            inside = [k for k in keys if 0 <= k < n]
            leaves, aliases = len(inside) < len(keys), len(set(inside)) < len(inside)
            if not (leaves or aliases):
                continue
            outside[name] += leaves
            aliased[name] += aliases
            route = _weights_at(*characters._weyl_formula(rs, lam))
            assert route == characters._freudenthal(rs, lam), (name, lam)
            assert route == oracles.character_by_weyl_sum(rs, group, lam), (name, lam)
    print(f"\nnumerator keys outside the box: {dict(outside)}; aliased: {dict(aliased)}")
    assert all(outside[f"{series}{rank}"] for series, rank in RANK_AT_MOST_TWO)
    assert aliased["A2"] and aliased["B2"]


@pytest.mark.parametrize("series,rank", TYPES)
def test_weyl_formula_at_zero_is_the_trivial_character(series, rank):
    rs = build_root_system(series, rank)
    vals, box = characters._weyl_formula(rs, (0,) * rank)
    assert type(vals) is memoryview and vals.tolist() == [1] and box == [range(0, 1)] * rank


def test_weyl_formula_raises_on_a_root_of_key_step_zero():
    # B2 rebuilt with W rho's ranges replaced by those of W(lam + rho) cuts
    # the box of W lam to one point, where alpha_2 = (-2, 2) has key step
    # 0: the denominator would map to 0 and its inverse never converge.
    b2 = build_root_system("B", 2)
    ranges = tuple(range(min(col), max(col) + 1)
                   for col in zip(*oracles.orbit_by_search(b2, (2, 1))))
    fields = {name: getattr(b2, name) for name in RootSystem.__slots__}
    fake = RootSystem(**{**fields, "rho_ranges": ranges})
    with pytest.raises(ArithmeticError, match=r"at \[1, 0\] has a root of key step 0"):
        characters._weyl_formula(fake, (1, 0))


def test_weyl_formula_matches_freudenthal_on_random_weights_up_to_rank_four():
    # Nonzero weights of size <= 6 at rank <= 2 and <= 2 above it, of
    # dimension <= 20000, called directly as tools/calibrate.py section 4
    # does: no root may have a key step of 0 in the box of W lam.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = [build_root_system(*key) for key in TYPES if key[1] <= 4]
    reached = collections.Counter()

    @_settings(hypothesis, 60)
    @hypothesis.given(st.sampled_from(systems).flatmap(lambda rs: st.tuples(st.just(rs), st.tuples(
        *[st.integers(0, 6 if rs.rank <= 2 else 2)] * rs.rank))))
    def check(case):
        rs, lam = case
        hypothesis.assume(any(lam) and characters._weyl_dimension(rs, lam) <= 20000)
        route = _weights_at(*characters._weyl_formula(rs, lam))
        assert route == characters._freudenthal(rs, lam), (rs, lam)
        reached[rs.rank] += 1

    check()
    print(f"\nWeyl's formula against the recursion, weights per rank: {dict(sorted(reached.items()))}")
    assert sorted(reached) == [1, 2, 3, 4]


def test_weyl_character_routes_agree_on_random_dominant_weights(monkeypatch):
    # Random dominant weights of coordinate sum <= 2 and dimension <= 3000
    # over the 22 types; on the types whose W has more than LARGE_ORDER
    # elements, the fundamental weights of dimension <= 100 only, as the
    # alternating sum over W is the oracle's cost there.  Freudenthal's
    # recursion is forced on every type (_DENSE_RANK = 0) and Weyl's
    # formula on ranks <= 4 (_DENSE_RANK = 4), where its box stays small;
    # the formula's value holds slots, the recursion's terms.  Each agrees
    # with the partition-function formula on ranks <= 2, and above that is
    # W-invariant and expands by alternating sums to the one Weyl class at
    # lam, which fixes every multiplicity.  On every type its principal
    # specialization is Weyl's q-dimension, a third oracle that never lists
    # W, and which catches one multiplicity raised by 1.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = {}
    for rs, small in _small_weights().items():
        cap = 3000
        if rs.weyl_order > LARGE_ORDER:
            small, cap = [w for w in small if sum(w) == 1], 100
        weights[rs] = [w for w in small if characters._weyl_dimension(rs, w) <= cap]
    uncached = weyl_character.__wrapped__
    reached = collections.Counter()

    def routed(rs, lam, dense_rank):
        monkeypatch.setattr(characters, "_DENSE_RANK", dense_rank)
        chi = uncached(rs, lam)
        assert (chi._slots() is not None) == (rs.rank <= dense_rank), (rs, lam)
        return chi

    @_settings(hypothesis, 40)
    @hypothesis.given(st.sampled_from(list(weights)).flatmap(
        lambda rs: st.tuples(st.just(rs), st.sampled_from(weights[rs]))))
    def check(case):
        rs, lam = case
        name = f"{rs.series}{rs.rank}"
        chi = routed(rs, lam, 0)
        terms = dict(chi.items())
        q_dim = oracles.q_dimension(rs, lam)
        assert oracles.principal_specialization(rs, chi) == q_dim, (name, lam)
        wrong = dict(terms)
        wrong[random.Random(f"{name}{lam}").choice(sorted(terms))] += 1
        assert oracles.principal_specialization(rs, wrong) != q_dim, (name, lam)
        if rs.rank <= 2:
            group = oracles.weyl_group(rs)
            assert terms == oracles.character_by_weyl_sum(rs, group, lam), (name, lam)
            oracle = "partition function"
        else:
            assert oracles.w_invariant_by_orbits(rs, chi), (name, lam)
            expansion = oracles.alternating_expansion(rs, oracles.weyl_group(rs), chi)
            assert expansion == {lam: 1}, (name, lam)
            oracle = "alternating sum"
        reached["recursion", oracle] += 1
        if rs.rank <= 4:
            formula = routed(rs, lam, 4)
            assert formula == chi and chi == formula and formula.dim() == chi.dim(), (name, lam)
            assert dict(formula.items()) == terms, (name, lam)
            reached["formula", oracle] += 1

    check()
    print("\nweyl_character branches reached: " + ", ".join(
        f"{route} against the {oracle} {n}" for (route, oracle), n in sorted(reached.items())))
    branches = [(route, oracle) for route in ("formula", "recursion")
                for oracle in ("alternating sum", "partition function")]
    assert [branch for branch in branches if not reached[branch]] == []


@pytest.fixture
def slot_reads(monkeypatch):
    """(slot width in bytes, slots read) of every ``_to_slots`` call of ``characters``."""
    reads = []
    real = characters._to_slots

    def spy(value, n, nbytes, fmt):
        reads.append((nbytes, n))
        return real(value, n, nbytes, fmt)

    monkeypatch.setattr(characters, "_to_slots", spy)
    return reads


def _slots_read(rs, vals) -> int:
    # Weyl's formula reads half its box, up to the centre slot, when -1 is
    # in W, and the whole box otherwise.
    return len(vals) // 2 + 1 if rs.negation_in_w else len(vals)


def test_weyl_formula_widens_its_slots_with_the_multiplicities(slot_reads):
    # The route tries 2-byte slots first and widens only when the decoded
    # multiplicities do not sum to dim.  A2's weights have multiplicities of
    # at most min(a, b) + 1, so (30, 30), (31, 31) with dim 2^15 and
    # (40, 40) with dim 68921 > 2^16 all decode at 2 bytes, over the whole
    # box, as -1 is not in W; A1, B2, C2 and G2 read half the box.
    cases = [("A", 2, (30, 30), 29791), ("A", 2, (31, 31), 2**15), ("A", 2, (40, 40), 68921),
             ("A", 1, (40,), 41), ("B", 2, (9, 7), 6720), ("C", 2, (7, 9), 6720),
             ("G", 2, (4, 5), 30107)]
    for series, rank, lam, dim in cases:
        rs = build_root_system(series, rank)
        assert oracles.weyl_dimension(series, rank, lam) == dim
        del slot_reads[:]
        route = weyl_character.__wrapped__(rs, lam)
        vals = route._slots()[0]
        assert slot_reads == [(2, _slots_read(rs, vals))], lam
        assert (slot_reads[0][1] < len(vals)) is rs.negation_in_w, lam
        assert dict(route.items()) == characters._freudenthal(rs, lam)
        assert route.dim() == dim
    # G2's (23, 15) has a multiplicity of 32832 >= 2^15: at 2 bytes that slot
    # reads negative, the sum of the half box falls short of dim, and 4
    # bytes are exact.
    rs = build_root_system("G", 2)
    del slot_reads[:]
    route = weyl_character.__wrapped__(rs, (23, 15))
    half = _slots_read(rs, route._slots()[0])
    assert slot_reads == [(2, half), (4, half)]
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


def test_weyl_formula_raises_when_its_widest_slots_overflow(monkeypatch, slot_reads):
    # G2's (23, 15) has a multiplicity of 32832 >= 2^15, so with 2-byte
    # slots as the widest the multiplicities of its half box cannot sum to
    # dim.
    rs = build_root_system("G", 2)
    half = _slots_read(rs, characters._weyl_formula(rs, (23, 15))[0])
    del slot_reads[:]
    monkeypatch.setattr(characters, "_SLOT_WIDTHS", characters._SLOT_WIDTHS[:1])
    assert characters._SLOT_WIDTHS[0][0] == 2
    with pytest.raises(ArithmeticError, match=r"at \[23, 15\]"):
        characters._weyl_formula(rs, (23, 15))
    assert slot_reads == [(2, half)]
    # A weight whose multiplicities fit still decodes.
    assert _weights_at(*characters._weyl_formula(rs, (3, 2))) == characters._freudenthal(rs, (3, 2))


def test_weyl_formula_raises_at_the_first_width_that_holds_dim(monkeypatch):
    # A2's (1, 1) has dim 8, far below 2^15, so no 2-byte slot can overflow:
    # a decode whose multiplicities miss dim there is an error, and wider
    # slots are not tried.  A fake decoder that drops one weight, the last
    # occupied slot, forces it.  So it does on B2's (1, 1), of dim 16, whose
    # half box reads slots up to the centre, and whose sum counts those below
    # the centre twice.
    real, widths = characters._to_slots, []

    def lossy(value, n, nbytes, fmt):
        widths.append(nbytes)
        read = real(value, n, nbytes, fmt)
        vals = memoryview(bytearray(read)).cast(read.format)
        vals[max(k for k, m in enumerate(vals) if m)] = 0
        return vals

    monkeypatch.setattr(characters, "_to_slots", lossy)
    rs = build_root_system("A", 2)
    with pytest.raises(ArithmeticError, match=r"at \[1, 1\] gave .* not dim 8, in 2-byte slots"):
        characters._weyl_formula(rs, (1, 1))
    assert widths == [2]
    del widths[:]
    with pytest.raises(ArithmeticError, match=r"at \[1, 1\] gave .* not dim 16, in 2-byte slots"):
        characters._weyl_formula(build_root_system("B", 2), (1, 1))
    assert widths == [2]


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
                 "weyl_orbit", "root_coordinates", "RANK_CAP", "_neighbours", "_highest_coroot"}


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


COXETER_NUMBERS = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
                   "D": lambda n: 2 * n - 2, "E": lambda n: 12, "F": lambda n: 12,
                   "G": lambda n: 6}


def test_root_tables_are_built_once_with_the_type():
    # The root datum's derived tables are fields of RootSystem, so the only
    # caches in the package are the root-system builder and the Weyl
    # characters.
    cached = {id(v): v for module in (steinberg, *(
        importlib.import_module(f"steinberg.{info.name}")
        for info in pkgutil.iter_modules(steinberg.__path__)))
        for v in vars(module).values() if callable(v) and hasattr(v, "cache_info")}
    assert sorted(v.__name__ for v in cached.values()) == [
        "_build_root_system", "weyl_character"]

    for series, rank in TYPES:
        rs = build_root_system(series, rank)
        # s_i moves omega_i by -alpha_i, whose coordinate k is cartan[k][i].
        for i in range(rank):
            omega = _fundamental(rs, i)
            moved = [x - y for x, y in zip(omega, apply_simple_reflection(rs, i, omega))]
            assert rs.neighbours[i] == tuple((k, c) for k, c in enumerate(moved) if k != i and c)
        assert rs.weyl_order == oracles.weyl_order_formula(series, rank)
        coroot, root = rs.highest_coroot
        assert sum(coroot) == COXETER_NUMBERS[series](rank) - 1
        assert rs.positive_fund[rs.coroots.index(coroot)] == root
        assert sum(map(math.prod, zip(coroot, root))) == 2  # <alpha, alpha^v>
        # -1 is in W exactly when W carries the regular weight (1, ..., r)
        # to its negative.
        v = tuple(range(1, rank + 1))
        negated = tuple(-x for x in v)
        group = oracles.weyl_group(rs)
        assert rs.negation_in_w == any(oracles.act(m, v) == negated for m, _ in group)
        # The coordinate ranges of W rho, the box Weyl's formula subtracts.
        cols = zip(*(oracles.act(m, rs.rho) for m, _ in group))
        assert rs.rho_ranges == tuple(range(min(col), max(col) + 1) for col in cols)
    assert [key for key in TYPES if build_root_system(*key).negation_in_w] == [
        ("A", 1), *(("B", r) for r in range(2, 7)), *(("C", r) for r in range(2, 7)),
        ("D", 4), ("D", 6), ("F", 4), ("G", 2)]


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
