"""Library routes that never enumerate W, against sums and searches over all of W.

The library expands characters by Brauer straightening, decides linkage by
closed-alcove normal forms, checks W-invariance by simple reflections and
convolves on packed integer keys.  The oracles sum over, or search, the
fully enumerated Weyl group, count whole orbits, or convolve on tuple keys,
instead.  The last test rebinds ``generate`` so that
any library call of it fails.
"""

import io
import json
import random
import sys

import pytest

import oracles
from steinberg import (
    Character,
    DomainError,
    KElement,
    block_decompose,
    build_root_system,
    char_to_class,
    frobenius_contract_class,
    frobenius_twist,
    generate,
    linked,
    pr_block,
    require_w_invariant,
    steinberg_delta_multiplicity,
    tensor,
    tensor_delta_expansion,
    weyl_character,
)
from steinberg.cli import run

TYPES = sorted(oracles.POSITIVE_ROOT_COUNTS)
# Above this group order one alternating sum takes a noticeable fraction of
# a second, so those types expand a single fundamental character only.
LARGE_ORDER = 6000


def _fundamental(rs, i):
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def _linked_image(rng, rs, group, lam, p):
    """w . lam + p * beta for a random w in W and beta in the root lattice."""
    w = rng.choice(group.elements)
    beta = [rng.randint(-1, 1) for _ in range(rs.rank)]
    return tuple(
        x + p * sum(rs.cartan[k][j] * beta[j] for j in range(rs.rank))
        for k, x in enumerate(w.dot(lam))
    )


@pytest.mark.parametrize("series,rank", TYPES)
def test_class_routes_match_alternating_sums(series, rank):
    rs = build_root_system(series, rank)
    group = generate(rs)
    first, last = _fundamental(rs, 0), _fundamental(rs, rank - 1)
    small = weyl_character(rs, first)
    chi = small if group.order > LARGE_ORDER else tensor(small, weyl_character(rs, last))

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
    group = generate(rs)
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


@pytest.mark.parametrize("series,rank", [("E", 6), ("G", 2)])
def test_library_never_enumerates_the_group(monkeypatch, series, rank):
    def refuse(rs):
        raise AssertionError(f"the library enumerated the Weyl group of {rs!r}")

    for name, module in list(sys.modules.items()):
        if name == "steinberg" or name.startswith("steinberg."):
            for attr, value in list(vars(module).items()):
                if value is generate:
                    monkeypatch.setattr(module, attr, refuse)

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
