"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test prints an ``ACCEPTANCE n PASS`` line on success (visible with
``pytest -s``); a failing criterion fails its test.  Criterion 1 is timed and
must finish its full sweep in under 60 seconds from a cold cache, which is
why this file keeps it first and pytest runs this file before the others.
"""

import itertools
import random
import time

import pytest

import oracles
from steinberg import (
    Character,
    KElement,
    Lattice,
    alcove_position,
    block_decompose,
    build_root_system,
    char_to_class,
    char_to_class_by_peeling,
    class_to_char,
    contract_weights,
    decompose_in_simple_basis_a1,
    dot_multiply,
    euler_characteristic,
    frobenius_contract_class,
    frobenius_twist,
    fundamental_alcove_rep,
    in_root_lattice,
    is_dominant,
    linked,
    pr_block,
    simple_character_a1,
    steinberg_character,
    steinberg_delta_multiplicity,
    steinberg_forward,
    steinberg_inverse,
    steinberg_weight,
    tensor,
    tensor_delta_expansion,
    weyl_character,
)

TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
PRIMES = (2, 3, 5)
SYSTEMS = {key: build_root_system(*key) for key in TYPES}


def dominant_box(rank, bound):
    return [tuple(w) for w in itertools.product(range(bound + 1), repeat=rank)]


@pytest.fixture(scope="module")
def corpus_factors():
    """The highest weights of 200 random products of up to three Weyl characters per type."""
    out = {}
    for key, rs in SYSTEMS.items():
        rng = random.Random(f"corpus-{key}")
        max_coord = 2 if key == ("G", 2) else 3
        out[key] = [[tuple(rng.randint(0, max_coord) for _ in range(rs.rank))
                     for _ in range(rng.randint(1, 3))] for _ in range(200)]
    return out


@pytest.fixture(scope="module")
def corpus(corpus_factors):
    """The corpus products, each convolved onto the user-built unit character.

    They carry no invariance tag and no cached factors, so every class
    route reads their terms.
    """
    out = {}
    for key, rs in SYSTEMS.items():
        chars = []
        for lams in corpus_factors[key]:
            chi = Character({(0,) * rs.rank: 1})
            for lam in lams:
                chi = tensor(chi, weyl_character(rs, lam))
            chars.append(chi)
        out[key] = chars
    return out


def cached_product(rs, lams):
    """The product of the Weyl characters at lams, as the weyl_character cache hands it out.

    With two or more factors, char_to_class expands it over them by
    Brauer-Klimyk instead of reading its terms.
    """
    chi = weyl_character(rs, lams[0])
    for lam in lams[1:]:
        chi = tensor(chi, weyl_character(rs, lam))
    return chi


def test_criterion_1_steinberg_twist_identity_sweep():
    start = time.perf_counter()
    sides = []
    for key, rs in SYSTEMS.items():
        for p in PRIMES:
            st = steinberg_character(rs, p)
            for lam in dominant_box(rs.rank, 4):
                lhs = tensor(st, frobenius_twist(weyl_character(rs, lam), 1, p))
                rhs = weyl_character(rs, dot_multiply(p, lam))
                assert lhs == rhs, (key, p, lam)
                sides.append((rs, dot_multiply(p, lam), lhs, rhs))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    # A check that never lists W, outside the timed sweep: both sides
    # specialize to Weyl's q-dimension at p . lam.  Unlike equal slot lists
    # and the sum certificate of Weyl's formula, it catches a multiplicity
    # in the wrong slot.
    for rs, top, lhs, rhs in sides:
        q_dim = oracles.q_dimension(rs, top)
        assert oracles.principal_specialization(rs, lhs) == q_dim, (rs, top)
        assert oracles.principal_specialization(rs, rhs) == q_dim, (rs, top)
    print(
        f"\nACCEPTANCE 1 PASS: ch St * twist(ch Delta) = ch Delta(p . lam) for "
        f"{len(sides)} cases in {elapsed:.1f}s, both sides' principal specializations "
        f"equal to the q-dimension"
    )


def test_criterion_2_euler_level_extension():
    checked = 0
    for key, rs in SYSTEMS.items():
        for p in PRIMES:
            rng = random.Random(f"euler-{key}-{p}")
            st = steinberg_character(rs, p)
            done = 0
            while done < 50:
                lam = tuple(rng.randint(-8, 8) for _ in range(rs.rank))
                if is_dominant(lam):
                    continue
                lhs = tensor(st, frobenius_twist(euler_characteristic(rs, lam), 1, p))
                rhs = euler_characteristic(rs, dot_multiply(p, lam))
                assert lhs == rhs, (key, p, lam)
                done += 1
                checked += 1
    print(f"\nACCEPTANCE 2 PASS: Euler-level twist identity on {checked} non-dominant weights")


def test_criterion_3_dual_expansion_agreement(corpus, corpus_factors):
    checked = 0
    for key, rs in SYSTEMS.items():
        for chi, lams in zip(corpus[key], corpus_factors[key]):
            expected = char_to_class_by_peeling(rs, chi)
            assert char_to_class(rs, chi) == expected, key
            cached = cached_product(rs, lams)
            assert cached == chi and char_to_class(rs, cached) == expected, (key, lams)
            checked += 1
    print(f"\nACCEPTANCE 3 PASS: alternating-sum and peeling expansions agree on {checked} products")


def test_criterion_4_steinberg_multiplicity_cross_check(corpus, corpus_factors):
    checked = 0
    for key, rs in SYSTEMS.items():
        zero = (0,) * rs.rank
        for p in PRIMES:
            st = steinberg_character(rs, p)
            for chi, lams in zip(corpus[key], corpus_factors[key]):
                expansion = char_to_class(rs, tensor(st, chi))
                assert char_to_class(rs, tensor(st, cached_product(rs, lams))) == expansion, (
                    key, p, lams)
                candidates = {zero, (1,) * rs.rank}
                for nu in expansion.support():
                    if all((x - p + 1) % p == 0 for x in nu):
                        candidates.add(tuple((x - p + 1) // p for x in nu))
                for lam in sorted(candidates):
                    assert steinberg_delta_multiplicity(rs, chi, lam, p) == expansion.coeff(
                        dot_multiply(p, lam)
                    ), (key, p, lam)
                    checked += 1
    print(f"\nACCEPTANCE 4 PASS: Steinberg multiplicities match product expansions ({checked} coefficients)")


def test_criterion_5_contraction_consistency(corpus):
    # The second side is the paper's relation pr_ST[St (x) M] = F[phi M],
    # read back through F^-1: Brauer-Klimyk on St (x) M, keeping the terms at
    # p . lam.  It shares only _straighten with the contraction class, and
    # _straighten has its own oracle test.
    checked = independent = 0
    for key, rs in SYSTEMS.items():
        for p in PRIMES:
            top = steinberg_weight(rs, p)
            for chi in corpus[key]:
                contracted = frobenius_contract_class(rs, chi, p)
                assert class_to_char(rs, contracted) == contract_weights(chi, p), (key, p)
                checked += 1
                projected = steinberg_inverse(rs, tensor_delta_expansion(rs, top, chi), p)
                assert projected == contracted, (key, p)
                independent += 1
    print(f"\nACCEPTANCE 5 PASS: contraction classes match weight contraction ({checked} "
          f"characters) and the Steinberg part of St (x) M read back by F^-1 "
          f"({independent} characters)")


def test_criterion_6_contraction_positivity(corpus):
    checked = 0
    for key, rs in SYSTEMS.items():
        for p in PRIMES:
            for chi in corpus[key]:
                contracted = frobenius_contract_class(rs, chi, p)
                assert all(c >= 0 for _, c in contracted.items()), (key, p)
                checked += 1
    print(f"\nACCEPTANCE 6 PASS: contraction of Weyl-filtered characters stays effective ({checked} characters)")


def test_criterion_7_round_trip_and_untwisting(corpus):
    total = 0
    for key, rs in SYSTEMS.items():
        rng = random.Random(f"roundtrip-{key}")
        for i in range(125):
            items = {}
            for _ in range(rng.randint(1, 5)):
                w = tuple(rng.randint(0, 9) for _ in range(rs.rank))
                items[w] = rng.choice([-3, -2, -1, 1, 2, 3])
            el = KElement(items)
            p = PRIMES[i % 3]
            assert steinberg_inverse(rs, steinberg_forward(rs, el, p), p) == el, (key, p)
            total += 1
    untwisted = 0
    for key, rs in SYSTEMS.items():
        for p in PRIMES:
            for chi in corpus[key][::4]:
                assert frobenius_contract_class(
                    rs, frobenius_twist(chi, 1, p), p
                ) == char_to_class(rs, chi), (key, p)
                untwisted += 1
    print(
        f"\nACCEPTANCE 7 PASS: inverse-after-forward fixed {total} classes; "
        f"untwisting verified on {untwisted} characters"
    )


def test_criterion_8_steinberg_block_geometry():
    bound = 20
    for key in [("A", 1), ("A", 2)]:
        rs = SYSTEMS[key]
        for p in (3, 5):
            st_weight = (p - 1,) * rs.rank
            lattice_box = [
                w for w in dominant_box(rs.rank, bound) if in_root_lattice(rs, w)
            ]
            linked_set = {
                w for w in lattice_box if linked(rs, w, st_weight, p, Lattice.ADJOINT)
            }
            scaled = {
                dot_multiply(p, lam)
                for lam in dominant_box(rs.rank, bound)
                if in_root_lattice(rs, lam) and max(dot_multiply(p, lam)) <= bound
            }
            assert linked_set == scaled, (key, p)
    print("\nACCEPTANCE 8 PASS: dominant Steinberg block equals the p-dot-scaled dominant cone (box 20)")


def test_criterion_9_rank_one_simple_identities():
    a1 = SYSTEMS[("A", 1)]
    for p in PRIMES:
        st = steinberg_character(a1, p)
        for m in range(26):
            lhs = tensor(st, frobenius_twist(simple_character_a1(a1, (m,), p), 1, p))
            assert lhs == simple_character_a1(a1, dot_multiply(p, (m,)), p), (p, m)
        tables = {
            lam: decompose_in_simple_basis_a1(a1, weyl_character(a1, (lam,)), p)
            for lam in range(26)
        }
        scaled_tables = {
            lam: decompose_in_simple_basis_a1(
                a1, weyl_character(a1, dot_multiply(p, (lam,))), p
            )
            for lam in range(26)
        }
        for lam in range(26):
            for mu in range(26):
                assert tables[lam].get((mu,), 0) == scaled_tables[lam].get(
                    dot_multiply(p, (mu,)), 0
                ), (p, lam, mu)
    print("\nACCEPTANCE 9 PASS: rank-one simples scale through the equivalence (lam, mu <= 25)")


def test_criterion_10_block_decomposition():
    total = 0
    for key in [("A", 1), ("A", 2)]:
        rs = SYSTEMS[key]
        for p in (3, 5):
            rng = random.Random(f"blocks-{key}-{p}")
            for _ in range(25):
                items = {}
                while len(items) < 3:
                    w = tuple(rng.randint(0, 12) for _ in range(rs.rank))
                    if in_root_lattice(rs, w):
                        items[w] = rng.choice([-2, -1, 1, 2])
                el = KElement(items)
                blocks = block_decompose(rs, el, p, Lattice.ADJOINT)
                recombined = KElement()
                for rep, comp in blocks:
                    recombined = recombined + comp
                    assert pr_block(rs, el, rep, p, Lattice.ADJOINT) == comp, (key, p)
                    assert pr_block(rs, comp, rep, p, Lattice.ADJOINT) == comp, (key, p)
                    assert fundamental_alcove_rep(rs, rep, p) == rep, (key, p)
                    assert alcove_position(rs, rep, p).status in ("interior", "wall")
                assert recombined == el, (key, p)
                total += 1
    print(f"\nACCEPTANCE 10 PASS: block decompositions partition {total} adjoint classes")
