"""Affine orbit tests, alcove normal forms, special points, block levels."""

import itertools
import random

import pytest

import oracles
from steinberg import (
    Character,
    DomainError,
    KElement,
    Lattice,
    alcove_position,
    block_decompose,
    build_root_system,
    contract_weights,
    decompose_in_simple_basis_a1,
    dot_dominant,
    dot_multiply,
    euler_characteristic,
    frobenius_contract_class,
    frobenius_twist,
    fundamental_alcove_rep,
    in_root_lattice,
    is_restricted,
    is_special_point,
    pairing,
    root_coordinates,
    linked,
    make_dominant,
    pr_block,
    simple_character_a1,
    st_level,
    steinberg_character,
    steinberg_delta_multiplicity,
    steinberg_forward,
    steinberg_inverse,
    steinberg_split,
    steinberg_weight,
    tensor_delta_expansion,
    weyl_character,
    weyl_orbit,
)
from steinberg.rootdata import in_lattice

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def test_linked_examples():
    assert linked(A1, (4,), (4,), 3)  # reflexive
    assert linked(A1, (0,), (4,), 3)  # reflection through the wall at 2
    assert not linked(A1, (0,), (1,), 3)
    with pytest.raises(DomainError):
        linked(A1, (1,), (3,), 3, Lattice.ADJOINT)


def test_linked_matches_a1_closed_form():
    for p in (2, 3, 5):
        for lam in range(-8, 9):
            for mu in range(-8, 9):
                assert linked(A1, (lam,), (mu,), p) == oracles.a1_linked(lam, mu, p)


@pytest.mark.parametrize("rs,p,bound", [(A1, 3, 8), (A1, 2, 6), (A2, 2, 4), (A2, 3, 4)])
def test_linked_matches_box_enumeration(rs, p, bound):
    rng = random.Random(2024)
    points = [
        tuple(rng.randint(-bound, bound) for _ in range(rs.rank)) for _ in range(6)
    ]
    for lam in points:
        orbit = oracles.affine_orbit_in_box(rs, lam, p, bound)
        box = itertools.product(range(-bound, bound + 1), repeat=rs.rank)
        for mu in box:
            assert linked(rs, lam, mu, p) == (tuple(mu) in orbit)


def test_linked_is_equivalence_on_samples():
    rng = random.Random(12)
    pts = [tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(12)]
    p = 3
    for a in pts:
        assert linked(B2, a, a, p)
        for b in pts:
            assert linked(B2, a, b, p) == linked(B2, b, a, p)
    for a in pts[:6]:
        for b in pts[:6]:
            for c in pts[:6]:
                if linked(B2, a, b, p) and linked(B2, b, c, p):
                    assert linked(B2, a, c, p)


def test_fundamental_alcove_rep_examples():
    assert fundamental_alcove_rep(A1, (4,), 3) == (0,)
    assert fundamental_alcove_rep(A1, (2,), 3) == (2,)  # wall of the closure
    assert fundamental_alcove_rep(A1, (-1,), 3) == (-1,)  # the -rho vertex


def in_closure(rs, weight, p):
    return alcove_position(rs, weight, p).status in ("interior", "wall")


@pytest.mark.parametrize("rs,p", [(A1, 3), (A1, 5), (A2, 3), (B2, 3), (G2, 2)])
def test_fundamental_alcove_rep_properties(rs, p):
    # Exhaustive over the [-10, 10]^rank coordinate box.
    for lam in itertools.product(range(-10, 11), repeat=rs.rank):
        rep = fundamental_alcove_rep(rs, lam, p)
        assert in_closure(rs, rep, p)
        assert fundamental_alcove_rep(rs, rep, p) == rep
        assert linked(rs, lam, rep, p)


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_one_wall_walk_matches_all_walls(series, rank):
    # Random weights of both signs, some moved onto a wall through -rho,
    # plus the vertices of the closed alcove, which lie on its level-p wall.
    rs = build_root_system(series, rank)
    rng = random.Random(f"alcove/{series}{rank}")
    top = max(rs.coroots, key=sum)
    for p in (2, 3, 5, 7):
        points = [(-1,) * rank, (p - 1,) * rank, (0,) * rank]
        for i, d in enumerate(top):
            if p % d == 0:
                points.append(tuple(p // d - 1 if j == i else -1 for j in range(rank)))
        for _ in range(40):
            lam = [rng.randint(-3 * p, 3 * p) for _ in range(rank)]
            if rng.random() < 0.3:
                lam[rng.randrange(rank)] = -1
            points.append(tuple(lam))
        for lam in points:
            assert fundamental_alcove_rep(rs, lam, p) == oracles.alcove_rep_by_all_walls(
                rs, lam, p
            ), (lam, p)


@pytest.mark.parametrize("rs,p", [(A1, 3), (A2, 2), (A2, 3), (B2, 2)])
def test_closure_points_are_pairwise_unlinked(rs, p):
    # The closed bottom alcove is a fundamental domain: distinct points in it
    # lie in distinct orbits.
    span = range(-1, p + 1)
    closure = [
        w for w in itertools.product(span, repeat=rs.rank) if in_closure(rs, w, p)
    ]
    assert closure
    for a, b in itertools.combinations(closure, 2):
        assert not linked(rs, a, b, p)


def test_special_points():
    assert is_special_point(A1, (2,), 3)
    assert is_special_point(A1, (5,), 3)
    assert not is_special_point(A1, (0,), 3)
    assert is_special_point(A2, (2, 2), 3)
    assert not is_special_point(A2, (2, 0), 3)
    # G2 at p = 2: rho - shifted pairings are (1,1,2,3,4,5) + shifts.
    assert is_special_point(G2, (1, 1), 2) == all(
        v % 2 == 0 for v in alcove_position(G2, (1, 1), 2).wall_pairings
    )


def test_special_points_from_scaled_lattice():
    # p . lam is special whenever p * lam has all root pairings in p Z,
    # automatic in the root lattice.
    for p in (3, 5):
        for a in range(-4, 5):
            for b in range(-4, 5):
                lam = (a, b)
                if in_root_lattice(A2, lam):
                    assert is_special_point(A2, dot_multiply(p, lam), p)


def test_special_points_single_orbit_in_adjoint_box():
    # One orbit of special points in adjoint mode requires p coprime to the
    # index of the root lattice: A2 at p = 3 genuinely splits into several
    # orbits ((-4,-1) and (2,2) are special but unlinked), so test A2 at
    # p = 5 and B2 at p = 3.
    for rs, p, bound in [(A2, 5, 10), (B2, 3, 8)]:
        pts = [
            w
            for w in itertools.product(range(-bound, bound + 1), repeat=2)
            if in_root_lattice(rs, w) and is_special_point(rs, w, p)
        ]
        assert pts
        base = (p - 1,) * rs.rank
        for w in pts:
            assert linked(rs, w, base, p, Lattice.ADJOINT)


def test_special_points_can_split_when_p_divides_index():
    assert is_special_point(A2, (-4, -1), 3)
    assert is_special_point(A2, (2, 2), 3)
    assert not linked(A2, (-4, -1), (2, 2), 3, Lattice.ADJOINT)


def test_st_level():
    assert st_level(A1, (2,), 3) == 1
    assert st_level(A1, (8,), 3) == 2
    assert st_level(A1, (1,), 3) == 0
    assert st_level(A1, (26,), 3) == 3
    with pytest.raises(DomainError):
        st_level(A1, (-1,), 3)
    # Iterated dot-multiples reach at least their construction level.
    for rs in (A2, B2):
        for p in (2, 3):
            for r in range(3):
                lam = dot_multiply(p**r, (1, 0))
                assert st_level(rs, lam, p) >= r
    # Lattice-aware level: 2 = 3 . 0 needs (0,) in the lattice, which holds
    # in both modes, but 8 = 9 . 0 over the adjoint lattice too.
    assert st_level(A1, (8,), 3, Lattice.ADJOINT) == 2
    # (5,2) = 3 . (1,0) but (1,0) leaves the A2 root lattice.
    assert st_level(A2, (5, 2), 3) == 1
    assert st_level(A2, (5, 2), 3, Lattice.ADJOINT) == 0


def test_steinberg_block_is_scaled_dominant_cone():
    # Adjoint mode: dominant weights linked to (p-1)rho are exactly the
    # p-dot-multiples of dominant lattice weights (boxed version; the full
    # sweep is in the acceptance suite).
    for rs, p in [(A1, 3), (A2, 3)]:
        bound = 12
        st_weight = (p - 1,) * rs.rank
        box = [
            w
            for w in itertools.product(range(bound + 1), repeat=rs.rank)
            if in_root_lattice(rs, w)
        ]
        linked_set = {w for w in box if linked(rs, w, st_weight, p, Lattice.ADJOINT)}
        scaled = {
            dot_multiply(p, lam)
            for lam in itertools.product(range(bound), repeat=rs.rank)
            if in_root_lattice(rs, lam) and max(dot_multiply(p, lam)) <= bound
        }
        assert linked_set == scaled


def test_alcove_position_statuses():
    pos = alcove_position(A1, (1,), 3)
    assert pos.status == "interior" and pos.wall_pairings == (2,)
    assert alcove_position(A1, (2,), 3).status == "wall"
    assert alcove_position(A1, (4,), 3).status == "exterior-of-closure"
    assert alcove_position(G2, (-1, -1), 2).status == "wall"
    # G2 pairings against rho reach 5 on the highest coroot, so the origin
    # leaves the closure already at p = 2.
    assert alcove_position(G2, (0, 0), 2).wall_pairings == (1, 1, 4, 5, 2, 3)
    assert alcove_position(G2, (0, 0), 2).status == "exterior-of-closure"


def test_alcove_position_is_an_immutable_record():
    pos = alcove_position(A1, (1,), 3)
    assert repr(pos) == "AlcovePosition(weight=(1,), wall_pairings=(2,), status='interior')"
    assert pos == alcove_position(A1, [1], 3) and hash(pos) == hash(alcove_position(A1, (1,), 3))
    assert pos != alcove_position(A1, (1,), 2)
    with pytest.raises(AttributeError):
        pos.status = "wall"


def test_linked_rejects_wrong_rank():
    for lam, mu in [((1,), (0, 0)), ((0, 0), (1, 2, 3))]:
        with pytest.raises(DomainError, match="wrong rank"):
            linked(A2, lam, mu, 3)


def test_fundamental_alcove_rep_rejects_wrong_rank():
    for weight in [(1, 2, 3), (1,)]:
        with pytest.raises(DomainError, match="wrong rank"):
            fundamental_alcove_rep(A2, weight, 3)


@pytest.mark.parametrize("call", [
    lambda w: alcove_position(A2, w, 3),
    lambda w: is_special_point(A2, w, 3),
    lambda w: st_level(A2, w, 3),
    lambda w: in_root_lattice(A2, w),
    lambda w: in_lattice(A2, w, Lattice.SIMPLY_CONNECTED),
    lambda w: in_lattice(A2, w, Lattice.ADJOINT),
    lambda w: steinberg_forward(A2, KElement({w: 1}), 3),
    lambda w: steinberg_inverse(A2, KElement({w: 1}), 3),
    lambda w: pairing(A2, w, 0),
    lambda w: root_coordinates(A2, w),
], ids=["alcove_position", "is_special_point", "st_level", "in_root_lattice",
        "in_lattice_sc", "in_lattice_adj", "steinberg_forward", "steinberg_inverse",
        "pairing", "root_coordinates"])
def test_weight_functions_reject_wrong_rank(call):
    # Each of these answered for a rank-3 weight on A2, from its first two
    # coordinates or by dropping the term.
    with pytest.raises(DomainError, match="wrong rank"):
        call((1, 2, 3))


def _a2(weight):
    return weyl_character(A2, weight)


_CLASS = KElement({(1, 0): 1, (4, 4): -2})

# Each call passes one float or bool where an int belongs; every one of them
# used to answer, mostly with float weights.
_NON_INTEGER_CALLS = {
    "frobenius_twist_p": lambda: frobenius_twist(_a2((1, 0)), 1, 2.0),
    "frobenius_twist_r": lambda: frobenius_twist(_a2((1, 0)), 1.0, 2),
    "frobenius_twist_r0": lambda: frobenius_twist(_a2((1, 0)), 0, 2.0),
    "fundamental_alcove_rep_p": lambda: fundamental_alcove_rep(A2, (1, 0), 2.5),
    "fundamental_alcove_rep_weight": lambda: fundamental_alcove_rep(A2, (1.0, 0), 3),
    "linked_weight": lambda: linked(A2, (1.0, 0), (0, 0), 3),
    "linked_p": lambda: linked(A2, (1, 0), (0, 0), 3.0),
    "make_dominant": lambda: make_dominant(A2, (-1.5, 0)),
    "make_dominant_bool": lambda: make_dominant(A2, (True, 0)),
    "dot_dominant": lambda: dot_dominant(A2, (0, 0.5)),
    "weyl_orbit": lambda: weyl_orbit(A2, (1, 0.0)),
    "euler_characteristic": lambda: euler_characteristic(A2, (1.0, 0)),
    "steinberg_forward_p": lambda: steinberg_forward(A2, _CLASS, 3.0),
    "steinberg_forward_r": lambda: steinberg_forward(A2, _CLASS, 3, 1.0),
    "steinberg_forward_r0": lambda: steinberg_forward(A2, _CLASS, 3.0, 0),
    "steinberg_inverse": lambda: steinberg_inverse(A2, _CLASS, 3.0),
    "Character_weight": lambda: Character({(1.5, 0): 1}),
    "Character_bool_weight": lambda: Character({(True, 0): 1}),
    "Character_value": lambda: Character({(1, 0): 1.0}),
    "Character_bool_value": lambda: Character([((1, 0), True)]),
    "KElement_weight": lambda: KElement({(1.0, 0): 1}),
    "KElement_value": lambda: KElement({(1, 0): 0.5}),
    "contract_weights": lambda: contract_weights(_a2((3, 0)), 3.0),
    "steinberg_character_p": lambda: steinberg_character(A2, 3.0),
    "steinberg_character_r": lambda: steinberg_character(A2, 3, 1.0),
    "steinberg_weight": lambda: steinberg_weight(A2, 3, 1.0),
    "dot_multiply_n": lambda: dot_multiply(2.0, (1, 0)),
    "dot_multiply_weight": lambda: dot_multiply(2, (0.5, 0)),
    "steinberg_split_p": lambda: steinberg_split((4, 1), 3.0),
    "steinberg_split_weight": lambda: steinberg_split((4.0, 1), 3),
    "is_restricted_p": lambda: is_restricted((1, 0), 2.5),
    "is_restricted_weight": lambda: is_restricted((0.5, 0), 2),
    "pairing": lambda: pairing(A2, (1.5, 0), 0),
    "root_coordinates": lambda: root_coordinates(A2, (1.5, 0)),
    "alcove_position": lambda: alcove_position(A2, (1, 0), 3.0),
    "is_special_point": lambda: is_special_point(A2, (2, 2), 3.0),
    "st_level": lambda: st_level(A2, (2, 2), 3.0),
    "pr_block": lambda: pr_block(A2, _CLASS, (1, 0), 3.0),
    "block_decompose": lambda: block_decompose(A2, _CLASS, 3.0),
    "steinberg_delta_multiplicity": lambda: steinberg_delta_multiplicity(A2, _a2((2, 2)), (0, 0), 3.0),
    "frobenius_contract_class": lambda: frobenius_contract_class(A2, _a2((2, 2)), 3.0),
    "tensor_delta_expansion": lambda: tensor_delta_expansion(A2, (1.0, 0), _a2((1, 0))),
    "simple_character_a1_p": lambda: simple_character_a1(A1, (3,), 2.0),
    "simple_character_a1_weight": lambda: simple_character_a1(A1, (3.0,), 2),
    "decompose_in_simple_basis_a1": lambda: decompose_in_simple_basis_a1(
        A1, weyl_character(A1, (3,)), 2.0),
}


@pytest.mark.parametrize("call", _NON_INTEGER_CALLS.values(), ids=_NON_INTEGER_CALLS.keys())
def test_public_functions_reject_non_integers(call):
    with pytest.raises(DomainError, match="expected an integer"):
        call()
