"""Classical anchor values: textbook dimensions and tensor decompositions.

These pin the generic machinery (all series, ranks up to six) against
numbers that are independent of every algorithm in the package.
"""

import itertools

import pytest

import oracles
from steinberg import (
    KElement,
    build_root_system,
    char_to_class,
    tensor,
    weyl_character,
)
from steinberg.characters import _dominant_weights_below

# (series, rank, fundamental index) -> dimension, Bourbaki numbering.
FUNDAMENTAL_DIMS = {
    ("A", 2): [3, 3],
    ("A", 3): [4, 6, 4],
    ("A", 5): [6, 15, 20, 15, 6],
    ("B", 2): [5, 4],
    ("B", 3): [7, 21, 8],
    ("C", 3): [6, 14, 14],
    ("D", 4): [8, 28, 8, 8],
    ("D", 5): [10, 45, 120, 16, 16],
    ("F", 4): [52, 1274, 273, 26],
    ("G", 2): [7, 14],
    ("E", 6): [27, 78, 351, 2925, 351, 27],
}

ADJOINT_WEIGHTS = {
    # Highest root in fundamental coordinates, with the group dimension.
    ("A", 2): ((1, 1), 8),
    ("A", 3): ((1, 0, 1), 15),
    ("B", 2): ((0, 2), 10),
    ("B", 3): ((0, 1, 0), 21),
    ("C", 3): ((2, 0, 0), 21),
    ("D", 4): ((0, 1, 0, 0), 28),
    ("F", 4): ((1, 0, 0, 0), 52),
    ("G", 2): ((0, 1), 14),
    ("E", 6): ((0, 1, 0, 0, 0, 0), 78),
}


@pytest.mark.parametrize("series,rank", sorted(FUNDAMENTAL_DIMS))
def test_fundamental_representation_dimensions(series, rank):
    rs = build_root_system(series, rank)
    for i, expected in enumerate(FUNDAMENTAL_DIMS[(series, rank)]):
        lam = tuple(1 if j == i else 0 for j in range(rank))
        assert weyl_character(rs, lam).dim() == expected, (series, rank, i)


@pytest.mark.parametrize("series,rank", sorted(ADJOINT_WEIGHTS))
def test_adjoint_representations(series, rank):
    rs = build_root_system(series, rank)
    lam, dim = ADJOINT_WEIGHTS[(series, rank)]
    chi = weyl_character(rs, lam)
    assert chi.dim() == dim
    # The zero-weight space of the adjoint representation is the Cartan.
    assert chi.mult((0,) * rank) == rank
    # Its nonzero weights are exactly the roots, each once.
    nonzero = {w for w in chi.support() if any(w)}
    roots = set(rs.positive_fund) | {tuple(-x for x in f) for f in rs.positive_fund}
    assert nonzero == roots


def test_g2_seven_squared():
    g2 = build_root_system("G", 2)
    seven = weyl_character(g2, (1, 0))
    assert char_to_class(g2, tensor(seven, seven)) == KElement(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1}
    )


def test_b2_five_squared():
    b2 = build_root_system("B", 2)
    five = weyl_character(b2, (1, 0))
    assert char_to_class(b2, tensor(five, five)) == KElement(
        {(0, 0): 1, (0, 2): 1, (2, 0): 1}
    )


def test_a3_vector_times_dual():
    a3 = build_root_system("A", 3)
    chi = tensor(weyl_character(a3, (1, 0, 0)), weyl_character(a3, (0, 0, 1)))
    assert char_to_class(a3, chi) == KElement({(0, 0, 0): 1, (1, 0, 1): 1})


def test_a2_tensor_cube_of_vector():
    # 3 x 3 x 3 = 10 + 8 + 8 + 1.
    a2 = build_root_system("A", 2)
    v = weyl_character(a2, (1, 0))
    chi = tensor(tensor(v, v), v)
    assert char_to_class(a2, chi) == KElement({(3, 0): 1, (1, 1): 2, (0, 0): 1})


@pytest.mark.parametrize(
    "series,rank,lam",
    [("A", 2, (3, 2)), ("B", 2, (2, 3)), ("G", 2, (2, 2)), ("A", 3, (1, 2, 1))],
)
def test_dominant_chain_walk_matches_box_enumeration(series, rank, lam):
    # The character engine walks down from the highest weight by positive
    # roots inside the dominant cone; enumerate the same set directly from
    # the definition (nonnegative integral root-coordinate gap).
    rs = build_root_system(series, rank)
    walked = set(_dominant_weights_below(rs, lam))
    gap_box = [int(c) for c in oracles.root_coordinates(rs, lam)]
    direct = set()
    for coeffs in itertools.product(*(range(b + 1) for b in gap_box)):
        mu = tuple(
            lam[i] - sum(rs.cartan[i][j] * coeffs[j] for j in range(rank))
            for i in range(rank)
        )
        if min(mu) >= 0:
            direct.add(mu)
    assert walked == direct
