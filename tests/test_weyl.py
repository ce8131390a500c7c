"""Weyl-group orbits, signs and normal forms, against the enumerated group of the oracles."""

import random

import pytest

import oracles
from steinberg import (
    DomainError,
    alcove_position,
    build_root_system,
    dot_dominant,
    dot_multiply,
    fundamental_alcove_rep,
    is_dominant,
    make_dominant,
    weyl_group_order,
)
from steinberg.rootdata import descend_orbit

ENUMERABLE = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 6),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("D", 5),
    ("E", 6), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("series,rank", ENUMERABLE)
def test_group_order_matches_formula(series, rank):
    rs = build_root_system(series, rank)
    order = len(oracles.weyl_group(rs))
    assert order == oracles.weyl_order_formula(series, rank)
    assert weyl_group_order(rs) == order


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_weyl_group_order_from_root_heights(series, rank):
    rs = build_root_system(series, rank)
    assert weyl_group_order(rs) == oracles.weyl_order_formula(series, rank)


@pytest.mark.parametrize("series,rank", ENUMERABLE)
def test_longest_element(series, rank):
    # -rho is regular, so exactly one element carries rho there: the
    # longest, which inverts every positive root and comes last in the
    # oracle's breadth-first order.
    rs = build_root_system(series, rank)
    group = oracles.weyl_group(rs)
    rho = (1,) * rank
    top = [m for m, _ in group if oracles.act(m, rho) == tuple(-x for x in rho)]
    assert top == [group[-1][0]]
    assert _inverted_roots(rs, top[0]) == rs.num_positive_roots
    assert group[-1][1] == (-1) ** rs.num_positive_roots


def _inverted_roots(rs, matrix):
    # The length of w: the positive roots it sends to negative roots.  A root
    # is negative iff its fundamental coordinates negate a positive root's.
    inverted = 0
    for f in rs.positive_fund:
        image = oracles.act(matrix, f)
        if tuple(-x for x in image) in rs.positive_fund:
            inverted += 1
        else:
            assert image in rs.positive_fund
    return inverted


def test_length_counts_inverted_roots():
    # The sign is (-1)^length, and breadth-first order lists lengths in
    # increasing order.
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        lengths = [_inverted_roots(rs, m) for m, _ in oracles.weyl_group(rs)]
        assert [sign for _, sign in oracles.weyl_group(rs)] == [(-1) ** n for n in lengths]
        assert lengths == sorted(lengths)


def test_a1_actions():
    rs = build_root_system("A", 1)
    s, sign = oracles.weyl_group(rs)[-1]
    assert sign == -1
    for m in range(-4, 5):
        assert oracles.act(s, (m,)) == (-m,)
    assert oracles.dot(s, (-1,)) == (-1,)  # -rho is the dot fixed point
    assert oracles.dot(s, (-2,)) == (0,)
    assert oracles.dot(s, (0,)) == (-2,)


def test_sign_multiplicativity():
    rng = random.Random(4)
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        els = oracles.weyl_group(rs)
        by_matrix = dict(els)

        def matmul(a, b):
            n = rs.rank
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )

        for _ in range(60):
            (u, su), (v, sv) = rng.choice(els), rng.choice(els)
            assert by_matrix[matmul(u, v)] == su * sv


def test_dot_action_commutes_with_dot_multiplication():
    rng = random.Random(11)
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        for w, _ in oracles.weyl_group(rs):
            for _ in range(10):
                lam = tuple(rng.randint(-6, 6) for _ in range(rank))
                n = rng.randint(1, 5)
                assert oracles.dot(w, dot_multiply(n, lam)) == dot_multiply(n, oracles.dot(w, lam))


def test_dominant_representative_examples():
    a1 = build_root_system("A", 1)
    assert make_dominant(a1, (-3,)) == ((3,), -1)
    assert make_dominant(a1, (5,)) == ((5,), 1)
    assert dot_dominant(a1, (-3,)) == ((1,), -1)
    assert dot_dominant(a1, (-1,)) == (None, 0)


def test_dominant_representative_by_orbit_scan():
    a2 = build_root_system("A", 2)
    for lam in [(-1, 2), (3, -2), (-2, -2), (0, 0)]:
        orbit = {oracles.act(m, lam) for m, _ in oracles.weyl_group(a2)}
        dominants = [v for v in orbit if is_dominant(v)]
        assert dominants == [make_dominant(a2, lam)[0]]  # unique dominant point in the orbit


def _orbit(rs, lam):
    # The library's walk of the linear orbit of lam, as (weight, sign) pairs.
    top, _ = make_dominant(rs, lam)
    return descend_orbit(rs, top)


def test_dot_orbit_size_and_regularity():
    rs = build_root_system("B", 2)
    group = oracles.weyl_group(rs)
    for lam in [(0, 0), (1, 2), (-1, 1), (0, -1), (-3, 1)]:
        orbit = {oracles.dot(w, lam) for w, _ in group}
        shifted = tuple(x + 1 for x in lam)
        singular = any(
            sum(d * s for d, s in zip(coroot, shifted)) == 0
            for _, coroot in oracles.ROOT_TABLES[("B", 2)]
        )
        if singular:
            assert len(orbit) < len(group)
            assert dot_dominant(rs, lam) == (None, 0)
        else:
            assert len(orbit) == len(group)
            dom, sign = dot_dominant(rs, lam)
            assert dom in orbit and is_dominant(dom)
            assert sign in (-1, 1)


def test_orbit_sizes_divide_group_order():
    for series, rank in [("A", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        group = oracles.weyl_group(rs)
        for lam in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            orbit = [w for w, _ in _orbit(rs, lam)]
            assert set(orbit) == {oracles.act(m, lam) for m, _ in group}
            assert len(group) % len(orbit) == 0


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_orbit_walk_matches_search(series, rank):
    # Zero, the fundamental weights and other weights on walls, rho, and
    # random weights of both signs (some of them on walls too).
    rs = build_root_system(series, rank)
    rng = random.Random(rank * 31 + ord(series))
    weights = [(0,) * rank, (1,) * rank]
    weights += [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    weights += [tuple(rng.choice((0, 0, 1, 2)) for _ in range(rank)) for _ in range(3)]
    weights += [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(3)]
    order = weyl_group_order(rs)
    for lam in weights:
        orbit = [w for w, _ in _orbit(rs, lam)]
        assert len(orbit) == len(set(orbit)), lam
        assert set(orbit) == oracles.orbit_by_search(rs, lam), lam
        assert order % len(orbit) == 0
        assert orbit[0] == make_dominant(rs, lam)[0]
    # rho is regular, so its orbit walk meets each w(rho) once, with sgn(w).
    assert dict(_orbit(rs, (1,) * rank)) == {
        oracles.act(m, (1,) * rank): sign for m, sign in oracles.weyl_group(rs)}


def _kernel_weights(series, rank):
    # Zero, rho, the fundamental weights, and seeded random weights in
    # [-6, 6]^rank; a third of the random coordinates are 0, so many of them
    # lie on walls, linear and dotted.
    rng = random.Random(rank * 131 + ord(series))
    weights = [(0,) * rank, (1,) * rank]
    weights += [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    weights += [tuple(rng.choice((0, rng.randint(-6, 6), rng.randint(-6, 6)))
                      for _ in range(rank)) for _ in range(12)]
    weights += [tuple(rng.choice((-1, 0)) for _ in range(rank)) for _ in range(3)]
    return weights


def _shortest_element(rs, lam):
    """The matrix of the shortest w with w(lam) dominant, read off the kernel.

    With h the largest coroot height, w carries mu = ((h+2)h+1) * lam +
    (h+1) * rho and each mu + omega_j to regular dominant weights: w rho
    pairs positively with the simple coroots fixing w(lam), and no pairing
    of w rho or w omega_j exceeds h.  So its columns w(omega_j) are
    differences of dominant representatives.
    """
    h = max(map(sum, rs.coroots))
    mu = [((h + 2) * h + 1) * x + h + 1 for x in lam]
    top, _ = make_dominant(rs, mu)
    columns = []
    for j in range(rs.rank):
        mu[j] += 1
        columns.append(tuple(a - b for a, b in zip(make_dominant(rs, mu)[0], top)))
        mu[j] -= 1
    return tuple(zip(*columns))


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_dominance_kernel_matches_enumeration_and_coroot_count(series, rank):
    # make_dominant against an element of the enumerated group, its sign
    # against (-1)^(positive coroots pairing negatively), and dot_dominant
    # against the first-negative-coordinate walk of the oracles, walls
    # included.
    rs = build_root_system(series, rank)
    signs = dict(oracles.weyl_group(rs))
    for lam in _kernel_weights(series, rank):
        dom, sign = make_dominant(rs, lam)
        w = _shortest_element(rs, lam)
        assert dom == oracles.act(w, lam) == oracles.dominant_by_first_negative(rs, lam)[0], lam
        negative = sum(1 for d in rs.coroots if sum(a * b for a, b in zip(d, lam)) < 0)
        assert sign == signs[w] == (-1) ** negative, lam
        assert _inverted_roots(rs, w) == negative, lam  # the shortest element carrying lam there
        assert dot_dominant(rs, lam) == oracles.dot_dominant_by_first_negative(rs, lam), lam


@pytest.mark.parametrize("fn", [make_dominant, dot_dominant])
@pytest.mark.parametrize("weight", [(1,), (1, 0, 5), ()])
def test_dominance_walks_reject_wrong_rank(fn, weight):
    a2 = build_root_system("A", 2)
    with pytest.raises(DomainError, match="wrong rank"):
        fn(a2, weight)


def test_dominance_kernel_properties():
    # Random type and weight: the result is dominant, lies in the orbit found
    # by breadth-first search (rank <= 3), and the alcove walk built on the
    # kernel is idempotent and lands in the closed bottom alcove.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        series, rank = draw(st.sampled_from(sorted(oracles.POSITIVE_ROOT_COUNTS)))
        lam = tuple(draw(st.lists(st.integers(-8, 8), min_size=rank, max_size=rank)))
        return build_root_system(series, rank), lam, draw(st.sampled_from((2, 3, 5, 7)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        rs, lam, p = case
        dom, sign = make_dominant(rs, lam)
        assert is_dominant(dom) and sign in (-1, 1)
        if rs.rank <= 3:
            assert dom in oracles.orbit_by_search(rs, lam)
        rep = fundamental_alcove_rep(rs, lam, p)
        assert fundamental_alcove_rep(rs, rep, p) == rep
        assert alcove_position(rs, rep, p).status != "exterior-of-closure"

    check()
