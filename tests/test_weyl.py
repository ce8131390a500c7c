"""Weyl group enumeration, actions, lengths, and orbit normal forms."""

import copy
import pickle
import random

import pytest

import oracles
from steinberg import (
    DomainError,
    alcove_position,
    build_root_system,
    dominant_representative,
    dot_dominant,
    dot_multiply,
    fundamental_alcove_rep,
    generate,
    is_dominant,
    make_dominant,
    weyl_group_order,
    weyl_orbit,
)

ENUMERABLE = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 6),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("D", 5),
    ("E", 6), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("series,rank", ENUMERABLE)
def test_group_order_matches_formula(series, rank):
    rs = build_root_system(series, rank)
    group = generate(rs)
    assert group.order == oracles.weyl_order_formula(series, rank)
    assert weyl_group_order(rs) == group.order


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_weyl_group_order_from_root_heights(series, rank):
    rs = build_root_system(series, rank)
    assert weyl_group_order(rs) == oracles.weyl_order_formula(series, rank)


@pytest.mark.parametrize("series,rank", ENUMERABLE)
def test_longest_element(series, rank):
    rs = build_root_system(series, rank)
    group = generate(rs)
    top = [el for el in group.elements if el.length == rs.num_positive_roots]
    assert len(top) == 1
    assert group.longest is top[0]


def test_length_counts_inverted_roots():
    # Independent length oracle: positive roots sent to negative roots.
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        group = generate(rs)
        for el in group.elements:
            inverted = 0
            for f in rs.positive_fund:
                image = el.act(f)
                # A root is negative iff its fundamental coordinates are the
                # negative of a positive root's.
                neg = tuple(-x for x in image)
                if neg in rs.positive_fund:
                    inverted += 1
                else:
                    assert image in rs.positive_fund
            assert inverted == el.length


def test_matrix_is_product_along_word():
    rs = build_root_system("B", 2)
    group = generate(rs)
    simples = [
        tuple(
            tuple((1 if k == j else 0) - (rs.cartan[k][i] if j == i else 0) for j in range(2))
            for k in range(2)
        )
        for i in range(2)
    ]

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    for el in group.elements:
        m = ((1, 0), (0, 1))
        for i in reversed(el.word):
            m = matmul(simples[i], m)
        assert m == el.matrix
        assert len(el.word) == el.length


def test_a1_actions():
    rs = build_root_system("A", 1)
    s = generate(rs).longest
    for m in range(-4, 5):
        assert s.act((m,)) == (-m,)
    assert s.dot((-1,)) == (-1,)  # -rho is the dot fixed point
    assert s.dot((-2,)) == (0,)
    assert s.dot((0,)) == (-2,)


def test_sign_multiplicativity():
    rng = random.Random(4)
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        els = generate(rs).elements
        by_matrix = generate(rs).by_matrix

        def matmul(a, b):
            n = rs.rank
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )

        for _ in range(60):
            u, v = rng.choice(els), rng.choice(els)
            uv = by_matrix[matmul(u.matrix, v.matrix)]
            assert uv.sign == u.sign * v.sign


def test_dot_action_commutes_with_dot_multiplication():
    rng = random.Random(11)
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        for w in generate(rs).elements:
            for _ in range(10):
                lam = tuple(rng.randint(-6, 6) for _ in range(rank))
                n = rng.randint(1, 5)
                assert w.dot(dot_multiply(n, lam)) == dot_multiply(n, w.dot(lam))


def test_dominant_representative_examples():
    a1 = build_root_system("A", 1)
    g1 = generate(a1)
    w, dom = dominant_representative(g1, (-3,))
    assert dom == (3,) and w.length == 1 and w.act((-3,)) == (3,)
    w, dom = dominant_representative(g1, (5,))
    assert dom == (5,) and w.length == 0


def test_dominant_representative_by_orbit_scan():
    a2 = build_root_system("A", 2)
    group = generate(a2)
    for lam in [(-1, 2), (3, -2), (-2, -2), (0, 0)]:
        w, dom = dominant_representative(group, lam)
        assert w.act(lam) == dom
        orbit = weyl_orbit(a2, lam)
        dominants = [v for v in orbit if is_dominant(v)]
        assert dominants == [dom]  # unique dominant point in the orbit
        quick, _ = make_dominant(a2, lam)
        assert quick == dom


def test_dot_orbit_size_and_regularity():
    rs = build_root_system("B", 2)
    group = generate(rs)
    for lam in [(0, 0), (1, 2), (-1, 1), (0, -1), (-3, 1)]:
        orbit = {w.dot(lam) for w in group.elements}
        shifted = tuple(x + 1 for x in lam)
        singular = any(
            sum(d * s for d, s in zip(coroot, shifted)) == 0
            for _, coroot in oracles.ROOT_TABLES[("B", 2)]
        )
        if singular:
            assert len(orbit) < group.order
            assert dot_dominant(rs, lam) == (None, 0)
        else:
            assert len(orbit) == group.order
            dom, sign = dot_dominant(rs, lam)
            assert dom in orbit and is_dominant(dom)
            assert sign in (-1, 1)


def test_orbit_sizes_divide_group_order():
    for series, rank in [("A", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        order = generate(rs).order
        for lam in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            assert order % len(weyl_orbit(rs, lam)) == 0


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
        orbit = weyl_orbit(rs, lam)
        assert len(orbit) == len(set(orbit)), lam
        assert set(orbit) == oracles.orbit_by_search(rs, lam), lam
        assert order % len(orbit) == 0
        assert orbit[0] == make_dominant(rs, lam)[0]


def test_group_records_are_immutable_and_copyable():
    group = generate(build_root_system("A", 2))
    with pytest.raises(AttributeError):
        group.longest.length = 0
    with pytest.raises(AttributeError):
        group.elements = ()
    assert repr(group.longest) == "WeylElement(word=010, length=3)"
    for el in (copy.copy(group.longest), pickle.loads(pickle.dumps(group.longest))):
        assert (el.word, el.matrix, el.length) == (group.longest.word, group.longest.matrix, 3)
    assert pickle.loads(pickle.dumps(group)).order == 6


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


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_dominance_kernel_matches_enumeration_and_coroot_count(series, rank):
    # make_dominant against the enumerated group's element, its sign against
    # (-1)^(positive coroots pairing negatively), and dot_dominant against
    # the first-negative-coordinate walk of the oracles, walls included.
    rs = build_root_system(series, rank)
    group = generate(rs)
    for lam in _kernel_weights(series, rank):
        dom, sign = make_dominant(rs, lam)
        w, expected = dominant_representative(group, lam)
        assert dom == expected == oracles.dominant_by_first_negative(rs, lam)[0], lam
        negative = sum(1 for d in rs.coroots if sum(a * b for a, b in zip(d, lam)) < 0)
        assert sign == (-1) ** negative, lam
        assert w.length == negative, lam  # the shortest element carrying lam there
        assert dot_dominant(rs, lam) == oracles.dot_dominant_by_first_negative(rs, lam), lam


@pytest.mark.parametrize("fn", [make_dominant, dot_dominant])
@pytest.mark.parametrize("weight", [(1,), (1, 0, 5), ()])
def test_dominance_walks_reject_wrong_rank(fn, weight):
    a2 = build_root_system("A", 2)
    with pytest.raises(DomainError, match="wrong rank"):
        fn(a2, weight)
    with pytest.raises(DomainError, match="wrong rank"):
        dominant_representative(generate(a2), weight)


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
        return build_root_system(series, rank), lam, draw(st.integers(2, 7))

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
