"""Root datum construction and elementary weight arithmetic."""

import argparse
import ast
import pickle
import random
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from fractions import Fraction

import oracles
import steinberg
from steinberg import (
    ConfigurationError,
    DomainError,
    Lattice,
    RootSystem,
    build_root_system,
    dot_multiply,
    highest_root_index,
    in_root_lattice,
    is_dominant,
    is_restricted,
    pairing,
    steinberg_digits,
    steinberg_split,
    steinberg_weight,
)
from steinberg.rootdata import (
    _enumerate_roots,
    _invert,
    _symmetrizer,
    _weyl_order,
    apply_simple_reflection,
    in_lattice,
    require_p,
    require_steinberg_configuration,
)
from steinberg.cli import _parse_prime


def test_a1_forced_data():
    rs = build_root_system("A", 1)
    assert rs.cartan == ((2,),)
    assert rs.num_positive_roots == 1
    assert rs.rho == (1,)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_rank_two_root_tables(series, rank):
    rs = build_root_system(series, rank)
    table = oracles.ROOT_TABLES[(series, rank)]
    assert set(rs.positive_roots) == {roots for roots, _ in table}
    by_root = {roots: coroot for roots, coroot in table}
    for c, d in zip(rs.positive_roots, rs.coroots):
        assert by_root[c] == d


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_positive_root_counts(series, rank):
    rs = build_root_system(series, rank)
    assert rs.num_positive_roots == oracles.POSITIVE_ROOT_COUNTS[(series, rank)]


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_cartan_shape(series, rank):
    rs = build_root_system(series, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_simple_roots_come_first():
    rs = build_root_system("B", 3)
    for i in range(rs.rank):
        assert rs.positive_roots[i] == tuple(1 if j == i else 0 for j in range(rs.rank))
        assert rs.coroots[i] == rs.positive_roots[i]


@pytest.mark.parametrize(
    "series,rank",
    [("A", 0), ("A", 7), ("B", 1), ("C", 1), ("D", 3), ("D", 7), ("E", 5), ("E", 7), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_types_rejected(series, rank):
    with pytest.raises(ConfigurationError):
        build_root_system(series, rank)


def test_disconnected_diagram_raises_even_without_asserts():
    # A1 x A1: the symmetrizer walk never reaches the second node.
    with pytest.raises(ConfigurationError, match="connected"):
        _symmetrizer([[2, 0], [0, 2]], 2)


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_integer_construction_matches_rationals(series, rank):
    rs = build_root_system(series, rank)
    assert rs.symmetrizer == oracles.symmetrizer_by_fractions(rs.cartan, rank)
    assert (rs.inv_num, rs.inv_den) == oracles.invert_by_fractions(rs.cartan, rank)
    assert rs.coroots == oracles.coroots_by_fractions(rs)
    # inv_num / inv_den really inverts the Cartan matrix.
    for i in range(rank):
        for j in range(rank):
            entry = sum(rs.cartan[i][k] * rs.inv_num[k][j] for k in range(rank))
            assert entry == (rs.inv_den if i == j else 0)


@contextmanager
def _time_limit(seconds):
    # A wrong string test can make the root walk run for ever; fail instead.
    def stop(signum, frame):
        raise TimeoutError(f"root walk still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_height_walk_matches_reflection_closure(series, rank):
    # Same roots in the same order, since pairing takes a positive-root
    # index; |W| from the walk's height counts is checked against the
    # closed forms in test_weyl.py.
    with _time_limit(5):
        rs = build_root_system(series, rank)
    assert list(rs.positive_roots) == oracles.roots_by_reflection_closure(rs.cartan, rank)
    for c, m in zip(rs.positive_roots, rs.positive_fund):
        assert m == tuple(sum(rs.cartan[i][j] * c[j] for j in range(rank)) for i in range(rank))


def _e_cartan(rank):
    # E_n, Bourbaki numbering: bonds (0, 2), (2, 3), (1, 3), then (i, i + 1) for i >= 3.
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in ((0, 2), (2, 3), (1, 3), *((i, i + 1) for i in range(3, rank - 1))):
        a[i][j] = a[j][i] = -1
    return a


@pytest.mark.parametrize("rank,count,height,order", [
    (6, 36, 11, 51840), (7, 63, 17, 2903040), (8, 120, 29, 696729600)])
def test_height_walk_reaches_e7_and_e8(rank, count, height, order):
    # E7 and E8 are not buildable types yet; the walk and Kostant's product
    # already handle them.
    cartan = _e_cartan(rank)
    if rank == 6:
        assert build_root_system("E", 6).cartan == tuple(map(tuple, cartan))
    with _time_limit(5):
        roots, fund, per_height = _enumerate_roots(cartan, rank)
    assert roots == oracles.roots_by_reflection_closure(cartan, rank)
    assert len(roots) == sum(per_height) == count
    assert sum(roots[-1]) == len(per_height) == height
    for c, m in zip(roots, fund):
        assert m == tuple(sum(cartan[i][j] * c[j] for j in range(rank)) for i in range(rank))
    assert _weyl_order(per_height) == order


def test_invert_needs_pivoting_and_reduces_to_lowest_terms():
    rng = random.Random(5)
    matrices = [[[0, 1], [1, 0]], [[0, 2, 1], [1, 0, 0], [3, 1, 1]], [[2, 4], [6, 8]]]
    while len(matrices) < 40:
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        try:
            oracles.invert_by_fractions(m, n)
        except StopIteration:  # singular: no pivot in some column
            continue
        matrices.append(m)
    for m in matrices:
        assert _invert(m, len(m)) == oracles.invert_by_fractions(m, len(m)), m


def test_root_system_is_immutable_and_compared_by_identity():
    rs = build_root_system("A", 2)
    with pytest.raises(AttributeError):
        rs.rank = 3
    with pytest.raises(AttributeError):
        rs.extra = 1
    with pytest.raises(AttributeError):
        del rs.cartan
    assert rs.rank == 2 and repr(rs) == "RootSystem(A2)"
    fields = {name: getattr(rs, name) for name in RootSystem.__slots__}
    twin = RootSystem(**fields)
    assert twin.cartan == rs.cartan and twin != rs
    with pytest.raises(TypeError):
        RootSystem(**dict(fields, rank=None, extra=1))
    assert pickle.loads(pickle.dumps(rs)) is rs


def test_library_has_no_assert_statements():
    # Invariants must raise, so that they still hold under ``python -O``.
    package = Path(__file__).resolve().parent.parent / "src" / "steinberg"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_pairing_examples():
    a2 = build_root_system("A", 2)
    assert pairing(a2, (1, 0), 1) == 0  # fundamental-weight duality
    theta = highest_root_index(a2)
    assert a2.positive_roots[theta] == (1, 1)
    assert pairing(a2, (1, 1), theta) == 2  # theta-coroot = sum of simple coroots
    a1 = build_root_system("A", 1)
    for m in range(-5, 6):
        assert pairing(a1, (m,), 0) == m


def test_pairing_index_bounds():
    a2 = build_root_system("A", 2)
    for index in (3, -1):
        with pytest.raises(DomainError, match="positive-root index"):
            pairing(a2, (1, 0), index)


def _calls_taking_p(p):
    # One call of every public function that takes p, on small inputs.
    a1, a2 = build_root_system("A", 1), build_root_system("A", 2)
    chi = steinberg.weyl_character(a2, (1, 1))
    el = steinberg.KElement({(1, 1): 1})
    return {
        "frobenius_twist": lambda: steinberg.frobenius_twist(chi, 1, p),
        "contract_weights": lambda: steinberg.contract_weights(chi, p),
        "steinberg_character": lambda: steinberg.steinberg_character(a2, p),
        "steinberg_weight": lambda: steinberg_weight(a2, p),
        "steinberg_forward r=0": lambda: steinberg.steinberg_forward(a2, el, p, r=0),
        "steinberg_forward r=1": lambda: steinberg.steinberg_forward(a2, el, p, r=1),
        "steinberg_inverse": lambda: steinberg.steinberg_inverse(a2, el, p),
        "steinberg_delta_multiplicity":
            lambda: steinberg.steinberg_delta_multiplicity(a2, chi, (0, 0), p),
        "frobenius_contract_class": lambda: steinberg.frobenius_contract_class(a2, chi, p),
        "pr_block": lambda: steinberg.pr_block(a2, el, (0, 0), p),
        "block_decompose": lambda: steinberg.block_decompose(a2, el, p),
        "linked": lambda: steinberg.linked(a2, (1, 1), (0, 0), p),
        "fundamental_alcove_rep": lambda: steinberg.fundamental_alcove_rep(a2, (1, 1), p),
        "alcove_position": lambda: steinberg.alcove_position(a2, (1, 1), p),
        "is_special_point": lambda: steinberg.is_special_point(a2, (1, 1), p),
        "st_level": lambda: steinberg.st_level(a2, (1, 1), p),
        "is_restricted": lambda: is_restricted((1, 1), p),
        "steinberg_split": lambda: steinberg_split((1, 1), p),
        "steinberg_digits": lambda: steinberg_digits((1, 1), p),
        "simple_character_a1": lambda: steinberg.simple_character_a1(a1, (1,), p),
        "decompose_in_simple_basis_a1": lambda: steinberg.decompose_in_simple_basis_a1(
            a1, steinberg.weyl_character(a1, (3,)), p),
    }


def test_every_function_that_takes_p_needs_a_prime_below_2_32():
    # The twist identity holds for any integer p >= 1, but the block and
    # linkage statements are for a prime, so the library takes the CLI's
    # rule.  4294967311 is the least prime above 2^32.
    for p in (2, 3, 5):
        for call in _calls_taking_p(p).values():
            call()
    for p in (4, 6, 9, 4294967311):
        for name, call in _calls_taking_p(p).items():
            with pytest.raises(DomainError, match=f"needs a prime p below 2\\^32, got {p}$"):
                call()
                pytest.fail(f"{name} accepted p = {p}")


def test_library_and_cli_accept_the_same_p():
    largest = 4294967291  # the largest prime below 2^32
    for p in [*range(-3, 120), largest, largest + 2, 1 << 32]:
        try:
            _parse_prime(str(p))
        except argparse.ArgumentTypeError:
            with pytest.raises(DomainError):
                require_p(p, "test")
        else:
            assert require_p(p, "test") == p


def test_dominant_restricted():
    assert is_restricted((2,), 3)
    assert not is_restricted((3,), 3)
    assert not is_dominant((0, -1))
    assert is_dominant((0, 0))


def test_root_lattice_membership():
    a1 = build_root_system("A", 1)
    assert in_root_lattice(a1, (2,))
    assert not in_root_lattice(a1, (1,))
    a2 = build_root_system("A", 2)
    assert in_root_lattice(a2, (1, 1))  # alpha1 + alpha2
    assert not in_root_lattice(a2, (1, 0))
    assert oracles.root_coordinates(a2, (1, 1)) == (Fraction(1), Fraction(1))
    # G2 weight lattice equals its root lattice.
    g2 = build_root_system("G", 2)
    assert all(in_root_lattice(g2, (a, b)) for a in range(-3, 4) for b in range(-3, 4))


def test_root_lattice_matches_explicit_combinations():
    # Independent check: enumerate integer combinations of the simple roots
    # with coefficients wide enough to cover the whole test box.
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        combos = set()
        for c1 in range(-20, 21):
            for c2 in range(-20, 21):
                combos.add(
                    tuple(c1 * rs.cartan[i][0] + c2 * rs.cartan[i][1] for i in range(2))
                )
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert in_root_lattice(rs, (a, b)) == ((a, b) in combos)


def test_simple_reflection_fixes_a_weight_with_a_zero_coordinate():
    a2 = build_root_system("A", 2)
    for weight in ((0, 3), [0, 3]):
        image = apply_simple_reflection(a2, 0, weight)
        assert image == (0, 3) and type(image) is tuple
    assert apply_simple_reflection(a2, 1, [0, 3]) == (3, -3)


def test_dot_multiply_examples():
    assert dot_multiply(3, (0,)) == (2,)  # p . 0 is the Steinberg weight
    assert dot_multiply(1, (4, 7)) == (4, 7)
    assert dot_multiply(5, (1, 2)) == (9, 14)


def test_dot_multiply_composes_and_preserves_dominance():
    for lam in [(0,), (3,)]:
        for n in range(1, 6):
            for m in range(1, 6):
                assert dot_multiply(m, dot_multiply(n, lam)) == dot_multiply(m * n, lam)
    for a in range(0, 5):
        for b in range(0, 5):
            for n in range(1, 6):
                assert is_dominant(dot_multiply(n, (a, b)))


def test_dot_multiple_lands_in_p_root_lattice():
    a2 = build_root_system("A", 2)
    for p in (2, 3, 5):
        for a in range(-3, 4):
            for b in range(-3, 4):
                lam = (a, b)
                if not in_root_lattice(a2, lam):
                    continue
                shifted = tuple(
                    x - (p - 1) for x in dot_multiply(p, lam)
                )  # p . lam - (p-1) rho = p * lam
                assert shifted == tuple(p * x for x in lam)
                coords = oracles.root_coordinates(a2, shifted)
                assert all(c.denominator == 1 and c % p == 0 for c in coords)


def test_steinberg_split_examples():
    assert steinberg_split((7,), 3) == ((1,), (2,))
    assert steinberg_split((2,), 3) == ((2,), (0,))
    assert steinberg_split((4, 5), 3) == ((1, 2), (1, 1))
    with pytest.raises(DomainError):
        steinberg_split((-1,), 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_steinberg_split_bijection(p):
    # Exhaustive on A1 and A2 coordinate ranges up to 50.
    for m in range(51):
        head, tail = steinberg_split((m,), p)
        assert is_restricted(head, p) and is_dominant(tail)
        assert head[0] + p * tail[0] == m
    for a in range(0, 51, 7):
        for b in range(0, 51, 7):
            head, tail = steinberg_split((a, b), p)
            assert is_restricted(head, p) and is_dominant(tail)
            assert tuple(h + p * t for h, t in zip(head, tail)) == (a, b)
    # Distinct dominants give distinct pairs (injectivity on a sample).
    seen = {}
    for m in range(51):
        key = steinberg_split((m,), p)
        assert key not in seen
        seen[key] = m


def test_steinberg_digits_reassemble():
    for p in (2, 3, 5):
        for m in range(60):
            digits = steinberg_digits((m,), p)
            assert all(is_restricted(d, p) for d in digits)
            assert sum(d[0] * p**j for j, d in enumerate(digits)) == m
    assert steinberg_digits((0, 0), 3) == [(0, 0)]


def test_root_system_serialization_round_trip():
    from steinberg import root_system_from_dict

    for series, rank in [("A", 2), ("G", 2), ("D", 4)]:
        rs = build_root_system(series, rank)
        assert rs.to_dict() == {"series": series, "rank": rank}
        assert root_system_from_dict(rs.to_dict()) is rs
    with pytest.raises(ValueError):
        root_system_from_dict({"series": "A"})
    # A payload's rank is an int, as a character payload's weights are.
    for rank in (2.7, 2.0, "2", True):
        with pytest.raises(ValueError, match="expected an integer"):
            root_system_from_dict({"series": "A", "rank": rank})


def test_bool_rank_never_reaches_the_root_system_cache():
    # ("A", True) is an lru_cache key equal to ("A", 1): built first, it was
    # cached as A1 with repr RootSystem(ATrue) and returned for ("A", 1).
    for warm_first in (False, True):
        if warm_first:
            build_root_system("A", 1)
        with pytest.raises(ConfigurationError, match="got True"):
            build_root_system("A", True)
    a1 = build_root_system("A", 1)
    assert repr(a1) == "RootSystem(A1)" and type(a1.rank) is int


def test_adjoint_configuration_rules():
    a1 = build_root_system("A", 1)
    with pytest.raises(ConfigurationError):
        require_steinberg_configuration(a1, 2, 1, Lattice.ADJOINT)
    # Odd p always admissible in adjoint mode.
    require_steinberg_configuration(a1, 3, 1, Lattice.ADJOINT)
    a2 = build_root_system("A", 2)
    # rho of A2 lies in the root lattice, so p = 2 adjoint is fine.
    require_steinberg_configuration(a2, 2, 1, Lattice.ADJOINT)
    b2 = build_root_system("B", 2)
    with pytest.raises(ConfigurationError):
        require_steinberg_configuration(b2, 2, 1, Lattice.ADJOINT)
    assert steinberg_weight(a1, 3, 2) == (8,)
    assert in_lattice(a1, (1,), Lattice.SIMPLY_CONNECTED)
    assert not in_lattice(a1, (1,), Lattice.ADJOINT)
