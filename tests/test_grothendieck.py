"""Weyl-basis calculus: change of basis, Steinberg equivalence, contraction."""

import random

import pytest

import oracles
from steinberg import (
    Character,
    ConfigurationError,
    DomainError,
    KElement,
    Lattice,
    block_decompose,
    build_root_system,
    char_to_class,
    char_to_class_by_peeling,
    class_to_char,
    contract_weights,
    decompose_in_simple_basis_a1,
    dot_dominant,
    dot_multiply,
    frobenius_contract_class,
    frobenius_twist,
    fundamental_alcove_rep,
    linked,
    pr_block,
    steinberg_character,
    steinberg_delta_multiplicity,
    steinberg_forward,
    steinberg_inverse,
    tensor,
    tensor_delta_expansion,
    weyl_character,
)
from steinberg import grothendieck

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def random_weyl_product(rs, rng, max_factors=3, max_coord=3):
    chi = Character({(0,) * rs.rank: 1})
    for _ in range(rng.randint(1, max_factors)):
        lam = tuple(rng.randint(0, max_coord) for _ in range(rs.rank))
        chi = tensor(chi, weyl_character(rs, lam))
    return chi


def random_signed_class(rs, rng, max_coord=9, terms=4):
    items = {}
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randint(0, max_coord) for _ in range(rs.rank))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        items[w] = items.get(w, 0) + c
    return KElement(items)


def test_kelement_rejects_non_dominant_support():
    with pytest.raises(DomainError):
        KElement({(-1,): 1})
    assert not KElement({(2,): 0})


def test_kelement_rejects_mixed_ranks():
    with pytest.raises(DomainError):
        KElement({(1,): 1, (1, 2): 1})
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(DomainError):
            op(KElement({(1,): 1}), KElement({(1, 2): 1}))
        assert op(KElement({(1, 2): 2}), KElement()) == KElement({(1, 2): 2})


def test_char_to_class_on_basis_elements():
    # A4's Delta(2, 2, 2, 2) has 3081 weights, over 25 per element of W.
    a4 = build_root_system("A", 4)
    for rs, lam in [(A1, (4,)), (A2, (2, 1)), (B2, (1, 2)), (G2, (1, 1)), (a4, (2, 2, 2, 2))]:
        assert char_to_class(rs, weyl_character(rs, lam)) == KElement({lam: 1})
        assert char_to_class_by_peeling(rs, weyl_character(rs, lam)) == KElement({lam: 1})
    assert char_to_class(A1, Character()) == KElement()


def test_char_to_class_clebsch_gordan():
    chi = tensor(weyl_character(A1, (1,)), weyl_character(A1, (1,)))
    assert char_to_class(A1, chi) == KElement({(2,): 1, (0,): 1})
    # Rank-one oracle across a sweep.
    for a in range(5):
        for b in range(5):
            chi = tensor(weyl_character(A1, (a,)), weyl_character(A1, (b,)))
            expected = KElement({(k,): 1 for k in oracles.a1_clebsch_gordan(a, b)})
            assert char_to_class(A1, chi) == expected


def test_char_to_class_a2_example():
    chi = tensor(weyl_character(A2, (1, 0)), weyl_character(A2, (0, 1)))
    expected = KElement({(1, 1): 1, (0, 0): 1})
    assert char_to_class_by_peeling(A2, chi) == expected
    assert char_to_class(A2, chi) == expected


def test_char_to_class_rejects_non_invariant():
    for fn in (char_to_class, char_to_class_by_peeling):
        with pytest.raises(DomainError):
            fn(A2, Character({(1, 0): 1}))


def test_non_invariant_inputs_raise_on_every_route():
    # User values carry no invariance tag, and neither does anything built
    # from them or from another root system's values, so every route scans.
    def bad_values(rs, weyl_other):
        bad = Character({(1,) + (0,) * (rs.rank - 1): 1})
        chi = weyl_character(rs, (1,) * rs.rank)
        return [bad, chi + bad, chi - bad, tensor(chi, bad), 3 * bad,
                frobenius_twist(bad, 1, 2), weyl_other, chi + weyl_other]

    routes = [
        lambda rs, chi: char_to_class(rs, chi),
        lambda rs, chi: char_to_class_by_peeling(rs, chi),
        lambda rs, chi: tensor_delta_expansion(rs, (1,) * rs.rank, chi),
        lambda rs, chi: steinberg_delta_multiplicity(rs, chi, (0,) * rs.rank, 2),
        lambda rs, chi: frobenius_contract_class(rs, chi, 3),
    ]
    for rs, other in ((A2, B2), (B2, G2), (G2, A2)):
        for chi in bad_values(rs, weyl_character(other, (1, 0))):
            assert not oracles.w_invariant_by_orbits(rs, chi)
            for route in routes:
                with pytest.raises(DomainError, match="not Weyl-invariant"):
                    route(rs, chi)
    for chi in bad_values(A1, Character({(2,): 1, (-2,): 2})):
        with pytest.raises(DomainError, match="not Weyl-invariant"):
            decompose_in_simple_basis_a1(A1, chi, 3)


def test_peeling_stops_at_a_highest_weight_that_is_not_dominant():
    # A forged invariance tag skips the W-invariance scan, so both peeling
    # routes meet a highest remaining weight that is not dominant, and say so.
    with pytest.raises(DomainError, match=r"stuck at \[-1, 0\]"):
        char_to_class_by_peeling(A2, Character._raw({(-1, 0): 1}, A2))
    with pytest.raises(DomainError, match=r"stuck at \[-1\]"):
        decompose_in_simple_basis_a1(A1, Character._raw({(-1,): 1}, A1), 3)


def test_peeling_stops_at_a_basis_element_that_is_not_its_highest_weight_plus_lower():
    # A basis element with a weight above its own, or with its own weight at
    # a coefficient other than 1, would let the walk climb without end.
    # Each is caught at the first step it leaves a weight at or above the
    # one just peeled; a true basis still peels.
    chi = weyl_character(A2, (1, 1))

    def climbing(rs, lam):
        return weyl_character(rs, lam) + Character({(lam[0], lam[1] + 1): 1})

    def doubled(rs, lam):
        return 2 * weyl_character(rs, lam)

    with pytest.raises(ArithmeticError, match=r"at \[1, 1\] is not .* \[1, 2\] is left"):
        grothendieck._peel(A2, chi, climbing)
    with pytest.raises(ArithmeticError, match=r"at \[1, 1\] is not .* \[1, 1\] is left"):
        grothendieck._peel(A2, chi, doubled)
    assert grothendieck._peel(A2, chi, weyl_character) == {(1, 1): 1}


def test_dual_implementations_agree_on_random_products():
    rng = random.Random(101)
    for rs in [A1, A2, B2, G2]:
        for _ in range(25):
            chi = random_weyl_product(rs, rng, max_coord=2 if rs is G2 else 3)
            assert char_to_class(rs, chi) == char_to_class_by_peeling(rs, chi)


def test_dual_implementations_agree_on_random_sums():
    # Non-negative combinations of up to four Weyl characters.
    rng = random.Random(202)
    for rs in [A1, A2, B2, G2]:
        for _ in range(25):
            chi = Character()
            expected = KElement()
            for _ in range(rng.randint(1, 4)):
                lam = tuple(rng.randint(0, 4) for _ in range(rs.rank))
                c = rng.randint(1, 3)
                chi = chi + c * weyl_character(rs, lam)
                expected = expected + KElement({lam: c})
            assert char_to_class(rs, chi) == expected
            assert char_to_class_by_peeling(rs, chi) == expected


def test_class_to_char_examples():
    assert class_to_char(A1, KElement({(3,): 1})) == weyl_character(A1, (3,))
    assert class_to_char(A1, KElement()) == Character()
    chi = class_to_char(A1, KElement({(2,): 1, (0,): 1}))
    assert dict(chi.items()) == {(2,): 1, (0,): 2, (-2,): 1}
    el = KElement({(1,): 1})
    assert 3 * el == KElement({(1,): 3})
    assert 0 * el == KElement()
    assert el != Character({(1,): 1})
    for scalar in (0.5, True):
        with pytest.raises(TypeError):
            scalar * el
    with pytest.raises(TypeError):
        el * Character({(1,): 1})


def test_kelement_serialization_round_trip():
    el = KElement({(3, 0): 2, (0, 1): -1})
    data = el.to_dict()
    assert data["basis"] == "delta"
    assert [t["w"] for t in data["terms"]] == sorted(t["w"] for t in data["terms"])
    assert KElement.from_dict(data) == el
    assert KElement.from_dict({"terms": [{"w": [1], "coeff": 1}]}) == KElement({(1,): 1})
    for bad in ({"basis": "tilting", "terms": []}, {"terms": {}}, {"terms": ""}, []):
        with pytest.raises(ValueError):
            KElement.from_dict(bad)


def test_class_char_round_trips():
    rng = random.Random(55)
    for rs in [A1, A2, B2]:
        for _ in range(20):
            el = random_signed_class(rs, rng, max_coord=5)
            assert char_to_class(rs, class_to_char(rs, el)) == el
        chi = random_weyl_product(rs, rng)
        assert class_to_char(rs, char_to_class(rs, chi)) == chi


def test_tensor_delta_expansion():
    # mu = 0 reduces to the plain expansion.
    chi = tensor(weyl_character(B2, (1, 0)), weyl_character(B2, (0, 1)))
    zero = (0, 0)
    assert tensor_delta_expansion(B2, zero, chi) == char_to_class(B2, chi)
    # Worked rank-one values.
    assert tensor_delta_expansion(
        A1, (2,), Character({(3,): 1, (-3,): 1})
    ) == KElement({(5,): 1})
    assert tensor_delta_expansion(
        A1, (1,), Character({(1,): 1, (-1,): 1})
    ) == KElement({(2,): 1, (0,): 1})
    with pytest.raises(DomainError):
        tensor_delta_expansion(A1, (-1,), Character({(0,): 1}))
    with pytest.raises(DomainError):
        tensor_delta_expansion(A2, (0, 0), Character({(1, 0): 1}))


def test_tensor_delta_expansion_matches_convolution_route():
    rng = random.Random(77)
    for rs in [A1, A2, B2, G2]:
        for _ in range(8):
            mu = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            chi = random_weyl_product(rs, rng, max_factors=2, max_coord=2)
            direct = tensor_delta_expansion(rs, mu, chi)
            via_product = char_to_class(rs, tensor(weyl_character(rs, mu), chi))
            assert direct == via_product


def _straighten_by_dot_dominant(rs, items) -> dict:
    out = {}
    for nu, m in items:
        dom, sign = dot_dominant(rs, nu)
        if dom is not None:
            out[dom] = out.get(dom, 0) + sign * m
    return {lam: m for lam, m in out.items() if m}


@pytest.mark.parametrize("series,rank", sorted(oracles.POSITIVE_ROOT_COUNTS))
def test_straightening_matches_dot_dominant(series, rank, monkeypatch):
    # Coordinates in [-3, 3], so that many weights have a coordinate -1 and
    # lie on a wall; some weights come twice with opposite coefficients.
    # Then weights with a coordinate -1 only, dominant weights only, which
    # are never walked, and a mixture in which each dominant weight cancels
    # a walked one that straightens onto it.
    rs = build_root_system(series, rank)
    rng = random.Random(f"straighten/{series}{rank}")
    items = [(tuple(rng.randint(-3, 3) for _ in range(rank)), rng.choice((-2, -1, 1, 3)))
             for _ in range(200)]
    items += [(nu, -m) for nu, m in items[:20]]
    walls = [(nu[:i] + (-1,) + nu[i + 1:], m) for (nu, m), i in
             zip(items, (rng.randrange(rank) for _ in items))]
    dominant = [(tuple(map(abs, nu)), m) for nu, m in items]
    mixture = list(dominant)
    for nu, m in items:
        dom, sign = dot_dominant(rs, nu)
        if dom is not None and dom != nu:
            mixture += [(nu, m), (dom, -sign * m)]
    walks = []
    real = grothendieck._to_dominant

    def spy(nbrs, x):
        walks.append(tuple(x))
        return real(nbrs, x)

    monkeypatch.setattr(grothendieck, "_to_dominant", spy)
    for case in (items, walls, dominant, mixture):
        del walks[:]
        assert dict(grothendieck._straighten(rs, case).items()) == (
            _straighten_by_dot_dominant(rs, case))
        assert len(walks) == sum(min(nu) < 0 and -1 not in nu for nu, _ in case)
    assert not grothendieck._straighten(rs, walls)
    assert dict(grothendieck._straighten(rs, mixture).items()) == (
        _straighten_by_dot_dominant(rs, dominant))
    # Brauer-Klimyk straightens mu + nu over the weights nu of chi.
    omega1 = tuple(int(i == 0) for i in range(rank))
    for chi in (weyl_character(rs, omega1), weyl_character(rs, omega1[::-1])):
        mu = tuple(rng.randint(0, 2) for _ in range(rank))
        shifted = [(tuple(x + y for x, y in zip(nu, mu)), m) for nu, m in chi.items()]
        assert dict(tensor_delta_expansion(rs, mu, chi).items()) == (
            _straighten_by_dot_dominant(rs, shifted)
        )


def test_steinberg_forward_examples():
    assert steinberg_forward(A1, KElement({(1,): 1}), 3) == KElement({(5,): 1})
    assert steinberg_forward(A1, KElement({(0,): 1}), 3) == KElement({(2,): 1})
    assert steinberg_forward(A1, KElement({(0,): 1}), 3, r=2) == KElement({(8,): 1})
    with pytest.raises(ConfigurationError):
        steinberg_forward(A1, KElement({(0,): 1}), 2, lattice=Lattice.ADJOINT)
    # r = 0 is the identity: it checks p and the support's lattice, but
    # asks no Steinberg weight to lie in it.
    el = KElement({(2,): 1, (0,): -3})
    assert steinberg_forward(A1, el, 2, r=0, lattice=Lattice.ADJOINT) == el
    for p in (1, 0, -3):
        with pytest.raises(DomainError, match="needs p >= 2"):
            steinberg_forward(A1, el, p, r=0)
    # With r >= 1 the same p fails the Steinberg configuration instead.
    with pytest.raises(ConfigurationError, match="characteristic must be at least 2, got 1"):
        steinberg_forward(A1, el, 1, r=1)
    with pytest.raises(DomainError, match="root lattice"):
        steinberg_forward(A1, KElement({(1,): 1}), 3, r=0, lattice=Lattice.ADJOINT)
    for r in (-1, 1.0, True):
        with pytest.raises(DomainError):
            steinberg_forward(A1, el, 3, r=r)


def test_steinberg_forward_iterates():
    rng = random.Random(5)
    for rs in [A1, A2]:
        for p in (2, 3):
            for _ in range(10):
                el = random_signed_class(rs, rng, max_coord=6)
                assert steinberg_forward(rs, el, p, r=0) == el
                once = steinberg_forward(rs, el, p)
                twice = steinberg_forward(rs, once, p)
                assert twice == steinberg_forward(rs, el, p, r=2)
                # Images sit in a strictly shrinking chain of supports.
                for w in twice.support():
                    assert all((x - p + 1) % p == 0 for x in w)


def test_steinberg_forward_character_compatibility():
    rng = random.Random(21)
    for rs in [A1, A2, B2]:
        for p in (2, 3):
            for r in (1, 2):
                el = random_signed_class(rs, rng, max_coord=3, terms=3)
                lhs = class_to_char(rs, steinberg_forward(rs, el, p, r))
                rhs = tensor(
                    steinberg_character(rs, p, r),
                    frobenius_twist(class_to_char(rs, el), r, p),
                )
                assert lhs == rhs


def test_steinberg_forward_lands_in_steinberg_block_adjoint():
    # Adjoint mode: the image support is linked to the Steinberg weight.
    for rs, p in [(A1, 3), (A2, 3)]:
        st_weight = (p - 1,) * rs.rank
        el = KElement({(0,) * rs.rank: 1, tuple(2 * p * x for x in rs.rho): 2})
        for w in steinberg_forward(rs, el, p, lattice=Lattice.ADJOINT).support():
            assert linked(rs, w, st_weight, p, Lattice.ADJOINT)


def test_steinberg_inverse():
    assert steinberg_inverse(A1, KElement({(5,): 1}), 3) == KElement({(1,): 1})
    assert steinberg_inverse(A1, KElement({(4,): 1}), 3) == KElement()
    rng = random.Random(42)
    for rs in [A1, A2, B2, G2]:
        for p in (2, 3, 5):
            for _ in range(10):
                el = random_signed_class(rs, rng)
                assert steinberg_inverse(rs, steinberg_forward(rs, el, p), p) == el
    # Adjoint mode drops weights whose unscaling leaves the lattice.
    el = KElement({(5, 2): 1})  # 5,2 = 3 . (1,0); (1,0) not in ZR
    assert steinberg_inverse(A2, el, 3, lattice=Lattice.ADJOINT) == KElement()
    assert steinberg_inverse(A2, el, 3) == KElement({(1, 0): 1})


def test_steinberg_delta_multiplicity_examples():
    d5 = weyl_character(A1, (5,))
    assert steinberg_delta_multiplicity(A1, d5, (1,), 3) == 1
    assert steinberg_delta_multiplicity(A1, d5, (0,), 3) == 0
    assert steinberg_delta_multiplicity(A1, Character({(0,): 1}), (0,), 3) == 1
    with pytest.raises(DomainError):
        steinberg_delta_multiplicity(A1, d5, (-1,), 3)
    with pytest.raises(DomainError):
        steinberg_delta_multiplicity(A1, Character({(1,): 1}), (0,), 3)


def test_steinberg_delta_multiplicity_matches_product_expansion():
    rng = random.Random(303)
    for rs in [A1, A2, B2]:
        for p in (2, 3):
            st = steinberg_character(rs, p)
            for _ in range(6):
                chi = random_weyl_product(rs, rng, max_factors=2, max_coord=2)
                expansion = char_to_class(rs, tensor(st, chi))
                for lam in [(0,) * rs.rank, (1,) * rs.rank, (2, 0)[: rs.rank]]:
                    assert steinberg_delta_multiplicity(rs, chi, lam, p) == expansion.coeff(
                        dot_multiply(p, lam)
                    )


def test_equivalence_compatibility_through_twists():
    # Twisting a Weyl-filtered character and pairing against the Steinberg
    # block recovers its plain Weyl-basis coefficients.
    rng = random.Random(17)
    for rs in [A1, A2, B2]:
        for p in (2, 3):
            for _ in range(6):
                chi = random_weyl_product(rs, rng, max_factors=2, max_coord=2)
                plain = char_to_class(rs, chi)
                twisted = frobenius_twist(chi, 1, p)
                for lam in set(plain.support()) | {(0,) * rs.rank}:
                    assert steinberg_delta_multiplicity(rs, twisted, lam, p) == plain.coeff(lam)


def test_frobenius_contract_class_examples():
    assert frobenius_contract_class(A1, weyl_character(A1, (5,)), 3) == KElement({(1,): 1})
    assert frobenius_contract_class(A1, weyl_character(A1, (0,)), 3) == KElement({(0,): 1})
    chi = frobenius_twist(weyl_character(A2, (1, 1)), 1, 3)
    assert frobenius_contract_class(A2, chi, 3) == KElement({(1, 1): 1})


def test_contraction_consistency_and_positivity():
    rng = random.Random(911)
    for rs in [A1, A2, B2, G2]:
        for p in (2, 3):
            for _ in range(8):
                chi = random_weyl_product(rs, rng, max_coord=2)
                contracted = frobenius_contract_class(rs, chi, p)
                assert class_to_char(rs, contracted) == contract_weights(chi, p)
                assert all(c >= 0 for _, c in contracted.items())


def test_untwisting():
    rng = random.Random(99)
    for rs in [A1, A2, B2]:
        for p in (2, 3, 5):
            for _ in range(6):
                chi = random_weyl_product(rs, rng, max_factors=2, max_coord=2)
                assert frobenius_contract_class(
                    rs, frobenius_twist(chi, 1, p), p
                ) == char_to_class(rs, chi)


def test_pr_block_examples():
    el = KElement({(8,): 1, (4,): 1})
    assert pr_block(A1, el, (2,), 3, Lattice.ADJOINT) == KElement({(8,): 1})
    # Idempotence and the zero case.
    kept = pr_block(A1, el, (2,), 3, Lattice.ADJOINT)
    assert pr_block(A1, kept, (2,), 3, Lattice.ADJOINT) == kept
    assert pr_block(A1, KElement({(4,): 1}), (2,), 3, Lattice.ADJOINT) == KElement()
    with pytest.raises(DomainError):
        pr_block(A1, el, (1,), 3, Lattice.ADJOINT)  # representative outside ZR


def test_pr_block_partition_of_identity():
    rng = random.Random(31)
    for rs, p in [(A1, 3), (A2, 3), (A1, 5), (B2, 3)]:
        for _ in range(10):
            el = random_signed_class(rs, rng, max_coord=11)
            blocks = block_decompose(rs, el, p)
            total = KElement()
            for rep, comp in blocks:
                total = total + comp
                assert pr_block(rs, el, rep, p) == comp
            assert total == el


def test_higher_rank_round_trips():
    rng = random.Random(8080)
    for series, rank in [("A", 3), ("B", 3), ("D", 4)]:
        rs = build_root_system(series, rank)
        one = tuple(1 if i == 0 else 0 for i in range(rank))
        assert char_to_class(rs, weyl_character(rs, one)) == KElement({one: 1})
        for _ in range(4):
            el = KElement(
                {
                    tuple(rng.randint(0, 2) for _ in range(rank)): rng.choice([-2, 1, 3])
                    for _ in range(2)
                }
            )
            assert char_to_class(rs, class_to_char(rs, el)) == el
            assert steinberg_inverse(rs, steinberg_forward(rs, el, 2), 2) == el
        chi = tensor(weyl_character(rs, one), weyl_character(rs, one))
        assert char_to_class(rs, chi) == char_to_class_by_peeling(rs, chi)
        assert class_to_char(rs, frobenius_contract_class(rs, chi, 2)) == contract_weights(chi, 2)


def test_block_decompose_examples():
    el = KElement({(8,): 1, (4,): 1, (0,): 2})
    blocks = block_decompose(A1, el, 3, Lattice.ADJOINT)
    assert [(rep, dict(comp.items())) for rep, comp in blocks] == [
        ((0,), {(4,): 1, (0,): 2}),
        ((2,), {(8,): 1}),
    ]
    assert block_decompose(A1, KElement(), 3) == []
    single = block_decompose(A2, KElement({(2, 2): 3}), 3)
    assert len(single) == 1 and single[0][1] == KElement({(2, 2): 3})


def _a2_character_and_class():
    chi = weyl_character(A2, (1, 1))
    return chi, char_to_class(A2, chi)


def test_steinberg_delta_multiplicity_rejects_wrong_rank():
    chi, _ = _a2_character_and_class()
    for lam in [(1,), (1, 0, 0)]:
        with pytest.raises(DomainError, match="wrong rank"):
            steinberg_delta_multiplicity(A2, chi, lam, 3)


def test_tensor_delta_expansion_rejects_wrong_rank():
    chi, _ = _a2_character_and_class()
    for mu in [(1,), (1, 0, 0)]:
        with pytest.raises(DomainError, match="wrong rank"):
            tensor_delta_expansion(A2, mu, chi)


def test_pr_block_rejects_wrong_rank():
    _, element = _a2_character_and_class()
    with pytest.raises(DomainError, match="wrong rank"):
        pr_block(A2, element, (0, 0, 0), 3)
    with pytest.raises(DomainError, match="wrong rank"):
        block_decompose(A2, KElement({(1, 0, 0): 1}), 3)


def test_user_characters_of_wrong_rank_are_rejected():
    # The scan of an untagged character checks each weight's rank, so no
    # class expansion walks a weight of another rank.
    for chi in [Character({(1,): 1, (-1,): 1}), Character({(0, 0, 0): 1})]:
        with pytest.raises(DomainError, match="wrong rank"):
            char_to_class(A2, chi)
        with pytest.raises(DomainError, match="wrong rank"):
            frobenius_contract_class(A2, chi, 2)


def test_class_round_trips_and_block_sums_on_random_classes():
    # Random classes on types of rank 1 to 3: the Steinberg relabeling
    # undoes r times, the change of basis round-trips, and the linkage-block
    # components sum back to the class.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    types = [build_root_system(*key) for key in
             (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3))]

    @st.composite
    def cases(draw):
        rs = draw(st.sampled_from(types))
        weight = st.tuples(*[st.integers(0, 4)] * rs.rank)
        terms = draw(st.dictionaries(weight, st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=4))
        return rs, KElement(terms), draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        rs, element, p, r = case
        image = steinberg_forward(rs, element, p, r)
        for _ in range(r):
            image = steinberg_inverse(rs, image, p)
        assert image == element
        assert char_to_class(rs, class_to_char(rs, element)) == element
        blocks = block_decompose(rs, element, p)
        total = KElement()
        for rep, component in blocks:
            assert component
            assert all(fundamental_alcove_rep(rs, w, p) == rep for w in component.support())
            total = total + component
        assert total == element
        assert [rep for rep, _ in blocks] == sorted({rep for rep, _ in blocks})

    check()
