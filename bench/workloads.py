"""Seeded operations for the two library workloads.

A run repeats one round of operations, each time in a fresh process.  The
round holds a fixed mix of operation kinds over fixed root systems in a
fixed order; the seed only picks weights, so runs with different seeds do
comparable work, and every process of a run builds the same round.

An operation is ``(label, run, check)``.  ``run()`` is the timed call into
the library and returns its outputs; ``check(outputs)`` runs after the timer
stops and compares those outputs with a reference reached by a different
route (peeling, weight contraction, the Weyl dimension formula, alcove normal
forms, or the construction of the inputs).  The library is reached only
through attributes of the ``steinberg`` package looked up at call time, so a
traced run sees every call.
"""

from __future__ import annotations

import itertools
import random

RANK2_TYPES = (("A", 2), ("B", 2), ("G", 2))
RANK2_PRIMES = (2, 3, 5, 7)
RANK2_KINDS = ("twist", "stmult", "contract", "expand")
TWIST_MAX = 3  # the twist identity runs on every weight of size |lam| <= TWIST_MAX
PRODUCTS_PER_KIND = 6

HIGHRANK_TYPES = (("D", 5), ("F", 4), ("B", 5))
E6 = ("E", 6)
LINKAGE_OPS_PER_KIND = 4
# Small fundamental weights (0-based) per type, so that no single product
# dominates a round; B5's w2 (the adjoint) is left out, as its products are
# the slowest expansions.  E6 uses the dual pair w1, w6, whose products cost
# alike.
SMALL_FUNDAMENTALS = {
    ("D", 5): (0, 1, 3, 4),
    ("F", 4): (0, 2, 3),
    ("B", 5): (0, 4),
    ("E", 6): (0, 5),
}

WORKLOAD_TYPES = {
    "rank2-steinberg": RANK2_TYPES,
    "highrank-classes": HIGHRANK_TYPES + (E6,),
}


def systems(S, workload):
    """Build every root system a workload uses (part of set-up)."""
    return {key: S.build_root_system(*key) for key in WORKLOAD_TYPES[workload]}


def warm_up(S, rs):
    """The fixed per-type warm-up that ends set-up: pays any lazy set-up."""
    zero = (0,) * rs.rank
    trivial = S.weyl_character(rs, zero)
    S.char_to_class(rs, trivial)
    S.linked(rs, zero, zero, 2)


def round_ops(S, workload, built, seed):
    """The workload's round for a seed: a list of ``(label, run, check)``."""
    rng = random.Random(f"{workload}/{seed}")
    make = _rank2_round if workload == "rank2-steinberg" else _highrank_round
    return make(S, built, rng)


def _fixed_shuffle(specs, name):
    """Mix a round's operations in an order that no seed changes.

    The order decides which operation first needs a ``weyl_character`` and
    pays for computing it, so a seeded order would move single operations'
    costs from seed to seed.
    """
    random.Random(name).shuffle(specs)


# Weight arithmetic owned by the benchmark, used to build inputs and
# references without asking the library.


def _reflect(cartan, i, x):
    """Simple reflection s_i on fundamental-weight coordinates."""
    xi = x[i]
    return tuple(x[k] - xi * cartan[k][i] for k in range(len(x)))


def dot_image(rng, rs, lam, p):
    """A random element of the level-p affine dot orbit of lam."""
    cartan = rs.cartan
    x = tuple(c + 1 for c in lam)
    for _ in range(rng.randint(6, 12)):
        x = _reflect(cartan, rng.randrange(rs.rank), x)
    beta = [rng.randint(-1, 1) for _ in range(rs.rank)]
    x = tuple(x[k] + p * sum(cartan[k][j] * beta[j] for j in range(rs.rank))
              for k in range(rs.rank))
    return tuple(c - 1 for c in x)


def _dominant_dot_rep(rs, x):
    """Dominant weight in the finite dot orbit of x, or None on a wall."""
    y = tuple(c + 1 for c in x)
    while True:
        i = next((i for i, c in enumerate(y) if c < 0), None)
        if i is None:
            break
        y = _reflect(rs.cartan, i, y)
    if 0 in y:
        return None
    return tuple(c - 1 for c in y)


def weyl_dim(rs, lam) -> int:
    """Weyl dimension formula: prod over positive coroots of <lam+rho, b>/<rho, b>."""
    num = den = 1
    for d in rs.coroots:
        num *= sum(dj * (x + 1) for dj, x in zip(d, lam))
        den *= sum(d)
    return num // den


def _class_dim(rs, element) -> int:
    return sum(c * weyl_dim(rs, w) for w, c in element.items())


def _product(S, rs, factors):
    chi = S.weyl_character(rs, factors[0])
    for f in factors[1:]:
        chi = S.tensor(chi, S.weyl_character(rs, f))
    return chi


# rank2-steinberg: the paper's identities on A2, B2 and G2.


def _rank2_round(S, built, rng):
    # The twist identity is swept over every weight of size <= TWIST_MAX,
    # as in criterion 1, so its cold Freudenthal computations (whose cost
    # grows steeply with p*lam) are the same set for every seed; products
    # cycle through 1, 2 and 3 factors.
    specs = []
    for key in RANK2_TYPES:
        for p in RANK2_PRIMES:
            specs += [(key, p, "twist", (a, size - a))
                      for size in range(TWIST_MAX + 1) for a in range(size + 1)]
            specs += [(key, p, kind, i) for i in range(PRODUCTS_PER_KIND)
                      for kind in RANK2_KINDS[1:]]
    _fixed_shuffle(specs, "rank2-steinberg")
    return [_rank2_op(S, built[key], rng, p, kind, arg) for key, p, kind, arg in specs]


def _rank2_op(S, rs, rng, p, kind, arg):
    rank = rs.rank
    label = f"{kind} {rs.series}{rank} p={p}"
    if kind == "twist":
        lam = arg

        def run():
            st = S.steinberg_character(rs, p)
            lhs = S.tensor(st, S.frobenius_twist(S.weyl_character(rs, lam), 1, p))
            return lhs, S.weyl_character(rs, S.dot_multiply(p, lam))

        def check(out):
            lhs, rhs = out
            return lhs == rhs and lhs.dim() == weyl_dim(rs, S.dot_multiply(p, lam))

        return f"{label} lam={list(lam)}", run, check

    # Product i has 1 + i % 3 factors of fixed sizes 1..3; the seed splits
    # each size between the two coordinates.
    sizes = [1 + (arg + j) % 3 for j in range(1 + arg % 3)]
    factors = []
    for size in sizes:
        a = rng.randint(0, size)
        factors.append((a, size - a))
    label = f"{label} factors={[list(f) for f in factors]}"
    factor_dim = 1
    for f in factors:
        factor_dim *= weyl_dim(rs, f)

    if kind == "stmult":
        zero, ones = (0,) * rank, (1,) * rank

        def run():
            chi = _product(S, rs, factors)
            expansion = S.char_to_class(rs, S.tensor(S.steinberg_character(rs, p), chi))
            candidates = {zero, ones}
            for nu in expansion.support():
                if all((x - p + 1) % p == 0 for x in nu):
                    candidates.add(tuple((x - p + 1) // p for x in nu))
            mults = {lam: S.steinberg_delta_multiplicity(rs, chi, lam, p)
                     for lam in sorted(candidates)}
            return expansion, mults

        def check(out):
            expansion, mults = out
            st_dim = weyl_dim(rs, (p - 1,) * rank)
            return (_class_dim(rs, expansion) == st_dim * factor_dim
                    and all(m == expansion.coeff(S.dot_multiply(p, lam))
                            for lam, m in mults.items()))

        return label, run, check

    if kind == "contract":

        def run():
            chi = _product(S, rs, factors)
            return chi, S.class_to_char(rs, S.frobenius_contract_class(rs, chi, p))

        def check(out):
            chi, contracted = out
            return contracted == S.contract_weights(chi, p)

        return label, run, check

    def run():
        chi = _product(S, rs, factors)
        return chi, S.char_to_class(rs, chi)

    def check(out):
        chi, expansion = out
        return (expansion == S.char_to_class_by_peeling(rs, chi)
                and _class_dim(rs, expansion) == factor_dim)

    return label, run, check


# highrank-classes: Weyl-basis work and linkage on D5, F4, B5 and E6.


def _highrank_round(S, built, rng):
    # Every pair of small fundamentals is expanded by char_to_class and
    # tensor_delta_expansion and contracted at p = 2 and 3, so all seeds do
    # the same Weyl-basis work.  Linkage operations have fixed primes and
    # modes; the seed picks their weights and the E6 pair.
    specs = []
    for key in HIGHRANK_TYPES:
        for pair in itertools.combinations_with_replacement(SMALL_FUNDAMENTALS[key], 2):
            specs += [(key, "c2c", pair, None), (key, "tde", pair, None),
                      (key, "contract", pair, 2), (key, "contract", pair, 3)]
        for n in range(LINKAGE_OPS_PER_KIND):
            p = (2, 3)[n % 2]
            mode = "linked" if n < LINKAGE_OPS_PER_KIND // 2 else "random"
            specs += [(key, "linked", mode, p), (key, "pr_block", None, p),
                      (key, "blocks", None, p)]
    # Four E6 operations at p = 2, 4 of 116.  They take about a third of the
    # time, so their costs must not depend on the seed: the linkage test is
    # unlinked by construction (it scans all of W), and pr_block, whose cost
    # depends on how many of its weights are linked, is left out.
    pair = rng.choice(list(itertools.combinations_with_replacement(SMALL_FUNDAMENTALS[E6], 2)))
    specs += [(E6, "c2c", pair, 2), (E6, "contract", pair, 2),
              (E6, "linked", "unlinked", 2), (E6, "blocks", None, 2)]
    _fixed_shuffle(specs, "highrank-classes")
    return [_highrank_op(S, built[key], rng, kind, arg, p) for key, kind, arg, p in specs]


def _fundamental(rs, i):
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def _highrank_op(S, rs, rng, kind, arg, p):
    rank = rs.rank
    label = f"{kind} {rs.series}{rank}"

    if kind in ("c2c", "tde", "contract"):
        a, b = (_fundamental(rs, i) for i in arg)

    if kind == "c2c":

        def run():
            return S.char_to_class(rs, S.tensor(S.weyl_character(rs, a), S.weyl_character(rs, b)))

        def check(expansion):
            peeled = S.char_to_class_by_peeling(
                rs, S.tensor(S.weyl_character(rs, a), S.weyl_character(rs, b)))
            dim = weyl_dim(rs, a) * weyl_dim(rs, b)
            return expansion == peeled and _class_dim(rs, expansion) == dim

        return f"{label} {list(a)}x{list(b)}", run, check

    if kind == "tde":

        def run():
            return S.tensor_delta_expansion(rs, a, S.weyl_character(rs, b))

        def check(expansion):
            product = S.tensor(S.weyl_character(rs, a), S.weyl_character(rs, b))
            return expansion == S.char_to_class_by_peeling(rs, product)

        return f"{label} mu={list(a)} chi={list(b)}", run, check

    label = f"{label} p={p}"

    if kind == "contract":

        def run():
            chi = S.tensor(S.weyl_character(rs, a), S.weyl_character(rs, b))
            return chi, S.frobenius_contract_class(rs, chi, p)

        def check(out):
            chi, contracted = out
            return S.class_to_char(rs, contracted) == S.contract_weights(chi, p)

        return f"{label} {list(a)}x{list(b)}", run, check

    lam = tuple(rng.randint(0, 2) for _ in range(rank))

    if kind == "linked":
        if arg == "random":
            mu = tuple(rng.randint(-3, 3) for _ in range(rank))
        else:
            mu = dot_image(rng, rs, lam, p)
        if arg == "unlinked":
            # Adding w1 leaves the coset of the root lattice that holds the
            # affine orbit (E6: w1 is not in the root lattice).
            mu = (mu[0] + 1,) + mu[1:]

        def run():
            return S.linked(rs, lam, mu, p)

        def check(result):
            same = S.fundamental_alcove_rep(rs, lam, p) == S.fundamental_alcove_rep(rs, mu, p)
            expected = {"linked": True, "unlinked": False}.get(arg, same)
            return result is expected and same is expected

        return f"{label} {list(lam)}~{list(mu)} {arg}", run, check

    # pr_block and blocks: a class built from two affine dot orbits.
    bases = [lam, tuple(rng.randint(0, 2) for _ in range(rank))]
    groups = [{}, {}]
    used = set()
    for g, base in enumerate(bases):
        members = [base] if base not in used else []
        for _ in range(1000):
            w = _dominant_dot_rep(rs, dot_image(rng, rs, base, p))
            if w is not None and w not in used and w not in members:
                members.append(w)
            if len(members) == 2:
                break
        else:
            raise RuntimeError(f"no fresh dominant weight linked to {list(base)}")
        for w in members:
            used.add(w)
            groups[g][w] = rng.choice((-3, -2, -1, 1, 2, 3))
    terms = {**groups[0], **groups[1]}
    element = S.KElement(terms)
    label = f"{label} bases={[list(x) for x in bases]}"

    def expected_blocks():
        # Bases with equal alcove normal forms share a block.
        if S.fundamental_alcove_rep(rs, bases[0], p) == S.fundamental_alcove_rep(rs, bases[1], p):
            return [terms]
        return groups

    if kind == "pr_block":

        def run():
            return S.pr_block(rs, element, bases[0], p)

        def check(projected):
            return dict(projected.items()) == expected_blocks()[0]

        return label, run, check

    def run():
        return S.block_decompose(rs, element, p)

    def check(blocks):
        got = sorted(sorted(comp.items()) for _, comp in blocks)
        want = sorted(sorted(group.items()) for group in expected_blocks())
        reps = [rep for rep, _ in blocks]
        return got == want and reps == sorted(set(reps))

    return label, run, check
