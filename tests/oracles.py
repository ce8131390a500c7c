"""Independent oracles used by the test suite.

Everything here is deliberately separate from the library's algorithms:
hard-coded root tables for the rank-one and rank-two types, the Weyl group
order formulas, the dimension formula evaluated over the tables, a partition
function based character formula, a tuple-keyed convolution, a contraction
that tests every weight for divisibility by p, a slot integer
read one shifted field at a time, the whole Weyl group listed by
breadth-first closure (the only place anything lists it), alternating sums
and a linkage test over that list, Steinberg multiplicities by |W| lookups
in Weyl's denominator taken as a product over the positive roots, a plain
dominance walk (first negative coordinate, whole-weight reflections)
behind the dominant and dot-dominant representatives, a W-invariance
test that counts whole orbits, linear orbits by breadth-first search,
positive roots by closing the simple roots under reflections, root-datum
construction over the rationals, brute-force affine orbit enumeration in
a box, an alcove walk that checks every wall, one that checks only the
highest coroot's wall and never translates, closed-form rank-one facts,
and the principal specialization against Weyl's q-dimension.  None of
them calls the library's dominance kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from steinberg.rootdata import apply_simple_reflection

# Positive roots as (simple-root coordinates, coroot coordinates in the
# simple coroots), Bourbaki numbering.
ROOT_TABLES = {
    ("A", 1): [((1,), (1,))],
    ("A", 2): [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1))],
    ("B", 2): [
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
        ((1, 1), (2, 1)),
        ((1, 2), (1, 1)),
    ],
    ("C", 2): [
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
        ((1, 1), (1, 2)),
        ((2, 1), (1, 1)),
    ],
    ("G", 2): [
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
        ((1, 1), (1, 3)),
        ((2, 1), (2, 3)),
        ((3, 1), (1, 1)),
        ((3, 2), (1, 2)),
    ],
}

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15, ("A", 6): 21,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 5): 25, ("B", 6): 36,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25, ("C", 6): 36,
    ("D", 4): 12, ("D", 5): 20, ("D", 6): 30,
    ("E", 6): 36, ("F", 4): 24, ("G", 2): 6,
}

CARTAN_INVERSES = {
    ("A", 1): [[Fraction(1, 2)]],
    ("A", 2): [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
    ("B", 2): [[Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(1)]],
    ("C", 2): [[Fraction(1), Fraction(1)], [Fraction(1, 2), Fraction(1)]],
    ("G", 2): [[Fraction(2), Fraction(3)], [Fraction(1), Fraction(2)]],
}


def weyl_order_formula(series: str, rank: int) -> int:
    import math

    if series == "A":
        return math.factorial(rank + 1)
    if series in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if series == "E" and rank == 6:
        return 51840
    if series == "F":
        return 1152
    if series == "G":
        return 12
    raise ValueError(f"no formula for {series}{rank}")


def coroot_pairing(series, rank, weight, coroot):
    return sum(d * m for d, m in zip(coroot, weight))


def weyl_dimension(series, rank, lam) -> int:
    """Dimension formula over the hard-coded coroot table."""
    value = Fraction(1)
    rho = (1,) * rank
    for _, coroot in ROOT_TABLES[(series, rank)]:
        num = coroot_pairing(series, rank, tuple(x + 1 for x in lam), coroot)
        den = coroot_pairing(series, rank, tuple(rho), coroot)
        value *= Fraction(num, den)
    if value.denominator != 1:
        raise ArithmeticError(f"dimension of {list(lam)} on {series}{rank} is {value}")
    return int(value)


def _root_coords(series, rank, weight):
    inv = CARTAN_INVERSES[(series, rank)]
    return tuple(sum(inv[i][j] * weight[j] for j in range(rank)) for i in range(rank))


@lru_cache(maxsize=None)
def _kostant_partition(series, rank, beta, index) -> int:
    """Number of ways to write beta as a multiset of positive roots[index:]."""
    roots = ROOT_TABLES[(series, rank)]
    if all(x == 0 for x in beta):
        return 1
    if index >= len(roots):
        return 0
    alpha = roots[index][0]
    total = 0
    cur = beta
    while all(x >= 0 for x in cur):
        total += _kostant_partition(series, rank, cur, index + 1)
        cur = tuple(x - a for x, a in zip(cur, alpha))
    return total


def kostant_partition(series, rank, beta) -> int:
    if any(x < 0 for x in beta):
        return 0
    return _kostant_partition(series, rank, tuple(beta), 0)


@lru_cache(maxsize=None)
def weyl_group(rs) -> tuple:
    """Every element of W as a (matrix, sign) pair, in breadth-first order.

    The matrix acts on fundamental-weight coordinates (``act``).  Starting
    from the identity, each new matrix is s_i times a listed one, which
    subtracts cartan[k][i] times row i from each row k; s_i has sign -1, so
    the new sign is the negative of the old.  Breadth-first order lists the
    elements by increasing length.
    """
    rank, cartan = rs.rank, rs.cartan
    identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    signs = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(rank):
                row = m[i]
                new = tuple(
                    tuple(a - cartan[k][i] * b for a, b in zip(m[k], row)) if cartan[k][i]
                    else m[k]
                    for k in range(rank)
                )
                if new not in signs:
                    signs[new] = -signs[m]
                    nxt.append(new)
        frontier = nxt
    return tuple(signs.items())


def act(matrix, weight) -> tuple:
    """The linear action w(weight)."""
    return tuple(sum(map(mul, row, weight)) for row in matrix)


def dot(matrix, weight) -> tuple:
    """The dot action w . weight = w(weight + rho) - rho."""
    return tuple(x - 1 for x in act(matrix, [c + 1 for c in weight]))


def character_by_weyl_sum(rs, group, lam) -> dict:
    """Weyl-module character through the partition-function formula.

    mult(mu) = sum over the Weyl group of sign(w) * P(w(lam+rho) - (mu+rho)),
    evaluated on every candidate weight below lam.  Exponential in rank, so
    only sensible for rank <= 2.
    """
    series, rank = rs.series, rs.rank
    shifted = tuple(x + 1 for x in lam)
    images = [(sign, act(m, shifted)) for m, sign in group]

    # Candidate weights: everything of the form lam - (nonnegative root sum)
    # inside the convex hull; walk down from lam by simple roots, keeping
    # points whose partition numerator is reachable for at least one w.
    out = {}
    seen = set()
    queue = [tuple(lam)]
    seen.add(tuple(lam))
    simple_fund = [
        tuple(rs.cartan[i][j] for i in range(rank)) for j in range(rank)
    ]
    while queue:
        mu = queue.pop()
        total = 0
        for sign, img in images:
            delta = tuple(a - b - 1 for a, b in zip(img, mu))
            coords = _root_coords(series, rank, delta)
            if all(c.denominator == 1 and c >= 0 for c in coords):
                total += sign * kostant_partition(series, rank, tuple(int(c) for c in coords))
        if total:
            out[mu] = total
            for j in range(rank):
                nxt = tuple(m - s for m, s in zip(mu, simple_fund[j]))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return out


def convolve_naive(a, b) -> dict:
    """Product of two characters, one tuple key per multiply-add.

    mult(nu) = sum over lam of a(lam) * b(nu - lam); a sum that reaches zero
    is deleted at once, so the result holds no zero multiplicity.
    """
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bitems = list(b.items())
    for w1, m1 in a.items():
        for w2, m2 in bitems:
            key = tuple(x + y for x, y in zip(w1, w2))
            new = out.get(key, 0) + m1 * m2
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def contract_naive(terms: dict, p: int) -> dict:
    """The weights w of terms with every coordinate divisible by p, as w / p, one weight at a time."""
    return {tuple(x // p for x in w): m for w, m in terms.items() if all(x % p == 0 for x in w)}


def read_slots(value: int, nbytes: int, ranges) -> dict:
    """The nonzero slots of a slot integer, one shifted field at a time.

    Slot k is the field of 8 * nbytes bits at bit 8 * nbytes * k, read as a
    two's-complement number, and belongs to the k-th weight of the box with
    coordinate ranges ``ranges``, the last coordinate fastest: k's digits in
    the mixed radix of the range lengths.
    """
    bits = 8 * nbytes
    n = 1
    for r in ranges:
        n *= len(r)
    out = {}
    for k in range(n):
        field = (value >> (bits * k)) & ((1 << bits) - 1)
        if field >= 1 << (bits - 1):
            field -= 1 << bits
        digits, rest = [], k
        for r in reversed(ranges):
            rest, d = divmod(rest, len(r))
            digits.append(r[d])
        if field:
            out[tuple(reversed(digits))] = field
    return out


def a1_weyl_character_weights(m: int) -> dict:
    """Rank-one theory: weights m, m-2, ..., -m, each once."""
    return {(k,): 1 for k in range(-m, m + 1, 2)}


def a1_clebsch_gordan(a: int, b: int) -> list:
    """Highest weights in the Weyl filtration of Delta(a) tensor Delta(b)."""
    return list(range(abs(a - b), a + b + 1, 2))


def a1_linked(lam: int, mu: int, p: int) -> bool:
    """Rank one, full weight lattice: shifted weights agree up to sign mod 2p."""
    return (mu + 1 - (lam + 1)) % (2 * p) == 0 or (mu + 1 + (lam + 1)) % (2 * p) == 0


def affine_orbit_in_box(rs, lam, p, bound, margin=None) -> set:
    """Brute-force dot orbit of the level-p affine group inside a box.

    Applies every affine reflection through the simple roots with reachable
    shift levels, closing within coordinates bounded by bound + margin, and
    returns the orbit points inside the box itself.  Complete for points
    whose connecting reflections stay within the margin.
    """
    margin = 4 * p if margin is None else margin
    limit = bound + margin
    rank = rs.rank
    start = tuple(lam)
    seen = {start}
    queue = [start]
    nmax = (2 * limit + 2 * p) // p + 2
    while queue:
        w = queue.pop()
        shifted = tuple(x + 1 for x in w)
        for i in range(rank):
            alpha = tuple(rs.cartan[k][i] for k in range(rank))
            base = tuple(
                shifted[k] - shifted[i] * alpha[k] for k in range(rank)
            )  # s_i(w + rho)
            for n in range(-nmax, nmax + 1):
                img = tuple(b - n * p * a - 1 for b, a in zip(base, alpha))
                if max(abs(x) for x in img) > limit or img in seen:
                    continue
                seen.add(img)
                queue.append(img)
    return {w for w in seen if max(abs(x) for x in w) <= bound}


def dominant_by_first_negative(rs, weight):
    """Dominant orbit point and sign, reflecting at the first negative coordinate."""
    w = tuple(weight)
    sign = 1
    while True:
        for i, x in enumerate(w):
            if x < 0:
                w = apply_simple_reflection(rs, i, w)
                sign = -sign
                break
        else:
            return w, sign


def dot_dominant_by_first_negative(rs, weight):
    """Dominant dot representative and sign, or (None, 0) when weight + rho is singular."""
    dom, sign = dominant_by_first_negative(rs, [x + 1 for x in weight])
    if 0 in dom:
        return None, 0
    return tuple(x - 1 for x in dom), sign


def alcove_rep_by_all_walls(rs, weight, p) -> tuple:
    """Closed-bottom-alcove normal form, checking every wall at level p.

    Alternates dominant normalization with a reflection in the level-p wall
    of the positive coroot with the largest pairing (the first such root in
    root order), until no pairing of the shifted weight exceeds p.
    """
    x = tuple(c + 1 for c in weight)
    while True:
        x, _ = dominant_by_first_negative(rs, x)
        worst, worst_val = None, p
        for i, d in enumerate(rs.coroots):
            v = sum(map(mul, d, x))
            if v > worst_val:
                worst, worst_val = i, v
        if worst is None:
            return tuple(c - 1 for c in x)
        x = tuple(c - (worst_val - p) * a for c, a in zip(x, rs.positive_fund[worst]))


def alcove_rep_by_highest_wall(rs, weight, p) -> tuple:
    """Closed-bottom-alcove normal form by reflections alone, never translating.

    Alternates dominant normalization with a reflection in the level-p wall
    of the highest coroot, while the shifted weight pairs beyond it.  The
    number of reflections grows linearly with the size of the weight.
    """
    coroot = max(rs.coroots, key=sum)
    root = rs.positive_fund[rs.coroots.index(coroot)]
    x = tuple(c + 1 for c in weight)
    while True:
        x, _ = dominant_by_first_negative(rs, x)
        excess = sum(map(mul, coroot, x)) - p
        if excess <= 0:
            return tuple(c - 1 for c in x)
        x = tuple(c - excess * a for c, a in zip(x, root))


def alternating_coefficient(group, chi, lam, mu=None, p=1) -> int:
    """sum over the Weyl group of sign(w) * chi(p * (w . lam) - mu).

    With mu = 0 and p = 1 this is the coefficient of the Weyl class at lam
    in chi; a shift by mu expands Delta(mu) tensor chi, and a scale p gives
    the Steinberg multiplicity of Delta(p . lam) in St tensor chi.
    """
    shifted = [x + 1 for x in lam]
    # p * (w . lam) - mu = p * w(lam + rho) - (p * rho + mu)
    offsets = [p + y for y in ((0,) * len(lam) if mu is None else mu)]
    total = 0
    for matrix, sign in group:
        v = tuple(p * sum(map(mul, row, shifted)) - o for row, o in zip(matrix, offsets))
        m = chi.mult(v)
        if m:
            total += sign * m
    return total


def denominator_coefficient(rs, chi, lam, p) -> int:
    """The Steinberg multiplicity of Delta(p . lam) in St tensor chi, by Weyl's denominator.

    D = prod over alpha > 0 of (1 - e^-alpha), by tuple convolution, equals
    sum_w sgn(w) * e^(w rho - rho); so sum over the |W| terms delta of D of
    D(delta) * chi(p * (lam - delta)) is the alternating sum
    sum_w sgn(w) * chi(p * (w . lam)) for W-invariant chi.
    """
    zero = (0,) * rs.rank
    d = {zero: 1}
    for root in rs.positive_fund:
        d = convolve_naive(d, {zero: 1, tuple(-x for x in root): -1})
    return sum(m * chi.mult(tuple(p * (x - y) for x, y in zip(lam, delta)))
               for delta, m in d.items())


def alternating_expansion(rs, group, chi, mu=None, p=1) -> dict:
    """Weyl-basis expansion by alternating sums, as a dict of nonzero terms.

    Candidates are the dominant dot representatives of the support weights,
    shifted by mu, or of those divisible by p, divided by p.  Only this
    candidate set comes from a walk (``dot_dominant_by_first_negative``);
    every coefficient is summed over the whole group.
    """
    mu = (0,) * rs.rank if mu is None else tuple(mu)
    candidates = set()
    for w in chi.support():
        v = tuple(x + y for x, y in zip(w, mu))
        if all(x % p == 0 for x in v):
            dom, _ = dot_dominant_by_first_negative(rs, tuple(x // p for x in v))
            if dom is not None:
                candidates.add(dom)
    out = {}
    for lam in candidates:
        c = alternating_coefficient(group, chi, lam, mu, p)
        if c:
            out[lam] = c
    return out


def _in_p_root_lattice(rs, delta, p) -> bool:
    # delta lies in p * ZR iff its exact simple-root coordinates are
    # integers divisible by p.
    modulus = rs.inv_den * p
    return all(sum(map(mul, row, delta)) % modulus == 0 for row in rs.inv_num)


def linked_unchecked(rs, group, lam, mu, p) -> bool:
    """Linkage by search: some w carries lam + rho onto mu + rho modulo p * ZR."""
    shifted_mu = tuple(x + 1 for x in mu)
    shifted_lam = tuple(x + 1 for x in lam)
    for matrix, _ in group:
        img = act(matrix, shifted_lam)
        delta = tuple(a - b for a, b in zip(shifted_mu, img))
        if _in_p_root_lattice(rs, delta, p):
            return True
    return False


def w_invariant_by_orbits(rs, chi) -> bool:
    """W-invariance by counting: every orbit met is constant and complete.

    Groups the support by dominant representative, then compares each
    group's size with the length of the whole orbit.
    """
    counted = {}
    for w, m in chi.items():
        rep, _ = dominant_by_first_negative(rs, w)
        prev = counted.setdefault(rep, [m, 0])
        if prev[0] != m:
            return False
        prev[1] += 1
    return all(count == len(orbit_by_search(rs, rep)) for rep, (_, count) in counted.items())


def orbit_by_search(rs, weight) -> set:
    """Linear Weyl orbit by breadth-first closure under the simple reflections."""
    start = tuple(weight)
    seen = {start}
    queue = [start]
    while queue:
        w = queue.pop()
        for i in range(rs.rank):
            if w[i] != 0:
                w2 = apply_simple_reflection(rs, i, w)
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
    return seen


def symmetrizer_by_fractions(cartan, rank) -> tuple:
    """Minimal positive integer t with t[i]*a[i][j] == t[j]*a[j][i], over the rationals."""
    t = [None] * rank
    t[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if j != i and cartan[i][j] != 0 and t[j] is None:
                t[j] = t[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    if any(v is None for v in t):
        raise ValueError("Dynkin diagram must be connected")
    den = 1
    for v in t:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in t]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def roots_by_reflection_closure(cartan, rank) -> list:
    """Positive roots in simple-root coordinates, closing the simple roots under s_i.

    In simple-root coordinates s_i sends c to c - m_i * e_i with m = cartan @ c;
    the closure holds every root, positive and negative.  Simple roots come
    first, then the rest by (height, coordinates).
    """
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        c = queue.pop()
        m = [sum(cartan[i][j] * c[j] for j in range(rank)) for i in range(rank)]
        for i in range(rank):
            if m[i] == 0:
                continue
            c2 = list(c)
            c2[i] -= m[i]
            c2 = tuple(c2)
            if c2 not in seen:
                seen.add(c2)
                queue.append(c2)
    positives = [c for c in seen if min(c) >= 0]
    others = sorted((c for c in positives if sum(c) > 1), key=lambda c: (sum(c), c))
    return simples + others


def invert_by_fractions(matrix, rank):
    """Gauss-Jordan over the rationals: (numerator matrix, least positive denominator)."""
    aug = [[Fraction(matrix[i][j]) for j in range(rank)]
           + [Fraction(1 if j == i else 0) for j in range(rank)]
           for i in range(rank)]
    for col in range(rank):
        pivot = next(r for r in range(col, rank) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(rank):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[rank:] for row in aug]
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    num = tuple(tuple(int(x * den) for x in row) for row in inv)
    return num, den


def root_coordinates(rs, weight) -> tuple:
    """Exact simple-root coordinates of a weight, as Fractions."""
    num, den = invert_by_fractions(rs.cartan, rs.rank)
    return tuple(Fraction(sum(map(mul, row, weight)), den) for row in num)


def coroots_by_fractions(rs) -> tuple:
    """Coroots in the simple coroots, 2 * c_j * t_j / (beta, beta), over the rationals."""
    t = symmetrizer_by_fractions(rs.cartan, rs.rank)
    out = []
    for c, m in zip(rs.positive_roots, rs.positive_fund):
        norm = sum(c[j] * t[j] * m[j] for j in range(rs.rank))
        d = [Fraction(2 * c[j] * t[j], norm) for j in range(rs.rank)]
        if any(x.denominator != 1 for x in d):
            raise ArithmeticError(f"coroot of {c} is not integral")
        out.append(tuple(int(x) for x in d))
    return tuple(out)


# The principal specialization: integer Laurent polynomials in t as
# {exponent: nonzero coefficient}.


def principal_specialization(rs, chi) -> dict:
    """chi with each e^mu sent to t^<mu, 2 rho^v>; W is never listed.

    <omega_i, 2 rho^v> is the sum of the i-th coordinates of the positive
    coroots, since 2 rho^v is their sum.
    """
    heights = [sum(column) for column in zip(*rs.coroots)]
    out = {}
    for weight, m in chi.items():
        e = sum(map(mul, heights, weight))
        out[e] = out.get(e, 0) + m
    return {e: c for e, c in out.items() if c}


def _times_bracket(poly, n) -> dict:
    # poly * [n], where [n] = t^n - t^-n.
    out = {}
    for e, c in poly.items():
        out[e + n] = out.get(e + n, 0) + c
        out[e - n] = out.get(e - n, 0) - c
    return {e: c for e, c in out.items() if c}


def _over_bracket(poly, n) -> dict:
    # poly / [n], from the top exponent down: poly(e) = q(e - n) - q(e + n).
    lo, hi = min(poly), max(poly)
    q = {}
    for e in range(hi, lo + 2 * n - 1, -1):
        c = poly.get(e, 0) + q.get(e + n, 0)
        if c:
            q[e - n] = c
    if any(poly.get(e, 0) + q.get(e + n, 0) for e in range(lo, lo + 2 * n)):
        raise ArithmeticError(f"[{n}] does not divide the polynomial")
    return q


def q_dimension(rs, lam) -> dict:
    """Weyl's q-dimension prod over alpha > 0 of [<lam + rho, alpha^v>] / [<rho, alpha^v>].

    [n] = t^n - t^-n.  The principal specialization of ch Delta(lam) (Weyl's
    denominator formula for the dual root system; Kac, *Infinite-dimensional
    Lie algebras*, ch. 10), by exact division of Laurent polynomials.
    """
    num = {0: 1}
    for coroot in rs.coroots:
        num = _times_bracket(num, sum(d * (x + 1) for d, x in zip(coroot, lam)))
    for coroot in rs.coroots:
        num = _over_bracket(num, sum(coroot))
    return num
