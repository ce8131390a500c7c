"""Root systems, weight lattices, and elementary weight arithmetic.

Weights are plain integer tuples holding fundamental-weight coordinates:
coordinate i of a weight is its pairing with the i-th simple coroot.  Every
other coordinate system (simple-root coordinates, coroot expansions) is
derived from the Cartan matrix in integer arithmetic: the inverse Cartan
matrix is kept as an integer numerator matrix over one positive common
denominator, so lattice membership tests are exact remainder tests, never
floating point.  The Weyl group acts on weights one weight at a time, by
simple reflections: the dominance walk ``_to_dominant`` and the descent
tree of an orbit (``descend_orbit``) never list the group's elements.

Conventions: Bourbaki numbering of simple roots; the Cartan matrix entry
``cartan[i][j]`` is the pairing of the j-th simple root with the i-th simple
coroot.  The first ``rank`` entries of ``positive_roots`` are the simple
roots in order, so indices below ``rank`` double as simple-coroot indices.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add, mul

from .errors import ConfigurationError, DomainError

# Admissible ranks per series: the 22 irreducible types of rank <= 6.
_RANK_RANGE = {
    "A": (1, 6),
    "B": (2, 6),
    "C": (2, 6),
    "D": (4, 6),
    "E": (6, 6),
    "F": (4, 4),
    "G": (2, 2),
}


class RootSystem:
    """Immutable root datum for one irreducible type.

    ``positive_roots`` lists simple-root coordinate vectors, simple roots
    first, then by (height, coordinates), as one walk of the positive roots
    by height finds them (``_enumerate_roots``; Humphreys, *Introduction to
    Lie Algebras and Representation Theory*, 9.4 and 10.2).  The walk also
    carries ``positive_fund``, the same roots in fundamental coordinates;
    ``coroots`` are their coroots expanded in the simple coroots (always
    integral).  ``symmetrizer`` is the minimal positive integer vector t
    with t[i]*cartan[i][j] == t[j]*cartan[j][i]; the bilinear form used
    everywhere is (x, alpha_j) = t[j] * x_j up to one global positive scale.
    The inverse Cartan matrix is ``inv_num`` / ``inv_den``: an integer
    matrix over one positive denominator, in lowest terms.

    Five tables that operations read on every call are built once, with
    the type: ``neighbours`` holds, per node i, the pairs (j, cartan[j][i])
    with j != i and cartan[j][i] != 0, the steps of the dominance walk
    (``_to_dominant``); ``weyl_order`` is |W|; ``highest_coroot`` is the
    coroot of largest height paired with its root in fundamental
    coordinates, the level-p alcove wall; ``negation_in_w`` says whether -1
    lies in W, so that W-invariant products are symmetric under negation;
    ``rho_ranges`` are the coordinate ranges of the orbit W rho.
    The dominant point of -v is -w0 v, and -w0 permutes the fundamental
    coordinates (a diagram automorphism), so for v = (1, 2, ..., rank),
    whose coordinates are distinct, it is v exactly when w0 = -1.  Over an
    orbit W mu, coordinate j is <w mu, alpha_j^v> = <mu, w^-1 alpha_j^v>,
    and w^-1 alpha_j^v runs over the coroots of the roots as long as
    alpha_j, negatives included.  A coroot pairs with rho to its height, so
    coordinate j of W rho ranges over [-h, h], h the largest such height.

    Built from keyword arguments, one per slot.  Equality and hashing are
    those of ``object`` (identity), so instances are cheap ``lru_cache``
    keys; assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ("series", "rank", "cartan", "positive_roots", "positive_fund", "coroots",
                 "symmetrizer", "inv_num", "inv_den", "rho", "neighbours", "weyl_order",
                 "highest_coroot", "negation_in_w", "rho_ranges")

    def __init__(self, **fields):
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"RootSystem takes exactly the fields {self.__slots__}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RootSystem is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RootSystem is immutable; cannot delete {name!r}")

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def to_dict(self) -> dict:
        return {"series": self.series, "rank": self.rank}

    def __repr__(self):
        return f"RootSystem({self.series}{self.rank})"

    def __reduce__(self):
        # Unpickling returns the one cached instance of the type.
        return build_root_system, (self.series, self.rank)


def _cartan_matrix(series: str, rank: int) -> list:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if series == "B" and rank >= 2:  # last simple root short
            a[rank - 1][rank - 2] = -2
        if series == "C" and rank >= 2:  # last simple root long
            a[rank - 2][rank - 1] = -2
    elif series == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif series == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            bond(i, j)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, aij=-1, aji=-2)
        bond(2, 3)
    elif series == "G":
        bond(0, 1, aij=-3, aji=-1)
    return a


def _symmetrizer(cartan, rank) -> tuple:
    # Solve t[i]*a[i][j] == t[j]*a[j][i] along the Dynkin graph with each
    # t[j] an integer pair (numerator, denominator), then clear denominators
    # and divide out the common factor.
    t = [None] * rank
    t[0] = (1, 1)
    stack = [0]
    while stack:
        i = stack.pop()
        num, den = t[i]
        for j in range(rank):
            if j != i and cartan[i][j] != 0 and t[j] is None:
                t[j] = (num * cartan[i][j], den * cartan[j][i])
                stack.append(j)
    if any(v is None for v in t):
        raise ConfigurationError("Dynkin diagram must be connected")
    den = lcm(*(d for _, d in t))
    ints = [n * den // d for n, d in t]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _enumerate_roots(cartan, rank):
    # Walk the positive roots by height (Humphreys, *Introduction to Lie
    # Algebras and Representation Theory*, 9.4 and 10.2).  The alpha_i-string
    # through a root b is b - p*alpha_i, ..., b + q*alpha_i with no gaps and
    # p - q = <b, alpha_i^v> = m_i, so b + alpha_i is a root exactly when
    # p > m_i.  Going by height, every root below b is known when b is
    # reached: its p along alpha_i is one more than that of b - alpha_i, and
    # 0 when b - alpha_i is not a root.  Adding alpha_i adds column i of the
    # Cartan matrix to the fundamental coordinates m.  Returns the roots in
    # simple-root coordinates (simple roots first, then by (height,
    # coordinates)), the same roots in fundamental coordinates, and the
    # number of roots at each height.
    r = range(rank)
    cols = [tuple(row[i] for row in cartan) for i in r]
    roots = [tuple(int(j == i) for j in r) for i in r]
    fund = list(cols)
    per_height = [rank]
    level = [(c, m, [0] * rank) for c, m in zip(roots, fund)]
    while True:
        up = {}
        for c, m, down in level:
            for i in r:
                if down[i] > m[i]:
                    c2 = c[:i] + (c[i] + 1,) + c[i + 1:]
                    entry = up.get(c2)
                    if entry is None:
                        up[c2] = entry = (tuple(map(add, m, cols[i])), [0] * rank)
                    entry[1][i] = down[i] + 1
        if not up:
            return roots, fund, per_height
        level = [(c, *up[c]) for c in sorted(up)]
        roots += [c for c, _, _ in level]
        fund += [m for _, m, _ in level]
        per_height.append(len(level))


def _weyl_order(per_height) -> int:
    # |W| is the product of (m_j + 1) over the exponents m_j.  The exponents
    # are the partition dual to the numbers of positive roots at each height
    # (Kostant), so m_j counts the heights holding at least j positive roots.
    order = 1
    for j in range(1, per_height[0] + 1):
        order *= 1 + sum(1 for n in per_height if n >= j)
    return order


def _invert(matrix, rank):
    # Gauss-Jordan without division: clearing a column scales each other row by
    # the pivot, so every entry stays an integer.  The left half ends up
    # diagonal, row i of the inverse is row i of the right half over the
    # diagonal entry d_i; bring the rows to one denominator and reduce.
    # Returns (numerator matrix, positive denominator) in lowest terms.
    aug = [list(matrix[i]) + [int(j == i) for j in range(rank)] for i in range(rank)]
    for col in range(rank):
        pivot = next(r for r in range(col, rank) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        row = aug[col]
        pv = row[col]
        for r in range(rank):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [pv * x - f * y for x, y in zip(aug[r], row)]
    diag = [aug[i][i] for i in range(rank)]
    den = lcm(*diag)
    num = [[x * (den // d) for x in aug[i][rank:]] for i, d in enumerate(diag)]
    g = gcd(den, *(x for row in num for x in row))
    return tuple(tuple(x // g for x in row) for row in num), den // g


def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the full root datum for an irreducible type of rank <= 6.

    Each type is built once.  The arguments are checked before the cache is
    looked up, so a bool rank, whose key equals an int's, is rejected.
    """
    if series not in _RANK_RANGE:
        raise ConfigurationError(f"unknown series {series!r}; expected one of A-G")
    lo, hi = _RANK_RANGE[series]
    if isinstance(rank, bool) or not isinstance(rank, int) or not lo <= rank <= hi:
        raise ConfigurationError(
            f"series {series} supports rank {lo}..{hi} here; got {rank}"
        )
    return _build_root_system(series, rank)


@lru_cache(maxsize=None)
def _build_root_system(series: str, rank: int) -> RootSystem:
    cartan = _cartan_matrix(series, rank)
    roots, fund, per_height = _enumerate_roots(cartan, rank)
    t = _symmetrizer(cartan, rank)
    coroots, norms = [], []
    for c, m in zip(roots, fund):
        ct = list(map(mul, c, t))
        norm = sum(map(mul, ct, m))  # (beta, beta), scaled
        norms.append(norm)
        d = []
        for x in ct:
            dj, rem = divmod(2 * x, norm)
            if rem:
                raise ConfigurationError(f"coroot of root {list(c)} is not integral")
            d.append(dj)
        coroots.append(tuple(d))
    inv_num, inv_den = _invert(cartan, rank)
    r = range(rank)
    neighbours = tuple(tuple((j, cartan[j][i]) for j in r if j != i and cartan[j][i])
                       for i in r)
    regular = list(range(1, rank + 1))
    negated = [-x for x in regular]
    _to_dominant(neighbours, negated)
    return RootSystem(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(roots),
        positive_fund=tuple(fund),
        coroots=tuple(coroots),
        symmetrizer=t,
        inv_num=inv_num,
        inv_den=inv_den,
        rho=(1,) * rank,
        neighbours=neighbours,
        weyl_order=_weyl_order(per_height),
        # That of the highest short root, not highest_root_index (the long
        # root on B, C, F and G).
        highest_coroot=max(zip(coroots, fund), key=lambda pair: sum(pair[0])),
        negation_in_w=negated == regular,
        rho_ranges=tuple(range(-h, h + 1) for h in (
            max(sum(d) for d, n in zip(coroots, norms) if n == norms[j]) for j in r)),
    )


def root_system_from_dict(data: dict) -> RootSystem:
    try:
        return build_root_system(str(data["series"]), _strict_int(data["rank"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed root system payload: {exc}") from exc


def pairing(rs: RootSystem, weight, index: int) -> int:
    """Pairing of a weight with the coroot of positive root ``index``.

    Indices below ``rs.rank`` are the simple coroots.
    """
    weight = require_rank(rs, weight)
    if type(index) is not int or not 0 <= index < len(rs.coroots):
        raise DomainError(
            f"expected an integer in 0..{len(rs.coroots) - 1} (a positive-root index), "
            f"got {index!r}"
        )
    d = rs.coroots[index]
    return sum(d[j] * weight[j] for j in range(rs.rank))


def highest_root_index(rs: RootSystem) -> int:
    heights = [sum(c) for c in rs.positive_roots]
    return heights.index(max(heights))


def _strict_int(value, error=ValueError) -> int:
    """The value if it is an int and not a bool; otherwise raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"expected an integer, got {value!r}")
    return value


# Trial division up to the square root of p < 2^32 takes at most 2^16 steps.
_MAX_P = 1 << 32


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def require_p(p, what: str) -> int:
    """p if it is a prime below 2^32; otherwise DomainError saying what needs it."""
    _strict_int(p, DomainError)
    if p < 2:
        raise DomainError(f"{what} needs p >= 2, got {p}")
    if p >= _MAX_P or not _is_prime(p):
        raise DomainError(f"{what} needs a prime p below 2^32, got {p}")
    return p


def _int_coordinates(weight) -> tuple:
    # The weight as a tuple, or DomainError when a coordinate is not an int.
    weight = tuple(weight)
    for x in weight:
        if type(x) is not int:
            _strict_int(x, DomainError)
    return weight


def require_rank(rs: RootSystem, weight) -> tuple:
    """The weight as a tuple of ints, or DomainError.

    DomainError when its rank is not rs.rank or a coordinate is not an int
    (a bool or a float that equals an int included).
    """
    weight = tuple(weight)
    if len(weight) != rs.rank:
        raise DomainError(f"weight {list(weight)} has wrong rank for {rs!r}")
    return _int_coordinates(weight)


def is_dominant(weight) -> bool:
    """Whether no coordinate is negative; DomainError when one is not an int."""
    return all(x >= 0 for x in _int_coordinates(weight))


def require_dominant(rs: RootSystem, weight) -> tuple:
    """The weight as a tuple of ints (``require_rank``), or DomainError when not dominant."""
    weight = require_rank(rs, weight)
    if min(weight) < 0:
        raise DomainError(f"weight {list(weight)} is not dominant")
    return weight


def is_restricted(weight, p: int) -> bool:
    require_p(p, "restricted-weight test")
    return all(0 <= x < p for x in _int_coordinates(weight))


def in_root_lattice(rs: RootSystem, weight) -> bool:
    weight = require_rank(rs, weight)
    return all(
        sum(rs.inv_num[i][j] * weight[j] for j in range(rs.rank)) % rs.inv_den == 0
        for i in range(rs.rank)
    )


class Lattice(enum.Enum):
    """Active character lattice: full weight lattice or the root lattice."""

    SIMPLY_CONNECTED = "sc"
    ADJOINT = "adj"


def in_lattice(rs: RootSystem, weight, lattice: Lattice) -> bool:
    if lattice is Lattice.ADJOINT:
        return in_root_lattice(rs, weight)
    require_rank(rs, weight)
    return True


def require_in_lattice(rs: RootSystem, weight, lattice: Lattice) -> None:
    if not in_lattice(rs, weight, lattice):
        raise DomainError(f"weight {list(weight)} is not in the root lattice")


def steinberg_weight(rs: RootSystem, p: int, r: int = 1):
    """The weight (p^r - 1) * rho."""
    require_p(p, "Steinberg weight")
    if _strict_int(r, DomainError) < 0:
        raise DomainError(f"Steinberg weight needs r >= 0, got {r}")
    return (p**r - 1,) * rs.rank


def require_steinberg_configuration(rs, p: int, r: int, lattice: Lattice) -> None:
    """Reject configurations whose Steinberg weight leaves the lattice."""
    _strict_int(p, DomainError)
    _strict_int(r, DomainError)
    if p < 2:
        raise ConfigurationError(f"characteristic must be at least 2, got {p}")
    if r < 1:
        raise ConfigurationError(f"twist degree must be at least 1, got {r}")
    st = steinberg_weight(rs, p, r)
    if not in_lattice(rs, st, lattice):
        raise ConfigurationError(
            f"Steinberg weight {list(st)} is not in the root lattice "
            f"({rs.series}{rs.rank}, p={p}): adjoint mode needs (p-1)*rho in ZR"
        )


def dot_multiply(n: int, weight):
    """Dot-multiplication n(w + rho) - rho, i.e. n*w + (n-1)*rho."""
    _strict_int(n, DomainError)
    return tuple(n * x + n - 1 for x in _int_coordinates(weight))


def _dot_quotient(rs: RootSystem, weight, n: int, lattice: Lattice):
    """The lattice weight lam with ``dot_multiply(n, lam) == weight``, or None."""
    if any((x + 1) % n for x in weight):
        return None
    lam = tuple([(x + 1) // n - 1 for x in weight])
    return lam if in_lattice(rs, lam, lattice) else None


def steinberg_split(weight, p: int):
    """Split a dominant weight as w0 + p*mu with w0 restricted, mu dominant."""
    require_p(p, "split")
    weight = _int_coordinates(weight)
    if not is_dominant(weight):
        raise DomainError(f"weight {list(weight)} is not dominant")
    return tuple(x % p for x in weight), tuple(x // p for x in weight)


def steinberg_digits(weight, p: int) -> list:
    """Base-p digits of a dominant weight: weight = sum_j p^j * digits[j]."""
    digits = []
    cur = weight
    while True:
        head, cur = steinberg_split(cur, p)
        digits.append(head)
        if all(x == 0 for x in cur):
            break
    return digits


# The Weyl group acting on weights, one weight at a time.


def apply_simple_reflection(rs: RootSystem, i: int, weight):
    """s_i sends a weight m to m - m_i * alpha_i (coordinates stay integral)."""
    mi = weight[i]
    if mi == 0:
        return tuple(weight)
    return tuple(weight[k] - mi * rs.cartan[k][i] for k in range(rs.rank))


def _to_dominant(nbrs, w: list) -> int:
    """Walk a full-rank weight list to its dominant orbit point in place; return the sign.

    s_i at a negative coordinate i negates w_i and only lowers its
    neighbours j (w_j -= w_i * cartan[j][i]); pushing those it takes below
    0 keeps the stack equal to the negative coordinates.  s_i permutes the
    positive coroots other than alpha_i^v, so each step lowers by one the
    number of positive coroots pairing negatively with w: every order of
    steps takes that many, and the sign (-1)^steps is exact, on walls too.
    """
    stack = [i for i, x in enumerate(w) if x < 0]
    sign = 1
    while stack:
        i = stack.pop()
        x = w[i]
        w[i] = -x
        sign = -sign
        for j, c in nbrs[i]:
            y = w[j]
            w[j] = z = y - x * c
            if z < 0 <= y:
                stack.append(j)
    return sign


def make_dominant(rs: RootSystem, weight):
    """Dominant representative of a linear Weyl orbit, with the sign picked up.

    The sign is (-1) to the number of positive coroots pairing negatively
    with the weight (``_to_dominant``), that of the shortest Weyl element
    carrying the input to the output.
    """
    w = list(require_rank(rs, weight))
    sign = _to_dominant(rs.neighbours, w)
    return tuple(w), sign


def dot_dominant(rs: RootSystem, weight):
    """Dot-orbit normalization.

    Returns (mu, sign) where mu is the unique dominant weight in the dot
    orbit when weight + rho is regular, and (None, 0) when weight + rho lies
    on a reflection wall (so the orbit contains no regular dominant weight).
    """
    x = [c + 1 for c in require_rank(rs, weight)]
    sign = _to_dominant(rs.neighbours, x)
    if 0 in x:
        return None, 0
    return tuple([c - 1 for c in x]), sign


def weyl_group_order(rs: RootSystem) -> int:
    """|W|, built with the type (``RootSystem.weyl_order``)."""
    return rs.weyl_order


def descend_orbit(rs: RootSystem, top) -> list:
    """The orbit of a dominant weight as (weight, sign) pairs, dominant first.

    Walks the dominant descent tree (Snow, *Weyl group orbits*, ACM TOMS
    1990): s_i w is a child of w when w_i > 0 and every coordinate of s_i w
    before i is >= 0.  A non-dominant weight has exactly one parent, its
    reflection at its first negative coordinate, so each element is reached
    once and no seen-set is needed.  The sign is (-1)^depth in the tree.
    Each step reflects a weight in a wall it lies strictly on the positive
    side of, so for a regular top the depth of w * top is the length of w,
    and the sign is sgn(w).
    """
    simple = rs.positive_fund[:rs.rank]  # alpha_i in fundamental coordinates
    walk = [(top, 1)]
    for w, s in walk:
        for i, x in enumerate(w):
            if x > 0:
                child = tuple([a - x * c for a, c in zip(w, simple[i])])
                if i == 0 or min(child[:i]) >= 0:
                    walk.append((child, -s))
    return walk
