"""Root systems, weight lattices, and elementary weight arithmetic.

Weights are plain integer tuples holding fundamental-weight coordinates:
coordinate i of a weight is its pairing with the i-th simple coroot.  Every
other coordinate system (simple-root coordinates, coroot expansions) is
derived from the Cartan matrix in integer arithmetic: the inverse Cartan
matrix is kept as an integer numerator matrix over one positive common
denominator, so lattice membership tests are exact remainder tests, never
floating point.  Only ``root_coordinates`` hands out rationals, and it
imports ``fractions`` when called, so importing the package stays cheap.

Conventions: Bourbaki numbering of simple roots; the Cartan matrix entry
``cartan[i][j]`` is the pairing of the j-th simple root with the i-th simple
coroot.  The first ``rank`` entries of ``positive_roots`` are the simple
roots in order, so indices below ``rank`` double as simple-coroot indices.
"""

from __future__ import annotations

import enum
from functools import lru_cache, partial
from math import gcd, lcm

from .errors import ConfigurationError, DomainError

Weight = tuple  # integer tuple, fundamental-weight coordinates

RANK_CAP = 6

# Admissible ranks per series (irreducible types only, capped so the Weyl
# group stays fully enumerable).
_RANK_RANGE = {
    "A": (1, 6),
    "B": (2, 6),
    "C": (2, 6),
    "D": (4, 6),
    "E": (6, 6),
    "F": (4, 4),
    "G": (2, 2),
}


class _Frozen:
    """Immutable record built from keyword arguments, one per slot.

    Equality and hashing are those of ``object`` (identity), so instances
    are cheap ``lru_cache`` keys; assigning or deleting an attribute raises
    ``AttributeError``.  Copies and pickles are rebuilt through ``__init__``.
    """

    __slots__ = ()

    def __init__(self, **fields):
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {self.__slots__}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return partial(type(self), **{name: getattr(self, name) for name in self.__slots__}), ()


class RootSystem(_Frozen):
    """Immutable root datum for one irreducible type.

    ``positive_roots`` lists simple-root coordinate vectors, simple roots
    first; ``positive_fund`` holds the same roots in fundamental coordinates
    and ``coroots`` their coroots expanded in the simple coroots (always
    integral).  ``symmetrizer`` is the minimal positive integer vector t with
    t[i]*cartan[i][j] == t[j]*cartan[j][i]; the bilinear form used everywhere
    is (x, alpha_j) = t[j] * x_j up to one global positive scale.  The
    inverse Cartan matrix is ``inv_num`` / ``inv_den``: an integer matrix
    over one positive denominator, in lowest terms.
    """

    __slots__ = ("series", "rank", "cartan", "positive_roots", "positive_fund", "coroots",
                 "symmetrizer", "inv_num", "inv_den", "rho")

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
    # Close the simple roots under all simple reflections; in simple-root
    # coordinates s_i sends c to c - m_i * e_i with m = cartan @ c.
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


def _invert(matrix, rank):
    # Fraction-free Gauss-Jordan: clearing a column scales each other row by
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
            f"series {series} supports rank {lo}..{hi} here (rank cap {RANK_CAP}); got {rank}"
        )
    return _build_root_system(series, rank)


@lru_cache(maxsize=None)
def _build_root_system(series: str, rank: int) -> RootSystem:
    cartan = _cartan_matrix(series, rank)
    roots = _enumerate_roots(cartan, rank)
    t = _symmetrizer(cartan, rank)
    fund = []
    coroots = []
    for c in roots:
        m = tuple(sum(cartan[i][j] * c[j] for j in range(rank)) for i in range(rank))
        fund.append(m)
        norm = sum(c[j] * t[j] * m[j] for j in range(rank))  # (beta, beta), scaled
        d = []
        for j in range(rank):
            dj, rem = divmod(2 * c[j] * t[j], norm)
            if rem:
                raise ConfigurationError(f"coroot of root {list(c)} is not integral")
            d.append(dj)
        coroots.append(tuple(d))
    inv_num, inv_den = _invert(cartan, rank)
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


def require_p(p, what: str) -> int:
    """p if it is an int >= 2; otherwise DomainError saying what needs it."""
    _strict_int(p, DomainError)
    if p < 2:
        raise DomainError(f"{what} needs p >= 2, got {p}")
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
    return all(x >= 0 for x in weight)


def is_restricted(weight, p: int) -> bool:
    _strict_int(p, DomainError)
    return all(0 <= x < p for x in _int_coordinates(weight))


def root_coordinates(rs: RootSystem, weight):
    """Exact simple-root coordinates of a weight (tuple of Fractions)."""
    from fractions import Fraction  # only here, to keep the package import light

    weight = require_rank(rs, weight)
    return tuple(
        Fraction(sum(rs.inv_num[i][j] * weight[j] for j in range(rs.rank)), rs.inv_den)
        for i in range(rs.rank)
    )


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
    _strict_int(p, DomainError)
    _strict_int(r, DomainError)
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
