"""Root systems, weight lattices, and elementary weight arithmetic.

Weights are plain integer tuples holding fundamental-weight coordinates:
coordinate i of a weight is its pairing with the i-th simple coroot.  Every
other coordinate system (simple-root coordinates, coroot expansions) is
derived from the Cartan matrix by exact rational arithmetic, so lattice
membership tests are exact, never floating point.

Conventions: Bourbaki numbering of simple roots; the Cartan matrix entry
``cartan[i][j]`` is the pairing of the j-th simple root with the i-th simple
coroot.  The first ``rank`` entries of ``positive_roots`` are the simple
roots in order, so indices below ``rank`` double as simple-coroot indices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

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


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root datum for one irreducible type.

    ``positive_roots`` lists simple-root coordinate vectors, simple roots
    first; ``positive_fund`` holds the same roots in fundamental coordinates
    and ``coroots`` their coroots expanded in the simple coroots (always
    integral).  ``symmetrizer`` is the minimal positive integer vector t with
    t[i]*cartan[i][j] == t[j]*cartan[j][i]; the bilinear form used everywhere
    is (x, alpha_j) = t[j] * x_j up to one global positive scale.
    """

    series: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    positive_fund: tuple
    coroots: tuple
    symmetrizer: tuple
    inv_num: tuple
    inv_den: int
    rho: tuple

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def to_dict(self) -> dict:
        return {"series": self.series, "rank": self.rank}

    def __repr__(self):
        return f"RootSystem({self.series}{self.rank})"


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
    # Solve t[i]*a[i][j] == t[j]*a[j][i] along the Dynkin graph, then clear
    # denominators and divide out the common factor.
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
        raise ConfigurationError("Dynkin diagram must be connected")
    den = 1
    for v in t:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in t]
    g = 0
    for v in ints:
        g = gcd(g, v)
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
    # Gauss-Jordan over the rationals; returns (numerator matrix, denominator).
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


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the full root datum for an irreducible type of rank <= 6."""
    if series not in _RANK_RANGE:
        raise ConfigurationError(f"unknown series {series!r}; expected one of A-G")
    lo, hi = _RANK_RANGE[series]
    if not isinstance(rank, int) or not lo <= rank <= hi:
        raise ConfigurationError(
            f"series {series} supports rank {lo}..{hi} here (rank cap {RANK_CAP}); got {rank}"
        )
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
            dj = Fraction(2 * c[j] * t[j], norm)
            if dj.denominator != 1:
                raise ConfigurationError(f"coroot of root {list(c)} is not integral")
            d.append(int(dj))
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
        return build_root_system(str(data["series"]), int(data["rank"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed root system payload: {exc}") from exc


def pairing(rs: RootSystem, weight, index: int) -> int:
    """Pairing of a weight with the coroot of positive root ``index``.

    Indices below ``rs.rank`` are the simple coroots.
    """
    d = rs.coroots[index]
    return sum(d[j] * weight[j] for j in range(rs.rank))


def highest_root_index(rs: RootSystem) -> int:
    heights = [sum(c) for c in rs.positive_roots]
    return heights.index(max(heights))


def is_dominant(weight) -> bool:
    return all(x >= 0 for x in weight)


def is_restricted(weight, p: int) -> bool:
    return all(0 <= x < p for x in weight)


def root_coordinates(rs: RootSystem, weight):
    """Exact simple-root coordinates of a weight (tuple of Fractions)."""
    return tuple(
        Fraction(sum(rs.inv_num[i][j] * weight[j] for j in range(rs.rank)), rs.inv_den)
        for i in range(rs.rank)
    )


def in_root_lattice(rs: RootSystem, weight) -> bool:
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
    return True


def require_in_lattice(rs: RootSystem, weight, lattice: Lattice) -> None:
    if not in_lattice(rs, weight, lattice):
        raise DomainError(f"weight {list(weight)} is not in the root lattice")


def steinberg_weight(rs: RootSystem, p: int, r: int = 1):
    """The weight (p^r - 1) * rho."""
    return (p**r - 1,) * rs.rank


def require_steinberg_configuration(rs, p: int, r: int, lattice: Lattice) -> None:
    """Reject configurations whose Steinberg weight leaves the lattice."""
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
    return tuple(n * x + n - 1 for x in weight)


def steinberg_split(weight, p: int):
    """Split a dominant weight as w0 + p*mu with w0 restricted, mu dominant."""
    if p < 2:
        raise DomainError(f"split needs p >= 2, got {p}")
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
