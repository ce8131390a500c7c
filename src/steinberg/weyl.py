"""Finite Weyl groups: orbit normal forms, the group order, and enumeration.

The library works with weights one at a time: every walk to the dominant
point of an orbit is the in-place kernel ``_to_dominant``, behind
``make_dominant``, ``dot_dominant``, straightening and the alcove walk;
``weyl_orbit`` lists a linear orbit by walking down its dominant descent
tree, and ``weyl_group_order`` reads |W| off the root heights.  None of
them enumerates the group.  ``generate`` still enumerates the whole group
by breadth-first closure under the simple reflections, acting on
fundamental-weight coordinates through integer matrices; no library
operation calls it, and it serves as an independent check.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConfigurationError
from .rootdata import RANK_CAP, RootSystem, _Frozen, require_rank


class WeylElement(_Frozen):
    """One group element: a reduced word, its action matrix, and its length."""

    __slots__ = ("word", "matrix", "length")

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def act(self, weight):
        return tuple(sum(row[j] * weight[j] for j in range(len(weight))) for row in self.matrix)

    def dot(self, weight):
        shifted = tuple(x + 1 for x in weight)
        return tuple(
            sum(row[j] * shifted[j] for j in range(len(weight))) - 1 for row in self.matrix
        )

    def __repr__(self):
        return f"WeylElement(word={''.join(str(i) for i in self.word) or 'e'}, length={self.length})"


class WeylGroup(_Frozen):
    """The enumerated group: elements sorted by (length, word), and a lookup by matrix."""

    __slots__ = ("root_system", "elements", "longest", "by_matrix")

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_for_matrix(self, matrix) -> WeylElement:
        return self.by_matrix[matrix]


def apply_simple_reflection(rs: RootSystem, i: int, weight):
    """s_i sends a weight m to m - m_i * alpha_i (coordinates stay integral)."""
    mi = weight[i]
    if mi == 0:
        return tuple(weight)
    return tuple(weight[k] - mi * rs.cartan[k][i] for k in range(rs.rank))


@lru_cache(maxsize=64)
def _neighbours(rs: RootSystem) -> tuple:
    # Per i, the (j, cartan[j][i]) with j != i and cartan[j][i] != 0.
    c, r = rs.cartan, range(rs.rank)
    return tuple(tuple((j, c[j][i]) for j in r if j != i and c[j][i]) for i in r)


def _to_dominant(nbrs, w: list) -> int:
    """Walk a full-rank weight list to its dominant orbit point in place; return the sign.

    s_i at a negative coordinate i negates w_i and only lowers its
    neighbours j (w_j -= w_i * cartan[j][i]); pushing those it takes below
    0 keeps the stack equal to the negative coordinates.  s_i permutes the positive coroots other than
    alpha_i^v, so each step lowers by one the number of positive coroots
    pairing negatively with w: every order of steps takes that many, and
    the sign (-1)^steps is exact, on walls too.
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
    sign = _to_dominant(_neighbours(rs), w)
    return tuple(w), sign


def dot_dominant(rs: RootSystem, weight):
    """Dot-orbit normalization.

    Returns (mu, sign) where mu is the unique dominant weight in the dot
    orbit when weight + rho is regular, and (None, 0) when weight + rho lies
    on a reflection wall (so the orbit contains no regular dominant weight).
    """
    x = [c + 1 for c in require_rank(rs, weight)]
    sign = _to_dominant(_neighbours(rs), x)
    if 0 in x:
        return None, 0
    return tuple([c - 1 for c in x]), sign


@lru_cache(maxsize=64)
def weyl_group_order(rs: RootSystem) -> int:
    """|W| as the product of (m_i + 1) over the exponents m_i.

    The exponents are the partition dual to the numbers of positive roots at
    each height (Kostant), so m_j counts the heights holding at least j
    positive roots.
    """
    counts = {}
    for c in rs.positive_roots:
        h = sum(c)
        counts[h] = counts.get(h, 0) + 1
    order = 1
    for j in range(1, rs.rank + 1):
        order *= 1 + sum(1 for n in counts.values() if n >= j)
    return order


def weyl_orbit(rs: RootSystem, weight) -> list:
    """Full linear Weyl orbit of a weight, each element listed once."""
    top, _ = make_dominant(rs, weight)
    return [w for w, _, _ in descend_orbit(rs, top, 0, (0,) * rs.rank)]


def descend_orbit(rs: RootSystem, top, key, steps) -> list:
    """The orbit of a dominant weight as (weight, key, sign) triples, dominant first.

    Walks the dominant descent tree (Snow, *Weyl group orbits*, ACM TOMS
    1990): s_i w is a child of w when w_i > 0 and every coordinate of s_i w
    before i is >= 0.  A non-dominant weight has exactly one parent, its
    reflection at its first negative coordinate, so each element is reached
    once and no seen-set is needed.  A key affine in the weight rides
    along: key(s_i w) = key(w) - w_i * steps[i], where steps[i] is the key
    step of alpha_i.  The sign is (-1)^depth in the tree.  Each step
    reflects a weight in a wall it lies strictly on the positive side of,
    so for a regular top the depth of w * top is the length of w, and the
    sign is sgn(w).
    """
    simple = rs.positive_fund[:rs.rank]  # alpha_i in fundamental coordinates
    walk = [(top, key, 1)]
    for w, k, s in walk:
        for i, x in enumerate(w):
            if x > 0:
                child = tuple([a - x * c for a, c in zip(w, simple[i])])
                if i == 0 or min(child[:i]) >= 0:
                    walk.append((child, k - x * steps[i], -s))
    return walk


@lru_cache(maxsize=None)
def generate(rs: RootSystem) -> WeylGroup:
    """Enumerate the full Weyl group by breadth-first closure.

    Elements are deduplicated by action matrix; breadth-first order makes
    every stored word reduced, so lengths are exact.
    """
    if rs.rank > RANK_CAP:
        raise ConfigurationError(f"rank {rs.rank} exceeds enumeration cap {RANK_CAP}")
    rank = rs.rank
    identity = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    start = WeylElement(word=(), matrix=identity, length=0)
    by_matrix = {identity: start}
    elements = [start]
    frontier = [start]
    cartan = rs.cartan
    while frontier:
        nxt = []
        for w in frontier:
            m = w.matrix
            for i in range(rank):
                # Left-multiply by s_i: row_k -> row_k - cartan[k][i] * row_i.
                row_i = m[i]
                new = tuple(
                    tuple(m[k][j] - cartan[k][i] * row_i[j] for j in range(rank))
                    if cartan[k][i]
                    else m[k]
                    for k in range(rank)
                )
                if new not in by_matrix:
                    el = WeylElement(word=(i,) + w.word, matrix=new, length=w.length + 1)
                    by_matrix[new] = el
                    elements.append(el)
                    nxt.append(el)
        frontier = nxt
    top_length = max(el.length for el in elements)
    longest = [el for el in elements if el.length == top_length]
    if len(longest) != 1:
        raise ConfigurationError(f"{len(longest)} elements of maximal length; it must be unique")
    if top_length != rs.num_positive_roots:
        raise ConfigurationError(
            f"longest length {top_length} differs from {rs.num_positive_roots} positive roots"
        )
    elements.sort(key=lambda el: (el.length, el.word))
    return WeylGroup(
        root_system=rs,
        elements=tuple(elements),
        longest=longest[0],
        by_matrix=by_matrix,
    )


def dominant_representative(group: WeylGroup, weight):
    """A Weyl element w with w(weight) dominant, plus that dominant weight.

    w is the shortest such element, the one every walk takes.  With h the
    largest coroot height, w carries mu = ((h+2)h+1) * weight + (h+1) * rho
    and each mu + omega_j to regular dominant weights: w rho pairs
    positively with the simple coroots fixing w(weight), and no pairing of
    w rho or w omega_j exceeds h.  So its columns w(omega_j) are
    differences of dominant representatives.
    """
    rs = group.root_system
    h = max(map(sum, rs.coroots))
    mu = [((h + 2) * h + 1) * x + h + 1 for x in require_rank(rs, weight)]
    top, _ = make_dominant(rs, mu)
    columns = []
    for j in range(rs.rank):
        mu[j] += 1
        columns.append(tuple(a - b for a, b in zip(make_dominant(rs, mu)[0], top)))
        mu[j] -= 1
    w = group.element_for_matrix(tuple(zip(*columns)))
    return w, w.act(weight)
