"""Affine Weyl group orbits, alcove geometry, and special points.

The affine group at level p is the finite Weyl group extended by
translations by p times the root lattice, acting through the rho-shifted
dot action.  The closed bottom alcove is a fundamental domain for the dot
action (Jantzen, RAG II.6).  It is cut out by the dominance walls and one
wall at level p, that of the highest coroot, so every weight normalizes
into it by alternating dominant reflections with reflections in that one
wall.  Orbit membership is decided exactly by comparing these normal forms,
so no operation enumerates the Weyl group.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import DomainError
from .rootdata import (
    Lattice,
    RootSystem,
    _strict_int,
    in_lattice,
    is_dominant,
    pairing,
    require_in_lattice,
    require_p,
    require_rank,
)
from .weyl import _neighbours, _to_dominant


def linked(rs: RootSystem, lam, mu, p: int,
           lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> bool:
    """Whether two weights lie in one dot orbit of the level-p affine group.

    The closed bottom alcove is a fundamental domain for the dot action, so
    the weights are linked exactly when their normal forms agree.
    """
    require_p(p, "linkage")
    lam, mu = require_rank(rs, lam), require_rank(rs, mu)
    require_in_lattice(rs, lam, lattice)
    require_in_lattice(rs, mu, lattice)
    return fundamental_alcove_rep(rs, lam, p) == fundamental_alcove_rep(rs, mu, p)


class AlcovePosition(namedtuple("AlcovePosition", "weight wall_pairings status")):
    """A weight's pairings against the alcove walls at level p.

    ``wall_pairings`` lists the shifted pairings over the positive roots in
    root order; ``status`` is "interior", "wall", or "exterior-of-closure"
    relative to the closed bottom alcove.
    """

    __slots__ = ()


def alcove_position(rs: RootSystem, weight, p: int) -> AlcovePosition:
    weight = require_rank(rs, weight)
    _strict_int(p, DomainError)
    shifted = tuple(x + 1 for x in weight)
    vals = tuple(pairing(rs, shifted, i) for i in range(rs.num_positive_roots))
    if all(0 < v < p for v in vals):
        status = "interior"
    elif all(0 <= v <= p for v in vals):
        status = "wall"
    else:
        status = "exterior-of-closure"
    return AlcovePosition(weight=weight, wall_pairings=vals, status=status)


@lru_cache(maxsize=64)
def _highest_coroot(rs: RootSystem):
    # The coroot of largest height, that of the highest short root (not
    # highest_root_index, the long root on B, C, F and G), with its root in
    # fundamental coordinates.
    return max(zip(rs.coroots, rs.positive_fund), key=lambda pair: sum(pair[0]))


def fundamental_alcove_rep(rs: RootSystem, weight, p: int):
    """The unique point of the closed bottom alcove in the dot orbit.

    Alternates the dominance walk ``_to_dominant`` with reflections in one
    wall at level p, on one list.  On a dominant shifted weight every
    positive coroot pairs to at most the highest coroot's pairing (their
    difference is a sum of simple coroots), so that wall is the only one it
    can lie beyond.  Each wall reflection strictly shrinks the invariant
    norm of the shifted weight, so the walk terminates.
    """
    require_p(p, "alcove normalization")
    x = [c + 1 for c in require_rank(rs, weight)]
    nbrs = _neighbours(rs)
    coroot, root = _highest_coroot(rs)
    while True:
        _to_dominant(nbrs, x)
        excess = sum(map(mul, coroot, x)) - p
        if excess <= 0:
            return tuple([c - 1 for c in x])
        x = [c - excess * a for c, a in zip(x, root)]


def is_special_point(rs: RootSystem, weight, p: int) -> bool:
    """Whether every positive-root pairing of weight + rho is divisible by p."""
    require_p(p, "special-point test")
    shifted = tuple(x + 1 for x in require_rank(rs, weight))
    return all(
        pairing(rs, shifted, i) % p == 0 for i in range(rs.num_positive_roots)
    )


def st_level(rs: RootSystem, weight, p: int,
             lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> int:
    """Largest r with weight = p^r . mu for a dominant lattice weight mu."""
    weight = require_rank(rs, weight)
    if not is_dominant(weight):
        raise DomainError(f"weight {list(weight)} is not dominant")
    require_p(p, "level")
    level = 0
    cur = weight
    while True:
        if any((x - p + 1) % p != 0 for x in cur):
            return level
        nxt = tuple((x - p + 1) // p for x in cur)
        if not is_dominant(nxt) or not in_lattice(rs, nxt, lattice):
            return level
        cur = nxt
        level += 1
