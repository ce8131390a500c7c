"""Affine Weyl group orbits, alcove geometry, and special points.

The affine group at level p is the finite Weyl group extended by
translations by p times the root lattice, acting through the rho-shifted
dot action.  The closed bottom alcove is a fundamental domain for the dot
action (Jantzen, RAG II.6).  It is cut out by the dominance walls and one
wall at level p, that of the highest coroot, so every weight normalizes
into it by a translation by p times the root lattice, then alternating
dominant reflections with reflections in that one wall.  Orbit membership
is decided exactly by comparing these normal forms, so no operation
enumerates the Weyl group.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .rootdata import (
    Lattice,
    RootSystem,
    _dot_quotient,
    _to_dominant,
    require_dominant,
    require_in_lattice,
    require_p,
    require_rank,
)


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


def _shifted_pairings(rs: RootSystem, weight: tuple) -> tuple:
    # <weight + rho, beta^v> over the positive roots beta, in root order.
    shifted = [x + 1 for x in weight]
    return tuple([sum(map(mul, coroot, shifted)) for coroot in rs.coroots])


def alcove_position(rs: RootSystem, weight, p: int) -> AlcovePosition:
    require_p(p, "alcove position")
    weight = require_rank(rs, weight)
    vals = _shifted_pairings(rs, weight)
    if all(0 < v < p for v in vals):
        status = "interior"
    elif all(0 <= v <= p for v in vals):
        status = "wall"
    else:
        status = "exterior-of-closure"
    return AlcovePosition(weight=weight, wall_pairings=vals, status=status)


def fundamental_alcove_rep(rs: RootSystem, weight, p: int):
    """The unique point of the closed bottom alcove in the dot orbit.

    First translates the shifted weight x by p times the root lattice, an
    element of the affine group, so that every root coordinate of x (read
    with ``inv_num`` / ``inv_den``) lies in [0, p).  Then alternates the
    dominance walk ``_to_dominant`` with reflections in one wall at level p,
    on one list.  On a dominant shifted weight every positive coroot pairs
    to at most the highest coroot's pairing (their difference is a sum of
    simple coroots), so that wall is the only one it can lie beyond.  Each
    reflection crosses a hyperplane (beta^vee, x) in pZ that separates x
    from the alcove, and after the translation x / p lies in a box that
    meets a number of such hyperplanes bounded by the type alone: the walk's
    length does not grow with p or with the size of the weight.
    """
    require_p(p, "alcove normalization")
    x = [c + 1 for c in require_rank(rs, weight)]
    step = rs.inv_den * p
    for row, alpha in zip(rs.inv_num, rs.positive_fund):  # simple roots first
        beta = sum(map(mul, row, x)) // step
        if beta:
            x = [c - p * beta * a for c, a in zip(x, alpha)]
    coroot, root = rs.highest_coroot
    while True:
        _to_dominant(rs.neighbours, x)
        excess = sum(map(mul, coroot, x)) - p
        if excess <= 0:
            return tuple([c - 1 for c in x])
        x = [c - excess * a for c, a in zip(x, root)]


def is_special_point(rs: RootSystem, weight, p: int) -> bool:
    """Whether every positive-root pairing of weight + rho is divisible by p."""
    require_p(p, "special-point test")
    return all(v % p == 0 for v in _shifted_pairings(rs, require_rank(rs, weight)))


def st_level(rs: RootSystem, weight, p: int,
             lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> int:
    """Largest r with weight = p^r . mu for a dominant lattice weight mu."""
    weight = require_dominant(rs, weight)
    require_p(p, "level")
    level = 0
    while (weight := _dot_quotient(rs, weight, p, lattice)) is not None:
        level += 1
    return level
