"""Closed-form simple characters in rank one.

For the rank-one group the restricted simple modules coincide with the Weyl
modules, so the tensor-product factorization over base-p digits gives every
simple character exactly.  The inverse direction decomposes a symmetric
character in the simple basis by peeling from the top weight; applied to a
Weyl character it yields decomposition numbers.
"""

from __future__ import annotations

from .characters import (
    Character,
    frobenius_twist,
    require_w_invariant,
    tensor,
    weyl_character,
)
from .errors import DomainError
from .rootdata import RootSystem, is_dominant, require_p, require_rank, steinberg_digits


def _require_a1(rs: RootSystem) -> None:
    if (rs.series, rs.rank) != ("A", 1):
        raise DomainError(f"rank-one oracle only supports A1, got {rs.series}{rs.rank}")


def simple_character_a1(rs: RootSystem, weight, p: int) -> Character:
    """Character of the simple module: product of twisted digit characters."""
    _require_a1(rs)
    require_p(p, "simple character")
    weight = require_rank(rs, weight)
    if not is_dominant(weight):
        raise DomainError(f"weight {list(weight)} is not dominant")
    out = Character({(0,): 1})
    for j, digit in enumerate(steinberg_digits(weight, p)):
        out = tensor(out, frobenius_twist(weyl_character(rs, digit), j, p))
    return out


def decompose_in_simple_basis_a1(rs: RootSystem, chi: Character, p: int) -> dict:
    """Coefficients of a symmetric character in the simple basis.

    Peels the lexicographically largest remaining support weight, which in
    rank one is the top of the dominance order, so each weight is removed
    exactly once.  Applied to a Weyl character the result is its column of
    decomposition numbers.
    """
    _require_a1(rs)
    require_p(p, "decomposition")
    require_w_invariant(rs, chi)
    rest = chi
    out = {}
    while rest:
        top = max(rest.support())
        c = rest.mult(top)
        out[top] = c
        rest = rest - c * simple_character_a1(rs, top, p)
    return out
