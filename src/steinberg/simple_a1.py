"""Closed-form simple characters in rank one.

For the rank-one group the restricted simple modules coincide with the Weyl
modules, so the tensor-product factorization over base-p digits gives every
simple character exactly.  The inverse direction decomposes a symmetric
character in the simple basis; applied to a Weyl character it yields
decomposition numbers.
"""

from __future__ import annotations

from functools import partial

from .characters import (
    Character,
    frobenius_twist,
    require_w_invariant,
    tensor,
    weyl_character,
)
from .errors import DomainError
from .grothendieck import _peel
from .rootdata import RootSystem, require_dominant, require_p, steinberg_digits


def _require_a1(rs: RootSystem) -> None:
    if (rs.series, rs.rank) != ("A", 1):
        raise DomainError(f"rank-one oracle only supports A1, got {rs.series}{rs.rank}")


def simple_character_a1(rs: RootSystem, weight, p: int) -> Character:
    """Character of the simple module: product of twisted digit characters."""
    _require_a1(rs)
    require_p(p, "simple character")
    weight = require_dominant(rs, weight)
    out = Character({(0,): 1})
    for j, digit in enumerate(steinberg_digits(weight, p)):
        out = tensor(out, frobenius_twist(weyl_character(rs, digit), j, p))
    return out


def decompose_in_simple_basis_a1(rs: RootSystem, chi: Character, p: int) -> dict:
    """Coefficients of a symmetric character in the simple basis, by peeling.

    Applied to a Weyl character the result is its column of decomposition
    numbers.
    """
    _require_a1(rs)
    require_p(p, "decomposition")
    require_w_invariant(rs, chi)
    return _peel(rs, chi, partial(simple_character_a1, p=p))
