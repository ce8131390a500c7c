"""Exact character and Grothendieck-group calculus for reductive groups in
positive characteristic: root data, Weyl-group orbits, Weyl characters,
the Weyl-module basis, the Steinberg-block equivalence, Frobenius
contraction, and affine linkage geometry.  All arithmetic is exact integer
arithmetic; there is no floating point anywhere.
"""

from .characters import (
    Character,
    contract_weights,
    euler_characteristic,
    frobenius_twist,
    require_w_invariant,
    steinberg_character,
    tensor,
    weyl_character,
)
from .errors import ConfigurationError, DomainError
from .grothendieck import (
    KElement,
    block_decompose,
    char_to_class,
    char_to_class_by_peeling,
    class_to_char,
    frobenius_contract_class,
    pr_block,
    steinberg_delta_multiplicity,
    steinberg_forward,
    steinberg_inverse,
    tensor_delta_expansion,
)
from .linkage import (
    AlcovePosition,
    alcove_position,
    fundamental_alcove_rep,
    is_special_point,
    linked,
    st_level,
)
from .rootdata import (
    Lattice,
    RootSystem,
    build_root_system,
    dot_dominant,
    dot_multiply,
    highest_root_index,
    in_root_lattice,
    is_dominant,
    is_restricted,
    make_dominant,
    pairing,
    root_system_from_dict,
    steinberg_digits,
    steinberg_split,
    steinberg_weight,
    weyl_group_order,
)
from .simple_a1 import decompose_in_simple_basis_a1, simple_character_a1

__version__ = "0.1.0"
