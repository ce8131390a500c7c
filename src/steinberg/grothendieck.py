"""Grothendieck-group calculus in the Weyl-module basis.

A :class:`KElement` is a finitely supported integer combination of classes
of Weyl modules, indexed by their dominant highest weights; it shares its
representation and arithmetic with :class:`Character`.  Characters
convert to classes by Brauer's formula, straightening one weight at a time
(with an independent highest-weight peeling route), unformed products of
cached Weyl characters by Brauer-Klimyk over the pair they hold, and back by
summing Weyl characters.  On top of the change of basis sit the Steinberg-block
operations: the dot-scaling equivalence and its inverse, Steinberg
multiplicities of a tensor product and Frobenius contraction (both Brauer's
formula on the contracted weights), and projection onto a linkage block by
closed-alcove normal forms.  No operation enumerates the Weyl group.
"""

from __future__ import annotations

from operator import add, mul

from .characters import (
    Character,
    _add_into,
    _Sparse,
    _weyl_dimension,
    contract_weights,
    require_w_invariant,
    weyl_character,
)
from .errors import DomainError
from .linkage import fundamental_alcove_rep
from .rootdata import (
    Lattice,
    RootSystem,
    _dot_quotient,
    _strict_int,
    _to_dominant,
    dot_multiply,
    is_dominant,
    require_dominant,
    require_in_lattice,
    require_p,
    require_rank,
    require_steinberg_configuration,
)


class KElement(_Sparse):
    """Finitely supported integer combination of Weyl-module classes.

    Keys are dominant weights; coefficients may be negative (virtual
    classes).  Zero coefficients are never stored.
    """

    __slots__ = ()
    _FIELDS = ("terms", "coeff")
    _NOUN = "class"

    @staticmethod
    def _check_support(weight) -> None:
        if not is_dominant(weight):
            raise DomainError(f"class support must be dominant, got {list(weight)}")

    def coeff(self, weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def to_dict(self) -> dict:
        return {"basis": "delta", "terms": self._entries()}

    @classmethod
    def from_dict(cls, data: dict, rank=None) -> "KElement":
        if isinstance(data, dict) and data.get("basis", "delta") != "delta":
            raise ValueError(f"unsupported class basis {data['basis']!r}")
        return super().from_dict(data, rank)


def _straighten(rs: RootSystem, items) -> KElement:
    """Brauer straightening: sum m * sgn * [Delta(dot-dominant nu)] over (nu, m).

    Each weight is a tuple.  A nu with a coordinate -1 is skipped first:
    nu + rho pairs to 0 with that simple coroot, so it lies on a wall.  A
    nu with no negative coordinate is its own dominant point, with sign +1,
    since nu + rho is then regular dominant; it is not walked.  Every other
    nu + rho is walked in place to its dominant point (``_to_dominant``),
    picking up the sign of the Weyl element that does it; a result with a 0
    coordinate lies on a reflection wall and contributes nothing.
    """
    nbrs = rs.neighbours
    out = {}
    for nu, m in items:
        if -1 in nu:
            continue
        if min(nu) < 0:
            x = [c + 1 for c in nu]
            m *= _to_dominant(nbrs, x)
            if 0 in x:
                continue
            nu = tuple([c - 1 for c in x])
        new = out.get(nu, 0) + m
        if new:
            out[nu] = new
        else:
            del out[nu]
    return KElement._raw(out)


def char_to_class(rs: RootSystem, chi: Character) -> KElement:
    """Expand a Weyl-invariant character in the Weyl-module basis.

    Brauer's formula with the trivial module: chi equals the sum over its
    weights nu of chi(nu) * [Delta(nu)], where a non-dominant [Delta(nu)] is
    straightened to sgn(w) * [Delta(w . nu)] with w . nu dominant, or to 0 when
    nu + rho is singular (``_straighten``).  The coefficient at lam is
    therefore the alternating orbit sum sum_w (-1)^len(w) * chi(w . lam).

    A product over rs that ``tensor`` handed out unformed, over a pair
    (a, b) (see ``Character``), is expanded over that pair instead, by
    Brauer-Klimyk, when a side is a Weyl character from the
    ``weyl_character`` cache: with top that side (the one of larger Weyl
    dimension when both are) and N the other, [Delta(top) tensor N]
    straightens top + nu with coefficient N(nu) (``_klimyk``), top being
    the side's ``_highest``.  So the product's own terms are never formed,
    and N, the caller's own value, forms its terms at most once.  Every
    other value, a formed product, a single Weyl character or a product of
    two products included, is straightened term by term.
    """
    require_w_invariant(rs, chi)
    pair = chi._pair() if getattr(chi, "_invariant_for", None) is rs else None
    if pair is not None:
        sides = [(top, n) for top, n in (pair, pair[::-1]) if top._highest is not None]
        if sides:
            top, n = max(sides, key=lambda side: _weyl_dimension(rs, side[0]._highest))
            return _klimyk(rs, top._highest, n)
    return _straighten(rs, chi.items())


def _height_key(rs: RootSystem, weight):
    # The height (sum of simple-root coordinates) times the positive
    # constant rs.inv_den, so it orders weights as the height does.
    return sum(sum(map(mul, row, weight)) for row in rs.inv_num), weight


def _peel(rs: RootSystem, chi: Character, basis) -> dict:
    """Coefficients of chi in a basis whose element basis(rs, lam) is e^lam + lower terms.

    Subtracts the element at the highest remaining weight, by height, until
    nothing is left.  Each subtraction removes that weight and adds only
    lower ones, so the highest weight left falls at every step; a basis
    element that breaks this raises ArithmeticError, so that a wrong basis
    stops the walk instead of letting it climb without end.
    """
    rest, out, heights = dict(chi.items()), {}, {}
    last = None
    while rest:
        for w in rest.keys() - heights.keys():
            heights[w] = _height_key(rs, w)
        top = max(rest, key=heights.__getitem__)
        if last is not None and heights[top] >= heights[last]:
            raise ArithmeticError(f"the basis element at {list(last)} is not e^{list(last)} "
                                  f"plus lower terms: {list(top)} is left after it")
        last = top
        if not is_dominant(top):
            raise DomainError(
                f"character is not a Weyl-invariant integer combination: stuck at {list(top)}"
            )
        c = out[top] = rest[top]
        _add_into(rest, basis(rs, top).items(), -c)
    return out


def char_to_class_by_peeling(rs: RootSystem, chi: Character) -> KElement:
    """Expand in the Weyl-module basis by repeated highest-weight peeling.

    Independent of :func:`char_to_class`: subtract the Weyl character at a
    dominance-maximal support weight until nothing is left (``_peel``).
    """
    require_w_invariant(rs, chi)
    return KElement._raw(_peel(rs, chi, weyl_character))


def class_to_char(rs: RootSystem, element: KElement) -> Character:
    """Character of a class: the coefficient-weighted sum of Weyl characters."""
    out = {}
    for w, c in element.items():
        _add_into(out, weyl_character(rs, w).items(), c)
    return Character._raw(out, rs)


def _klimyk(rs: RootSystem, mu, chi: Character) -> KElement:
    """Brauer-Klimyk: [Delta(mu) tensor M] for dominant mu and W-invariant chi = ch M.

    Straightens the weights mu + nu with coefficients chi(nu).  The
    coefficient at lam is sum_w (-1)^len(w) * chi(w . lam - mu).
    """
    return _straighten(rs, ((tuple(map(add, w, mu)), m) for w, m in chi.items()))


def tensor_delta_expansion(rs: RootSystem, mu, chi: Character) -> KElement:
    """Weyl-basis expansion of (Weyl module at mu) tensor (module with character chi).

    Brauer-Klimyk (``_klimyk``), which agrees with expanding the convolution
    product directly.
    """
    mu = require_dominant(rs, mu)
    require_w_invariant(rs, chi)
    return _klimyk(rs, mu, chi)


def _require_support_in_lattice(rs, element: KElement, lattice: Lattice) -> None:
    for w in element.support():
        require_in_lattice(rs, w, lattice)


def steinberg_forward(rs: RootSystem, element: KElement, p: int, r: int = 1,
                      lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> KElement:
    """Image of a class under the Steinberg-block equivalence, r times.

    Relabels the Weyl basis by r-fold dot-multiplication with p; at the
    character level this is tensoring with the r-th Steinberg character
    after an r-fold Frobenius twist.  r = 0 is the identity.
    """
    _strict_int(r, DomainError)
    if r < 0:
        raise DomainError(f"iteration count must be >= 0, got {r}")
    if r == 0:
        require_p(p, "equivalence")
    else:
        require_steinberg_configuration(rs, p, r, lattice)
    _require_support_in_lattice(rs, element, lattice)
    scale = p**r
    return KElement._raw({dot_multiply(scale, w): c for w, c in element.items()})


def steinberg_inverse(rs: RootSystem, element: KElement, p: int,
                      lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> KElement:
    """Inverse relabeling: keep the terms at p-dot-multiples and unscale them.

    Terms whose weight is not p . lam for a lattice weight lam are dropped.
    """
    require_p(p, "inverse")
    _require_support_in_lattice(rs, element, lattice)
    out = {}
    for w, c in element.items():
        lam = _dot_quotient(rs, w, p, lattice)
        if lam is not None:
            out[lam] = c
    return KElement._raw(out)


def _contract_class(rs: RootSystem, chi: Character, p: int) -> KElement:
    """Brauer's formula (``_straighten``) on the weights of chi contracted by p.

    Straightened once per (rs, p) and kept in chi's ``_memo`` slot (see
    ``Character``), so later calls on the same value read it back.
    """
    memo = chi._memo
    if memo is None:
        memo = chi._memo = {}
    element = memo.get((rs, p))
    if element is None:
        element = memo[rs, p] = _straighten(rs, contract_weights(chi, p).items())
    return element


def steinberg_delta_multiplicity(rs: RootSystem, chi: Character, lam, p: int) -> int:
    """Multiplicity of the Weyl class at p . lam inside St tensor (chi-module).

    Equals sum_w (-1)^len(w) * chi(p * (w . lam)), the coefficient at lam of
    :func:`frobenius_contract_class`, read from the contraction class that
    the value keeps per (rs, p) (``_contract_class``); the product
    character is never formed.
    """
    lam = require_dominant(rs, lam)
    require_p(p, "multiplicity")
    require_w_invariant(rs, chi)
    return _contract_class(rs, chi, p).coeff(lam)


def frobenius_contract_class(rs: RootSystem, chi: Character, p: int) -> KElement:
    """Class of the Frobenius contraction of a module with character chi.

    The coefficient at lam is the Steinberg multiplicity of the Weyl class
    at p . lam in St tensor the module, sum_w (-1)^len(w) * chi(p * (w . lam)):
    Brauer's formula (``_straighten``) on the weights of chi contracted by p,
    kept on the value per (rs, p) (``_contract_class``).  At the character
    level the result contracts the weights of chi by p (``contract_weights``,
    which contracts an unformed product of rank above ``_DENSE_RANK`` by
    residue classes mod p over the pair it holds, without forming it).
    """
    require_p(p, "contraction")
    require_w_invariant(rs, chi)
    return _contract_class(rs, chi, p)


def pr_block(rs: RootSystem, element: KElement, nu, p: int,
             lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> KElement:
    """Projection of a class onto the linkage block through nu.

    Keeps the terms whose closed-alcove normal form equals that of nu.
    """
    nu = require_rank(rs, nu)
    require_in_lattice(rs, nu, lattice)
    _require_support_in_lattice(rs, element, lattice)
    rep = fundamental_alcove_rep(rs, nu, p)
    out = {w: c for w, c in element.items() if fundamental_alcove_rep(rs, w, p) == rep}
    return KElement._raw(out)


def block_decompose(rs: RootSystem, element: KElement, p: int,
                    lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> list:
    """Split a class into its linkage-block components.

    Returns (representative, component) pairs sorted by representative, where
    representatives are the closed-alcove normal forms of the support.
    Components sum back to the input.
    """
    require_p(p, "decomposition")
    _require_support_in_lattice(rs, element, lattice)
    buckets = {}
    for w, c in element.items():
        rep = fundamental_alcove_rep(rs, w, p)
        buckets.setdefault(rep, {})[w] = c
    return [(rep, KElement._raw(buckets[rep])) for rep in sorted(buckets)]
