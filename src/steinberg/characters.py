"""Formal characters: sparse integer functions on the weight lattice.

A :class:`Character` is a finitely supported map weight -> multiplicity, the
computational form of an element of the group ring Z[X]; it shares the
sparse base ``_Sparse`` with the Weyl-basis classes of the Grothendieck
group.  Weyl-module
characters are produced by Freudenthal's multiplicity recursion on the
dominant cone and then spread over Weyl orbits; products are exact sparse
convolutions.  Signed characters (Euler characteristics, virtual
differences) are first-class values.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .rootdata import (
    Lattice,
    RootSystem,
    is_dominant,
    require_steinberg_configuration,
    steinberg_weight,
)
from .weyl import apply_simple_reflection, dot_dominant, weyl_orbit


class _Sparse:
    """Finitely supported integer combination indexed by weights.

    A dict from weight tuples to nonzero integers, so equality is structural
    (and never holds between different subclasses).  A subclass names its
    JSON fields in ``_FIELDS`` (entry list, value key) and its payload in
    ``_NOUN``, and may reject support weights in ``_check_support``.
    """

    __slots__ = ("_terms",)

    def __init__(self, items=()):
        terms = {}
        if isinstance(items, dict):
            items = items.items()
        check = self._check_support
        for w, m in items:
            if not m:
                continue
            w = tuple(w)
            check(w)
            new = terms.get(w, 0) + m
            if new:
                terms[w] = new
            else:
                del terms[w]
        self._terms = terms

    @staticmethod
    def _check_support(weight) -> None:
        pass

    @classmethod
    def _raw(cls, terms: dict):
        # Internal constructor for maps already free of zeros.
        self = cls.__new__(cls)
        self._terms = terms
        return self

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def sorted_items(self):
        return sorted(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for w, m in other._terms.items():
            new = out.get(w, 0) + sign * m
            if new:
                out[w] = new
            else:
                del out[w]
        return self._raw(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._raw({w: -m for w, m in self._terms.items()})

    def __rmul__(self, scalar: int):
        if scalar == 0:
            return self._raw({})
        return self._raw({w: scalar * m for w, m in self._terms.items()})

    def __repr__(self):
        items = ", ".join(f"{list(w)}:{m}" for w, m in self.sorted_items()[:8])
        tail = ", ..." if len(self._terms) > 8 else ""
        return f"{type(self).__name__}({{{items}{tail}}})"

    def _entries(self) -> list:
        key = self._FIELDS[1]
        return [{"w": list(w), key: m} for w, m in self.sorted_items()]

    @classmethod
    def from_dict(cls, data: dict, rank=None):
        list_key, key = cls._FIELDS
        try:
            entries = data[list_key]
            if not isinstance(entries, list):
                raise ValueError(f"'{list_key}' must be a list, got {type(entries).__name__}")
            items = []
            for e in entries:
                w = tuple(_strict_int(x) for x in e["w"])
                if rank is not None and len(w) != rank:
                    raise ValueError(f"weight {list(w)} has wrong rank (expected {rank})")
                items.append((w, _strict_int(e[key])))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {cls._NOUN} payload: {exc}") from exc
        return cls(items)


class Character(_Sparse):
    """Finitely supported integer-valued function on weights.

    Zero multiplicities are never stored, so equality is structural.
    Addition, negation, and integer scaling are pointwise; ``*`` between two
    characters is the convolution product (the ring product of Z[X]).
    """

    __slots__ = ()
    _FIELDS = ("weights", "mult")
    _NOUN = "character"

    def mult(self, weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def dim(self) -> int:
        """Sum of multiplicities (the virtual dimension for signed inputs)."""
        return sum(self._terms.values())

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        return tensor(self, other)

    def to_dict(self) -> dict:
        return {"weights": self._entries()}


def _strict_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _freudenthal_data(rs: RootSystem):
    # Per-positive-root data for the recursion: fundamental coordinates and
    # the vector v with (x, alpha) = v . x in the scaled invariant form.
    t = rs.symmetrizer
    out = []
    for c, f in zip(rs.positive_roots, rs.positive_fund):
        v = tuple(c[j] * t[j] for j in range(rs.rank))
        out.append((f, v))
    return out


def _dominant_weights_below(rs: RootSystem, highest):
    """All dominant weights <= highest, with root coordinates of the gap.

    Walks downward by single positive-root steps inside the dominant cone;
    any two comparable dominant weights are joined by such a chain.
    """
    gaps = {tuple(highest): (0,) * rs.rank}
    queue = [tuple(highest)]
    while queue:
        mu = queue.pop()
        gap = gaps[mu]
        for c, f in zip(rs.positive_roots, rs.positive_fund):
            nu = tuple(mu[j] - f[j] for j in range(rs.rank))
            if min(nu) < 0 or nu in gaps:
                continue
            gaps[nu] = tuple(gap[j] + c[j] for j in range(rs.rank))
            queue.append(nu)
    return gaps


def _dominant_multiplicities(rs: RootSystem, highest) -> dict:
    """Weight multiplicities of the Weyl module at dominant weights.

    Freudenthal's recursion, processed by increasing depth below the highest
    weight; multiplicities at non-dominant weights are read off from their
    dominant representatives.
    """
    rank = rs.rank
    t = rs.symmetrizer
    cartan = rs.cartan
    gaps = _dominant_weights_below(rs, highest)
    # Increasing depth: every lookup in the recursion lands at smaller depth.
    order = sorted(gaps, key=lambda mu: (sum(gaps[mu]), mu))
    roots = _freudenthal_data(rs)
    mults = {tuple(highest): 1}
    get = mults.get
    for mu in order[1:]:
        num = 0
        for f, v in roots:
            k = 1
            while True:
                x = tuple(mu[j] + k * f[j] for j in range(rank))
                # Dominant representative of x, inline for speed.
                y = list(x)
                while True:
                    for i in range(rank):
                        yi = y[i]
                        if yi < 0:
                            for kk in range(rank):
                                y[kk] -= yi * cartan[kk][i]
                            break
                    else:
                        break
                m = get(tuple(y))
                if m is None:
                    break
                num += m * sum(v[j] * x[j] for j in range(rank))
                k += 1
        gap = gaps[mu]
        denom = sum(gap[j] * t[j] * (highest[j] + mu[j] + 2) for j in range(rank))
        val = 2 * num
        if denom <= 0 or val % denom != 0 or val <= 0:
            raise ArithmeticError(
                f"Freudenthal recursion at {list(mu)} below {list(highest)} gave "
                f"{val}/{denom}, not a positive integer"
            )
        mults[mu] = val // denom
    return mults


@lru_cache(maxsize=None)
def weyl_character(rs: RootSystem, highest) -> Character:
    """Character of the Weyl module with the given dominant highest weight."""
    highest = tuple(highest)
    if len(highest) != rs.rank:
        raise DomainError(f"weight {list(highest)} has wrong rank for {rs!r}")
    if not is_dominant(highest):
        raise DomainError(f"weight {list(highest)} is not dominant")
    out = {}
    for mu, m in _dominant_multiplicities(rs, highest).items():
        for w in weyl_orbit(rs, mu):
            out[w] = m
    return Character._raw(out)


def tensor(a: Character, b: Character) -> Character:
    """Convolution product: mult of nu is sum over lam of a(lam)*b(nu-lam)."""
    if a and b:
        ra = len(next(iter(a.support())))
        rb = len(next(iter(b.support())))
        if ra != rb:
            raise DomainError(f"cannot convolve characters of ranks {ra} and {rb}")
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bitems = list(b.items())
    for w1, m1 in a.items():
        for w2, m2 in bitems:
            key = tuple(x + y for x, y in zip(w1, w2))
            new = out.get(key, 0) + m1 * m2
            if new:
                out[key] = new
            else:
                del out[key]
    return Character._raw(out)


def frobenius_twist(chi: Character, r: int, p: int) -> Character:
    """Dilate every weight by p^r, keeping multiplicities."""
    if r < 0:
        raise DomainError(f"twist degree must be >= 0, got {r}")
    if r == 0:
        return chi
    if p < 2:
        raise DomainError(f"twist needs p >= 2, got {p}")
    scale = p**r
    return Character._raw({tuple(scale * x for x in w): m for w, m in chi.items()})


def steinberg_character(rs: RootSystem, p: int, r: int = 1,
                        lattice: Lattice = Lattice.SIMPLY_CONNECTED) -> Character:
    """Character of the r-th Steinberg module, the Weyl module at (p^r-1)rho."""
    require_steinberg_configuration(rs, p, r, lattice)
    return weyl_character(rs, steinberg_weight(rs, p, r))


def euler_characteristic(rs: RootSystem, weight) -> Character:
    """Alternating sum of derived-induction characters of a line bundle.

    Equals the Weyl character at the dominant dot-representative up to the
    sign of the normalizing Weyl element, and vanishes when weight + rho is
    fixed by a reflection.
    """
    if len(weight) != rs.rank:
        raise DomainError(f"weight {list(weight)} has wrong rank for {rs!r}")
    dom, sign = dot_dominant(rs, tuple(weight))
    if dom is None:
        return Character()
    chi = weyl_character(rs, dom)
    return chi if sign == 1 else -chi


def contract_weights(chi: Character, p: int) -> Character:
    """Keep the weights divisible by p and divide them by p."""
    if p < 2:
        raise DomainError(f"contraction needs p >= 2, got {p}")
    out = {}
    for w, m in chi.items():
        if all(x % p == 0 for x in w):
            out[tuple(x // p for x in w)] = m
    return Character._raw(out)


def require_w_invariant(rs: RootSystem, chi: Character) -> None:
    """Reject characters that are not constant on full Weyl orbits.

    W is generated by the simple reflections, so chi is W-invariant exactly
    when chi(s_i w) = chi(w) for every support weight w and every i with
    w_i != 0 (s_i fixes w when w_i = 0).  A weight outside the support whose
    reflection lies in it is caught from that reflection.
    """
    get = chi._terms.get
    for w, m in chi.items():
        for i, x in enumerate(w):
            if x:
                img = apply_simple_reflection(rs, i, w)
                other = get(img, 0)
                if other != m:
                    raise DomainError(
                        f"character is not Weyl-invariant: multiplicity {m} at {list(w)} "
                        f"but {other} at its simple reflection {list(img)}"
                    )
