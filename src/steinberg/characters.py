"""Formal characters: sparse integer functions on the weight lattice.

A :class:`Character` is a finitely supported map weight -> multiplicity, the
computational form of an element of the group ring Z[X]; it shares the
sparse base ``_Sparse`` with the Weyl-basis classes of the Grothendieck
group.  Weyl-module characters are produced by Freudenthal's multiplicity
recursion on the dominant cone, each multiplicity spread over its Weyl orbit
as soon as it is known; products are exact sparse convolutions.  Signed
characters (Euler characteristics, virtual differences) are first-class
values, and they scale by integers only.

Both hot loops, the convolution in ``tensor`` and the recursion in
``weyl_character``, key weights by one packed integer instead of a tuple:
in a box lo <= w <= hi, coordinate j is shifted to w_j - lo_j, a digit in
[0, hi_j - lo_j], and weighted by the mixed-radix place value stride_j (the
last coordinate varies fastest).  The key is injective on the box and affine
in w, so adding a root or a weight is one int add.  It is used only where
every key that is formed comes from a weight inside the box (the no-alias
condition each function states); public values keep tuple keys.  When the
product's box is dense, ``tensor`` goes one step further and uses the key as
a slot index in one big integer (Kronecker substitution): the larger factor
becomes one int, and the convolution is one shifted C-speed add of it per
term of the smaller factor.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import compress, product
from operator import mul

from .errors import DomainError
from .rootdata import (
    Lattice,
    RootSystem,
    is_dominant,
    require_steinberg_configuration,
    steinberg_weight,
)
from .weyl import apply_simple_reflection, descend_orbit, dot_dominant, weyl_orbit


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

    def _result(self, terms: dict, other=None):
        # The value that arithmetic on self (and other) produced.
        return self._raw(terms)

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
        return self._result(out, other)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._result({w: -m for w, m in self._terms.items()})

    def __rmul__(self, scalar: int):
        # Integer scaling only, as in ``_strict_int``: Python turns the
        # NotImplemented for any other scalar into a TypeError.
        if isinstance(scalar, bool) or not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return self._result({})
        return self._result({w: scalar * m for w, m in self._terms.items()})

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

    The private slot ``_invariant_for`` is a root system the value is known
    to be W-invariant for, or None.  Weyl characters set it, and sums,
    scalings, products, twists and contractions over one root system keep
    it; the public constructor and ``from_dict`` never set it.  Equality,
    repr and JSON ignore it; ``require_w_invariant`` trusts it.
    """

    __slots__ = ("_invariant_for",)
    _FIELDS = ("weights", "mult")
    _NOUN = "character"

    def __init__(self, items=()):
        super().__init__(items)
        self._invariant_for = None

    @classmethod
    def _raw(cls, terms: dict, rs=None):
        self = super()._raw(terms)
        self._invariant_for = rs
        return self

    def _result(self, terms: dict, other=None):
        tag = self._invariant_for if other is None else _shared_tag(self, other)
        return self._raw(terms, tag)

    def mult(self, weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def dim(self) -> int:
        """Sum of multiplicities (the virtual dimension for signed inputs)."""
        return sum(self._terms.values())

    def __mul__(self, other):
        if isinstance(other, Character):
            return tensor(self, other)
        return self.__rmul__(other)

    def to_dict(self) -> dict:
        return {"weights": self._entries()}


def _shared_tag(a: Character, b: Character):
    # The root system both values are invariant for; an empty value is
    # invariant for any, so it takes the other's.
    if not a:
        return b._invariant_for
    if not b or a._invariant_for is b._invariant_for:
        return a._invariant_for
    return None


def _strict_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _strides(widths) -> list:
    # Mixed-radix place values, the last coordinate fastest: coordinate j is
    # a digit in [0, widths[j]).
    strides, s = [], 1
    for n in reversed(widths):
        strides.append(s)
        s *= n
    return strides[::-1]


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


# Weyl characters kept for reuse, the least recently used dropped first.  A
# round of the rank2-steinberg benchmark workload needs at most 150.
_WEYL_CACHE_SIZE = 512


@lru_cache(maxsize=_WEYL_CACHE_SIZE)
def weyl_character(rs: RootSystem, highest) -> Character:
    """Character of the Weyl module with the given dominant highest weight.

    Freudenthal's recursion runs over the dominant weights by increasing
    depth below the highest weight, and each multiplicity is spread over its
    Weyl orbit as soon as it is known.  The recursion probes the strings
    mu + k*alpha (k >= 1) of every positive root alpha in a map keyed by one
    packed integer per weight: coordinate j, shifted into [0, width_j), is a
    digit of place value stride_j, so stepping by alpha adds one constant.
    The orbit spread walks the orbit's descent tree (``descend_orbit``) and
    carries the key along the same way, one step per simple reflection.

    No-alias condition: the key is injective on its box.  The box is the
    coordinate range of the highest weight's orbit, which holds every weight
    of the module (they lie in its convex hull), padded on each side by the
    largest |coordinate| of a positive root.  A string walk stops at its
    first missing weight, one root step from a weight of the module, so
    every probe lands in the padded box and never reads another weight's
    multiplicity.
    """
    highest = tuple(highest)
    if len(highest) != rs.rank:
        raise DomainError(f"weight {list(highest)} has wrong rank for {rs!r}")
    if not is_dominant(highest):
        raise DomainError(f"weight {list(highest)} is not dominant")
    rank = rs.rank
    t = rs.symmetrizer
    top = weyl_orbit(rs, highest)
    pad = [max(abs(f[j]) for f in rs.positive_fund) for j in range(rank)]
    cols = list(zip(*top))
    lo = [min(col) - q for col, q in zip(cols, pad)]
    strides = _strides([max(col) + q - l + 1 for col, q, l in zip(cols, pad, lo)])
    base = sum(map(mul, lo, strides))
    # Per positive root: key step, (alpha, alpha), and v with (x, alpha) = v . x.
    roots = []
    for c, f in zip(rs.positive_roots, rs.positive_fund):
        v = [c[j] * t[j] for j in range(rank)]
        roots.append((sum(map(mul, f, strides)), sum(map(mul, v, f)), v))
    simple_steps = [step for step, _, _ in roots[:rank]]
    gaps = _dominant_weights_below(rs, highest)
    # Increasing depth: every probe in the recursion lands at smaller depth.
    order = sorted(gaps, key=lambda mu: (sum(gaps[mu]), mu))
    out = dict.fromkeys(top, 1)
    packed = dict.fromkeys((sum(map(mul, w, strides)) - base for w in top), 1)
    get = packed.get
    for mu in order[1:]:
        num = 0
        k0 = sum(map(mul, mu, strides)) - base
        for step, aa, v in roots:
            k = k0 + step
            m = get(k)
            if m is None:
                continue
            dot = sum(map(mul, v, mu)) + aa
            while m is not None:
                num += m * dot
                k += step
                dot += aa
                m = get(k)
        gap = gaps[mu]
        denom = sum(gap[j] * t[j] * (highest[j] + mu[j] + 2) for j in range(rank))
        val = 2 * num
        if denom <= 0 or val % denom != 0 or val <= 0:
            raise ArithmeticError(
                f"Freudenthal recursion at {list(mu)} below {list(highest)} gave "
                f"{val}/{denom}, not a positive integer"
            )
        mult = val // denom
        for w, k in descend_orbit(rs, mu, k0, simple_steps):
            out[w] = mult
            packed[k] = mult
    return Character._raw(out, rs)


# Slot widths of the Kronecker kernel, narrowest first: (bytes, memoryview format).
_SLOT_WIDTHS = ((2, "h"), (4, "i"), (8, "q"))
# Measured costs of the convolution kernels (see ``tensor``), in units of
# adding one byte of two ints: one dict update of the pair loop, and reading
# back one byte of the Kronecker kernel's slots.
_PAIR_COST = 512
_DECODE_COST = 32


def _slot_width(bound: int):
    """The narrowest (bytes, format) slot for coefficients |c| <= bound, or None.

    A slot of b bits holds c + 2^(b-1) for every |c| <= bound exactly when
    bound < 2^(b-1).
    """
    for nbytes, fmt in _SLOT_WIDTHS:
        if bound < 1 << (8 * nbytes - 1):
            return nbytes, fmt
    return None


def _slot_int(items, nbytes: int, fmt: str):
    # (slot count, the int whose slot k holds m) for packed items (k, m).
    n = max(items)[0] + 1
    pos, neg = bytearray(n * nbytes), bytearray(n * nbytes)
    with memoryview(pos).cast(fmt) as up, memoryview(neg).cast(fmt) as down:
        for k, m in items:
            if m > 0:
                up[k] = m
            else:
                down[k] = -m
    order = sys.byteorder
    return n, int.from_bytes(pos, order) - int.from_bytes(neg, order)


def _kronecker(aitems, bitems, ranges, bound: int) -> dict:
    """Convolve two packed factors by shifting and adding one big integer.

    ``aitems`` and ``bitems`` are (key, multiplicity) pairs, keyed in the box
    of the product with the last coordinate varying fastest, each relative
    to its own factor's minimum; ``ranges`` are the product's coordinate
    ranges, and ``bound`` is at least every |coefficient| of the product.
    The second factor becomes one int y, slot k (a fixed-width field of 2, 4
    or 8 bytes) holding its multiplicity at key k.  For each term (k, m) of
    the first factor, m * y shifted up by k slots is added in, so the sum
    holds the convolution in its slots: one pass over y per term, where a
    product of two full ints would cost a Karatsuba multiplication.  A bias
    of 2^(b-1) added to every slot of b bits makes each slot hold
    c + 2^(b-1), in [0, 2^b) because |c| <= bound < 2^(b-1): no slot carries
    into the next, so the slots read back as the product's coefficients.

    Slots use the machine's byte order, in the buffers and in the int
    conversions alike.  With top the first factor's largest key and nb the
    second's slot count, the sum has n = top + nb slots.  On a little-endian
    machine slot k has place value 2^(b*k), so the shift for key k is k
    slots; on a big-endian one slot k of n has place value 2^(b*(n-1-k)), so
    the shift is top - k slots, and slot k of the sum is key k either way.
    """
    width = _slot_width(bound)
    if width is None:
        raise ArithmeticError(f"convolution bound {bound} does not fit a 64-bit slot")
    nbytes, fmt = width
    nb, y = _slot_int(bitems, nbytes, fmt)
    top = max(aitems)[0]
    n = top + nb
    order = sys.byteorder
    bits = 8 * nbytes
    flip = order == "big"
    acc = 0
    for k, m in aitems:
        acc += m * y << bits * (top - k if flip else k)
    bias = int.from_bytes((1 << (bits - 1)).to_bytes(nbytes, order) * n, order)
    # Flipping each slot's top bit turns c + 2^(b-1) into c in two's complement.
    raw = ((acc + bias) ^ bias).to_bytes(n * nbytes, order)
    vals = memoryview(raw).cast(fmt).tolist()
    return dict(compress(zip(product(*ranges), vals), vals))


def tensor(a: Character, b: Character) -> Character:
    """Convolution product: mult of nu is sum over lam of a(lam)*b(nu-lam).

    Each factor's weights are packed once into integer keys, relative to
    that factor's per-coordinate minimum, with place values taken from the
    box of the sum (last coordinate fastest): coordinate j of a sum spans
    width_j = (range of a) + (range of b) + 1 values.  Both keys' digits stay
    inside their own ranges, so k1 + k2 is the key of w1 + w2 with no carries
    (no-alias condition).

    Two kernels share those keys, with a the factor of fewer terms.  When
    the box is dense, ``_kronecker`` writes b into fixed-width slots of one
    int and adds a shifted multiple of it per term of a (Kronecker
    substitution); the slot width is the narrowest of 2, 4 or 8 bytes that
    holds the bound sum|a| * max|b| on |coefficient|.  The kernel costs one
    add per slot byte per term of a plus a decode of every slot byte, the
    pair loop one dict update per pair.  So it runs when the bound is below
    2^63 and slots * width * (|a| + 32) <= 512 * |a| * |b|: at most
    c * |b| slot bytes with c = 512 * |a| / (|a| + 32), so its memory is
    O(|b|).  Both constants are measured.  On random products of rank 1 to
    6 with 2-byte slots the two kernels tie at 10 to 29 slot bytes per term
    of b for |a| = 1 (the rule allows 15.5), 71 to 174 for |a| = 4 (57),
    140 to 790 for |a| = 16 (170), and above 430 for |a| = 64 (341).
    Otherwise the pair loop adds each of the |a|*|b| products into a dict,
    one int add and one update each, and drops sums that cancel to zero
    when it decodes the keys to weights.
    """
    tag = _shared_tag(a, b)
    if not a or not b:
        return Character._raw({}, tag)
    ra = len(next(iter(a.support())))
    rb = len(next(iter(b.support())))
    if ra != rb:
        raise DomainError(f"cannot convolve characters of ranks {ra} and {rb}")
    if len(a) > len(b):
        a, b = b, a
    cols_a = list(zip(*a.support()))
    cols_b = list(zip(*b.support()))
    lo_a = [min(col) for col in cols_a]
    lo_b = [min(col) for col in cols_b]
    widths = [max(x) - l + max(y) - k + 1 for x, l, y, k in zip(cols_a, lo_a, cols_b, lo_b)]
    strides = _strides(widths)
    base_a = sum(map(mul, lo_a, strides))
    base_b = sum(map(mul, lo_b, strides))
    aitems = [(sum(map(mul, w, strides)) - base_a, m) for w, m in a.items()]
    bitems = [(sum(map(mul, w, strides)) - base_b, m) for w, m in b.items()]
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    na = len(aitems)
    budget = _PAIR_COST * na * len(bitems)
    cost = math.prod(widths) * (na + _DECODE_COST)
    # The narrowest slot has 2 bytes: a box too wide even for that skips the
    # pass that sums the multiplicities for the bound.
    if 2 * cost <= budget:
        bound = sum(map(abs, a._terms.values())) * max(map(abs, b._terms.values()))
        width = _slot_width(bound)
        if width is not None and width[0] * cost <= budget:
            ranges = [range(l, l + n) for l, n in zip(lo, widths)]
            return Character._raw(_kronecker(aitems, bitems, ranges, bound), tag)
    out = {}
    get = out.get
    for k1, m1 in aitems:
        for k2, m2 in bitems:
            k = k1 + k2
            out[k] = get(k, 0) + m1 * m2
    digits = list(zip(reversed(widths), reversed(lo)))
    terms = {}
    for k, m in out.items():
        if m:
            w = []
            for n, l in digits:
                k, d = divmod(k, n)
                w.append(d + l)
            terms[tuple(w[::-1])] = m
    return Character._raw(terms, tag)


def frobenius_twist(chi: Character, r: int, p: int) -> Character:
    """Dilate every weight by p^r, keeping multiplicities."""
    if r < 0:
        raise DomainError(f"twist degree must be >= 0, got {r}")
    if r == 0:
        return chi
    if p < 2:
        raise DomainError(f"twist needs p >= 2, got {p}")
    scale = p**r
    return Character._raw(
        {tuple(scale * x for x in w): m for w, m in chi.items()}, chi._invariant_for
    )


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
        return Character._raw({}, rs)
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
    return Character._raw(out, chi._invariant_for)


def require_w_invariant(rs: RootSystem, chi: Character) -> None:
    """Reject characters that are not constant on full Weyl orbits.

    W is generated by the simple reflections, so chi is W-invariant exactly
    when chi(s_i w) = chi(w) for every support weight w and every i with
    w_i != 0 (s_i fixes w when w_i = 0).  A weight outside the support whose
    reflection lies in it is caught from that reflection.

    A value the library built as W-invariant for rs carries rs in its
    private tag and is accepted without the scan; every other value,
    including all user input, is scanned.
    """
    if getattr(chi, "_invariant_for", None) is rs:
        return
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
