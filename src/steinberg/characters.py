"""Formal characters: sparse integer functions on the weight lattice.

A :class:`Character` is a finitely supported map weight -> multiplicity, the
computational form of an element of the group ring Z[X]; it shares the
sparse base ``_Sparse`` with the Weyl-basis classes of the Grothendieck
group.  Weyl-module characters of rank <= 2 come from Weyl's character
formula: the alternating orbit sum of lam + rho divided by the Weyl
denominator, exactly, modulo a power of two.  From rank 3 on they come from
Freudenthal's multiplicity recursion on the dominant weights, each
multiplicity spread over its Weyl orbit as soon as it is known.  Products
are exact sparse convolutions.  Signed characters (Euler characteristics,
virtual differences) are first-class values, and they scale by integers
only.

The slot-integer code, the convolution in ``tensor`` and Weyl's character
formula, keys weights by one packed integer instead of a tuple: in a box
lo <= w <= hi, coordinate j is shifted to w_j - lo_j, a digit in
[0, hi_j - lo_j], and weighted by the mixed-radix place value stride_j (the
last coordinate varies fastest).  The key is injective on the box and affine
in w, so adding a root or a weight is one int add.  It is used only where
every key that is formed comes from a weight inside the box (the no-alias
condition each function states); public values keep tuple keys.  When the
product's box is dense, ``tensor`` goes one step further and uses the key as
a slot index in one big integer (Kronecker substitution, module
``kronecker``): the larger factor becomes one int, and the convolution is
one shifted C-speed add of it per term of the smaller factor.  Weyl's
character formula uses the same slot integers: it divides by each factor
1 - e^-alpha of the denominator with a few shifted adds, exactly modulo
2^(b*n) for n slots of b bits.

The slot-integer layer pays for what the answer holds, not for its box:
keys are packed a column of coordinates at a time; a product asked only for
the weights >= a floor packs only the terms that can reach it; reading an
int back builds a weight only for an occupied slot; and Weyl's formula
starts from 2-byte slots, widening only when its multiplicities fail to sum
to dim, which is how an overflowing slot shows.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from collections import OrderedDict
from functools import _CacheInfo  # the record lru_cache's cache_info returns
from itertools import repeat
from operator import add, ge, mod, mul, sub

from .errors import DomainError
from .kronecker import (
    _SLOT_WIDTHS,
    _kronecker,
    _packed,
    _reaching,
    _read_slots,
    _slot_width,
    _strides,
)
from .rootdata import (
    Lattice,
    RootSystem,
    _int_coordinates,
    _strict_int,
    apply_simple_reflection,
    descend_orbit,
    dot_dominant,
    require_dominant,
    require_p,
    require_rank,
    require_steinberg_configuration,
    steinberg_weight,
)


class _Sparse:
    """Finitely supported integer combination indexed by weights.

    A dict from weight tuples of ints to nonzero ints, so equality is
    structural (and never holds between different subclasses).  A subclass
    names its JSON fields in ``_FIELDS`` (entry list, value key) and its
    payload in ``_NOUN``, and may reject support weights in
    ``_check_support``.  All weights of one value have the same rank: the
    constructor, ``+`` and ``-`` raise DomainError on mixed ranks.  The
    constructor also raises it on a coordinate or value that is not an int
    (bools and floats included); ``_raw`` checks nothing.  ``from_dict``
    raises ValueError on a payload that names one weight twice, which
    ``to_dict`` never writes.
    """

    __slots__ = ("_terms",)

    def __init__(self, items=()):
        terms = {}
        if isinstance(items, dict):
            items = items.items()
        check = self._check_support
        rank = None
        for w, m in items:
            w = _int_coordinates(w)
            if type(m) is not int:
                _strict_int(m, DomainError)
            if not m:
                continue
            if rank is None:
                rank = len(w)
            elif len(w) != rank:
                raise DomainError(f"weights of ranks {rank} and {len(w)} in one {self._NOUN}")
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
        if self and other:
            ra, rb = len(next(iter(self._terms))), len(next(iter(other._terms)))
            if ra != rb:
                raise DomainError(f"cannot combine {self._NOUN} values of ranks {ra} and {rb}")
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
            items = {}
            for e in entries:
                w = tuple(_strict_int(x) for x in e["w"])
                if rank is not None and len(w) != rank:
                    raise ValueError(f"weight {list(w)} has wrong rank (expected {rank})")
                if w in items:
                    raise ValueError(f"weight {list(w)} appears twice in one {cls._NOUN} payload")
                items[w] = _strict_int(e[key])
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


# The largest rank on which the slot-integer routes that pay for a box, not
# for the terms in it, are taken: Weyl's character formula in
# ``weyl_character`` and the product with the Weyl denominator in
# ``grothendieck._brauer``.  On rank <= 2 a W-invariant character leaves
# much of its box empty only when it is small, and then either route is
# quick; from rank 3 on the box is mostly empty.
_DENSE_RANK = 2

# Weyl characters kept for reuse hold at most this many terms in total (about
# 3 MB), a ghost counting as one, the least recently used dropped first.  A
# character of Weyl's formula is kept from its second request: a round of
# the rank2-steinberg benchmark workload asks for 147 of them, 108 (104,551
# terms, the Delta(p . lam) targets among them) only once, so keeping every
# miss would fill the budget with characters never asked for again.  All 10
# characters of the highrank-classes workload, of Freudenthal's recursion,
# are asked for again, and are kept at once.
_WEYL_CACHE_TERMS = 1 << 15

# (rs, highest) -> Character, or None for a ghost; least recently used first.
_weyl_cache = OrderedDict()
_weyl_cache_lock = allocate_lock()
_weyl_hits = _weyl_misses = _weyl_terms = _weyl_ghosts = 0
_ABSENT = object()


def weyl_character(rs: RootSystem, highest) -> Character:
    """Character of the Weyl module with the given dominant highest weight.

    The rank picks one of two routes to the same map.  On rank <= 2 the
    character is one exact division by the Weyl denominator on a slot
    integer (``_weyl_formula``): modulo 2^(b*n) for n slots of b bits,
    where each factor 1 - x^u of the denominator is odd, hence invertible,
    and the character's multiplicities are the residue's slots when they
    fit b bits, which the multiplicities summing to dim certifies.  The
    slots cover the box of W(lam + rho) - rho.  On rank <= 2 that box is
    sparse only for modules of small dimension, which the division still
    computes in about 0.1 ms or less; from rank 3 on it is mostly empty, so
    there the character comes from Freudenthal's recursion
    (``_freudenthal``).

    Characters are kept in a least-recently-used cache bounded by the
    terms it holds, 2^15 in all.  One of rank <= 2 is kept only from its
    second request (an admission doorkeeper, as in Einziger, Friedman and
    Manes's TinyLFU): its first miss stores a ghost, the key with no
    character, charged one term, and a miss on a ghost stores the
    character in its place.  One of rank 3 or more is kept from its first
    miss, as Freudenthal's recursion costs 4 to 15 times more per term to
    compute again than Weyl's formula (best of 5 runs of 5 calls, 2-vCPU
    Xeon, Python 3.11: the recursion on the fundamental weights of D5, F4
    and E6, the formula on the A2, B2 and G2 weights p . lam of 855 to 5941
    terms).  Either is kept only if it has at
    most 2^15 terms, and each store drops the least recently used entries,
    ghosts or characters, until the total fits.  Finding a ghost is a miss,
    finding a character a hit.  ``cache_info`` (``currsize``
    counts characters, not ghosts; ``maxsize`` is the term budget) and
    ``cache_clear`` are the cache's, and ``__wrapped__`` is the uncached
    computation, as for ``functools.lru_cache``; lookups and updates hold
    one lock, the computation does not.  The weight is checked on every
    call, before the cache is looked up: coordinates must be ints (not
    bools), so a float or bool weight that equals a cached int weight is
    rejected, not answered from the cache.
    """
    global _weyl_hits, _weyl_misses, _weyl_terms, _weyl_ghosts
    key = (rs, require_dominant(rs, highest))
    with _weyl_cache_lock:
        found = _weyl_cache.get(key, _ABSENT)
        if found is _ABSENT:
            _weyl_cache[key] = None
            _weyl_ghosts += 1
            _weyl_terms += 1
            _weyl_evict()
        else:
            _weyl_cache.move_to_end(key)
            if found is not None:
                _weyl_hits += 1
                return found
        _weyl_misses += 1
    chi = _weyl_character(*key)
    if (found is None or rs.rank > _DENSE_RANK) and len(chi) <= _WEYL_CACHE_TERMS:
        with _weyl_cache_lock:
            # Another thread may have stored the character or dropped the
            # ghost meanwhile.
            held = _weyl_cache.get(key, _ABSENT)
            if held is None:
                _weyl_ghosts -= 1
                _weyl_terms -= 1
            elif held is not _ABSENT:
                return held
            _weyl_cache[key] = chi
            _weyl_cache.move_to_end(key)
            _weyl_terms += len(chi)
            _weyl_evict()
    return chi


def _weyl_evict():
    # Drops least recently used entries until the cache fits its budget;
    # the caller holds the lock.
    global _weyl_terms, _weyl_ghosts
    while _weyl_terms > _WEYL_CACHE_TERMS:
        chi = _weyl_cache.popitem(last=False)[1]
        if chi is None:
            _weyl_ghosts -= 1
            _weyl_terms -= 1
        else:
            _weyl_terms -= len(chi)


def _weyl_cache_info():
    with _weyl_cache_lock:
        return _CacheInfo(
            _weyl_hits, _weyl_misses, _WEYL_CACHE_TERMS, len(_weyl_cache) - _weyl_ghosts
        )


def _weyl_cache_clear():
    global _weyl_hits, _weyl_misses, _weyl_terms, _weyl_ghosts
    with _weyl_cache_lock:
        _weyl_cache.clear()
        _weyl_hits = _weyl_misses = _weyl_terms = _weyl_ghosts = 0


def _weyl_character(rs: RootSystem, highest) -> Character:
    # weyl_character without its cache.
    highest = require_dominant(rs, highest)
    route = _weyl_formula if rs.rank <= _DENSE_RANK else _freudenthal
    return Character._raw(route(rs, highest), rs)


weyl_character.cache_info = _weyl_cache_info
weyl_character.cache_clear = _weyl_cache_clear
weyl_character.__wrapped__ = _weyl_character


def _weyl_dimension(rs: RootSystem, highest) -> int:
    # Weyl's dimension formula: prod over alpha > 0 of <lam + rho, alpha^v> / <rho, alpha^v>.
    num = den = 1
    for d in rs.coroots:
        height = sum(d)
        num *= sum(map(mul, d, highest)) + height
        den *= height
    return num // den


def _weyl_formula(rs: RootSystem, highest) -> dict:
    """The character's terms by Weyl's character formula.

    chi * D = sum over w in W of sgn(w) * e^(w(lam + rho) - rho), with D
    the Weyl denominator prod over alpha > 0 of (1 - e^-alpha) (Jantzen,
    *Representations of Algebraic Groups*, II.5).  The numerator's terms
    come from one walk of the orbit of the regular weight lam + rho
    (``descend_orbit``, whose sign is sgn(w)).  Its box is the coordinate
    ranges of W(lam + rho) - rho.  Over an orbit W mu, coordinate j ranges
    over [-M, M] with M = max over W of <w mu, alpha_j^v>, additive in
    dominant mu; so the box holds W lam, and with it every weight of the
    module.  With the packed key of ``tensor`` as exponent, a weight becomes
    a power x^k with k in [0, n) for the box's n slots.

    Division by D is exact modulo 2^(b*n), where x = 2^b and slot k of an
    int (``kronecker``) holds the coefficient of x^k.  With t the key step
    of -alpha, a factor 1 - x^t with t < 0 is -x^t * (1 - x^-t): a shift by
    -t slots and a sign.  Every 1 - x^u (u > 0) is odd, hence a unit modulo
    2^(b*n), and its inverse there is sum over k < K of x^(k*u) for any
    K*u >= n, which is (1 + x^u)(1 + x^2u)(1 + x^4u)... by doubling, masked
    to n slots after each step.  The residue is therefore exactly chi
    evaluated at x = 2^b, modulo 2^(b*n), for every b: carries between
    slots in the intermediate values cancel out.  The key steps of the
    roots are nonzero, as each root coordinate is smaller in size than the
    box's width there.

    Width rule and sum certificate: b starts at 16 bits and doubles to 32
    and 64 only while the decoded multiplicities do not sum to dim (Weyl's
    dimension formula).  Multiplicities are >= 0, so writing chi(2^b) in
    base 2^b, each carry from a slot into the next lowers the digit sum by
    2^b - 1, a carry out of the top slot is cut off by the modulus, and a
    slot of 2^(b-1) or more reads as negative, 2^b lower: the sum is dim
    exactly when every multiplicity is below 2^(b-1), and then the slots are
    the multiplicities.  The largest multiplicity is far below dim (17913,
    at G2's (6, 27) of dim about 3.2 * 10^7), so 16 bits nearly always do.
    A wrong sum at a width that holds dim itself, where no slot can
    overflow, or at the widest slots, raises ArithmeticError.
    """
    dim = _weyl_dimension(rs, highest)
    walk = descend_orbit(rs, tuple(x + 1 for x in highest))
    cols = list(zip(*(w for w, _ in walk)))
    ranges = [range(min(col) - 1, max(col)) for col in cols]
    widths = [len(r) for r in ranges]
    n = math.prod(widths)
    strides = _strides(widths)
    numerator = _packed(cols, [sign for _, sign in walk], [r.start + 1 for r in ranges], strides)
    steps = [-sum(map(mul, f, strides)) for f in rs.positive_fund]
    for nbytes, fmt in _SLOT_WIDTHS:
        bits = 8 * nbytes
        value = 0
        for k, sign in numerator:
            value += sign << bits * k
        mask = (1 << bits * n) - 1
        for t in steps:
            if t < 0:
                t = -t
                value = -value << bits * t
            value &= mask
            while t < n:
                value = (value + (value << bits * t)) & mask
                t *= 2
        terms = _read_slots(value, nbytes, fmt, ranges)
        total = sum(terms.values())
        if total == dim:
            return terms
        if dim < 1 << (bits - 1):
            break  # no slot can overflow, so wider ones would not help
    raise ArithmeticError(
        f"Weyl's formula at {list(highest)} gave multiplicities summing to "
        f"{total}, not dim {dim}, in {nbytes}-byte slots"
    )


def _freudenthal(rs: RootSystem, highest) -> dict:
    """The character's terms by Freudenthal's multiplicity recursion.

    The recursion runs over the dominant weights by increasing depth below
    the highest weight (Jantzen, *Representations of Algebraic Groups*,
    II.5; Moody and Patera, Bull. AMS 1982), and spreads each multiplicity
    over its orbit (``descend_orbit``) as soon as it is known.  It probes
    the strings mu + k*alpha (k >= 1) of every positive root alpha in the
    character built so far: a probe's dominant orbit point lies above the
    probe, hence at smaller depth than mu, so a probe that is a weight is
    already there.  The weights on an alpha-string form an unbroken
    segment, so the first probe that is not a weight ends the string.
    """
    rank = rs.rank
    t = rs.symmetrizer
    # Per positive root: alpha, (alpha, alpha), and v with (x, alpha) = v . x.
    roots = []
    for c, f in zip(rs.positive_roots, rs.positive_fund):
        v = [c[j] * t[j] for j in range(rank)]
        roots.append((f, sum(map(mul, v, f)), v))
    gaps = _dominant_weights_below(rs, highest)
    # Increasing depth: every probe's dominant point lies at smaller depth.
    order = sorted(gaps, key=lambda mu: (sum(gaps[mu]), mu))
    out = {w: 1 for w, _ in descend_orbit(rs, highest)}
    get = out.get
    for mu in order[1:]:
        num = 0
        for f, aa, v in roots:
            dot = sum(map(mul, v, mu)) + aa
            probe = tuple(map(add, mu, f))
            m = get(probe)
            while m is not None:
                num += m * dot
                dot += aa
                probe = tuple(map(add, probe, f))
                m = get(probe)
        gap = gaps[mu]
        denom = sum(gap[j] * t[j] * (highest[j] + mu[j] + 2) for j in range(rank))
        val = 2 * num
        if denom <= 0 or val % denom != 0 or val <= 0:
            raise ArithmeticError(
                f"Freudenthal recursion at {list(mu)} below {list(highest)} gave "
                f"{val}/{denom}, not a positive integer"
            )
        m = val // denom
        for w, _ in descend_orbit(rs, mu):
            out[w] = m
    return out


# Measured costs of the convolution kernels (see ``tensor``), in units of
# adding one byte of two ints: one dict update of the pair loop, and reading
# back one byte of the Kronecker kernel's slots.
_PAIR_COST = 512
_DECODE_COST = 32


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
    return Character._raw(_convolve(a, b), _shared_tag(a, b))


def _convolve(a: Character, b: Character, floor=None) -> dict:
    """The terms of ``tensor(a, b)``; with ``floor``, only those at weights >= floor.

    A factor is held as its support's coordinate columns and its values, and
    its keys are packed a column at a time (``_packed``).  With ``floor``,
    only terms that can reach it are packed: a product term u + v >= floor
    needs v >= floor - max(a) in every coordinate, where max(a) is taken
    per coordinate over a's support, and likewise u >= floor - max(b); the
    other terms of each factor are dropped first (``_reaching``), and the
    factor of fewer terms is picked after that.
    """
    if not a or not b:
        return {}
    cols_a, cols_b = list(zip(*a.support())), list(zip(*b.support()))
    if len(cols_a) != len(cols_b):
        raise DomainError(f"cannot convolve characters of ranks {len(cols_a)} and {len(cols_b)}")
    vals_a, vals_b = list(a._terms.values()), list(b._terms.values())
    if floor is not None:
        top_a, top_b = [max(col) for col in cols_a], [max(col) for col in cols_b]
        cols_a, vals_a = _reaching(cols_a, vals_a, map(sub, floor, top_b))
        cols_b, vals_b = _reaching(cols_b, vals_b, map(sub, floor, top_a))
        if not vals_a or not vals_b:
            return {}
    if len(vals_a) > len(vals_b):
        cols_a, vals_a, cols_b, vals_b = cols_b, vals_b, cols_a, vals_a
    lo_a = [min(col) for col in cols_a]
    lo_b = [min(col) for col in cols_b]
    widths = [max(x) - l + max(y) - k + 1 for x, l, y, k in zip(cols_a, lo_a, cols_b, lo_b)]
    strides = _strides(widths)
    aitems = _packed(cols_a, vals_a, lo_a, strides)
    bitems = _packed(cols_b, vals_b, lo_b, strides)
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    na = len(aitems)
    budget = _PAIR_COST * na * len(bitems)
    cost = math.prod(widths) * (na + _DECODE_COST)
    # The narrowest slot has 2 bytes: a box too wide even for that skips the
    # pass that sums the multiplicities for the bound.
    if 2 * cost <= budget:
        bound = sum(map(abs, vals_a)) * max(map(abs, vals_b))
        width = _slot_width(bound)
        if width is not None and width[0] * cost <= budget:
            ranges = [range(l, l + n) for l, n in zip(lo, widths)]
            return _kronecker(aitems, bitems, ranges, bound, floor)
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
    if floor is not None:
        terms = {w: m for w, m in terms.items() if all(map(ge, w, floor))}
    return terms


def frobenius_twist(chi: Character, r: int, p: int) -> Character:
    """Dilate every weight by p^r, keeping multiplicities."""
    _strict_int(r, DomainError)
    require_p(p, "twist")
    if r < 0:
        raise DomainError(f"twist degree must be >= 0, got {r}")
    if r == 0:
        return chi
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
    dom, sign = dot_dominant(rs, weight)
    if dom is None:
        return Character._raw({}, rs)
    chi = weyl_character(rs, dom)
    return chi if sign == 1 else -chi


def contract_weights(chi: Character, p: int) -> Character:
    """Keep the weights divisible by p and divide them by p."""
    require_p(p, "contraction")
    out = {tuple([x // p for x in w]): m for w, m in chi.items()
           if not any(map(mod, w, repeat(p)))}
    return Character._raw(out, chi._invariant_for)


def require_w_invariant(rs: RootSystem, chi: Character) -> None:
    """Reject characters that are not constant on full Weyl orbits.

    W is generated by the simple reflections, so chi is W-invariant exactly
    when chi(s_i w) = chi(w) for every support weight w and every i with
    w_i != 0 (s_i fixes w when w_i = 0).  A weight outside the support whose
    reflection lies in it is caught from that reflection.

    A value the library built as W-invariant for rs carries rs in its
    private tag and is accepted without the scan; every other value,
    including all user input, is scanned, and a weight of the wrong rank
    raises ``DomainError``.
    """
    if getattr(chi, "_invariant_for", None) is rs:
        return
    get = chi._terms.get
    for w, m in chi.items():
        require_rank(rs, w)
        for i, x in enumerate(w):
            if x:
                img = apply_simple_reflection(rs, i, w)
                other = get(img, 0)
                if other != m:
                    raise DomainError(
                        f"character is not Weyl-invariant: multiplicity {m} at {list(w)} "
                        f"but {other} at its simple reflection {list(img)}"
                    )
