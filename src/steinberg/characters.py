"""Formal characters: sparse integer functions on the weight lattice.

A :class:`Character` is a finitely supported map weight -> multiplicity, the
computational form of an element of the group ring Z[X]; it shares the
sparse base ``_Sparse`` with the Weyl-basis classes of the Grothendieck
group.  Weyl-module characters come, by rank, from Weyl's character formula
or from Freudenthal's multiplicity recursion (``weyl_character``).
Products are exact sparse convolutions.  Signed characters (Euler
characteristics, virtual differences) are first-class values, and they
scale by integers only.  ``tensor`` and Weyl's formula key weights by packed
integers and slot integers (module ``kronecker``); public values keep tuple
keys, which a value from the Kronecker kernel or Weyl's formula forms only
when its weights are first read.
"""

from __future__ import annotations

import math
import sys
from _thread import allocate_lock
from collections import OrderedDict
from functools import _CacheInfo  # the record lru_cache's cache_info returns
from itertools import repeat
from operator import add, floordiv, mod, mul, neg

from .errors import DomainError
from .kronecker import (
    _SLOT_WIDTHS,
    _kronecker,
    _packed,
    _read_slots,
    _slot_int,
    _slot_width,
    _strides,
    _unfold,
    _weights_at,
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
        if isinstance(items, dict):
            items = items.items()
        self._terms = _add_into({}, self._checked(items), 1)

    def _checked(self, items):
        # The nonzero items, each weight a tuple, each checked.
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
            yield w, m

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
        return self._result(_add_into(dict(self._terms), other._terms.items(), sign), other)

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


def _add_into(out: dict, items, scale: int) -> dict:
    """Add scale * m at w into out for each (w, m) of items; sums that cancel leave no term."""
    get = out.get
    for w, m in items:
        new = get(w, 0) + scale * m
        if new:
            out[w] = new
        else:
            del out[w]
    return out


class Character(_Sparse):
    """Finitely supported integer-valued function on weights.

    Zero multiplicities are never stored, so equality is structural.
    Addition, negation, and integer scaling are pointwise; ``*`` between two
    characters is the convolution product (the ring product of Z[X]).

    The private slot ``_invariant_for`` is a root system the value is known
    to be W-invariant for, or None.  Weyl characters set it, and sums,
    scalings, products, twists and contractions over one root system keep
    it; the public constructor and ``from_dict`` leave it None, and
    ``require_w_invariant`` sets it on such a value once its scan passes.
    Equality, repr and JSON ignore it; ``require_w_invariant`` trusts it.

    The private slot ``_highest`` is set only on the Weyl characters that
    the ``weyl_character`` cache hands out, to their highest weight; every
    other value has None.

    The private slot ``_pending`` holds what the terms are formed from
    while they are not, or None once they are:

    - the pair (a, b) of a product that ``tensor`` handed out unformed;
    - a slot pair (``kronecker``), the list of a box's slot values and the
      box's coordinate ranges, for a result of the Kronecker kernel or of
      Weyl's formula.

    ``_raw`` builds a value from a terms dict or from either kind; the
    value's ``_terms`` slot stays empty until they are first read.  That
    read forms them (``__getattr__``), a pair by ``_convolve`` and slots by
    ``kronecker._weights_at``, and then clears ``_pending``, so a value is
    formed exactly when ``_pending`` is None.  ``len``, ``bool``, ``dim``
    and ``==`` count, sum or compare slots without decoding them, and two
    values with slots over the same box compare slot lists; on a pair they
    form the terms.  Two readers use an unformed product's pair instead of
    its terms: ``grothendieck.char_to_class`` expands it by Brauer-Klimyk,
    and ``contract_weights`` contracts it by residue classes above
    ``_DENSE_RANK``.  Every other reader (repr, JSON, pickling, copying,
    arithmetic, ``items``) reads the terms, so it sees a formed value;
    pickling and copying keep ``_highest`` and drop ``_pending``.

    The private slot ``_memo`` is None until a contraction keeps something
    derived from the value, and then holds it: under each p the value
    was a factor of such a contraction at, its terms grouped by residue
    class mod p (``_residue_classes``), two (quotient, multiplicity) pairs
    per term; and under each (rs, p) it was contracted at, the class of
    its contraction (``grothendieck._contract_class``).  It lives and dies
    with the value.  As with ``_pending``, no lock is needed: two threads
    that fill it at once store equal entries, and one that loses the
    other's entry computes it again.  Pickling and copying drop it.
    """

    __slots__ = ("_invariant_for", "_highest", "_pending", "_memo")
    _FIELDS = ("weights", "mult")
    _NOUN = "character"

    def __init__(self, items=()):
        super().__init__(items)
        self._invariant_for = self._highest = self._pending = self._memo = None

    @classmethod
    def _raw(cls, terms, rs=None):
        # terms: a dict free of zeros, or what is pending (a pair of values
        # or a slot pair), formed on first read.
        self = cls.__new__(cls)
        if type(terms) is dict:
            self._terms = terms
            self._pending = None
        else:
            self._pending = terms
        self._invariant_for, self._highest, self._memo = rs, None, None
        return self

    def _slots(self):
        # The slot pair this value holds undecoded, or None.  ``_pending`` is
        # read once: another thread may clear it right after storing terms.
        pending = self._pending
        return pending if pending is not None and type(pending[0]) is list else None

    def _pair(self):
        # The pair (a, b) this product was handed out over, or None.
        pending = self._pending
        return pending if pending is not None and type(pending[0]) is not list else None

    def _formed(self) -> bool:
        # Whether the terms are formed, read without forming them.
        return self._pending is None

    def __getattr__(self, name):
        # Reached only when a slot is empty.  Slots are cleared after the
        # terms are stored, so a thread that finds them cleared reads the
        # terms another thread decoded meanwhile; two threads that both form
        # the terms form equal ones, so no lock is needed.
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pending = self._pending
        if pending is not None:
            terms = pending if type(pending[0]) is list else _convolve(*pending)
            self._terms = terms if type(terms) is dict else _weights_at(*terms)
            self._pending = None
        return object.__getattribute__(self, "_terms")

    def __getstate__(self):
        # Pickling and copying form the terms and drop what was pending.
        return None, {"_terms": self._terms, "_invariant_for": self._invariant_for,
                      "_highest": self._highest, "_pending": None, "_memo": None}

    def __len__(self):
        slots = self._slots()
        if slots is None:
            return len(self._terms)
        return len(slots[0]) - slots[0].count(0)

    def __bool__(self):
        slots = self._slots()
        return bool(self._terms) if slots is None else any(slots[0])

    def __eq__(self, other):
        if type(other) is not type(self):
            return False
        mine, theirs = self._slots(), other._slots()
        if mine is not None and theirs is not None and mine[1] == theirs[1]:
            return mine[0] == theirs[0]
        return self._terms == other._terms

    def _result(self, terms: dict, other=None):
        tag = self._invariant_for if other is None else _shared_tag(self, other)
        return self._raw(terms, tag)

    def mult(self, weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def dim(self) -> int:
        """Sum of multiplicities (the virtual dimension for signed inputs)."""
        slots = self._slots()
        return sum(self._terms.values()) if slots is None else sum(slots[0])

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


# The largest rank on which ``weyl_character`` takes Weyl's formula, which
# pays for a box, not for the terms in it, and on which the cache's
# doorkeeper holds back a first request.  Derived by section 4 of
# tools/calibrate.py; section 5 replays the doorkeeper.
_DENSE_RANK = 2

# The term budget of the ``weyl_character`` cache, about 3 MB; section 5 of
# tools/calibrate.py replays it.
_WEYL_CACHE_TERMS = 1 << 15

# (rs, highest) -> the Weyl character, or None for a ghost; least recently
# used first.
_weyl_cache = OrderedDict()
_weyl_cache_lock = allocate_lock()
_weyl_hits = _weyl_misses = _weyl_terms = _weyl_held = 0
_ABSENT = object()


def weyl_character(rs: RootSystem, highest) -> Character:
    """Character of the Weyl module with the given dominant highest weight.

    Up to rank ``_DENSE_RANK`` it comes from Weyl's character formula
    (``_weyl_formula``), above it from Freudenthal's recursion
    (``_freudenthal``); each is exact.

    Weyl characters are kept in a least-recently-used cache bounded by the
    terms it holds, ``_WEYL_CACHE_TERMS`` in all, each under (rs, highest).
    This is the cache's rule, which the rest of the library refers to:

    - A request finds a value (a hit), a ghost or nothing (a miss).  A
      ghost is a key without its value, charged one term.
    - A miss is admitted when it finds a ghost or its rank is above
      ``_DENSE_RANK``, where a value costs more per term to compute again.
      Any other miss, the first request of a value of rank up to
      ``_DENSE_RANK``, is held back by the doorkeeper (as in Einziger,
      Friedman and Manes's TinyLFU): it stores a ghost and nothing else.
    - An admitted value is stored only if it fits the budget, in place of
      its ghost, if any.  Each store drops the least recently used entries,
      ghosts or values, until the total fits.
    - Products are never looked up or stored: ``tensor`` hands out a
      product of the values this cache gives, and of their unformed
      products, over the pair it was given, unformed (see ``Character``),
      so a product that nothing reads is never convolved.  Until it is
      formed, its readers expand (``grothendieck.char_to_class``) or,
      above ``_DENSE_RANK``, contract (``contract_weights``) it over that
      pair, and a contraction adds only the pairs of weights whose sum
      lies in pX.

    ``cache_info`` (``currsize`` counts held values, not ghosts; ``maxsize``
    is the term budget) and ``cache_clear`` are the cache's, and
    ``__wrapped__`` is the uncached computation, as for
    ``functools.lru_cache``; its values carry no ``_highest``, so ``tensor``
    forms their products at once.  Lookups and updates hold one lock, the
    computation does not.  The weight is checked on every call, before the
    cache is looked up: coordinates must be ints (not bools), so a float or
    bool weight that equals a cached int weight is rejected, not answered
    from the cache.
    """
    return _cached(rs, require_dominant(rs, highest))


def _cached(rs: RootSystem, highest: tuple) -> Character:
    """The Weyl character at highest, held or computed, kept by the rule in ``weyl_character``.

    The value it returns carries ``_highest`` = highest.
    """
    global _weyl_hits, _weyl_misses, _weyl_terms, _weyl_held
    key = (rs, highest)
    with _weyl_cache_lock:
        found = _weyl_cache.get(key, _ABSENT)
        if found is not _ABSENT:
            _weyl_cache.move_to_end(key)
            if found is not None:
                _weyl_hits += 1
                return found
        _weyl_misses += 1
        admitted = found is None or rs.rank > _DENSE_RANK
        if not admitted:
            _weyl_cache[key] = None
            _weyl_terms += 1
            _weyl_evict()
    chi = _weyl_character(rs, highest)
    chi._highest = highest
    # len counts a value's slots when it holds them: once, outside the lock.
    if admitted and (terms := len(chi)) <= _WEYL_CACHE_TERMS:
        with _weyl_cache_lock:
            # Another thread may have stored the value or dropped the ghost
            # meanwhile.
            held = _weyl_cache.get(key)
            if held is not None:
                return held
            if key in _weyl_cache:
                _weyl_terms -= 1
            _weyl_cache[key] = chi
            _weyl_cache.move_to_end(key)
            _weyl_terms += terms
            _weyl_held += 1
            _weyl_evict()
    return chi


def _weyl_evict():
    # Drops least recently used entries until the cache fits its budget;
    # the caller holds the lock.
    global _weyl_terms, _weyl_held
    while _weyl_terms > _WEYL_CACHE_TERMS:
        chi = _weyl_cache.popitem(last=False)[1]
        if chi is None:
            _weyl_terms -= 1
        else:
            _weyl_terms -= len(chi)
            _weyl_held -= 1


def _weyl_cache_info():
    with _weyl_cache_lock:
        return _CacheInfo(_weyl_hits, _weyl_misses, _WEYL_CACHE_TERMS, _weyl_held)


def _weyl_cache_clear():
    global _weyl_hits, _weyl_misses, _weyl_terms, _weyl_held
    with _weyl_cache_lock:
        _weyl_cache.clear()
        _weyl_hits = _weyl_misses = _weyl_terms = _weyl_held = 0


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


def _weyl_formula(rs: RootSystem, highest) -> tuple:
    """The character's slot pair (``kronecker``) by Weyl's character formula.

    chi * D = sum over w in W of sgn(w) * e^(w(lam + rho) - rho), with D
    the Weyl denominator prod over alpha > 0 of (1 - e^-alpha) (Jantzen,
    *Representations of Algebraic Groups*, II.5).  The numerator's terms
    come from one walk of the orbit of the regular weight lam + rho
    (``descend_orbit``, whose sign is sgn(w)).  The division runs in the
    box of W lam: the tightest box that holds the character (lam has
    multiplicity 1), and the box ``_convolve`` gives a product of
    W-invariant characters, so the twist identity's two sides compare slot
    lists.  Over an orbit W mu, coordinate j ranges over [-M, M] with
    M = max over W of <w mu, alpha_j^v>, linear in dominant mu, so the box
    of W lam is the walk's ranges less those of W rho (``rho_ranges``).

    With its packed key (``kronecker``) as exponent, a weight becomes a
    power of x.  The key is affine, so this is a ring homomorphism up to
    one shift, and the character's weights become distinct powers x^k with
    k in [0, n) for the box's n slots.  With t the key step of -alpha,
    1 - x^t with t < 0 is -x^t * (1 - x^-t), a shift and a sign that the
    numerator's keys take up front.  Then chi * prod(1 - x^|t|), which has
    no negative powers, equals the shifted numerator: its terms below x^0
    cancel among themselves and those at x^n or above vanish modulo x^n,
    so both are dropped, and terms that share a key (distinct weights
    outside the box can) are summed.  A key step of 0 would send D to 0 and
    raises ArithmeticError; lam = 0, whose box is one point, returns the
    trivial character at once.

    Half box: when -1 is in W (``negation_in_w``) the division runs modulo
    x^m with m = n // 2 + 1, and only numerator keys below m are kept.
    Reducing modulo x^m is a ring map from Z[x]/x^n, so the low m slots
    are the numerator times D^-1 modulo x^m: slots 0 to c = n // 2 of chi.
    The box of W lam is then symmetric about 0 and chi is invariant under
    negation, so key(-w) = n - 1 - key(w), and the full slot list is the
    low half mirrored about slot c (``kronecker._unfold``).  Otherwise
    (A2) m = n.

    Division by prod(1 - x^|t|) is exact modulo 2^(b*m), where x = 2^b and
    slot k of an int (``kronecker``) holds the coefficient of x^k.  Every
    1 - x^u (u > 0) is odd, hence a unit modulo 2^(b*m), and its inverse
    there is sum over k < K of x^(k*u) for any K*u >= m, which is
    (1 + x^u)(1 + x^2u)(1 + x^4u)... by doubling, masked to m slots after
    each step.  The residue is therefore exactly chi evaluated at x = 2^b,
    modulo 2^(b*m), for every b: carries between slots in the intermediate
    values cancel out.

    Width rule and sum certificate: b starts at 16 bits and doubles to 32
    and 64 only while the decoded multiplicities do not sum to dim (Weyl's
    dimension formula); on a half box that sum is 2 * (sum of slots 0 to
    c) - slot c.  Multiplicities are >= 0, so writing chi(2^b) in base 2^b,
    each carry from a slot into the next lowers the digit sum by 2^b - 1
    (and the half box's sum, which counts slots below c twice and slot c
    once, by at least 2^b - 1 as well), a carry out of the top slot is cut
    off by the modulus, and a slot of 2^(b-1) or more reads as negative,
    2^b lower: the sum is dim exactly when every multiplicity read is below
    2^(b-1), and then the slots are the multiplicities.  The largest
    multiplicity is far below dim, so 16 bits nearly always do.  A wrong
    sum at a width that holds dim itself, where no slot can overflow, or at
    the widest slots, raises ArithmeticError.  A box whose n slots would
    need a buffer of more than ``sys.maxsize`` bytes raises DomainError.  A
    summed numerator coefficient is at most |W| in size, which 16 bits hold
    up to rank 4.
    """
    if not any(highest):
        return [1], [range(0, 1)] * rs.rank
    dim = _weyl_dimension(rs, highest)
    walk = descend_orbit(rs, tuple(x + 1 for x in highest))
    cols = list(zip(*(w for w, _ in walk)))
    box = [range(min(col) - r[0], max(col) - r[-1] + 1) for col, r in zip(cols, rs.rho_ranges)]
    widths = [len(r) for r in box]
    n = math.prod(widths)
    half = rs.negation_in_w
    m = n // 2 + 1 if half else n
    strides = _strides(widths)
    steps = [-sum(map(mul, f, strides)) for f in rs.positive_fund]
    if 0 in steps:
        raise ArithmeticError(f"Weyl's formula at {list(highest)} has a root of key step 0")
    shift = -sum(t for t in steps if t < 0)
    flip = (-1) ** sum(t < 0 for t in steps)
    numerator = {}
    for k, sign in _packed(cols, [sign for _, sign in walk], [r.start + 1 for r in box], strides):
        k += shift
        if 0 <= k < m:
            numerator[k] = numerator.get(k, 0) + flip * sign
    for nbytes, fmt in _SLOT_WIDTHS:
        if n * nbytes > sys.maxsize:
            raise DomainError(f"Weyl's formula at {list(highest)} needs {n} slots of "
                              f"{nbytes} bytes, more than one buffer can hold")
        bits = 8 * nbytes
        mask = (1 << bits * m) - 1
        value = _slot_int(numerator.items(), nbytes, fmt)[1] & mask
        for t in map(abs, steps):
            while t < m:
                value = (value + (value << bits * t)) & mask
                t *= 2
        vals = _read_slots(value, nbytes, fmt, m)
        total = 2 * sum(vals) - vals[-1] if half else sum(vals)
        if total == dim:
            return (_unfold(vals) if half else vals), box
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


# The kernel rule's costs in ``_convolve``, in units of adding one byte of two
# ints: one dict update of the pair loop, and reading back one slot byte.
# Derived by section 1 of tools/calibrate.py.
_PAIR_COST = 512
_DECODE_COST = 32


def tensor(a: Character, b: Character) -> Character:
    """Convolution product: mult of nu is sum over lam of a(lam)*b(nu-lam).

    Each factor's weights are packed once into integer keys, relative to
    that factor's per-coordinate minimum, with place values taken from the
    box of the sum (last coordinate fastest): coordinate j of a sum spans
    width_j = (range of a) + (range of b) + 1 values.  Both keys' digits stay
    inside their own ranges, so k1 + k2 is the key of w1 + w2 with no carries
    (no-alias condition).  ``_convolve`` adds the products by Kronecker
    substitution or pair by pair.

    When both factors carry one root-system tag and each is a Weyl
    character from the ``weyl_character`` cache (it carries ``_highest``)
    or an unformed product, the product is a fresh value over the pair
    (a, b), unformed.  Its first read convolves it; until then
    ``grothendieck.char_to_class`` expands it over the pair without forming
    it, and so does ``contract_weights`` above ``_DENSE_RANK``.  Every
    other product is formed on each call.
    """
    if a._invariant_for is b._invariant_for and _defers(a) and _defers(b):
        return Character._raw((a, b), a._invariant_for)
    return Character._raw(_convolve(a, b), _shared_tag(a, b))


def _defers(chi: Character) -> bool:
    # Whether tensor hands out chi's products unformed: chi is a Weyl
    # character from the cache or an unformed product.
    return chi._highest is not None or chi._pair() is not None


def _convolve(a: Character, b: Character):
    """The terms of ``tensor(a, b)``: a dict, or the kernel's slot pair.

    A factor is held as its support's coordinate columns and its values, and
    its keys are packed a column at a time (``_packed``).

    With a the factor of fewer terms, the Kronecker kernel (``_kronecker``)
    runs when the bound sum|a| * max|b| on a coefficient fits a slot of
    width 2, 4 or 8 bytes and the kernel, one add per slot byte per term of
    a plus a read-back of the slots, costs no more than the pair loop, one
    dict update per pair:
    width * slots * (|a| + _DECODE_COST) <= _PAIR_COST * |a| * |b|.
    So the kernel's memory is O(|b|).  It sums half the box when both
    factors carry the tag of one root system with -1 in W, and returns its
    slots undecoded.  Otherwise the pair loop adds each of the |a|*|b|
    products into a dict, drops sums that cancel, and decodes the keys a
    column at a time.
    """
    if not a or not b:
        return {}
    cols_a, cols_b = list(zip(*a.support())), list(zip(*b.support()))
    if len(cols_a) != len(cols_b):
        raise DomainError(f"cannot convolve characters of ranks {len(cols_a)} and {len(cols_b)}")
    vals_a, vals_b = list(a._terms.values()), list(b._terms.values())
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
    bound = sum(map(abs, vals_a)) * max(map(abs, vals_b))
    width = _slot_width(bound)
    cost = math.prod(widths) * (na + _DECODE_COST)
    if width is not None and width[0] * cost <= _PAIR_COST * na * len(bitems):
        ranges = [range(l, l + n) for l, n in zip(lo, widths)]
        tag = _shared_tag(a, b)
        mirror = tag is not None and tag.negation_in_w
        return _kronecker(aitems, bitems, ranges, bound, mirror)
    out = {}
    get = out.get
    for k1, m1 in aitems:
        for k2, m2 in bitems:
            k = k1 + k2
            out[k] = get(k, 0) + m1 * m2
    keys = [k for k, m in out.items() if m]
    # Coordinate j of key k is (k // stride_j) % width_j + lo_j, decoded a
    # column at a time.
    cols = [map(add, map(mod, map(floordiv, keys, repeat(s)), repeat(n)), repeat(l))
            for s, n, l in zip(strides, widths, lo)]
    return dict(zip(zip(*cols), filter(None, out.values())))


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
    """Keep the weights divisible by p and divide them by p.

    The support is filtered one coordinate at a time; each pass keeps about
    1/p of the weights, so most weights are dropped after one remainder.

    An unformed product of rank above ``_DENSE_RANK``, which holds the
    pair (a, b) that ``tensor`` was given (see ``Character``), is
    contracted without being formed: a weight alpha + beta of
    a (x) b lies in pX only when alpha lies in some residue class r mod p
    and beta in -r, so class r of a is paired with class -r of b alone
    (``_contract_pair``): sum over r of |a_r| * |b_-r| pairs, about
    |a| * |b| / p^rank when the weights spread evenly over the classes.
    Every other value is filtered on its terms: one that holds slots
    decodes them, and an unformed product up to ``_DENSE_RANK`` is
    convolved once and keeps its terms, as any read of them would.  The
    pair is read once, so it stays valid if another thread forms the
    product meanwhile.
    """
    require_p(p, "contraction")
    pair = chi._pair()
    if pair is not None and chi._invariant_for.rank > _DENSE_RANK:
        return Character._raw(_contract_pair(*pair, p), chi._invariant_for)
    terms = kept = chi._terms
    for j in range(len(next(iter(terms), ()))):
        kept = [w for w in kept if not w[j] % p]
    out = {tuple([x // p for x in w]): terms[w] for w in kept}
    return Character._raw(out, chi._invariant_for)


def _residue_classes(chi: Character, p: int) -> tuple:
    """chi's terms grouped by residue class mod p, as (floors, ceilings).

    ``floors`` maps each class r (w mod p, coordinatewise, in [0, p)) to the
    pairs (floor(w / p), m) of its weights w, and ``ceilings`` maps -r mod p
    to the pairs (ceil(w / p), m) of the same weights.  Memoized in chi's
    ``_memo`` slot (see ``Character``), one entry per p.
    """
    memo = chi._memo
    if memo is None:
        memo = chi._memo = {}
    classes = memo.get(p)
    if classes is None:
        terms = chi._terms
        cols = list(zip(*terms))
        floors = _grouped(zip(*[map(mod, col, repeat(p)) for col in cols]),
                          zip(*[map(floordiv, col, repeat(p)) for col in cols]), terms.values())
        ceilings = _grouped(
            zip(*[map(mod, map(neg, col), repeat(p)) for col in cols]),
            zip(*[map(floordiv, map(add, col, repeat(p - 1)), repeat(p)) for col in cols]),
            terms.values())
        classes = memo[p] = floors, ceilings
    return classes


def _grouped(keys, quotients, values) -> dict:
    # key -> [(quotient, value), ...], in the order given.
    out = {}
    get = out.get
    for k, q, m in zip(keys, quotients, values):
        found = get(k)
        if found is None:
            out[k] = [(q, m)]
        else:
            found.append((q, m))
    return out


def _contract_pair(a: Character, b: Character, p: int) -> dict:
    """The terms of ``contract_weights(tensor(a, b), p)``, without forming the product.

    With alpha = p * q + r coordinatewise, r in [0, p), alpha + beta lies
    in pX exactly when beta = -r mod p, and then (alpha + beta) / p =
    q + ceil(beta / p): beta's remainder adds p to r where r != 0 (Jantzen,
    *Representations of Algebraic Groups*, II.3 and II.9).  So each class
    of a meets one class of b, under the same key of ``_residue_classes``,
    and only those pairs are added.
    """
    right_of = _residue_classes(b, p)[1]
    out = {}
    get = out.get
    for r, left in _residue_classes(a, p)[0].items():
        right = right_of.get(r)
        if right is None:
            continue
        for q, m in left:
            for q2, m2 in right:
                w = tuple(map(add, q, q2))
                out[w] = get(w, 0) + m * m2
    return {w: m for w, m in out.items() if m}


def require_w_invariant(rs: RootSystem, chi: Character) -> None:
    """Reject characters that are not constant on full Weyl orbits.

    W is generated by the simple reflections, so chi is W-invariant exactly
    when chi(s_i w) = chi(w) for every support weight w and every i with
    w_i != 0 (s_i fixes w when w_i = 0).  A weight outside the support whose
    reflection lies in it is caught from that reflection.

    A value the library built as W-invariant for rs carries rs in its
    private tag and is accepted without the scan; every other value,
    including all user input, is scanned, and a weight of the wrong rank
    raises ``DomainError``.  An untagged ``Character`` that passes the scan
    is tagged with rs, so it is scanned once; one that fails stays untagged.
    """
    tag = getattr(chi, "_invariant_for", _ABSENT)
    if tag is rs:
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
    if tag is None:
        chi._invariant_for = rs
