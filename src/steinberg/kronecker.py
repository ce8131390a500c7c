"""Kronecker substitution: a character as one big integer of fixed-width slots.

A weight w in a box lo <= w <= hi has a packed key: coordinate j is the
digit w_j - lo_j, weighted by the mixed-radix place value stride_j, the last
coordinate fastest (``_strides``; ``_packed`` packs a factor's keys a column
of coordinates at a time).  The key is injective on the box and affine in w,
so adding a weight is one int add wherever every key formed comes from a
weight in the box (the no-alias condition).  A map from the box to integers
is written into one int whose slot k, a field of 2, 4 or 8 bytes, holds the
value at key k.  Adding shifted copies of such ints then convolves
(``_kronecker``), and ``characters._weyl_formula`` divides by the Weyl
denominator on one of them.  The formula keys its numerator in the box of
its result, where weights outside the box alias or fall outside the slots;
it is exact there as a ring identity modulo the slot count, not by the
no-alias condition.  On every machine slot k is the field at bit
b*k of the int, so shifting an int up by s slots adds s to every key.  The
ints cross to byte buffers in little-endian order and are read and written
slot by slot through native arrays; a big-endian machine swaps the bytes of
each slot on the way (``_from_slots``, ``_to_slots``).

The kernel and Weyl's formula read their result back only as far as its
slot values: a list of the box's slots, the last coordinate fastest, with
the box's coordinate ranges (a slot pair, ``(vals, ranges)``).  Turning
slots into ``{weight: value}`` (``_weights_at``) is put off until a weight
is read: ``characters.Character`` holds the slot pair, counts, sums and
compares its slots directly, and decodes them on the first read of its
terms.  Both read only half of a box that is symmetric about 0 when the
value is invariant under negation (-1 in W): the kernel the slots from the
centre up, Weyl's formula those from 0 to the centre.  One helper,
``_unfold``, builds the full slot list from the lower half.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, product, repeat
from operator import add, mul, sub


def _strides(widths) -> list:
    # Mixed-radix place values, the last coordinate fastest: coordinate j is
    # a digit in [0, widths[j]).
    strides, s = [], 1
    for n in reversed(widths):
        strides.append(s)
        s *= n
    return strides[::-1]


def _packed(cols, vals, lo, strides) -> list:
    # (key, value) per term: the key sum over j of (w_j - lo_j) * stride_j,
    # summed a column at a time.
    keys = map(mul, cols[0], repeat(strides[0]))
    for col, s in zip(cols[1:], strides[1:]):
        keys = map(add, keys, map(mul, col, repeat(s)))
    return list(zip(map(sub, keys, repeat(sum(map(mul, lo, strides)))), vals))


# Slot widths, narrowest first: (bytes, memoryview format).
_SLOT_WIDTHS = ((2, "h"), (4, "i"), (8, "q"))


def _slot_width(bound: int):
    """The narrowest (bytes, format) slot for coefficients |c| <= bound, or None.

    A slot of b bits holds c + 2^(b-1) for every |c| <= bound exactly when
    bound < 2^(b-1).
    """
    for nbytes, fmt in _SLOT_WIDTHS:
        if bound < 1 << (8 * nbytes - 1):
            return nbytes, fmt
    return None


# Native arrays of slots need their bytes swapped to be read as little-endian.
_SWAP = sys.byteorder == "big"


def _swapped(buf, fmt: str):
    # The slots of buf with each slot's bytes reversed.  ``array`` is
    # imported here, so a little-endian machine never pays for its import.
    from array import array

    slots = array(fmt, buf)
    slots.byteswap()
    return slots


def _from_slots(buf, fmt: str) -> int:
    # The int whose slot k is slot k of a native buffer.
    return int.from_bytes(_swapped(buf, fmt) if _SWAP else buf, "little")


def _to_slots(value: int, n: int, nbytes: int, fmt: str):
    # The n slots of value, as a native sequence.
    buf = value.to_bytes(n * nbytes, "little")
    return _swapped(buf, fmt) if _SWAP else memoryview(buf).cast(fmt)


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
    return n, _from_slots(pos, fmt) - _from_slots(neg, fmt)


def _read_slots(value: int, nbytes: int, fmt: str, n: int) -> list:
    """Slots 0 to n - 1 of value, as signed ints.

    Slot k is the field of nbytes at bit 8*nbytes*k of value, read in two's
    complement.
    """
    return _to_slots(value, n, nbytes, fmt).tolist()


def _unfold(low: list) -> list:
    """A symmetric box's slot values from its lower half, slots 0 to c.

    A box whose ranges are symmetric about 0 has an odd slot count N =
    2c + 1, slot c holds weight 0, and slot N - 1 - k holds the negative of
    the weight at slot k.  On values invariant under negation, slot c + i
    therefore equals slot c - i.
    """
    return low + low[-2::-1]


def _weights_at(vals, ranges) -> dict:
    """{weight: value} for the nonzero entries of a box's slot values.

    Only occupied slots cost a weight: the box's weights stream out of
    ``product`` in slot order, ``compress`` keeps those at nonzero slots,
    and ``product`` reuses its tuple for every weight that is skipped, so
    an empty slot costs one C-level step and no allocation.
    """
    return dict(zip(compress(product(*ranges), vals), filter(None, vals)))


def _kronecker(aitems, bitems, ranges, bound: int, mirror=False) -> tuple:
    """Convolve two packed factors by shifting and adding one big integer.

    ``aitems`` and ``bitems`` are (key, multiplicity) pairs, keyed in the box
    of the product with the last coordinate varying fastest, each relative
    to its own factor's minimum; ``ranges`` are the product's coordinate
    ranges, and ``bound`` is at least every |coefficient| of the product.
    The second factor becomes one int y, slot k (a fixed-width field of 2, 4
    or 8 bytes) holding its multiplicity at key k.  For each term (k, m) of
    the first factor, m * y shifted up by k slots is added in, so the sum
    holds the convolution in its slots: one pass over y per term, where a
    product of two full ints would cost a Karatsuba multiplication.  The
    first factor's keys are grouped by multiplicity, and m * y is formed
    once per group, so a term costs one shift and one add.  A bias of
    2^(b-1) added to every slot of b bits makes each slot hold c + 2^(b-1),
    in [0, 2^b) because |c| <= bound < 2^(b-1): no slot carries into the
    next, so the slots read back as the product's coefficients.

    Slot k has place value 2^(b*k), so the shift for key k is k slots.
    With top the first factor's largest key and nb the second's slot count,
    the sum fills n = top + nb slots, at most the box's; the slots above
    them read back as zero (``_read_slots``).  The product is returned as
    its slot pair, (the list of the box's slot values, ``ranges``), and no
    weight is formed.

    ``mirror`` says that both factors are invariant under negation (a
    W-invariant pair for a type with -1 in W).  Then so is the product, and
    its box is symmetric: with N slots, slot c = (N - 1) / 2 holds weight 0
    and slot c + i holds the negative of the weight at c - i.  Only slots
    c - 1 and up are summed, so the sum is about half as long: a term whose
    shift would start below slot c - 1 is shifted down onto it with ``>>``,
    which floors.  Each floor loses less than one unit of slot c - 1, and
    the slots below it, which are never formed, are worth less than half of
    one, so slot c - 1 reads its coefficient minus some d in
    [0, len(aitems)].  It is a guard, never read: with the width chosen for
    bound + len(aitems), it neither carries into nor borrows from slot c,
    so slots c and up are exact, and the lower half is their reflection
    (``_unfold``).  If no slot holds bound + len(aitems), the whole sum is
    taken.
    """
    width = _slot_width(bound + len(aitems)) if mirror else None
    if width is None:
        mirror, width = False, _slot_width(bound)
    if width is None:
        raise ArithmeticError(f"convolution bound {bound} does not fit a 64-bit slot")
    nbytes, fmt = width
    nb, y = _slot_int(bitems, nbytes, fmt)
    n = max(aitems)[0] + nb
    bits = 8 * nbytes
    groups = {}
    for k, m in aitems:
        groups.setdefault(m, []).append(k)
    # The lowest slot summed: slot c - 1 when mirrored, else slot 0.
    guard = math.prod(map(len, ranges)) // 2 - 1 if mirror else 0
    acc = 0
    for m, keys in groups.items():
        my = m * y
        for k in keys:
            acc += my << bits * (k - guard) if k >= guard else my >> bits * (guard - k)
    n -= guard
    bias = int.from_bytes((1 << (bits - 1)).to_bytes(nbytes, "little") * n, "little")
    # Flipping each slot's top bit turns c + 2^(b-1) into c in two's complement.
    acc = (acc + bias) ^ bias
    if not mirror:
        return _read_slots(acc, nbytes, fmt, math.prod(map(len, ranges))), ranges
    upper = _read_slots(acc >> bits, nbytes, fmt, guard + 2)  # slots c .. N-1
    return _unfold(upper[::-1]), ranges
