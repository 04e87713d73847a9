"""CSV row text of a float table: the first column as ``%d`` and the others as
``%.17g``, byte for byte as Python's ``%`` and ``np.savetxt`` write them, from
numpy operations on whole arrays rather than one ``%`` per value.

A value's 17 significant digits are the integer nearest y = |x| * 10**(16 - k),
k = floor(log10 |x|), which lies in [10**16, 10**17).  y is formed as a
double-double hi + lo: Dekker's exact two-product of x and the double nearest
10**(16 - k), plus x times that power's remainder, from a table built exactly
with Python integers.  Its error is below 2**-48, so rounding hi + lo to
the nearest integer gives the correctly rounded digits unless the fraction of
y lies within ``TIE_WIDTH`` of 1/2 (Loitsch's Grisu, PLDI 2010, also takes an
exact path and leaves the uncertain cases to a slower one).  Those values and
non-finite ones are formatted by Python; an index column entry is formatted
here when its magnitude is below 10**17, where ``%d`` and ``%.17g`` agree.

Each cell of the table gets a 32-byte slot, four little-endian uint64 words:

    bytes  0      "-"
           1-5    "0.000", the lead of fixed notation below 1 ("0." and up
                  to three zeros)
           6      digit d0
           7      "."
           8-23   digits d1..d16, eight per word, made from each half of the
                  digits by SWAR arithmetic (no loop over digit columns)
           24-28  "e", the exponent's sign and three digits
           29     "," or "\\n"

In fixed notation with 1 <= k <= 16 the digits d1..dk move down one byte and
the point follows dk.  A keep mask per slot, looked up by sign, notation and
the count of digits before the trailing zeros, selects the bytes of the text
(``%g`` drops trailing zeros, and the point with them), and one boolean index
of all slots yields the rows.  A value formatted by Python keeps only its
separator, and its text is spliced in before it.
"""

import numpy as np

_U = np.uint64

TIE_WIDTH = 2.0 ** -20
"""A value whose scaled fraction is this close to 1/2 is formatted by Python,
which rounds exact ties to even."""


def _dekker_split(x):
    """x = hi + lo, each half with at most 26 significant bits."""
    t = 134217729.0 * x  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


_TEN_LOWEST, _TEN_HIGHEST = -295, 345
"""The powers 10**(16 - k) for every finite nonzero double, k one off either way."""


def _binary_scale(j):
    """The power of two that 10**j carries in the table, and |x| the inverse:
    it keeps |x|, the power, its remainder and their products normal and the
    Dekker split of either factor finite."""
    return 600 if j > 300 else -600 if j < -260 else 0


def _powers_of_ten():
    """Per j from ``_TEN_LOWEST`` to ``_TEN_HIGHEST``: the arrays (hi, hi's split
    halves, lo, binary scale b) where hi is the double nearest 10**j / 2**b
    and lo the double nearest the rest, so hi + lo is within 2**-106 of it.
    Python's int division is correctly rounded, and num/den - hi = (num * d -
    n * den) / (den * d) for hi = n / d exactly."""
    hi, lo, scale = [], [], []
    for j in range(_TEN_LOWEST, _TEN_HIGHEST + 1):
        scale.append(_binary_scale(j))
        num = 10 ** max(j, 0) * 2 ** max(-scale[-1], 0)
        den = 10 ** max(-j, 0) * 2 ** max(scale[-1], 0)
        hi.append(num / den)
        n, d = hi[-1].as_integer_ratio()
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return (hi, *_dekker_split(hi), np.array(lo), np.array(scale, dtype=np.int32))


_TEN_HI, _TEN_HI_HIGH, _TEN_HI_LOW, _TEN_LO, _TEN_SCALE = _powers_of_ten()


def _word(text):
    """The uint64 whose bytes in memory order are ``text``, zero-padded."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _slot_words(positions, byte):
    """The four words of a slot that holds ``byte`` at ``positions``."""
    slot = bytearray(32)
    for p in positions:
        slot[p] = byte
    return np.frombuffer(bytes(slot), dtype=np.uint64)


_NOTATIONS = 23  # fixed for k = -4..16, then scientific with 2- and 3-digit exponents
_SIGNED = _NOTATIONS * 17  # codes of a negative value start here
_BY_PYTHON = 2 * _SIGNED  # the code of a cell that Python formats


def _keep_masks():
    """Keep masks (bytes 0 or 1) per code sign * _SIGNED + notation * 17 +
    digits - 1, and a last one that keeps the separator alone."""
    masks = np.zeros((_BY_PYTHON + 1, 4), dtype=np.uint64)
    for sign in (0, 1):
        for notation in range(_NOTATIONS):
            k = notation - 4
            for digits in range(1, 18):
                keep = [0] * sign + [29]
                if k < 0:  # "0." and -k - 1 zeros, d0, then no point at byte 7
                    keep += [*range(1, 2 - k), 6, *range(8, 7 + digits)]
                elif k <= 16:  # d0..dk, then the point and the rest, if any
                    keep += range(6, 7 + k if digits <= k + 1 else 7 + digits)
                else:  # scientific: d0, then the point and the rest, if any
                    keep += range(6, 7 if digits == 1 else 7 + digits)
                    keep += [24, 25, 27, 28] + [26] * (notation == _NOTATIONS - 1)
                masks[sign * _SIGNED + notation * 17 + digits - 1] = _slot_words(keep, 1)
    masks[_BY_PYTHON] = _slot_words([29], 1)
    return masks


_KEEP = _keep_masks()
_KEPT_BYTES = _KEEP.view(np.uint8).reshape(-1, 32).sum(axis=1)

_EXPONENT_LOWEST = 16 - _TEN_HIGHEST  # and 16 - _TEN_LOWEST the highest
_EXPONENTS = np.array([_word(f"e{k:+04d}") for k in range(_EXPONENT_LOWEST, 17 - _TEN_LOWEST)],
                      dtype=np.uint64)  # "e-05", "e+123": word 3 of the slot


def _point_moves():
    """Per k = 0..16, the byte masks of a slot that place the point after dk:
    the bytes taken from the slot moved one byte down (d1..dk), the bytes
    left in place, and the point."""
    moved, stay, point = (np.zeros((17, 4), dtype=np.uint64) for _ in range(3))
    for k in range(17):
        moved[k] = _slot_words(range(7, 7 + k), 0xFF)
        stay[k] = _slot_words([p for p in range(32) if not 7 <= p <= 7 + k], 0xFF)
        point[k] = _slot_words([7 + k], ord("."))
    return moved, stay, point


_MOVED, _STAY, _POINT = _point_moves()
_LEAD = _U(_word("-0.000\0."))  # word 0 but for d0: the lead, and the point after d0
_ZEROS = _U(0x3030303030303030)  # "00000000"


def _digit_bytes(v):
    """For v < 10**8, the word whose bytes are v's eight decimal digits (0-9),
    the leading one first in memory: v is split into two 4-digit halves in
    32-bit lanes, each into two 2-digit quarters in 16-bit lanes, each into
    two digits in bytes, by multiply-shift division."""
    high = (v * _U(109951163)) >> _U(40)  # v // 10**4 for v < 10**8
    x = high | ((v - high * _U(10000)) << _U(32))
    y = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # each lane // 100
    z = y | ((x - y * _U(100)) << _U(16))
    t = ((z * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # each lane // 10
    return t | ((z - t * _U(10)) << _U(8))


def _used_bytes(words):
    """Bytes up to the last nonzero one of digit words (every byte below 16,
    so the conversion to double keeps the highest set bit)."""
    return (np.frexp(words.astype(np.float64))[1] + 7) >> 3


def _scaled(mag, k):
    """|x| * 10**(16 - k) as a normalised double-double (hi, lo)."""
    j = 16 - _TEN_LOWEST - k
    mag = np.ldexp(mag, _TEN_SCALE.take(j))  # exact
    ten = _TEN_HI.take(j)
    ten_high, ten_low = _TEN_HI_HIGH.take(j), _TEN_HI_LOW.take(j)
    high, low = _dekker_split(mag)
    hi = mag * ten
    lo = ((high * ten_high - hi) + high * ten_low + low * ten_high) + low * ten_low
    lo += mag * _TEN_LO.take(j)
    total = hi + lo
    return total, lo - (total - hi)


def _significands(mag):
    """(n, k, rounded): the integers n nearest mag * 10**(16 - k) in
    [10**16, 10**17) and the exponents k, for magnitudes ``mag`` > 0, and
    where n is sure to be the correctly rounded one."""
    k = np.floor(np.log10(mag)).astype(np.int64)
    hi, lo = _scaled(mag, k)
    # log10 may be one off next to a power of ten; (hi, lo) is normalised, so
    # comparing it as a pair compares the sum, which hi alone can round onto
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    again = np.flatnonzero(low | high)
    if again.size:
        k[again] += high[again].astype(np.int64) - low[again]
        hi[again], lo[again] = _scaled(mag[again], k[again])
    nearest = np.floor(lo + 0.5)
    rounded = np.abs(np.abs(lo - nearest) - 0.5) >= TIE_WIDTH
    n = hi.astype(np.int64) + nearest.astype(np.int64)  # in [10**16, 10**17]
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    return n, k, rounded


def _slots(n, k, negative, rows, cols):
    """The slots of the cells whose digits are n (< 10**17) and exponents k,
    and their keep-mask codes."""
    n = n.view(np.uint64)
    d0 = n // _U(10 ** 16)
    rest = n - d0 * _U(10 ** 16)
    upper = rest // _U(10 ** 8)
    first, second = _digit_bytes(upper), _digit_bytes(rest - upper * _U(10 ** 8))
    digits = np.where(second != 0, 9 + _used_bytes(second), 1 + _used_bytes(first))
    fixed = (k >= -4) & (k <= 16)
    notation = np.where(fixed, k + 4, np.where(np.abs(k) >= 100, 22, 21))
    code = negative * _SIGNED + notation * 17 + digits - 1

    slots = np.empty((n.size, 4), dtype=np.uint64)
    np.bitwise_or(_LEAD, (d0 + _U(ord("0"))) << _U(48), out=slots[:, 0])
    np.add(first, _ZEROS, out=slots[:, 1])
    np.add(second, _ZEROS, out=slots[:, 2])
    separators = np.full(cols, ord(","), dtype=np.uint64)
    separators[-1] = ord("\n")
    np.bitwise_or(_EXPONENTS.take(k - _EXPONENT_LOWEST).reshape(rows, cols),
                  separators << _U(40), out=slots.reshape(rows, cols, 4)[:, :, 3])
    move = np.flatnonzero(fixed & (k > 0))
    if move.size:
        point = k.take(move)
        words = slots.take(move, axis=0)
        down = words >> _U(8)
        down[:, :3] |= words[:, 1:] << _U(56)
        slots[move] = ((down & _MOVED.take(point, axis=0)) | (words & _STAY.take(point, axis=0))
                       | _POINT.take(point, axis=0))
    return slots, code


def _cells(table):
    """The slots of the cells of ``table`` and their keep-mask codes,
    ``_BY_PYTHON`` for the cells that Python formats."""
    rows, cols = table.shape
    mag = np.abs(table)
    mag[:, 0] = np.abs(np.trunc(table[:, 0]))  # %d truncates
    mag = mag.ravel()
    zero = mag == 0
    here = np.isfinite(mag) & ~zero
    here[::cols] &= mag[::cols] < 1e17
    n, k, rounded = _significands(np.where(here, mag, 1.0))
    here &= rounded
    here |= zero
    n[zero] = 0
    k[zero] = 0
    negative = np.signbit(table).ravel()
    negative[::cols] = table[:, 0] <= -1
    slots, code = _slots(n, k, negative, rows, cols)
    code[~here] = _BY_PYTHON
    return slots, code


def rows_text(table):
    """The CSV text of the rows of the 2-D float64 ``table`` as ASCII bytes."""
    slots, code = _cells(table)
    text = slots.view(np.uint8).ravel()[_KEEP.take(code, axis=0).view(np.bool_).ravel()].tobytes()
    by_python = np.flatnonzero(code == _BY_PYTHON)
    if by_python.size == 0:
        return text
    kept = _KEPT_BYTES.take(code)
    starts = (np.cumsum(kept) - kept).take(by_python)
    parts, last = [], 0
    for cell, start, value in zip(by_python.tolist(), starts.tolist(),
                                  table.ravel().take(by_python).tolist()):
        parts += [text[last:start],
                  (("%.17g", "%d")[cell % table.shape[1] == 0] % value).encode("ascii")]
        last = start
    parts.append(text[last:])
    return b"".join(parts)
