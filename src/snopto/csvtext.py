"""Rows of floats as the text "%.17g" gives them, formatted in numpy.

rows_g17 returns, byte for byte, what Python's "%.17g" writes for every
value of a block, space separated, one line per row: the text
np.savetxt(..., fmt="%.17g") writes. The module is imported at the first
CSV write, so commands that write no CSV never compile it.

Every value goes through one vector pass; then one boolean mask, vec,
sends it down exactly one of two routes.

The vector route. With e = floor(log10|x|) and k = 16 - e, the 17
significant digits D = round(|x| 10^k) come from a double-double
product: p = fl(|x| hi) plus t, the exact error of that product
(Dekker's two-product) plus |x| lo, where hi + lo is 10^k to about
2^-106. Values with |x| outside [1e-280, 1e280], where the splitting
could overflow or lose bits, are scaled as 1.0; zeros, infinities and
nans are among them. For a value in range, |t| is at most half the
spacing of doubles at p, and t is within 1e-14 of |x| 10^k - p. A value
keeps its vector digits when it is in range, p + t >= 1e16 (log10 may
miss the exponent by one near a power of ten), D = p + rint(t) < 10^17,
and t is at least 1e-6 from a half-integer. Then p lies above 2^53,
where every double is a whole number, rint(t) rounds the exact rest of
|x| 10^k, so D is correctly rounded, and D < 10^17 puts |x| 10^k below
10^17: e is the exponent "%.17g" writes. Zeros take this route too,
spelled as D = 0 at exponent 0.

The Python route. Every other value is formatted by Python's own
correctly rounded "%.17g": values out of range, infinities and nans,
misses of the exponent estimate, values that round up to 10^17, and
values near a tie (exact ties among them, which "%.17g" rounds half to
even). So every byte equals that of "%.17g" % x.
"""

import functools
import itertools

import numpy as np

# Powers of ten 10^k for k in [_K0, _K1), enough for |x| in
# [1e-280, 1e280] with the exponent estimate off by one either way.
_K0, _K1 = -266, 300
_TIE = 1e-6  # fractions this close to 1/2 are left to Python
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_U64LE = np.dtype("<u8")  # little-endian, so the bytes come out in order on any machine


def _split(x):
    """(head, tail) with x = head + tail exactly, each of 26 bits or less."""
    c = x * _SPLIT
    head = c - (c - x)
    return head, x - head


def _word(text: bytes) -> int:
    """The uint64 whose little-endian bytes are text, NUL padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# A value is laid out in six uint64 words, 48 bytes, then every byte the
# mask of its layout clears is dropped. Word 0 holds the sign, a "0.000"
# prefix, the first digit and a point; words 1-4 hold the other 16 digits,
# each followed by a point; word 5 holds "e", the exponent sign, three
# exponent digits and the column separator. So digit j sits at byte 2j + 6
# and the point after it at 2j + 7.
_WORD0 = _word(b"-0.000\0.")
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
# layouts: X + 4 for fixed notation at exponent X in [-4, 16], then
# exponent notation with a negative or positive exponent of two or three
# digits; a value's key is (layout * 17 + digits - 1) * 2 + sign
_EXP_LAYOUT = 21


def _mask(layout: int, ndigits: int, negative: bool) -> list:
    """Byte positions a value of this layout, digit count and sign keeps."""
    keep = [45] + ([0] if negative else [])  # the separator, the sign
    digits = [2 * j + 6 for j in range(ndigits)]
    if layout < _EXP_LAYOUT:
        x = layout - 4
        if x < 0:  # "0.", -x - 1 zeros, the digits
            return keep + [1, 2] + list(range(3, 2 - x)) + digits
        # the integer digits, then a point if any digit follows them
        point = [2 * x + 7] if ndigits > x + 1 else []
        return keep + [2 * j + 6 for j in range(max(ndigits, x + 1))] + point
    three = (layout - _EXP_LAYOUT) % 2  # keep the hundreds digit
    return keep + digits + ([7] if ndigits > 1 else []) + [40, 41] + [42] * three + [43, 44]


@functools.cache
def _tables():
    """Lookup tables of rows_g17, built at its first call."""
    # 10^k = hi + lo: Python int true division rounds correctly, and the
    # residual is exact as a ratio of ints before its own rounding
    hi, lo = [], []
    for k in range(_K0, _K1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    # per 4-digit group: its four digits, each followed by a point, and
    # its trailing zeros
    group = np.arange(10000, dtype=np.uint64)
    quads = np.zeros(10000, _U64LE)
    for j in range(4):
        quads |= (group // 10 ** (3 - j) % 10 + (ord("0") + (ord(".") << 8))) << 16 * j
    trailing = sum(group % 10**j == 0 for j in range(1, 5))
    # per exponent X + 400: word 5, and the key of 17 digits and no sign
    xs = range(-400, 400)
    exp_words = np.array([_word(b"e%c%03d" % (ord("-" if x < 0 else "+"), abs(x))) for x in xs], _U64LE)
    layouts = [x + 4 if -4 <= x <= 16 else _EXP_LAYOUT + 2 * (x > 0) + (abs(x) >= 100) for x in xs]
    keys = np.array(layouts) * 34 + 32
    masks = np.zeros((_EXP_LAYOUT + 4, 17, 2, 48), np.uint8)
    for layout, nd, neg in itertools.product(range(_EXP_LAYOUT + 4), range(17), range(2)):
        masks[layout, nd, neg, _mask(layout, nd + 1, neg)] = 255
    return hi, *_split(hi), np.array(lo), quads, trailing, exp_words, keys, masks.reshape(-1, 48).view(_U64LE)


def _scaled(a, k, tables):
    """(p, t): p = fl(a 10^k), t the rest of a 10^k to about 1e-14."""
    i = k - _K0
    hi, hi_head, hi_tail, lo = (tab[i] for tab in tables[:4])
    p = a * hi
    head, tail = _split(a)
    err = ((head * hi_head - p) + head * hi_tail + tail * hi_head) + tail * hi_tail
    return p, err + a * lo


def rows_g17(block) -> bytes:
    """The bytes of a (rows, cols) block at "%.17g", space separated, one line per row."""
    tables = _tables()
    quads, trailing, exp_words, keys, masks = tables[4:]
    x = np.asarray(block, dtype=float)
    rows, cols = x.shape
    x = x.ravel()
    # one vector pass over every value, the out of range ones scaled as 1.0
    a = np.abs(x)
    in_range = (a >= 1e-280) & (a <= 1e280)
    a[~in_range] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, 16 - e, tables)
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    # the route mask; zeros keep the vector route, spelled as d = 0 at exponent 0
    vec = in_range & ((p - 1e16) + t >= 0) & (d < 10**17) & (0.5 - np.abs(t - r) >= _TIE)
    vec |= x == 0
    d[~in_range] = 0
    e += 400
    # digit groups: d = c0 c1 c2 c3 c4, of 1, 4, 4, 4 and 4 digits
    top = d // 10**8
    c3 = d - top * 10**8
    c0 = top // 10**8
    c2 = top - c0 * 10**8
    c1 = c2 // 10**4
    c2 -= c1 * 10**4
    c4 = c3 - c3 // 10**4 * 10**4
    c3 //= 10**4
    w = np.empty((x.size, 6), _U64LE)
    w[:, 0] = c0
    w[:, 0] <<= 48
    w[:, 0] |= _WORD0 + (ord("0") << 48)
    for j, c in enumerate((c1, c2, c3, c4), start=1):
        w[:, j] = quads[c]
    w[:, 5] = exp_words[e]
    w.reshape(rows, cols, 6)[:, :, 5] |= np.array([ord(" ") << 40] * (cols - 1) + [ord("\n") << 40], _U64LE)
    # trailing zeros of d: c0 > 0 unless d = 0, so at most 16, and a zero
    # keeps one digit
    tz = trailing[c4]
    zero = c4 == 0
    for c in (c3, c2, c1):
        tz += zero * trailing[c]
        zero &= c == 0
    w &= np.take(masks, keys[e] - 2 * tz + np.signbit(x), axis=0)
    if not vec.all():
        # the Python route: one string format for them all, each padded to
        # 24 characters, the most "%.17g" writes; the padding spaces become NULs
        idx = np.flatnonzero(~vec)
        text = ("%-24.17g" * idx.size % tuple(x[idx].tolist())).encode().translate(_SPACE_TO_NUL)
        words = np.zeros((idx.size, 6), _U64LE)
        words[:, :3] = np.frombuffer(text, _U64LE).reshape(-1, 3)
        words[:, 5] = w[idx, 5] & (255 << 40)  # the separator
        w[idx] = words
    return w.tobytes().translate(None, b"\0")
