"""Rows of floats as the text "%.17g" gives them, formatted in numpy.

write_rows writes, byte for byte, what Python's "%.17g" writes for every
value of a file's blocks, space separated, one line per row: the text
np.savetxt(..., fmt="%.17g") writes. The module is imported at the first
CSV write, so commands that write no CSV never compile it.

write_rows cuts each block into parts of at most _PART values plus one
row and formats every part of the file in scratch it allocates once,
about 280 bytes per value, each numpy step writing into it with out=; a
part allocates only its text, 1024 values at a time. Allocated and freed
anew for each 4096-value part, the scratch was about 1 MB of
temporaries, and glibc handed such blocks back to the kernel at every
free, to be faulted in again by the next part: one 580k-row dynamics
record took 115k-146k minor page faults, and under 500 with the scratch
allocated once and the text sliced.

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
_LEAD, _EXP = 10000, 10010  # offsets of word 0 and word 5 in _tables' word table
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
    """Lookup tables of _rows, built at the first call and never written."""
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
    # one table of every word: the 4-digit groups at [0, 10000), word 0 by
    # its first digit at _LEAD, word 5 with a space after it at _EXP and
    # with a newline after it 800 further on
    lead = (_WORD0 + (ord("0") << 48)) | np.arange(10, dtype=np.uint64) << 48
    words = np.concatenate([quads, lead, exp_words | ord(" ") << 40, exp_words | ord("\n") << 40])
    # the rows of scale: hi, its head and tail by Veltkamp's split, lo
    tables = (np.array([hi, *_split(hi), lo]), words.astype(_U64LE), trailing.astype(np.int8), keys,
              masks.reshape(-1, 48).view(_U64LE))
    for table in tables:
        table.flags.writeable = False
    return tables


# The scratch of _rows, per value: eight floats, eight int64, four int8, four
# bools, and six index, six word and six mask words
_SCRATCH = ((8, np.float64), (8, np.int64), (4, np.int8), (4, np.bool_),
            (6, np.int64), (6, _U64LE), (6, _U64LE))
_PART = 4096  # values per formatting pass, plus up to one row; bounds the memory held at once
_SLICE = 1024  # values per tobytes and translate: 48 KB of layout


def write_rows(fh, blocks) -> None:
    """Write each (rows, cols) block to fh as "%.17g" rows; every block has the same cols.

    The scratch is allocated once, for _PART values plus one row, the most
    a part of np.array_split holds; only the text of a part is new.
    """
    buffers = None
    for block in blocks:
        x = np.asarray(block, dtype=float)
        if buffers is None:
            size = _PART + x.shape[1]
            buffers = [np.empty(width * size, dtype) for width, dtype in _SCRATCH]
        for part in np.array_split(x, max(1, -(-x.size // _PART))):
            fh.write(_rows(part, buffers))


def _rows(x, buffers) -> bytes:
    """The bytes of a (rows, cols) part at "%.17g", every numpy step writing into buffers."""
    scale, words, trailing, keys, masks = _tables()
    rows, cols = x.shape
    x = x.reshape(-1)
    n = x.size
    floats, ints, tz4, bools, *layouts = [buf[:width * n].reshape(width, n)
                                          for buf, (width, _) in zip(buffers, _SCRATCH)]
    a, p, t, g, hi, hi_head, hi_tail, lo = floats
    d, q, e, k, c1, c2, c3, c4 = ints
    in_range, out, vec, b = bools
    index, w, m = (v.reshape(n, 6) for v in layouts)
    # one vector pass over every value, the out of range ones scaled as 1.0
    np.abs(x, out=a)
    np.greater_equal(a, 1e-280, out=in_range)
    in_range &= np.less_equal(a, 1e280, out=b)
    np.logical_not(in_range, out=out)
    np.copyto(a, 1.0, where=out)
    np.floor(np.log10(a, out=t), out=t)
    np.copyto(e, t, casting="unsafe")
    # p = fl(a 10^k) and t, the rest of a 10^k to about 1e-14, at
    # k = 16 - e: 10^k = hi + lo, and a = head + tail by Veltkamp's split
    np.subtract(16 - _K0, e, out=q)
    np.take(scale, q, axis=1, out=floats[4:], mode="clip")
    np.multiply(a, hi, out=p)
    head, tail = hi, g
    np.multiply(a, _SPLIT, out=head)
    np.subtract(head, np.subtract(head, a, out=tail), out=head)
    np.subtract(a, head, out=tail)
    np.multiply(head, hi_head, out=t)
    t -= p
    t += np.multiply(head, hi_tail, out=head)
    t += np.multiply(tail, hi_head, out=head)
    t += np.multiply(tail, hi_tail, out=head)
    t += np.multiply(a, lo, out=head)
    r = np.rint(t, out=hi_head)
    np.copyto(d, p, casting="unsafe")
    np.copyto(q, r, casting="unsafe")
    d += q
    # the route mask; zeros keep the vector route, spelled as d = 0 at exponent 0
    np.subtract(p, 1e16, out=g)
    np.greater_equal(np.add(g, t, out=g), 0, out=vec)
    vec &= in_range
    vec &= np.less(d, 10**17, out=b)
    np.subtract(0.5, np.abs(np.subtract(t, r, out=g), out=g), out=g)
    vec &= np.greater_equal(g, _TIE, out=b)
    vec |= np.equal(x, 0, out=b)
    np.copyto(d, 0, where=out)
    e += 400
    # digit groups: d = c0 c1 c2 c3 c4, of 1, 4, 4, 4 and 4 digits; a
    # value's six words are gathered from the word table at the six
    # indices of its row of index (a d of 10^17, c0 = 10, goes to Python)
    np.floor_divide(d, 10**8, out=q)
    d -= np.multiply(q, 10**8, out=c1)
    np.floor_divide(q, 10**8, out=k)
    q -= np.multiply(k, 10**8, out=c1)
    np.add(k, _LEAD, out=index[:, 0])
    np.floor_divide(q, 10**4, out=c1)
    np.subtract(q, np.multiply(c1, 10**4, out=c2), out=c2)
    np.floor_divide(d, 10**4, out=c3)
    np.subtract(d, np.multiply(c3, 10**4, out=c4), out=c4)
    np.copyto(index[:, 1:5], ints[4:].T)
    np.add(e, _EXP, out=index[:, 5])
    index.reshape(rows, cols, 6)[:, -1, 5] += 800  # a newline after the last column
    np.take(words, index, out=w, mode="clip")
    # trailing zeros of d: c0 > 0 unless d = 0, so at most 16, and a zero
    # keeps one digit
    tz = np.take(trailing, ints[4:], out=tz4, mode="clip")[0]
    for c in tz4[1:]:
        tz *= np.equal(c, 4, out=b)
        tz += c
    np.take(keys, e, out=k, mode="clip")
    k -= np.multiply(tz, 2, out=tz)
    k += np.signbit(x, out=b)
    w &= np.take(masks, k, axis=0, out=m, mode="clip")
    if not vec.all():
        # the Python route: one string format for them all, each padded to
        # 24 characters, the most "%.17g" writes; the padding spaces become NULs
        idx = np.flatnonzero(np.logical_not(vec, out=b))
        text = ("%-24.17g" * idx.size % tuple(x[idx].tolist())).encode().translate(_SPACE_TO_NUL)
        spelled = np.zeros((idx.size, 6), _U64LE)
        spelled[:, :3] = np.frombuffer(text, _U64LE).reshape(-1, 3)
        spelled[:, 5] = w[idx, 5] & (255 << 40)  # the separator
        w[idx] = spelled
    # the NULs are dropped a slice at a time, so that no allocation of a
    # 4096-value part reaches 128 KB, where glibc maps fresh pages or
    # hands freed ones back: translating the part's whole 197 KB layout
    # at once cost a dynamics record 24k minor faults
    return b"".join([w[i:i + _SLICE].tobytes().translate(None, b"\0") for i in range(0, n, _SLICE)])
