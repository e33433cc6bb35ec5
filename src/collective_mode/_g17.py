"""CSV text of float64 columns, byte-identical to Python's ``'%.17g' % v``.

``csv_chunks(columns)`` prints a table a fixed number of rows at a time
with numpy array operations, instead of one correctly rounded dtoa call
per value, in the manner of Loitsch's Grisu (PLDI 2010): fast integer
arithmetic wherever its result is provably the correctly rounded one,
and '%.17g' itself (Gay's dtoa, the spec) everywhere else.

Digits.  With e = floor(log10|x|), the 17 significant digits of x are
D = round(|x| 10^(16-e)).  The product y is formed as p + y_lo: p =
fl(|x| hi) with its exact error from Dekker's two-product, plus |x| lo,
where hi = fl(10^k) and lo = fl(10^k - hi) come from exact integer
arithmetic, so hi + lo is 10^k to about 2^-106.  With y < 1e17 the error
of p + y_lo is below 1e17 * 2^-105 + 16 * 2^-53 < 1e-14.  A value is
printed from D only where 1e-280 < |x| < 1e280, so nothing overflows or
underflows; where y_lo is more than _TIE_MARGIN from a rounding tie, so
the rounding is the correct one; and where 1e16 < D < 1e17, so e was
the right exponent and the rounding did not carry into the next decade.
Zeros, infinities and nan have fixed texts.  The rest, at most two
values in 10^4 of the benchmark's tables, go through '%.17g'.

Layout.  '%.17g' writes fixed notation for exponents -4..16 and
d.ddde+XX otherwise, with trailing zeros and a bare point removed.
Each value gets a 32-byte row: seven '0' bytes and the 17 digits, split
at a per-value point position, then the sign, the exponent suffix and
the separator at per-value columns.  One boolean mask over the chunk
keeps each value's bytes, in order.
"""

import functools

import numpy as np

CHUNK_ROWS = 2048                    # table rows per formatting pass
_TIE_MARGIN = 1e-9                   # far above the 1e-14 error of y
_SPLIT = 134217729.0                 # 2^27 + 1: Dekker's splitting constant
_WIDTH = 32                          # bytes per value row; 24 + suffix + separator
_COLS = np.arange(_WIDTH)
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")
# text of 0, inf, nan at row columns 7..9, and its length
_SPECIAL = np.frombuffer(b"0\0\0infnan", dtype=np.uint8).reshape(3, 3)
_SPECIAL_LEN = np.array([1, 3, 3])


def _row_words(table, true_byte):
    """Boolean [..., column] table as bytes (true_byte or 0) in uint64
    words, so a per-row lookup takes four words."""
    rows = np.where(table, true_byte, 0).astype(np.uint8)
    return rows.view(np.uint64).reshape(-1, _WIDTH // 8)


# [p]: 0xFF in the columns before p, a blend mask
_BEFORE = _row_words(_COLS < _COLS[:, None], 0xFF)
# [first * 32 + end]: True in columns first..end, a value's text and separator
_KEEP = _row_words((_COLS >= _COLS[:, None, None]) & (_COLS <= _COLS[:, None]), 1)
_GROUP = np.arange(10000)[:, None]
_PLACES = np.array([1000, 100, 10, 1])
# ASCII text of 0000..9999, one uint32 word each, its bytes in text order
_WORDS = (_GROUP // _PLACES % 10 + _ZERO).astype(np.uint8).view(np.uint32).ravel()
# trailing decimal zeros of 0000..9999 (4 for 0000)
_TRAILING = (_GROUP % (10 * _PLACES) == 0).sum(axis=1)


def _split(x):
    """Dekker's split of x into a head and tail of 26 bits each."""
    t = _SPLIT * x
    head = t - (t - x)
    return head, x - head


@functools.cache
def _pow10(k):
    """(hi, lo, head, tail): hi = fl(10^k), lo = fl(10^k - hi) from exact
    integers, and hi split into head + tail."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        den = 10**-k
        hi = 1 / den                             # int / int rounds correctly
        num, two_pow = hi.as_integer_ratio()
        lo = (two_pow - num * den) / (two_pow * den)
    return (hi, lo) + _split(hi)


def _digits(a):
    """(exponent e, 17-digit integer D, provable) of positive a in range."""
    e = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - e
    k0 = int(k.min())
    table = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)])
    k -= k0
    hi, lo, bh, bl = (np.take(col, k) for col in table.T)
    p = a * hi
    ah, al = _split(a)
    y_lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    rounded = np.floor(y_lo + 0.5)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    provable = ((np.abs(y_lo - rounded) < 0.5 - _TIE_MARGIN)
                & (digits > 10**16) & (digits < 10**17))
    return e, digits, provable


def csv_chunks(columns):
    """Yield the CSV text of equal-length float64 columns, CHUNK_ROWS table
    rows at a time, as uint8 arrays: each value as '%.17g' % value prints
    it, comma-separated, one LF-terminated line per row.  The work arrays
    are allocated once and reused for every chunk."""
    size = CHUNK_ROWS * len(columns)
    work = (np.empty(size * _WIDTH + 8, dtype=np.uint8),
            *(np.empty((size, _WIDTH // 8), dtype=np.uint64) for _ in range(3)))
    for i in range(0, len(columns[0]), CHUNK_ROWS):
        block = np.column_stack([c[i:i + CHUNK_ROWS] for c in columns])
        yield _format(block, *work)


def _format(block, raw, back, blend, mask):
    """CSV bytes of one (rows, columns) block, formed in the work arrays."""
    values = block.reshape(-1)
    m = values.size
    mag = np.abs(values)
    in_range = (mag > 1e-280) & (mag < 1e280)
    e, digits, fast = _digits(np.where(in_range, mag, 1.0))
    fast &= in_range

    # Z: seven '0' bytes, then the 17 digits, as row bytes 0..23 of `here`
    upper = digits // 10**8                      # floor division by a scalar is
    lower = digits - upper * 10**8               # vectorised; % is not
    lead = upper // 10**8
    g1 = (upper - lead * 10**8) // 10**4
    g2 = upper - lead * 10**8 - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    here = raw[8:8 + m * _WIDTH]
    buf = here.view(np.uint32).reshape(m, _WIDTH // 4)
    buf[:, 0] = _WORDS[0]
    for j, g in enumerate((lead, g1, g2, g3, g4), start=1):
        buf[:, j] = _WORDS[g]
    tz = _TRAILING[g4]                           # trailing zeros of the digits
    at = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        tz[at] += _TRAILING[g[at]]
        at = at[g[at] == 0]

    sci = (e < -4) | (e > 16)
    point_exp = np.where(sci, 0, e)
    point = 8 + point_exp                        # Z index the point precedes
    start = 7 + np.minimum(point_exp, 0)
    last = 23 - tz                               # Z index of the last nonzero digit
    end = np.where(last < point, point, last + 2)
    # row column c holds Z[c] before the point and Z[c - 1] after it:
    # text = back ^ ((here ^ back) & before), in 8-byte words
    back, blend, mask = back[:m], blend[:m], mask[:m]
    back.view(np.uint8).reshape(-1)[:] = raw[7:7 + m * _WIDTH]
    np.bitwise_xor(here.view(np.uint64).reshape(m, -1), back, out=blend)
    blend &= np.take(_BEFORE, point, axis=0, out=mask)
    blend ^= back
    flat = blend.view(np.uint8).reshape(-1)
    text = flat.reshape(m, _WIDTH)
    row0 = np.arange(0, m * _WIDTH, _WIDTH)
    flat[row0 + point] = _DOT

    at = np.flatnonzero(sci & fast)
    if at.size:
        exp = e[at]
        mag_e = np.abs(exp)
        wide = mag_e >= 100
        h, t, u = mag_e // 100, mag_e // 10 % 10, mag_e % 10
        suffix = np.stack([np.full_like(exp, ord("e")),
                           np.where(exp < 0, _MINUS, ord("+")),
                           np.where(wide, h, t) + _ZERO,
                           np.where(wide, t, u) + _ZERO,
                           u + _ZERO], axis=1)
        text[at[:, None], end[at, None] + np.arange(5)] = suffix
        end[at] += 4 + wide

    special = (mag == 0) | ~np.isfinite(mag)
    at = np.flatnonzero(special)
    if at.size:
        kind = np.where(mag[at] == 0, 0, np.where(np.isnan(mag[at]), 2, 1))
        text[at, 7:10] = _SPECIAL[kind]
        start[at] = 7
        end[at] = 7 + _SPECIAL_LEN[kind]
    neg = np.signbit(values) & ~np.isnan(values)

    for i in np.flatnonzero(~fast & ~special):
        s = b"%.17g" % values[i]
        text[i, 4:4 + len(s)] = np.frombuffer(s, dtype=np.uint8)
        start[i], end[i], neg[i] = 4, 4 + len(s), False

    flat[row0 + start - 1] = _MINUS
    sep = np.full(block.shape, ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    flat[row0 + end] = sep.reshape(-1)
    np.take(_KEEP, (start - neg) * _WIDTH + end, axis=0, out=mask)
    return flat[mask.view(bool).reshape(-1)]
