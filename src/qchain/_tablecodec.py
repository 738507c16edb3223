"""Array kernels for the sample-table cells: ``'%.17g' % x`` and ``float(cell)``.

Formatting works on chunks of at most ``_CHUNK`` cells and parsing on
chunks of about ``_TEXT_CHUNK`` characters, cut at row ends, so neither
copies a whole table or its text.  A double x is
m * 2**e exactly, and 10**k is held as a double-double (hi + lo) * 2**b that
integer arithmetic makes correct to 2**-105, so a product of the two carries
an error far below the rounding step it has to decide.  Each kernel checks
that margin per cell and leaves a cell it cannot certify, or whose text it
does not recognise, to the per-cell Python call.  A row ends at '\\n', and
every chunk of rows goes through the kernel.  The text and the bits are
therefore those of ``'%.17g' % x`` and ``float(cell)``; the kernels only
make them faster.  numpy has no fused multiply-add, so exact products
use Dekker's splitting.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_CHUNK = 1 << 14  # cells per chunk: keeps every temporary array small
_KMIN, _KMAX = -350, 350  # 10**k table; formatting needs -293..341, parsing -343..308
_P10 = 10 ** np.arange(19, dtype=np.int64)
_K = 24  # widest mantissa, in digits, the reader takes


@functools.cache
def _pow10():
    """(hi, hi_head, hi_tail, lo, b) for k in [_KMIN, _KMAX]: 10**k = (hi + lo) * 2**b.

    hi is in [1, 2); hi + lo is 10**k / 2**b rounded to 106 bits, so its
    relative error is below 2**-106.  hi_head + hi_tail is hi split for
    Dekker's product.
    """
    hi, lo, b = [], [], []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            v = 10**k
            e = v.bit_length() - 1
            m = v << (105 - e) if e <= 105 else (v + (1 << (e - 106))) >> (e - 105)
        else:
            den = 10**-k
            e = -den.bit_length()
            m = ((1 << (106 - e)) + den) // (2 * den)
        hi.append((m >> 53) / 2.0**52)
        lo.append((m & ((1 << 53) - 1)) / 2.0**105)
        b.append(e)
    hi = np.array(hi)
    head, tail = _split(hi)
    return hi, head, tail, np.array(lo), np.array(b, dtype=np.int64)


def _split(a):
    c = 134217729.0 * a  # (2**27 + 1) * a
    head = c - (c - a)
    return head, a - head


def _times_pow10(x, k, tail=0.0):
    """(x + tail) * 10**k as (p + c) * 2**b with p = fl(x * hi); 0 <= x < 2**64,
    |tail| <= ulp(x) / 2."""
    hi, hh, hl, lo, b = (t[k - _KMIN] for t in _pow10())
    p = x * hi
    xh, xl = _split(x)
    pe = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl  # x * hi - p, exactly
    return p, pe + x * lo + tail * hi, b


# ---------------------------------------------------------------- formatting


@functools.cache
def _words():
    """Lookup tables of 4-byte words: digit groups, sign, dot and exponent."""
    v = np.arange(10000)
    digits = (np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
              + 48).astype(np.uint8)
    zero = digits == 48
    leading = np.cumprod(zero, axis=1).astype(bool)
    trailing = np.cumprod(zero[:, ::-1], axis=1)[:, ::-1].astype(bool)
    lead = np.where(leading, 0, digits).astype(np.uint8)
    units = lead.copy()
    units[0, 3] = 48  # an integer part of 0 still shows its units digit
    trail = np.where(trailing, 0, digits).astype(np.uint8)
    # variant * 10000 + group: 0 all four digits, 1 leading zeros dropped,
    # 2 the same but 0 prints as "0", 3 trailing zeros dropped
    groups = np.stack([digits, lead, units, trail]).view(np.uint32).ravel()

    def words(texts, width):
        raw = b"".join(t.encode().ljust(width, b"\0") for t in texts)
        return np.frombuffer(raw, np.uint32).reshape(len(texts), -1)

    sign_top = words([s + "\0\0" + (str(t) if t else "\0") for s in ("\0", "-")
                      for t in range(10)], 4)[:, 0]
    dot = words(["", "."], 4)[:, 0]
    exponent = words(["e%+03d" % e for e in range(_KMIN, _KMAX + 1)], 8).T.copy()
    return groups, sign_top, dot, exponent


def _digits(a):
    """a > 0 finite -> (D, E, ok): 10**16 <= D < 10**17 and D * 10**(E - 16) is a
    rounded half-even to 17 significant digits wherever ``ok``."""
    m, e2 = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.int64)
    p, c, b = _times_pow10(m, 16 - E)
    scale = ((e2 + b + 1023) << 52).view(np.float64)  # 2.0**(e2 + b), about 2**55
    P1, P2 = p * scale, c * scale  # a * 10**(16 - E) = P1 + P2, P1 an integer
    # log10 can be one off next to a power of ten; such a cell falls outside
    # [10**16, 10**17).  P2 may exceed half a step of P1: compare the sum.
    inside = ((P1 - 1e16) + P2 >= 0) & ((P1 - 1e17) + P2 < 0)
    floor = np.floor(P2)
    frac = P2 - floor
    # the error in P1 + P2 is below 2**-45; a fraction this near 1/2 (ties
    # such as 1000000000000000.25 among them) is left to Python
    ok = inside & (np.abs(frac - 0.5) > 2.0**-30)
    D = P1.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    D = np.where(ok, D, 10**16)
    carry = D == 10**17
    return np.where(carry, 10**16, D), E + carry, ok


def _format_chunk(x, sep):
    """Text of the finite cells x, each followed by its separator byte."""
    groups, sign_top, dot, exponent = _words()
    a = np.abs(x)
    nonzero = a > 0
    D, E, ok = _digits(np.where(nonzero, a, 1.0))
    D = np.where(nonzero, D, 0)
    E = np.where(nonzero, E, 0)
    expo = (E < -4) | (E > 16)  # '%g' switches to d.ddde+XX here
    e = np.where(expo, 0, E)  # place of the first digit in the fixed part
    j = np.maximum(e, 0)
    k = np.maximum(-e, 0)  # zeros between the point and the first digit
    unit = _P10[16 - j]
    I = np.where(e < 0, 0, D // unit)  # integer part
    F = D - I * unit
    H = F // _P10[k] * _P10[j]  # first 16 fraction digits
    L = F % _P10[k] * _P10[4 - k]  # the 4 after them, used only when e < 0

    # one 4-byte word per column, NUL where a character is absent; a column
    # no cell of the chunk uses is left out
    big = I >= 10**4
    words = [sign_top[np.signbit(x) * 10 + I // 10**16]]
    if big.any():
        rest = I % 10**16
        words += [groups[np.where(I >= div * 10**4, 0, 1) * 10**4 + rest // div % 10**4]
                  for div in (10**12, 10**8, 10**4)]
    words.append(groups[np.where(big, 0, 2) * 10**4 + I % 10**4])
    fraction = [groups[30000 + L]] if L.any() else []
    later = L > 0  # a nonzero digit follows the group
    for div in (1, 10**4, 10**8, 10**12):
        g = H // div % 10**4
        fraction.append(groups[np.where(later, 0, 3) * 10**4 + g])
        later |= g > 0
    words.append(dot[later.view(np.uint8)])
    words += fraction[::-1]
    if expo.any():
        words += [np.where(expo, part[E - _KMIN], 0) for part in exponent]
    words.append(sep.astype(np.uint32))
    buf = np.stack(words, axis=1).view(np.uint8)
    for i in np.flatnonzero(~ok & nonzero):
        text = ("%.17g" % x[i]).encode()
        buf[i, :-4] = 0
        buf[i, :len(text)] = np.frombuffer(text, np.uint8)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(header: str, *columns: np.ndarray) -> str:
    """``header``, then ``'%.17g' % x`` for every cell of the finite table
    ``np.column_stack(columns)``, ',' between the cells of a row and '\\n' after
    each row.  The table is stacked one chunk of rows at a time."""
    rows = len(columns[0])
    cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    step = max(1, _CHUNK // cols)
    sep = np.full(cols, ord(","), np.uint8)
    sep[-1] = ord("\n")
    parts = [header]
    with np.errstate(all="ignore"):  # lanes of zeros and of uncertified cells
        for r in range(0, rows, step):
            chunk = np.column_stack([c[r:r + step] for c in columns]).astype(float, copy=False)
            parts.append(_format_chunk(chunk.ravel(), np.tile(sep, len(chunk))))
    return "".join(parts)


# ------------------------------------------------------------------- parsing


_ZEROS = np.uint64(0x3030303030303030)
# characters per chunk of text, about 10k cells of '%.17g'.  Chunks twice as
# large were slower after a dump in the same process: glibc returned each
# chunk's temporaries to the system, and the next chunk faulted them in again.
_TEXT_CHUNK = 12 * _CHUNK


@functools.cache
def _masks():
    """Row n * 25 + t: three little-endian words that keep, of a 24-byte window
    ending where a mantissa of n bytes ends, its digits: the point t bytes
    before the end (t = 0: none) and everything before the mantissa read 0."""
    column = np.arange(_K)
    n = np.arange(_K + 1)[:, None, None]
    t = np.arange(_K + 1)[None, :, None]
    keep = (column >= _K - n) & (column != _K - t)
    return np.where(keep, 255, 0).astype(np.uint8).reshape(-1, _K).view("<u8")


def _eight_digits(w):
    """Value of eight digit bytes 0..9 in a little-endian word, first byte most significant."""
    w = (w * np.uint64(10 * 256 + 1)) >> np.uint64(8)
    w = ((w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 * 2**16 + 1)) >> np.uint64(16)
    return ((w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 * 2**32 + 1)) >> np.uint64(32)


def parse_rows(text: str, start: int, n_rows: int, cols: int) -> np.ndarray:
    """``float`` of every cell of the rows of ``text[start:]``: each row ends
    at a '\\n' (the last may lack it) and has ``cols`` cells split by ','.

    Raises ``ValueError`` if there are not ``n_rows`` rows, and otherwise the
    one a row-by-row ``float`` loop raises first: a row's column count before
    its cells, rows in order.  The text is read one chunk at a time, so beyond
    the text and the table only chunk-sized arrays are alive.
    """
    found = text.count("\n", start) + (start < len(text) and text[-1] != "\n")
    if found != n_rows:
        raise ValueError(f"expected {n_rows} rows, found {found}")
    # a valid row has at least 2 * cols characters, so a table that the text
    # cannot fill is invalid; its rows past the text's capacity are parsed,
    # and not stored, only to find the error
    table = np.empty((min(n_rows, (len(text) - start + 1) // (2 * cols)), cols))
    row = 0
    with np.errstate(all="ignore"):  # lanes of cells left to float()
        while start < len(text):
            # a chunk ends just after a '\n'; only the last may need one appended
            end = text.find("\n", start + _TEXT_CHUNK) + 1 or len(text)
            data = text[start:end].encode("utf-8", "surrogatepass")
            start = end
            a = np.frombuffer(data if data.endswith(b"\n") else data + b"\n", np.uint8)
            values = _parse_chunk(a, cols, row)
            if row + len(values) <= len(table):
                table[row:row + len(values)] = values
            row += len(values)
    return table


def _parse_chunk(a, cols, first):
    """Values of the '\\n'-ended rows of the bytes ``a`` as rows of ``cols``
    cells; ``first`` is the index of their first row.

    A row with another cell count raises, after the rows before it are
    parsed so that a bad cell there is raised first.
    """
    marks = np.flatnonzero((a - 48) > 9)  # every byte that is not a digit
    ch = a[marks]
    is_sep = (ch == 44) | (ch == 10)
    seps = np.flatnonzero(is_sep)
    counts = np.diff(np.flatnonzero(ch[seps] == 10), prepend=-1)  # cells per row
    wrong = np.flatnonzero(counts != cols)
    n = wrong[0] * cols if wrong.size else seps.size  # cells of the rows before it
    if n:
        other = np.flatnonzero(~is_sep)
        cell = other - np.arange(other.size)  # separators before each mark
        other = other[:np.searchsorted(cell, n)]  # the marks of those cells
        values = _parse_cells(a, marks[seps[:n]], marks[other], ch[other], cell[:other.size])
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"row {first + i + 1}: expected {cols} columns, got {counts[i]}")
    return values.reshape(-1, cols)


def _parse_cells(a, ends, pos, ch, cell):
    """Values of the cells ending at the separators ``ends``.

    ``pos``, ``ch`` and ``cell`` give the position, byte and cell of every
    other non-digit.  The fast path takes ``-?d+(.d+)?(e[+-]d+)?`` with at
    most three exponent digits and a mantissa of at most 19 digits once its
    leading zeros are dropped, the point counted as one.
    """
    n = ends.size
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    prev = a[pos - 1]  # a[-1] is the final '\n', a separator
    after = a[pos + 1]  # never past the end: the text ends in '\n'
    digit_before = (prev - 48) < 10
    digit_after = (after - 48) < 10
    is_dot = ch == 46
    is_e = ch == 101
    exp_sign = ((ch == 45) | (ch == 43)) & (prev == 101) & digit_after
    valid = (exp_sign | (is_dot & digit_before & digit_after)
             | ((ch == 45) & ((prev == 44) | (prev == 10)) & digit_after)
             | (is_e & digit_before & ((after == 43) | (after == 45))))
    # in a cell the marks come in the order '-', '.', 'e', exponent sign
    rank = is_dot + 2 * is_e + 3 * exp_sign
    same = cell[1:] == cell[:-1]
    bad = np.zeros(n, bool)
    bad[cell[~valid]] = True
    bad[cell[1:][same & (rank[1:] <= rank[:-1])]] = True

    mend = ends.copy()  # end of the mantissa
    e = np.flatnonzero(is_e)
    mend[cell[e]] = pos[e]
    neg = a[starts] == 45
    length = mend - starts - neg
    dot = np.flatnonzero(is_dot)
    point = np.zeros(n, np.int64)  # bytes from the point to the mantissa end
    point[cell[dot]] = mend[cell[dot]] - pos[dot]
    expo = np.zeros(n, np.int64)
    end = ends[cell[e]]
    value = np.zeros(e.size, np.int64)
    for i in range(3):  # up to three exponent digits, right to left
        d = a[np.maximum(end - 1 - i, 0)].astype(np.int64) - 48
        value += np.where(end - pos[e] - 2 > i, d, 0) * 10**i
    expo[cell[e]] = np.where(after[e] == 45, -value, value)
    # a window must not start before the chunk's text: its first cell or two go to Python
    bad |= (ends - mend > 5) | (length < 1) | (length > _K) | (mend < _K)

    good = np.flatnonzero(~bad)
    result = np.empty(n)
    if good.size:
        mend, length, point, neg = mend[good], length[good], point[good], neg[good]
        # the mantissa right-aligned in 24 bytes; its point reads as a 0 digit
        window = sliding_window_view(a, _K)[mend - _K].view("<u8")
        high, mid, low = _eight_digits((window ^ _ZEROS) & _masks()[length * (_K + 1) + point]).T
        X = high * np.uint64(10**16) + mid * np.uint64(10**8) + low
        f = np.maximum(point - 1, 0)  # fraction digits
        F = X % _P10[np.minimum(f, 18)].astype(np.uint64)
        M = np.where(point > 0, (X - F) // np.uint64(10) + F, X)
        q = expo[good] - f
        Mh = M.astype(np.float64)
        Ml = (M - Mh.astype(np.uint64)).view(np.int64).astype(np.float64)  # M = Mh + Ml
        k = np.clip(q, _KMIN, _KMAX)
        p, c, b = _times_pow10(Mh, k, Ml)
        r = p + c
        d = (p - r) + c  # exact value minus r, to within 2**-100 r
        bits = r.view(np.int64)
        ulp = (((bits >> 52) - 52) << 52).view(np.float64)
        # below a power of two the gap to the next double halves: leave it to Python
        below = (d < 0) & ((bits & ((1 << 52) - 1)) == 0)
        biased = (bits >> 52) + b
        zero = M == 0
        ok = zero | ((np.abs(d) < ulp * (0.5 - 2.0**-20)) & ~below & (q == k)
                     & (high < 1000) & (f <= 18)  # X < 10**19, and _P10 reaches f
                     & (biased >= 1) & (biased <= 2046))  # normal, finite result
        bits = np.where(zero, 0, bits + (b << 52)) | (neg.astype(np.int64) << 63)
        result[good] = bits.view(np.float64)
        bad[good[~ok]] = True
    for i in np.flatnonzero(bad):  # in cell order, so the first error is the first bad cell
        result[i] = float(a[starts[i]:ends[i]].tobytes().decode("utf-8", "surrogatepass"))
    return result
