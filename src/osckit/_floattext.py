"""Text of float64 arrays, byte for byte as ``float.__repr__`` writes it.

``float_text(values, seps)`` returns what joining ``float.__repr__`` of each
value would, but computes it with integer arithmetic on whole uint64
arrays, a fixed number of values at a time:

* The digits are the shortest decimal that rounds to the double, and of two
  such the closer, as David Gay's ``dtoa`` (mode 0) gives them to
  ``float.__repr__``.  They come from Schubfach (R. Giulietti, "The
  Schubfach way to render doubles", 2020), the algorithm behind Java's
  ``Double.toString``, without Java's two-digit minimum: a digit string one
  shorter is tried whatever the length, and every subnormal is taken as
  ``t 2^-1074``.
* The layout is ``repr``'s: positional notation when the decimal point
  falls within 4 places before and 16 after the first digit, else
  ``d.ddde+XX`` with at least two exponent digits, and ``.0`` on a
  positional integer.
* Each value's characters, and the separator before them, are built as
  little-endian uint64 words of one row of a fixed-width byte table; one
  boolean mask keeps each row's characters and compresses the table into
  the text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_text", "JSON_TOKENS", "REPR_TOKENS"]

# spellings of (nan, inf); -inf is "-" and the inf token
REPR_TOKENS = ("nan", "inf")
JSON_TOKENS = ("NaN", "Infinity")

CHUNK = 4096  # values per pass, so each temporary array is 32 kB

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)
_INF_BITS = _U64(0x7FF0000000000000)
_ONE_BITS = _U64(0x3FF0000000000000)
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) for q in [-1074, 971]


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| <= 122029."""
    return (e * 913_124_641_741) >> 38


def _word(text: str) -> int:
    """Up to 8 ASCII characters as a little-endian word."""
    return int.from_bytes(text.encode("ascii"), "little")


def _g_table() -> tuple[np.ndarray, ...]:
    """g1, and the high and low 32 bits of g1 and g0, of
    g = floor(10^-k 2^-r) + 1 = g1 2^63 + g0 in [2^125, 2^126), where
    r = floor(log2(10^-k)) - 125, for k in [_K_MIN, _K_MAX]."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g = (1 << -r) // 10 ** k + 1
        else:
            g = (10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*rows))


_G = _g_table()
_P10 = np.array([10 ** j for j in range(18)], dtype=np.uint64)
_P10_INT = _P10.astype(np.int64)

# 4-digit groups: the ASCII of "%04d", and the 1-based place of its last
# nonzero digit (-99 for 0000, so a zero group never sets the length)
_GROUP = np.arange(10_000)
_ASCII4 = sum((_GROUP // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << _U64(8 * j)
              for j in range(4))
_LAST4 = np.full(10_000, -99, dtype=np.int64)
for _j in range(4):
    _LAST4[_GROUP // 10 ** (3 - _j) % 10 != 0] = _j + 1

# The text of a value 0.d1..d17 10^decpt with n significant digits has one
# of 21 forms, set by decpt alone.  Forms 1..16 put the point after that
# many digits, 17..20 are values below 1, written "0." then form - 17 zeros
# before the digits, and form 0 is scientific: the point after one digit,
# none if n is 1, then the exponent.
_DECPT = np.arange(-323, 310)  # every decpt of a finite nonzero double
_FORM = np.select([_DECPT < -3, _DECPT <= 0, _DECPT <= 16], [0, 17 - _DECPT, _DECPT], 0)

# _BYTES[j] masks the first j bytes of a word, _KEEP[j] marks them as bools
_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)
_KEEP = _BYTES & _U64(0x0101010101010101)


def _form_tables() -> tuple[np.ndarray, ...]:
    """Per form: the masks of the digits kept in place in words 0 and 1,
    the shift in bits of the digits after them, and the characters written
    into the gap, as words 0..2."""
    rows = []
    for form in range(21):
        split = form if 1 <= form <= 16 else int(form == 0)
        gap = "0." + "0" * (form - 17) if form > 16 else "."
        fill = (_word(gap) << 8 * split).to_bytes(24, "little")
        rows.append((_BYTES[min(split, 8)], _BYTES[min(max(split - 8, 0), 8)], 8 * len(gap),
                     *(int.from_bytes(fill[8 * w:8 * w + 8], "little") for w in range(3))))
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*rows))


def _text_len(form: int, n: int) -> int:
    """Characters of a form with n significant digits, before any exponent."""
    if form == 0:
        return n + (n > 1)
    if form <= 16:
        return form + 1 + max(n - form, 1)
    return n + form - 15


_LOW0, _LOW1, _SHIFT, _FILL0, _FILL1, _FILL2 = _form_tables()
_TEXT_LEN = np.array([[_text_len(form, n) for n in range(18)]  # by 18 form + n
                      for form in range(21)]).reshape(-1)
# "e-324" .. "e+308", indexed by decpt + 323
_EXP = np.array([_word(f"e{x:+03d}") for x in range(-324, 309)], dtype=np.uint64)
_EXP_LEN = np.array([len(f"e{x:+03d}") for x in range(-324, 309)])

# A value's row of the byte table is words of 8 characters: the separator
# that precedes it, padded in front to whole words, then its text, at most
# 24 characters.  The characters kept are one run: the separator, then the
# first ``size`` characters of the text.
_TEXT_WORDS = 3
_ROW_WORD = np.dtype("<u8")  # the table's bytes are in text order on any host
_KEEP_TEXT = [_KEEP[np.clip(np.arange(8 * _TEXT_WORDS + 1) - 8 * w, 0, 8)]
              for w in range(_TEXT_WORDS)]


def _mul_high(ah, al, bh, bl):
    """High 64 bits of (ah 2^32 + al)(bh 2^32 + bl), for halves below 2^32
    with ah < 2^31 and bh < 2^28, so the middle sum stays below 2^64."""
    return ah * bh + (((al * bl) >> 32) + al * bh + ah * bl >> 32)


def _rop(g, cp):
    """Round to odd of g cp 2^-127 (Giulietti, figure 8), for cp < 2^60."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mul_high(g0h, g0l, ch, cl)
    return (_mul_high(g1h, g1l, ch, cl) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(mag):
    """Schubfach on positive finite nonzero doubles given as their bits:
    ``(f, e)`` with ``f 10^e`` the shortest decimal that rounds to each
    double, the closer of two, and ``f < 10^17``."""
    t = mag & _T_MASK
    bq = mag >> 52
    c = np.where(bq != 0, t | _C_MIN, t)
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    # at a power of two the gap below is half the gap above: k is
    # floor(log10(3/4 2^q)) there, else floor(log10(2^q)), both exact in
    # this fixed-point form for |q| <= 5456721
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)  # in [1, 5]
    g = [table.take(k - _K_MIN) for table in _G]
    # v and the ends of its rounding interval, 4 v 10^-k (rounded to odd)
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h) + (c & 1)  # an odd c excludes the ends
    vbr = _rop(g, (cb + 2) << h) - (c & 1)
    s = vb >> 2
    # one digit fewer: exactly one of s' 10^(k+1) and (s'+1) 10^(k+1) rounds to v
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    short = upin != ((sp10 + 10) << 2 <= vbr)
    # else s 10^k or (s+1) 10^k; of both, the closer, then the even one
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    closer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    pick_t = ~(uin & (~win | closer_s))
    return np.where(short, sp10 + ~upin * _U64(10), s + pick_t), k


def _text(x, tokens) -> tuple[np.ndarray, np.ndarray]:
    """The text of each value of ``x`` as little-endian words, shape (3, n),
    and its length in characters."""
    bits = x.view(np.uint64)
    neg = bits >> 63
    mag = bits & _M63
    regular = mag - 1 < _INF_BITS - 1  # finite and nonzero
    specials = not regular.all()
    f, e = _shortest(np.where(regular, mag, _ONE_BITS) if specials else mag)

    # the 17 digits of f 10^(17 - digits of f), as ASCII in words d0, d1, d2
    nd = np.searchsorted(_P10, f, side="right")
    f17 = f.astype(np.int64) * _P10_INT.take(17 - nd)
    first16 = f17 // 10
    last = f17 - first16 * 10
    hi = first16 // 10 ** 8
    lo = first16 - hi * 10 ** 8
    g1 = hi // 10 ** 4
    g3 = lo // 10 ** 4
    g2 = hi - g1 * 10 ** 4
    g4 = lo - g3 * 10 ** 4
    n = np.maximum(np.maximum(_LAST4.take(g1), _LAST4.take(g2) + 4),
                   np.maximum(_LAST4.take(g3) + 8, _LAST4.take(g4) + 12))
    n[last != 0] = 17  # significant digits
    d0 = _ASCII4.take(g1) | (_ASCII4.take(g2) << 32)
    d1 = _ASCII4.take(g3) | (_ASCII4.take(g4) << 32)
    d2 = last.astype(np.uint64) + 48

    # split the digits after the point (all of them, below 1), move them
    # up, and write "." (or "0.0..") into the gap
    at = e + nd + 323  # decpt + 323
    form = _FORM.take(at)
    low0, low1, shift = _LOW0.take(form), _LOW1.take(form), _SHIFT.take(form)
    up0, up1 = d0 & ~low0, d1 & ~low1
    back = 64 - shift
    text = np.empty((_TEXT_WORDS, len(x)), dtype=np.uint64)
    text[0] = (d0 & low0) | (up0 << shift) | _FILL0.take(form)
    text[1] = (d1 & low1) | (up1 << shift) | (up0 >> back) | _FILL1.take(form)
    text[2] = (d2 << shift) | (up1 >> back) | _FILL2.take(form)
    size = _TEXT_LEN.take(form * 18 + n)

    sci = np.flatnonzero(form == 0)
    if sci.size:
        # the exponent after the last digit, in place of the padding zeros
        end, exp, at = size[sci], _EXP.take(at[sci]), at[sci]
        word, bit = end // 8, (end % 8 * 8).astype(np.uint64)
        for w in range(_TEXT_WORDS):
            text[w, sci] &= _BYTES.take(np.clip(end - 8 * w, 0, 8))
        text[word, sci] |= exp << bit
        # what spills into the next word: exp >> (64 - bit), 0 for bit 0
        # (exp < 2^40), and nothing past the last word (end < 19)
        text[np.minimum(word + 1, _TEXT_WORDS - 1), sci] |= (exp >> 1) >> (63 - bit)
        size[sci] += _EXP_LEN.take(at)

    if specials:
        odd = np.flatnonzero(~regular)
        for sel, token in ((mag[odd] == 0, "0.0"), (mag[odd] == _INF_BITS, tokens[1]),
                           (mag[odd] > _INF_BITS, tokens[0])):
            text[:, odd[sel]] = np.array([[_word(token)], [0], [0]], dtype=np.uint64)
            size[odd[sel]] = len(token)
        neg[odd[mag[odd] > _INF_BITS]] = 0  # nan has no sign

    # the sign: every text one character up, and "-" in front
    carry = (text[:-1] >> 56) * neg
    text <<= neg << 3
    text[1:] |= carry
    text[0] |= neg * ord("-")
    return text, size + neg.view(np.int64)


def float_text(values, seps, tokens=REPR_TOKENS) -> str:
    """The values of a float64 array, in C order, as ``float.__repr__``
    writes them, with ``tokens`` spelling nan and inf (-inf is "-" and the
    inf token).  The value at flat position p is followed by
    ``seps[p % len(seps)]``, the last value by nothing, so one separator
    gives ``sep.join(map(float.__repr__, values))``.

    The separators are ASCII strings of one length; the tokens at most 8
    ASCII characters.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    raw = [sep.encode("ascii") for sep in seps]
    sep_len = len(raw[0])
    if any(len(r) != sep_len for r in raw):
        raise ValueError(f"separators differ in length: {seps!r}")
    if not flat.size:
        return ""
    # One table for all chunks.  A chunk is a whole number of separator
    # cycles, so the separator words, which end where the text begins, are
    # written once: value p follows separator (p - 1) % len(seps), and the
    # text drops the one before value 0.
    chunk = CHUNK - CHUNK % len(raw)
    count = min(chunk, flat.size)
    lead = -(-sep_len // 8)
    padded = b"".join(r.rjust(8 * lead, b"\0") for r in raw)
    rows = np.empty((count, lead + _TEXT_WORDS), dtype=_ROW_WORD)
    keep = np.empty_like(rows)
    rows[:, :lead] = np.frombuffer(padded, dtype=_ROW_WORD).reshape(len(raw), lead).take(
        (np.arange(count) - 1) % len(raw), axis=0)
    keep[:, :lead] = np.frombuffer((b"\1" * sep_len).rjust(8 * lead, b"\0"), dtype=_ROW_WORD)
    pieces = []
    for start in range(0, flat.size, chunk):
        x = flat[start:start + chunk]
        text, size = _text(x, tokens)
        part_rows, part_keep = rows[:len(x)], keep[:len(x)]
        part_rows[:, lead:] = text.T
        for w, table in enumerate(_KEEP_TEXT):
            part_keep[:, lead + w] = table.take(size)
        pieces.append(part_rows.view(np.uint8)[part_keep.view(bool)])
    return str(np.concatenate(pieces)[sep_len:].data, "ascii")
