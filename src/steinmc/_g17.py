"""``'%.17g' % v`` for every float of an array, byte for byte, from numpy
arithmetic: the route ``steinmc.cli.csv_blocks`` takes for large blocks.

:func:`g17_rows` writes each value as 4-byte words, NUL in every unused byte,
and deletes the NULs at the end: one to four words of integer digits (as
many as the block's largest value needs with the first byte left for the
sign), the point and the zeros after it, the first fraction digit, four words
of the other 16, and the separator.  Each word is the ``_WORDS`` entry at an
offset plus a 4-digit group: the group as it is (0), with its leading zeros
NUL (``_LEAD``; ``_LEAD1`` keeps its last digit) or with its trailing zeros
NUL (``_TRAIL``); or the point word of decimal exponent E at
``_POINT + 4 + E``, for -4 <= E <= 14; or a separator.
"""

import numpy as np

_LEAD, _LEAD1, _TRAIL, _POINT = 10_000, 20_000, 30_000, 40_000
_COMMA, _NEWLINE = _POINT + 19, _POINT + 20


def _word_table() -> np.ndarray:
    def words(chars):
        return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()

    group = np.arange(10_000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    chars = (group // place % 10 + ord("0")).astype(np.uint8)
    leading = group < place  # the zeros before the first nonzero digit
    trailing = group % (10 * place) == 0  # the zeros after the last one
    return np.concatenate([
        words(chars),
        words(np.where(leading, 0, chars)),
        words(np.where(leading & (place > 1), 0, chars)),
        words(np.where(trailing, 0, chars)),
        words([list(("." + "0" * (-e - 1)).ljust(4, "\0").encode()) for e in range(-4, 15)]),
        words([list(b",\0\0\0"), list(b"\n\0\0\0")]),
    ])


_WORDS = _word_table()
_POW10 = np.array([float(10**k) for k in range(21)])  # exact as doubles
_INT_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _halves(x: np.ndarray):
    """Veltkamp's split of x into a high and a low half of 26 bits each."""
    c = 134217729.0 * x  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _digits17(flat: np.ndarray):
    """(D, E, exact) for each float v: E the decimal exponent of |v| and D the
    17 digits of |v| * 10**(16 - E) rounded half to even, both correct where
    ``exact``: 1e-4 <= |v| < 1e15 and E, estimated from log10, is confirmed
    by 1e16 <= |v| * 10**(16 - E) and D < 1e17."""
    mag = np.abs(flat)
    exact = (mag >= 1e-4) & (mag < 1e15)
    mag[~exact] = 1.0  # no nan, inf or subnormal enters the arithmetic
    exp10 = np.clip(np.floor(np.log10(mag)), -4, 14).astype(np.intp)
    # Dekker's product: mag * 10**shift = p + err exactly.  From 1e16 on p is
    # an even integer, so D = p + rint(err)
    shift = 16 - exp10
    p = mag * _POW10[shift]
    mag_high, mag_low = _halves(mag)
    err = mag_high * _POW10_HIGH[shift] - p
    err += mag_low * _POW10_HIGH[shift]
    err += mag_high * _POW10_LOW[shift]
    err += mag_low * _POW10_LOW[shift]
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    exact &= (p > 1e16) | ((p == 1e16) & (err >= 0))
    exact &= digits < 10**17
    return digits, exp10, exact


def _g17_words(flat: np.ndarray, k: int):
    """(the 4-byte words of each float's text, one row per word, exact), for
    rows of k floats; see the module docstring."""
    digits, exp10, exact = _digits17(flat)
    # D = integer part * 10**(16 - E) + fraction; the fraction left-aligned in 17 digits
    int_part, frac = np.divmod(digits, _INT_POW10[np.minimum(16 - exp10, 17)])
    first, frac = np.divmod(frac * _INT_POW10[np.maximum(exp10 + 1, 0)], 10**16)
    # as few integer words as leave the first byte free for the sign
    top = int_part.max(initial=0)
    n_int = 1 + (top >= 10**3) + (top >= 10**7) + (top >= 10**11)
    words = np.empty((n_int + 7, flat.size), np.uint32)
    lead = np.ones(flat.size, bool)  # every integer digit so far is 0
    for row, power in enumerate(range(4 * n_int - 4, -1, -4)):
        group = int_part // 10**power % 10**4
        np.take(_WORDS, group + lead * (_LEAD if power else _LEAD1), out=words[row])
        lead &= group == 0
    trail = np.ones(flat.size, bool)  # every fraction digit after is 0
    for row, power in zip(range(-2, -6, -1), range(0, 16, 4)):
        group = frac // 10**power % 10**4
        np.take(_WORDS, group + trail * _TRAIL, out=words[row])
        trail &= group == 0
    trail &= first == 0  # a zero fraction: no point and no fraction digits
    np.take(_WORDS, np.where(trail, _LEAD, _LEAD1 + first), out=words[n_int + 1])
    np.take(_WORDS, np.where(trail, _LEAD, _POINT + 4 + exp10), out=words[n_int])
    words[-1] = _WORDS[_COMMA]
    words[-1, k - 1::k] = _WORDS[_NEWLINE]
    return words, exact


def g17_rows(values: np.ndarray) -> list[str]:
    """``",".join(["%.17g" % v for v in row]) + "\\n"`` for each row of the
    2-D float array ``values``, the same bytes from numpy arithmetic.

    For 1e-4 <= |v| < 1e15, ``%.17g`` writes fixed notation: the 17 digits
    of D (see :func:`_digits17`) with the point after digit E, or "0." and
    -E-1 zeros before them, less trailing zeros and a bare point.  Every other
    value, and any whose estimated E the digits of D contradict, is formatted
    by ``%``."""
    flat = values.ravel()
    words, exact = _g17_words(flat, values.shape[1])
    chars = np.ascontiguousarray(words.T).view(np.uint8)
    del words  # freed before the text is built
    chars[:, 0] = np.signbit(flat) * ord("-")
    for i in np.flatnonzero(~exact).tolist():
        text = b"%.17g" % flat[i]
        chars[i, :-4] = 0
        chars[i, : len(text)] = list(text)
    return chars.tobytes().translate(None, b"\0").decode("ascii").splitlines(keepends=True)
