"""Shortest round-trip text of float64 values, computed on whole arrays.

repr_strings(values) returns [repr(float(x)) for x in values], byte for
byte. Values with 1e-4 <= |x| < 1e15, which repr writes as plain
decimals, are formatted here with numpy; every other value goes to
repr().

Method, for |x| in that range:
- Scale. With k = 16 - floor(log10|x|), corrected by one where log10 is
  off, S = |x| * 10**k lies in [1e16, 1e17). 10**k (k <= 20) is an exact
  double, so Dekker's error-free product (Numer. Math. 18, 1971) gives
  S = hi + lo exactly: hi is an even integer and |lo| <= 8.
- Interval. Scaled by 10**k, the decimals that read back as x lie
  within w = 2**(e - 54) * 10**k of S, e being x's exponent from frexp:
  they are the integers of [L, U] = [ceil(S - w), floor(S + w)]. w is
  exact, and so are f +- w with f = lo - floor(lo), since all their bits
  lie between 2**-48 and 2**4; that bound is why the range starts at 1e-4.
  Two refinements of the general method change no digit in this range,
  so they are left out. Whether an end is included never matters, as S
  +- w is never an integer: a midpoint between doubles below 2**52 has
  more than k decimals. And below a power of two the gap is half the one
  above, but the shortest digits of every power of two in the range lie
  within the narrower bound, as the tests check for each of them.
- Digits. The shortest digits are the multiple D of 10**j in [L, U]
  nearest S, for the largest j that has one, ties going to an even
  D / 10**j (the integer-interval form of Adams, "Ryu", PLDI 2018). This
  is what repr's dtoa (mode 0) returns.
- Text. D's 17 digits come from a 10,000-entry table of four ASCII digits;
  each group of values with the same sign and decimal point position is
  copied into a fixed-width byte block, which is cut after each value's
  last significant digit.
"""

from __future__ import annotations

import itertools

import numpy as np

LOW, HIGH = 1e-4, 1e15
# 10**k as exact doubles for k up to 20 (S's scale), and as integers for k
# up to 17 (the digit steps 10**j and the four-digit groups).
POW10 = np.array([float(10**k) for k in range(21)])
POW10_INT = POW10[:18].astype(np.int64)
# The ASCII text of 0000 to 9999, each as one uint32 in memory order.
DIGITS = np.frombuffer(b"0123456789", np.uint8)
QUADS = np.stack([np.repeat(np.tile(DIGITS, 10**i), 10 ** (3 - i)) for i in range(4)], axis=1).view(np.uint32).ravel()
# A value's text is at most a sign, "0.", three zeros and 17 digits.
WIDTH = 23
COLUMNS = np.arange(WIDTH, dtype=np.uint8)


def _product(a, p):
    """hi, lo with a * p = hi + lo exactly: Dekker's TwoProduct, with
    Veltkamp's split by 2**27 + 1."""
    hi = a * p
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    c = p * 134217729.0
    ph = c - (c - p)
    pl = p - ph
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _interval(a):
    """k, s, f, low, high for positive a in [LOW, HIGH): S = a * 10**k in
    [1e16, 1e17) is s + f, s its integer part, and the decimals that read
    back as a, scaled by 10**k, are the integers of [low, high]."""
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _product(a, POW10[k])
    shift = ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.int64) - ((hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if shift.any():
        k += shift
        hi, lo = _product(a, POW10[k])
    whole = np.floor(lo)
    f = lo - whole
    s = hi.astype(np.int64) + whole.astype(np.int64)
    w = np.ldexp(POW10[k], np.frexp(a)[1] - 54)
    low = s + np.ceil(f - w).astype(np.int64)
    high = s + np.floor(f + w).astype(np.int64)
    return k, s, f, low, high


def _digits(a):
    """d, point, ndigits for positive a in [LOW, HIGH): a's shortest
    round-trip digits, padded with zeros to the integer d in [1e16, 1e17),
    the number of them before the decimal point, and the number of them
    repr writes."""
    k, s, f, low, high = _interval(a)
    # j: the largest power of ten with a multiple in [low, high], that is
    # whose remainder of high is at most high - low.
    width = high - low
    j = np.zeros(len(a), np.int64)
    more = np.ones(len(a), bool)
    for p in POW10_INT[1:]:
        more &= high - high // p * p <= width
        if not more.any():
            break
        j += more
    # The multiple of p nearest S = s + f, ties to an even quotient: round
    # s // p up where 2 * (s % p + f) = t + g, t an integer and g in [0, 1),
    # is more than p, or equal to it with an odd quotient.
    p = POW10_INT[j]
    q = s // p
    half = f >= 0.5
    g = 2 * f - half
    t = 2 * (s - q * p) + half
    # It lies in [low, high], which is symmetric about S and holds a
    # multiple of p; and below 1e17, which is in no interval, as 10**-1 to
    # 10**-4 are nearer to the double above them and the other powers of ten
    # are doubles.
    d = (q + ((t > p) | ((t >= p) & ((g > 0) | ((q & 1) > 0))))) * p
    return d, 17 - k, 17 - j


def repr_strings(values) -> list:
    """[repr(float(x)) for x in values], with the same bytes: computed on
    whole arrays for 1e-4 <= |x| < 1e15, by repr() for every other x."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    fast = (a >= LOW) & (a < HIGH)
    # The other values are formatted as 1.0 here and then by repr() one by
    # one, which makes no array of their count: numpy keeps freed arrays of
    # under 1 KiB for reuse, several of each size, so arrays of ever new
    # small sizes would hold memory.
    strings = _texts(x, np.where(fast, a, 1.0))
    for i in itertools.compress(range(len(x)), (~fast).tolist()):
        strings[i] = repr(float(x[i]))
    return strings


def _texts(x, a) -> list:
    """repr's text of each x, with a = |x| in [LOW, HIGH)."""
    d, point, ndigits = _digits(a)
    # Sorted by layout, the sign and the decimal point's place, the values
    # of each layout are one run of rows, filled by slice copies.
    sign = (x < 0).view(np.uint8)
    layout = (sign * 32 + point + 3).astype(np.uint8)
    order = np.argsort(layout, kind="stable")
    d, sign, point, ndigits = d[order], sign[order], point[order], ndigits[order]
    # d's 17 digits are bytes 3 to 19 of its four-digit groups.
    groups = np.empty((len(d), 5), np.uint32)
    for i, p in enumerate(POW10_INT[16::-4]):
        q = d // p
        groups[:, i] = QUADS[q]
        d = d - q * p
    digits = groups.view(np.uint8)[:, 3:]
    text = np.zeros((len(x), WIDTH), np.uint8)
    text[:, 0] = sign * ord("-")
    counts = np.bincount(layout, minlength=64)
    codes = np.flatnonzero(counts)
    stops = np.cumsum(counts[codes]).tolist()
    for code, start, stop in zip(codes.tolist(), [0, *stops], stops):
        left = (code & 31) - 3
        rows, digit = text[start:stop, code >> 5 :], digits[start:stop]
        if left <= 0:
            rows[:, : 2 - left] = ord("0")
            rows[:, 1] = ord(".")
            rows[:, 2 - left : 19 - left] = digit
        else:
            rows[:, :left] = digit[:, :left]
            rows[:, left] = ord(".")
            rows[:, left + 1 : 18] = digit[:, left:]
    # Cut each text after its last significant digit, or after the one
    # zero that follows its point.
    length = sign + np.where(point <= 0, 2 - point + ndigits, point + 1 + np.maximum(ndigits - point, 1))
    text *= COLUMNS < length[:, None].astype(np.uint8)
    unsorted = np.empty_like(text)
    unsorted[order] = text
    return unsorted.astype(np.uint32).view(f"U{WIDTH}").ravel().tolist()
