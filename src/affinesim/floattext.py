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

fixed2_text(values, separators) returns the join of format(x, ".2f")
and a separator byte after each value, byte for byte, the form of SVG
pixel coordinates. Values with |x| < 1e6 are formatted here; nan, the
infinities and larger values go to format().

Method, for |x| in that range: .2f is x * 100 rounded to an integer N,
ties to even, on x's exact binary value. Dekker's product gives
|x| * 100 = hi + lo exactly, with |lo| at most half an ulp of hi, and
hi < 2**27. So N is hi rounded, ties to even, except where hi is itself
a tie: there lo != 0 settles it, upward when lo > 0. Each value's text is
a fixed-width row of bytes, NUL before its first digit; the rows of all
values are compacted into one string at once.
"""

from __future__ import annotations

import itertools

import numpy as np

LOW, HIGH = 1e-4, 1e15
# repr_strings formats values outside [LOW, HIGH) as this one first: its
# shortest digits are 17, so it leaves the digit search at the first power.
STAND_IN = 0.30000000000000004
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
# fixed2_text's range. A value's text is a row of 16 bytes: eight digits
# of its whole part, its cents as ".00" to ".99", its separator, and NUL.
# As uint64, the first eight are blanked before the sign and the first
# digit by KEEP[ndigits] and signed by SIGN[8 * negative + ndigits]; all
# three tables are built from bytes, so they hold in either byte order.
FIXED2_HIGH = 1e6
CENTS = np.frombuffer(b"".join(b".%02d\0" % i for i in range(100)), np.uint32)
KEEP = np.frombuffer(b"".join(b"\0" * (8 - i) + b"\xff" * i for i in range(9)), np.uint64)
SIGN = np.frombuffer(b"\0" * 64 + b"".join(b"\0" * (7 - i) + b"-" + b"\0" * i for i in range(8)), np.uint64)
# The number of digits of 0 to 9999, 0 having one.
NDIGITS = 1 + np.searchsorted(POW10_INT[1:4], np.arange(10**4), side="right")


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
    # whose remainder of high is at most high - low. Where a power has
    # none, no larger one has, so after the first power each pass tests
    # only the values still searching, at the indices at.
    width = high - low
    at = np.flatnonzero(high - high // 10 * 10 <= width)
    passed = [at]
    for p in POW10_INT[2:]:
        h = high[at]
        at = at[h - h // p * p <= width[at]]
        if not len(at):
            break
        passed.append(at)
    j = np.zeros(len(a), np.int64)
    for at in passed:
        j[at] += 1
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
    # The other values are formatted as STAND_IN here and then by repr()
    # one by one, which makes no array of their count: numpy keeps freed
    # arrays of under 1 KiB for reuse, several of each size, so arrays of
    # ever new small sizes would hold memory.
    strings = _texts(x, np.where(fast, a, STAND_IN))
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


def fixed2_text(values, separators) -> str:
    """"".join(format(float(x), ".2f") + chr(sep) for x, sep in zip(values,
    separators)), with the same bytes: computed on whole arrays for |x| <
    1e6, by format() for every other x. separators holds one byte per
    value, in the same shape, none of them NUL or 0x01."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    fast = a < FIXED2_HIGH
    hi, lo = _product(np.where(fast, a, 0.0), 100.0)
    whole = np.floor(hi)
    n = np.where((hi - whole == 0.5) & (lo != 0), whole + (lo > 0), np.rint(hi)).astype(np.int64)
    whole, cents = np.divmod(n, 100)
    high, low = np.divmod(whole, 10**4)
    rows = np.empty((len(x), 2), np.uint64)
    quads = rows.view(np.uint32)
    quads[:, 0] = QUADS[high]
    quads[:, 1] = QUADS[low]
    quads[:, 2] = CENTS[cents]
    quads[:, 3] = 0
    # whole <= 10**6 has at most seven digits, so the sign has a place.
    ndigits = np.where(high > 0, 4 + NDIGITS[high], NDIGITS[low])
    rows[:, 0] &= KEEP[ndigits]
    rows[:, 0] |= SIGN[np.signbit(x) * 8 + ndigits]
    text = rows.view(np.uint8)
    text[:, 11] = np.reshape(separators, -1)
    # The text of every other value is left to format(), behind a 0x01.
    slow = np.flatnonzero(~fast)
    text[slow, :11] = 0
    text[slow, 10] = 1
    joined = text.tobytes().translate(None, b"\0").decode("ascii")
    if not len(slow):
        return joined
    parts = joined.split("\x01")
    strings = [format(v, ".2f") for v in x[slow].tolist()]
    return "".join(itertools.chain.from_iterable(zip(parts, [*strings, ""])))
