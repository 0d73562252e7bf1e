"""Shortest round-trip text of float64 values, computed on whole arrays.

repr_text(values, out) writes to out a uint8 row for each value whose
bytes, once its NUL bytes are dropped, are repr(float(values[i])), and
returns the indices it leaves to repr(). Signed zeros and values with
1e-25 <= |x| < 1e15 are formatted here with numpy: repr writes those
from 1e-4 on as plain decimals and smaller ones in e-notation. Every other value, and the
rare one whose arithmetic below cannot settle a decision, goes to repr().

Method, for |x| in that range:
- Scale. With k = 16 - floor(log10|x|), corrected by one where log10 is
  off, S = |x| * 10**k lies in [1e16, 1e17). 10**k = 2**k * 5**k is an
  exact double up to k = 22, as 5**22 < 2**53, so from 1e-6 on Dekker's
  error-free product (Numer. Math. 18, 1971) gives S = hi + lo exactly:
  hi is an even integer and |lo| <= 8. Below 1e-6, 10**k is the product
  of the exact doubles 10**22 and 10**(k - 22), k <= 44: a second product,
  of hi, gives S = hi + lo with an error in lo under 2**-47.
- Interval. Scaled by 10**k, the decimals that read back as x lie
  within w = 2**(e - 54) * 10**k of S, e being x's exponent from frexp:
  they are the integers of [L, U] = [ceil(S - w), floor(S + w)]. From
  1e-4 on, w is exact, and so are f +- w with f = lo - floor(lo), since
  all their bits lie between 2**-48 and 2**4. Below 1e-4, w is off by
  less than 2**-48 and f +- w by less than 2**-46, so the floors, ceils
  and ties that settle the digits are exact unless f, 2f, f - w or f + w
  lies within NEAR = 2**-40 of an integer: such a value goes to repr().
  Two refinements of the general method change no digit in this range,
  so they are left out. Whether an end is included never matters, as S
  +- w is never an integer: a midpoint between doubles has more than k
  decimals below 2**52, and more than k binary places below 1. And below
  a power of two the gap is half the one above, but the shortest digits
  of every power of two from 1e-4 on lie within the narrower bound, as
  the tests check for each of them; a power of two below 1e-4 goes to
  repr().
- Digits. The shortest digits are the multiple D of 10**j in [L, U]
  nearest S, for the largest j that has one, ties going to an even
  D / 10**j (the integer-interval form of Adams, "Ryu", PLDI 2018). This
  is what repr's dtoa (mode 0) returns. D is 1e17 where x is the double
  just below a power of ten (1e-6 is one): its one digit is then a 1,
  one place further left.
- Text. D has 17 digits, and its trailing zeros are exactly the j the
  search found: with one more, D would be a multiple of 10**(j + 1). The
  digits come from a 10,000-entry table of four ASCII digits, in which a
  group that only zeros follow has its trailing zeros as NUL. Each run of
  values with the same decimal point position (or with e-notation, or
  zero) is copied into its rows of a fixed-width uint8 block by slices,
  after a column that holds "-" or NUL for the sign. A NUL before the
  point, or right after it, is written as "0" ("100.0"); e-notation takes
  "e-" and its two exponent digits in the last four columns. Dropping a
  row's NUL bytes leaves repr's text, and a writer drops them from many
  rows at once with one bytes.translate.

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

# repr_text's range, and the bound below which repr writes e-notation
# and the arithmetic is no longer exact.
LOW, POINT, HIGH = 1e-25, 1e-4, 1e15
# repr_text formats values outside [LOW, HIGH) as this one first: its
# shortest digits are 17, so it leaves the digit search at the first power.
STAND_IN = 0.30000000000000004
# 10**k as exact doubles for k up to 22, the largest exact one (S's
# scale), and as integers for k up to 17 (the digit steps 10**j and the
# four-digit groups).
POW10 = np.array([float(10**k) for k in range(23)])
POW10_INT = np.array([10**k for k in range(18)], np.int64)
# Below POINT, a decision closer than this to its integer goes to repr().
NEAR = 2.0**-40
# The codes of repr_text's layouts, beside the decimal point positions
# -3 to 15 that take codes 0 to 18: e-notation, and zero.
SCIENTIFIC, ZERO = 19, 20
ZERO_TEXT = np.frombuffer(b"0.0", np.uint8)
EXPONENT = np.frombuffer(b"e-", np.uint8)
# The ASCII text of 0000 to 9999, each as one uint32 in memory order.
DIGITS = np.frombuffer(b"0123456789", np.uint8)
QUADS = np.stack([np.repeat(np.tile(DIGITS, 10**i), 10 ** (3 - i)) for i in range(4)], axis=1).view(np.uint32).ravel()
# QUADS, then the same texts with their trailing zeros as NUL.
_QUAD_BYTES = QUADS.view(np.uint8).reshape(-1, 4)
_TRAILING = np.logical_and.accumulate(_QUAD_BYTES[:, ::-1] == ord("0"), axis=1)[:, ::-1]
TRIMMED = np.concatenate((QUADS, (_QUAD_BYTES * ~_TRAILING).view(np.uint32).ravel()))
# A value's text is at most a sign, "0.", three zeros and 17 digits, or a
# sign, 17 digits, a point and "e-" with two digits: column 0 holds the
# sign or NUL.
WIDTH = 23
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


def _scaled(a, k):
    """hi, lo and 10**k with a * 10**k = hi + lo, all exact for k <= 22;
    up to k = 44, where a * 10**k < 2**57, lo is off by less than 2**-47
    and 10**k by less than half an ulp."""
    if k.max(initial=0) <= 22:
        power = POW10[k]
        return *_product(a, power), power
    first = np.minimum(k, 22)
    head, rest = POW10[first], POW10[k - first]
    hi, lo = _product(a, head)
    hi, rest_lo = _product(hi, rest)
    return hi, rest_lo + lo * rest, head * rest


def _near_integer(y):
    return np.abs(y - np.rint(y)) < NEAR


def _interval(a):
    """k, s, f, low, high, unsure for positive a in [LOW, HIGH): S = a *
    10**k in [1e16, 1e17) is s + f, s its integer part, and the decimals
    that read back as a, scaled by 10**k, are the integers of [low, high],
    except where unsure: there a is a power of two below POINT, or the
    error below POINT could have moved a decision."""
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo, power = _scaled(a, k)
    # Where log10 is off, S = hi + lo leaves [1e16, 1e17), which it can only
    # do where hi is one of its ends or outside it.
    if ((hi <= 1e16) | (hi >= 1e17)).any():
        k += ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.int64) - ((hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
        hi, lo, power = _scaled(a, k)
    whole = np.floor(lo)
    f = lo - whole
    s = hi.astype(np.int64) + whole.astype(np.int64)
    fraction, e = np.frexp(a)
    w = np.ldexp(power, e - 54)
    low = s + np.ceil(f - w).astype(np.int64)
    high = s + np.floor(f + w).astype(np.int64)
    unsure = a < POINT
    if unsure.any():
        unsure &= (fraction == 0.5) | _near_integer(2 * f) | _near_integer(f - w) | _near_integer(f + w)
    return k, s, f, low, high, unsure


def _digits(a):
    """d, point, unsure for positive a in [LOW, HIGH): a's shortest
    round-trip digits, padded with zeros to the integer d in [1e16, 1e17),
    the number of them before the decimal point, and where they are not
    settled (_interval). d's trailing zeros are the padding: a digit
    string ending in zero would be a multiple of a larger power."""
    k, s, f, low, high, unsure = _interval(a)
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
    # multiple of p.
    d = (q + ((t > p) | ((t >= p) & ((g > 0) | ((q & 1) > 0))))) * p
    point = 17 - k
    if len(passed) == 17:
        # Where that is 1e17 (j = 17), a is the double below a power of
        # ten, below POINT: its one digit moves a place left.
        at = passed[-1]
        d[at] //= 10
        point[at] += 1
    return d, point, unsure


def repr_text(values, out) -> list:
    """Write the text of each float64 of values to its row of out, a
    (len(values), WIDTH) uint8 array or view, and return the indices it
    leaves to repr(), in increasing order. Dropping a row's NUL bytes
    leaves repr(float(values[i])), except at those indices, whose row holds
    a stand-in. The rows are computed on whole arrays for signed zeros and
    LOW <= |x| < HIGH; repr() is left every other x and the few that
    _interval leaves unsure."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    fast = (a >= LOW) & (a < HIGH)
    zero = a == 0
    # The other values are formatted as STAND_IN here, and their indices
    # are a list, which makes no array of their count: numpy keeps freed
    # arrays of under 1 KiB for reuse, several of each size, so arrays of
    # ever new small sizes would hold memory.
    d, point, unsure = _digits(np.where(fast, a, STAND_IN))
    _texts(np.signbit(x).view(np.uint8), zero, point, d, out)
    slow = ~(fast | zero) | unsure
    return list(itertools.compress(range(len(x)), slow.tolist())) if slow.any() else []


def _texts(sign, zero, point, d, out):
    """Write repr's text of each value to its row of out, WIDTH bytes with
    NUL bytes among them, from its sign, whether it is zero, and its digits
    d and point (_digits)."""
    # Sorted by layout, the decimal point's place, e-notation or zero, the
    # values of each layout are one run of rows, filled by slice copies.
    code = point + 3
    code[point < -3] = SCIENTIFIC
    code[zero] = ZERO
    code = code.astype(np.uint8)
    order = np.argsort(code, kind="stable")
    d, point = d[order], point[order]
    # d's 17 digits are bytes 3 to 19 of its four-digit groups, and its
    # trailing zeros are NUL: each group that all later ones leave zero is
    # looked up in the second half of TRIMMED.
    groups = np.empty((len(d), 5), np.uint32)
    for i, p in enumerate(POW10_INT[16::-4]):
        q = d // p
        d = d - q * p
        groups[:, i] = TRIMMED[q + 10**4 * (d == 0)]
    digits = groups.view(np.uint8)[:, 3:]
    # Column 0 is the sign's; a layout writes from column 1 on. The digits
    # before the point, and the one after it, are kept as "0" where they
    # are trailing zeros; in e-notation a lone digit has no point, and "e-"
    # and the exponent's two digits take the last four columns.
    text = np.zeros((len(d), WIDTH), np.uint8)
    counts = np.bincount(code, minlength=32)
    keys = np.flatnonzero(counts)
    stops = np.cumsum(counts[keys]).tolist()
    for key, start, stop in zip(keys.tolist(), [0, *stops], stops):
        left = key - 3
        rows, digit = text[start:stop], digits[start:stop]
        if key == ZERO:
            rows[:, 1:4] = ZERO_TEXT
        elif key == SCIENTIFIC:
            rows[:, 1] = digit[:, 0]
            rows[:, 2] = (digit[:, 1] > 0) * ord(".")
            rows[:, 3:19] = digit[:, 1:]
            exponent = (1 - point[start:stop]).astype(np.uint8)
            rows[:, 19:21] = EXPONENT
            rows[:, 21] = exponent // 10 + ord("0")
            rows[:, 22] = exponent % 10 + ord("0")
        elif left <= 0:
            rows[:, 1 : 3 - left] = ord("0")
            rows[:, 2] = ord(".")
            rows[:, 3 - left : 20 - left] = digit
        else:
            np.maximum(digit[:, :left], ord("0"), out=rows[:, 1 : left + 1])
            rows[:, left + 1] = ord(".")
            np.maximum(digit[:, left], ord("0"), out=rows[:, left + 2])
            rows[:, left + 3 : 19] = digit[:, left + 1 :]
    out[order] = text
    out[:, 0] = sign * ord("-")


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
