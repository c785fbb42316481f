"""The text float.__repr__ gives each value of a float64 array, computed in numpy.

repr_texts(x) equals list(map(float.__repr__, x.tolist())), but it formats
the values with 1e-4 <= |x| < 1 in a fixed number of array passes, with no
Python call per value.  The argument, for one such x > 0 (a negative value
is its magnitude's text after a "-"):

- Scaling.  Take k in 17..20 with P = x * 10^k in [10^16, 10^17); the
  doubles 0.1, 0.01 and 0.001 each lie above their decimal, so comparing x
  with them finds k exactly.  10^k is an exact double for k <= 22.
- Exact product.  Dekker's two-product splits P into hi + lo exactly, so
  N = floor(P) (an int64) and f = P - N (a double) are exact.
- Rounding interval.  The half-gap H = ulp(x) * 10^k / 2 = 5^k * 2^j is an
  exact double in [0.55, 11.1].  A decimal of 17 - t significant digits is
  a multiple D of 10^t on P's scale, and it reads back as x iff
  |D - P| < H, the interval being symmetric about x unless x is a power of
  two.
- Exact comparisons.  With x = M * 2^E (M < 2^53 an integer), P is
  M * 5^k * 2^(k+E) and k + E >= -46 in every decade, so f has at most 46
  fractional bits, and f - H and f + H (below 13) are exact.  The integers
  of the interval are then L + 1 .. U with L = N + ceil(f - H) - 1 and
  U = N + floor(f + H), exactly.  Its ends are no integers, so whether
  repr keeps them (by the parity of x's last bit) never matters:
  P +- H = (2M +- 1) * 5^k * 2^(k+E-1) has an odd numerator over a power
  of two, as x < 1 makes E <= -53 and k + E - 1 <= -34.
- Shortest t.  Every multiple of 10^t is one of 10^(t-1), so if the
  interval holds a multiple of 10^t it holds one of every finer power.  The
  largest t whose multiple it holds (U // 10^t > L // 10^t) is found by
  testing t = 1, 2, ... on a shrinking set of rows; t = 0 always passes, as
  H > 0.5.  At that t the digits end in no zero, and D, the multiple of
  10^t nearest P, is the candidate of that length closest to x: the one
  repr picks, unless P lies exactly halfway between two multiples (a tie,
  which repr breaks by the parity of the last digit).
- Fallback.  Powers of two (their interval is asymmetric), ties, +-0,
  values outside [1e-4, 1) and non-finite values are formatted by the
  given function, float.__repr__ by default; so is every value when the
  interpreter's float repr is not the shortest one
  (sys.float_repr_style != "short").

The digits of D never carry into an 18th: that would put 10^(17 - k) in x's
interval, and x < 1 is not the double nearest 1, 0.1, 0.01 or 0.001 (each
of those lies above its decimal, in the next decade).
"""

from __future__ import annotations

import sys

import numpy as np

from hypack.geometry import _split

__all__ = ["repr_texts"]

_PLACEHOLDER = 0.30000000000000004  # a 17-digit value: leaves the scan at t = 1
_MANTISSA = np.int64(2**52 - 1)
# decade d of x in [1e-4, 1): searchsorted(_DECADES, x, "right"), from 0 for
# [1e-4, 1e-3) to 3 for [0.1, 1); its text has 3 - d zeros after "0."
_DECADES = np.array([1e-3, 1e-2, 0.1])
_SCALES = 10.0 ** np.arange(20, 16, -1)  # 10^k, k = 20 - d
_SCALE_HI, _SCALE_LO = _split(_SCALES)
_HALF_ULP_SCALES = _SCALES * 2.0**-53  # 10^k / 2 times the ulp of 1
_EXPONENT = np.int64(0x7FF << 52)
_POWERS = 10 ** np.arange(17, dtype=np.int64)

# A value's text is three little-endian words of ASCII: the sign and "0."
# with its zeros right-aligned in bytes 0..6 after at least one space, the
# first digit in byte 7, then 16 digits as four 4-digit groups.  The texts
# of all values are decoded as one string and split on the spaces.
_PAIRS = np.arange(100) // 10 + ord("0") | (np.arange(100) % 10 + ord("0")) << 8
_QUADS = (_PAIRS[:, None] | _PAIRS << 16).astype("<u4").ravel()
_PREFIXES = np.frombuffer(  # index 4 * (x < 0) + d
    b"".join((b"-" * neg + b"0." + b"0" * (3 - d)).rjust(7) + b"\0" for neg in (0, 1) for d in range(4)),
    dtype="<u8",
)
# row t clears bit 4 in the last t of the 16 digits, which are zeros: "0" & ~0x10 is " "
_BLANK_1, _BLANK_2 = np.frombuffer(
    b"".join(b"\xff" * (16 - t) + b"\xef" * t for t in range(17)), dtype="<u8"
).reshape(17, 2).T.copy()


def repr_texts(x: np.ndarray, fallback=float.__repr__) -> list[str]:
    """float.__repr__ of each value of the 1-D array x, which must cast
    safely to float64; `fallback` formats the values the kernel leaves."""
    x = np.asarray(x).astype(np.float64, casting="safe", copy=False)
    if sys.float_repr_style != "short":
        return list(map(fallback, x.tolist()))
    n = len(x)
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1.0) & (x.view(np.int64) & _MANTISSA != 0)
    a = np.where(inside, a, _PLACEHOLDER)
    d = np.searchsorted(_DECADES, a, side="right")
    hi = a * _SCALES[d]
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _SCALE_HI[d], _SCALE_LO[d]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    whole = np.floor(lo)
    N = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole
    H = (a.view(np.int64) & _EXPONENT).view(np.float64) * _HALF_ULP_SCALES[d]  # 2^e * 10^k / 2^53

    L = N + np.ceil(f - H).astype(np.int64) - 1
    U = N + np.floor(f + H).astype(np.int64)
    t = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    for tt in range(1, 17):
        L //= 10
        U //= 10
        holds = U > L  # the interval holds a multiple of 10^tt
        rows, L, U = rows[holds], L[holds], U[holds]
        if not rows.size:
            break
        t[rows] = tt
    p = _POWERS[t]
    r = N % p
    below = r + f
    up = 2 * below > p
    D = N - r + up * p
    fall = ~inside | (2 * below == p)

    # D < 10^17: a digit, then the 8-digit halves [high, low], each two 4-digit groups
    halves = np.empty((2, n), dtype=np.int64)
    halves[0] = D // 10**8
    halves[1] = D - halves[0] * 10**8
    first = halves[0] // 10**8
    halves[0] -= first * 10**8
    groups = halves // 10**4
    words = np.empty((n, 3), dtype="<u8")
    words[:, 0] = _PREFIXES[4 * (x < 0) + d] | (first.astype("<u8") + ord("0")) << 56
    quads = words.view("<u4")
    quads[:, 2::2] = _QUADS[groups.T]
    quads[:, 3::2] = _QUADS[(halves - groups * 10**4).T]
    words[:, 1] &= _BLANK_1[t]
    words[:, 2] &= _BLANK_2[t]
    texts = words.tobytes().decode("ascii").split()
    fell = np.flatnonzero(fall)
    for i, text in zip(fell.tolist(), map(fallback, x[fell].tolist())):
        texts[i] = text
    return texts
