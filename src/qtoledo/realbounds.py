"""Certified integer bounds on the real image of a cyclotomic number.

A real element a = sum_j nums[j] zeta^j / den of Q(zeta_N) goes under
zeta -> exp(2 pi i k / N) to sum_j nums[j] cos(2 pi j k / N) / den.  Its
bounds (`_real_bounds`) are one integer interval dot product with bounds
lo_j <= 2^b cos(2 pi j k / N) <= hi_j, taken only for the j of nonzero
coefficients, each cached per (j k mod N, N, b) and built in fixed point
(`_cos_fixed`): pi from Machin's formula (`_pi_fixed`, `_atan_inv_fixed`),
the cosine from its Taylor series after folding the angle into
[0, pi/2], every step rounded outward.  `cyclotomic.sign_real` doubles
the precision b from 64 bits until the interval excludes zero; it imports
this module only for an element that is not rational.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _atan_inv_fixed(n: int, w: int) -> tuple[int, int]:
    """(t, e) with |t - 2^w atan(1/n)| <= e, for an integer n >= 2.

    atan(1/n) = sum_i (-1)^i / ((2i+1) n^(2i+1)).  Nested floor divisions of
    positive integers compose, so term i is floor(2^w / ((2i+1) n^(2i+1))),
    less than 1 below its true value.  Summing stops at the first zero
    power; the alternating, decreasing tail from there is less than 1.  So
    e is the number of terms taken plus one.
    """
    power, n2 = (1 << w) // n, n * n
    total = i = 0
    while power:
        term = power // (2 * i + 1)
        total += -term if i & 1 else term
        power //= n2
        i += 1
    return total, i + 1


@lru_cache(maxsize=None)
def _pi_fixed(w: int) -> tuple[int, int]:
    """(p, e) with |p - 2^w pi| <= e, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    a, ea = _atan_inv_fixed(5, w)
    b, eb = _atan_inv_fixed(239, w)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


@lru_cache(maxsize=None)
def _cos_fixed(m: int, n: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits cos(2 pi m / n) <= hi, with hi - lo at most 3.

    The angle is folded into x = pi a / c in [0, pi/2] (cos is even, has
    period 2 pi and cos(pi - x) = -cos x); cos 0 = 1 and cos(pi/2) = 0 are
    exact.  Otherwise every quantity is carried as an integer interval at
    scale 2^w, w = bits + guard, whose lower end is rounded down and upper
    end up:

    - y = x / 2^r from the bounds p -+ e on 2^w pi (_pi_fixed), and y^2;
    - the Taylor terms y^(2i) / (2i)!, each the previous one times
      y^2 / ((2i-1) 2i), summed with the lower or upper end of each term as
      its sign asks.  Summing stops once a term's upper end is at most 1;
      the terms decrease (y^2 < 12), so the tail after it is smaller than
      that term and widens the interval by 1 on each side;
    - r doublings cos 2y = 2 cos^2 y - 1, increasing on the positive cosines
      of angles below pi/2; each at most quadruples the width.

    The r = isqrt(bits) / 2 halvings cut the number of Taylor terms several
    times over at high precision; the guard bits absorb the 4^r growth and
    the roundings, so the result, rounded outward to 2^bits, is at most 3
    wide.
    """
    m %= n
    a, c = 2 * min(m, n - m), n  # cos(2 pi m / n) = cos(pi a / c), a / c in [0, 1]
    sign = 1
    if 2 * a > c:
        a, sign = c - a, -1
    if a == 0:
        return sign << bits, sign << bits
    if 2 * a == c:
        return 0, 0
    r = math.isqrt(bits) // 2
    guard = bits.bit_length() + 2 * r + 24
    w = bits + guard
    p, e = _pi_fixed(w)
    y_lo, y_hi = (p - e) * a // (c << r), -(-(p + e) * a // (c << r))
    y2_lo, y2_hi = y_lo * y_lo >> w, -(-y_hi * y_hi >> w)
    one = 1 << w
    t_lo = t_hi = lo = hi = one
    i = 0
    while t_hi > 1:
        i += 1
        d = (2 * i - 1) * 2 * i
        t_lo, t_hi = (t_lo * y2_lo >> w) // d, -((-t_hi * y2_hi >> w) // d)
        if i & 1:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
    lo, hi = lo - 1, hi + 1
    for _ in range(r):
        lo = max(lo, 0)  # the cosine is positive
        lo, hi = (lo * lo >> (w - 1)) - one, -(-hi * hi >> (w - 1)) - one
    lo, hi = lo >> guard, -(-hi >> guard)
    return (lo, hi) if sign > 0 else (-hi, -lo)


def _real_bounds(a, k: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * den * a <= hi for a real a under zeta -> exp(2 pi i k / order).

    The image of a real element is its real part, sum_j nums[j] cos(2 pi j k
    / order) / den: one integer interval dot product with the bounds of
    _cos_fixed, taken only at the nonzero coefficients.
    """
    n = a.order
    lo = hi = 0
    for j, c in enumerate(a.nums):
        if c:
            c_lo, c_hi = _cos_fixed(j * k % n, n, bits)
            if c > 0:
                lo, hi = lo + c * c_lo, hi + c * c_hi
            else:
                lo, hi = lo + c * c_hi, hi + c * c_lo
    return lo, hi
