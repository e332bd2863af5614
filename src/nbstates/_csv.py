"""Exact ``'%.17g' % (x + 0.0)`` text of float tables, vectorised: the CLI's CSV writer.

For 1e-270 <= |x| < 1e17 the 17 digits are D = round(V), V = |x| 10^P,
P = 16 - e10, e10 = floor(log10 |x|), from Dekker's exact product of |x|
with 10^P = hi + lo (both from the Python integer, so P >= 0 and nothing
overflows or underflows).  Where floor(V) leaves [10^16, 10^17), log10
rounded across a power of ten and e10 moves by one; a D that rounds up to
10^17 becomes 10^16 with e10 + 1.  With u = 2^-53 and V < 10^17, hi + lo,
the rounded |x| lo and the sum of the product's error terms each miss by
at most about u^2 V (1.3e-15), and forming the fraction of V adds at most
22 u (2.5e-15): the fraction is within 1e-14 of the true one.  A fraction
within _MARGIN = 1e-12 of 1/2 (every exact tie, such as 2^-25), a
non-finite x and a nonzero |x| outside [1e-270, 1e17) fall back to
``'%.17g'``, one value at a time.  Zero is written directly.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_text"]

_SLAB = 2048          # values per slab, which bounds the temporaries
_MARGIN = 1e-12       # a fraction this close to 1/2 falls back
_LOW, _HIGH = 1e-270, 1e17
_E16, _E17 = 10**16, 10**17
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# per value: sign, "0.", three leading zeros, 17 digit/"." pairs, e+ddd, separator
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", dtype=np.uint8)


@functools.cache
def _tables():
    """10^P = hi + lo, P = 0..286, with hi's Dekker halves; 4-digit ASCII words and
    their trailing zeros; the bytes of _TEMPLATE that %g keeps, bar the sign, for
    each max(e10, -100) and count of digits shown."""
    powers = [10**p for p in range(287)]
    hi = np.array([float(v) for v in powers])
    lo = np.array([float(v - int(h)) for v, h in zip(powers, hi.tolist())])
    split = hi * _SPLIT
    hi_top = split - (split - hi)
    group = np.arange(10000)
    ascii4 = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros = sum((group % 10**j == 0).astype(np.int64) for j in range(1, 5))

    e10, shown = np.divmod(np.arange(117 * 17), 17)
    e10, shown = e10 - 100, shown + 1
    fixed = e10 >= -4
    point = np.where(fixed, e10, 0)  # the "." follows this digit, unless it is negative
    layout = np.zeros((e10.size, _TEMPLATE.size), dtype=bool)
    layout[:, 1:3] = (fixed & (e10 < 0))[:, None]
    layout[:, 3:6] = fixed[:, None] & (e10[:, None] < np.array([-1, -2, -3]))
    layout[:, 6:40:2] = np.arange(17) < shown[:, None]
    layout[:, 7:40:2] = (np.arange(17) == point[:, None]) & (shown > point + 1)[:, None]
    layout[:, 40:45] = ~fixed[:, None]
    layout[:, 42] &= e10 <= -100
    layout[:, 45] = True
    return hi, lo, hi_top, hi - hi_top, ascii4.view(np.uint32).ravel(), zeros, layout


def _scaled(a: np.ndarray, e10: np.ndarray):
    """floor and fraction of a 10^(16 - e10), by Dekker's product against the table."""
    hi, lo, hi_top, hi_low = _tables()[:4]
    p = 16 - e10
    split = a * _SPLIT
    a_top = split - (split - a)
    a_low = a - a_top
    prod = a * hi[p]
    err = ((a_top * hi_top[p] - prod) + a_top * hi_low[p] + a_low * hi_top[p]) + a_low * hi_low[p]
    whole = np.floor(prod)
    rest = (prod - whole) + (err + a * lo[p])
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _slab(x: np.ndarray, newline: np.ndarray) -> str:
    words, zeros, layout = _tables()[4:]
    ax = np.abs(x)
    zero = ax == 0.0
    inside = (ax >= _LOW) & (ax < _HIGH)
    a = np.where(inside, ax, 1.0)
    e10 = np.clip(np.floor(np.log10(a)), -270, 16).astype(np.int64)
    whole, frac = _scaled(a, e10)
    off = (whole < _E16) | (whole >= _E17)
    if off.any():
        e10[off] += np.where(whole[off] < _E16, -1, 1)
        whole[off], frac[off] = _scaled(a[off], e10[off])
    exact = inside & (np.abs(frac - 0.5) >= _MARGIN) & (whole >= _E16) & (whole < _E17)
    digits = whole + (frac > 0.5)
    top = digits == _E17
    digits[top] = _E16
    e10 += top
    digits[zero] = e10[zero] = 0

    head, rest = np.divmod(digits, _E16)
    high, low = np.divmod(rest, 10**8)
    groups = np.divmod(high, 10**4) + np.divmod(low, 10**4)
    tz = 0
    for g in groups:  # trailing zeros; a zero group adds its 4 to those before it
        tz = zeros[g] + (g == 0) * tz
    shown = np.maximum(17 - tz, np.where(e10 >= -4, e10, 0) + 1)

    buf = np.empty((x.size, _TEMPLATE.size), dtype=np.uint8)
    buf[:] = _TEMPLATE
    buf[:, 6] = head + 48
    buf[:, 8:40:2] = np.stack([words[g] for g in groups], axis=1).view(np.uint8)
    buf[:, 41] = np.where(e10 < 0, 45, 43)
    buf[:, 42:45] = words[np.abs(e10)].view(np.uint8).reshape(-1, 4)[:, 1:]
    buf[:, 45] = np.where(newline, 10, 44)
    keep = layout[(np.maximum(e10, -100) + 100) * 17 + shown - 1]
    keep[:, 0] = x < 0.0
    for j in np.flatnonzero(~(exact | zero)):  # at most 24 bytes, over the value's own
        text = b"%.17g" % x[j]
        buf[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[j, :-1] = np.arange(_TEMPLATE.size - 1) < len(text)
    return np.compress(keep.ravel(), buf).tobytes().decode("ascii")


def csv_text(table, head: str = "") -> str:
    """``head``, then one line of comma-separated ``'%.17g'`` fields per row of a 2-D table.

    Negative zero is written as 0.  The values go in slabs of at most
    _SLAB, so the temporaries stay a few hundred KiB whatever the table's size.
    """
    table = np.asarray(table, dtype=float)
    flat, cols = table.ravel(), table.shape[1]
    parts = [head]
    for start in range(0, flat.size, _SLAB):
        x = flat[start:start + _SLAB]
        parts.append(_slab(x, np.arange(start, start + x.size) % cols == cols - 1))
    return "".join(parts)
