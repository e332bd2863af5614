"""Exact text of float tables, vectorised: the CLI's CSV and JSON number writers.

CSV fields are ``'%.17g' % (x + 0.0)``; JSON numbers are ``json.dumps``'s,
that is ``repr``: the shortest digits that read back as x.

For 1e-270 <= |x| < 1e17 the 17 digits are D = round(V), V = |x| 10^P,
P = 16 - e10, e10 = floor(log10 |x|), from Dekker's exact product of |x|
with 10^P = hi + lo (both from the Python integer, so P >= 0 and nothing
overflows or underflows).  Where floor(V) leaves [10^16, 10^17), log10
rounded across a power of ten and e10 moves by one; a D that rounds up to
10^17 becomes 10^16 with e10 + 1.  With u = 2^-53 and V < 10^17, hi + lo,
the rounded |x| lo and the sum of the product's error terms each miss by
at most about u^2 V (1.3e-15), and forming the fraction of V adds at most
22 u (2.5e-15): the fraction is within 1e-14 of the true one.

The shortest digits.  A decimal c, scaled like V, reads back as x when
it lies strictly inside x's rounding interval V - g_lo < c < V + g, where
g = ulp(|x|) 10^P / 2 = 2^(e2 - 54) 10^P for |x| = f 2^e2, 1/2 <= f < 1.
Below a power of two (f = 1/2) the next double down is half as far, so
g_lo = g/2; otherwise g_lo = g.  Since 2^-54 V < g <= 2^-53 V, g lies in
(0.55, 11.1), so D, within 1/2 of V, always reads back.  ``repr`` takes
the fewest digits that read back and, of those, the decimal nearest x.
For step = 100 (15 digits, which covers fewer) and step = 10 (16 digits),
let rest = (floor(V) mod step) + frac, V less the multiple of step below
it: that multiple reads back if rest < g_lo, the one above if
step - rest < g, and where both do the nearer wins.  15 digits win over
16 and 16 over D; the trailing zeros then go.  Below a power of two the
nearer 16-digit decimal can miss the narrow lower side while the one
above lies inside the wide upper side, and is then ``repr``'s (2^-808,
5.858190679279809e-244, is one).  The remainder is exact, so rest is
within 1e-14 + 100 u (2.5e-14) of the truth and g within 11.1 u
(1.3e-15), far inside _MARGIN = 1e-12.

A fraction within _MARGIN of 1/2 (every exact tie, such as 2^-25), a rest
within _MARGIN of step/2 (a 15- or 16-digit tie such as
734637933487379.75, which ``repr`` rounds half-even), of g_lo or of
step - g (an edge of the interval), a non-finite x and a nonzero |x|
outside [1e-270, 1e17) fall back to ``'%.17g'`` or ``json.dumps``, one
value at a time.  Zero is written directly; JSON keeps -0.0, CSV folds
it into 0.
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = ["csv_text", "json_text"]

_SLAB = 2048          # values per slab, which bounds the temporaries
_MARGIN = 1e-12       # a fraction, tie or interval edge this close falls back
_LOW, _HIGH = 1e-270, 1e17
_E16, _E17 = 10**16, 10**17
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# per value: sign, "0.", three leading zeros, 17 digit/"." pairs, e+ddd; its separator follows
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000", dtype=np.uint8)


@functools.cache
def _tables():
    """10^P = hi + lo, P = 0..286, with hi's Dekker halves; 4-digit ASCII words and
    their trailing zeros."""
    powers = [10**p for p in range(287)]
    hi = np.array([float(v) for v in powers])
    lo = np.array([float(v - int(h)) for v, h in zip(powers, hi.tolist())])
    split = hi * _SPLIT
    hi_top = split - (split - hi)
    group = np.arange(10000)
    ascii4 = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros = sum((group % 10**j == 0).astype(np.int64) for j in range(1, 5))
    return hi, lo, hi_top, hi - hi_top, ascii4.view(np.uint32).ravel(), zeros


@functools.cache
def _layout(shortest: bool, sep: int) -> np.ndarray:
    """The bytes of _TEMPLATE and a ``sep``-byte separator kept, bar the sign, for
    each max(e10, -100), count of significant digits and end of row (where only
    the separator's first byte, the row's end character, stays): %g's layout, or
    repr's (fixed below 1e16, and a ".0" on integral values) when ``shortest``."""
    e10, digits = np.divmod(np.arange(117 * 17), 17)
    e10, digits = e10 - 100, digits + 1
    fixed = (e10 >= -4) & (e10 < 16 + (not shortest))
    point = np.where(fixed, e10, 0)  # the "." follows this digit, unless it is negative
    shown = np.maximum(digits, point + 1 + (shortest & fixed))
    number = np.zeros((e10.size, _TEMPLATE.size), dtype=bool)
    number[:, 1:3] = (fixed & (e10 < 0))[:, None]
    number[:, 3:6] = fixed[:, None] & (e10[:, None] < np.array([-1, -2, -3]))
    number[:, 6:40:2] = np.arange(17) < shown[:, None]
    number[:, 7:40:2] = (np.arange(17) == point[:, None]) & (shown > point + 1)[:, None]
    number[:, 40:45] = ~fixed[:, None]
    number[:, 42] &= e10 <= -100
    width = _TEMPLATE.size + sep
    layout = np.zeros((e10.size, 2, width), dtype=bool)
    layout[:, :, :_TEMPLATE.size] = number[:, None]
    layout[:, 0, _TEMPLATE.size:] = layout[:, 1, _TEMPLATE.size] = True
    return layout.reshape(-1, width)


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


def _shorten(a, e10, whole, frac, digits) -> np.ndarray:
    """Replace the 17 digits D of a by repr's, in place, as a 17-digit integer;
    return where that choice is sure."""
    f, e2 = np.frexp(a)
    ten_p = _tables()[0][16 - e10]
    gap = np.ldexp(ten_p, e2 - 54)
    low = np.ldexp(ten_p, e2 - 54 - (f == 0.5))  # g/2 below a power of two
    sure = np.ones(a.shape, dtype=bool)
    for step in (10, 100):  # 16 digits, then 15, which win where both read back
        r = whole % step
        rest = r.astype(float) + frac  # V less the candidate below it
        below = rest < low  # the candidate below reads back
        above = rest > step - gap  # the one above does
        for edge in (low, step - gap, step / 2):
            sure &= np.abs(rest - edge) >= _MARGIN
        up = above & ((rest > step / 2) | ~below)
        np.copyto(digits, whole - r + step * up, where=below | above)
    return sure


def _slab(x: np.ndarray, row_end: np.ndarray, template: np.ndarray, end: int,
          shortest: bool) -> str:
    words, zeros = _tables()[4:]
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
    if shortest:
        exact &= _shorten(a, e10, whole, frac, digits)
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

    width = _TEMPLATE.size
    buf = np.empty((x.size, template.size), dtype=np.uint8)
    buf[:] = template
    buf[:, 6] = head + 48
    buf[:, 8:40:2] = np.stack([words[g] for g in groups], axis=1).view(np.uint8)
    buf[:, 41] = np.where(e10 < 0, 45, 43)
    buf[:, 42:45] = words[np.abs(e10)].view(np.uint8).reshape(-1, 4)[:, 1:]
    buf[row_end, width] = end
    index = ((np.maximum(e10, -100) + 100) * 17 + 16 - tz) * 2 + row_end
    keep = _layout(shortest, template.size - width)[index]
    keep[:, 0] = np.signbit(x) if shortest else x < 0.0
    for j in np.flatnonzero(~(exact | zero)):  # at most 24 bytes, over the value's own
        text = (json.dumps(float(x[j])) if shortest else "%.17g" % x[j]).encode()
        buf[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[j, :width] = np.arange(width) < len(text)
    return np.compress(keep.ravel(), buf).tobytes().decode("ascii")


def _slabs(table: np.ndarray, sep: str, end: str, shortest: bool):
    """The text of each value of a 2-D table, then ``sep`` inside a row and the one
    character ``end`` after it, in slabs of at most _SLAB values, so the
    temporaries stay a few hundred KiB whatever the table's size."""
    flat, cols = table.ravel(), table.shape[1]
    template = np.concatenate((_TEMPLATE, np.frombuffer(sep.encode("ascii"), dtype=np.uint8)))
    for start in range(0, flat.size, _SLAB):
        x = flat[start:start + _SLAB]
        row_end = np.arange(start, start + x.size) % cols == cols - 1
        yield _slab(x, row_end, template, ord(end), shortest)


def csv_text(table, head: str = "") -> str:
    """``head``, then one line of comma-separated ``'%.17g'`` fields per row of a 2-D table.

    Negative zero is written as 0.
    """
    return head + "".join(_slabs(np.asarray(table, dtype=float), ",", "\n", False))


def _json_array(values) -> list[str]:
    """The pieces of indent=2 JSON for a nonempty 1-D or 2-D float array whose "["
    opens at depth 1."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:  # one row
        values, sep, between = values[None], ",\n    ", ""
        opening, closing = "[\n    ", "\n  ]"
    else:
        sep, between = ",\n      ", "\n    ],\n    [\n      "
        opening, closing = "[\n    [\n      ", "\n    ]\n  ]"
    parts = list(_slabs(values, sep, "\0", True))
    parts[-1] = parts[-1][:-1]  # the last row ends in the closing brackets
    return [opening, *(piece.replace("\0", between) for piece in parts), closing]


def json_text(payload: dict, arrays: dict) -> str:
    """``json.dumps(payload | arrays, indent=2, sort_keys=True)`` plus a newline.

    ``payload`` holds scalars; ``arrays`` nonempty 1-D or 2-D float arrays,
    whose numbers are ``repr``'s, with -0.0 kept.  The text is joined once.
    """
    parts = []
    for key in sorted({**payload, **arrays}):
        parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": "]
        parts += _json_array(arrays[key]) if key in arrays else [json.dumps(payload[key])]
    return "".join(parts + ["\n}\n"])
