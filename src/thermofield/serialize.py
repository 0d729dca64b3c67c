"""JSON file formats shared by the library and the CLI.

All numbers are rendered with 17 significant digits so float64 values
round-trip bit-stably (``-0.0`` is written as ``0``), and every object is
emitted with a fixed key order, making whole documents byte-reproducible.
Three flat schemas:

* matrix:  ``{"rows": R, "cols": C, "re": [R*C], "im": [R*C]}`` row-major
* state:   ``{"dim_a": dA, "dim_b": dB, "re": [dA*dB], "im": [dA*dB]}``
* report:  ``{"beta", "observable_name", "trace_average",
  "doubled_expectation", "residual", "entropy", "schmidt_coefficients"}``
  in exactly that key order.

Array numbers are written with the bytes of ``"%.17g" % x``, but by numpy:
an exact decimal scaling (Dekker's error-free product) and digit tables.
A block with any element the numpy pass cannot settle (non-finite, outside
``2**-960 <= |x| < 8``, or within 2**-40 of a rounding tie) is written by
one ``%`` call (see :func:`render_number_array`).  The window stops at 8
because bulk output is state amplitudes and Schmidt coefficients, all
within 1.

The matrix and state formats are read by ``orjson``, which parses them
several times faster than ``json``.  A document that ``orjson`` or the
format checks reject, or that holds a key besides the four of its format,
is read again by ``json`` (:func:`parse_json`).  So every rejection and
its message comes from ``json``, and so does every document the two
parsers read differently (``NaN``, ``Infinity``, ``1e400``, a byte-order
mark, lone surrogates, nesting past json's limit).  Where both accept a
document they give the same float64 bits.  Model JSON and every other
caller use :func:`parse_json` alone.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import orjson

from .bipartite import BipartitePureState
from .errors import ValidationError
from .linalg import as_matrix
from .thermal import ThermalReport

__all__ = [
    "render_number",
    "render_number_array",
    "render_object",
    "parse_json",
    "dump_matrix",
    "load_matrix",
    "dump_state",
    "load_state",
    "report_fields",
]


def render_number(x) -> str:
    """One JSON number with 17 significant digits; ``-0.0`` is written ``0``."""
    return f"{float(x) + 0.0:.17g}"  # + 0.0 maps -0.0 to +0.0


def render_number_array(values) -> str:
    """JSON array of numbers, each rendered as by :func:`render_number`.

    The text is that of ``"%.17g" % (x + 0.0)`` for every element, byte for
    byte, written in blocks of ``_BLOCK`` numbers so that scratch memory
    stays O(block).  A block of zeros is written without formatting.  A
    block with any element the numpy pass cannot settle is written by one
    ``%`` call: a non-finite element, one outside ``2**-960 <= |x| < 8``,
    or one whose ``y`` has a fraction within ``2**-40`` of one half, where
    the error bound could decide the rounding (exact ties among them).
    The numpy pass writes every other block; no digit but the lead one is
    left of the point:

    1. The decimal exponent ``E = floor(log10 |x|) <= 0`` is exact: a table
       indexed by the binary exponent of ``x`` gives it up to one
       comparison with the smallest float not below ``10**(E + 1)``.
    2. ``y = |x| * 10**(16 - E)``, which lies in ``[1e16, 1e17)``, is formed
       as a double-double: Dekker's (1971) error-free product of ``|x|`` and
       the float ``hi`` nearest ``10**(16 - E)``, plus ``|x| * lo`` with
       ``lo = 10**(16 - E) - hi`` rounded once.  Both come from tables made
       of Python integers on first use, ``hi`` already split in halves.  The
       product's high part is an integer (it exceeds 2**53); its low part
       plus ``|x| * lo`` is within 2**-47 of the exact fraction of ``y``.
    3. The 17-digit significand is ``y`` rounded to the nearest integer;
       ``10**17`` becomes ``10**16`` with ``E + 1``.  Its digits come from a
       4-digit table; trailing zeros are masked off a word at a time.
    4. Each number fills a 32-byte slot: sign, ``0.``-to-``0.000`` prefix,
       lead digit, point, 16 digits, ``e±XX[X]`` and ``, `` in fixed
       columns, NUL in every byte ``%g`` would not print.  One
       ``bytes.translate`` drops the NULs.
    """
    return "".join(_array_pieces(values))


def _array_pieces(values) -> list[str]:
    """The text of :func:`render_number_array` as pieces to be joined."""
    numbers = np.asarray(values, dtype=np.float64)
    chunks = [_render_block(numbers[i : i + _BLOCK]) for i in range(0, numbers.size, _BLOCK)]
    if chunks:
        chunks[-1] = chunks[-1][:-2]  # the last ", "
    return ["[", *chunks, "]"]


# -- exact "%.17g" in numpy, for render_number_array -------------------------

_BLOCK = 1 << 14

# The fast path's window as biased binary exponents, 2**-960 <= |x| < 2**3:
# below it 10**(16 - E) passes the float range.
_WINDOW = (1023 - 960, 1023 + 3)
_E_MIN, _E_MAX = -290, 0  # floor(log10 |x|) inside the window
_TIE_MARGIN = 2.0**-40  # 128 times the error bound of y's fraction
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _pow10(k: int) -> tuple[float, float]:
    """The float ``hi`` nearest ``10**k`` and ``10**k - hi`` rounded once."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division is correctly rounded
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _words(rows: list[bytes], dtype=np.uint64) -> np.ndarray:
    """Byte strings, NUL-padded to the width of ``dtype``, as native words."""
    width = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(row.ljust(width, b"\0") for row in rows), dtype=dtype)


@functools.cache
def _render_tables() -> dict:
    """The lookup tables of :func:`_render_block`, made on its first call."""
    hi, lo = np.array([_pow10(k) for k in range(_E_MIN, 17 - _E_MIN)]).T
    ceil = np.where(lo > 0, np.nextafter(hi, np.inf), hi)  # smallest float >= 10**E
    # per biased exponent b: E of 2**(b - 1023), and the float where E + 1 starts
    b = np.arange(*_WINDOW)
    e = np.searchsorted(ceil, np.ldexp(1.0, b - 1023), side="right") - 1
    e_low = np.zeros(2048, dtype=np.int64)
    e_next = np.full(2048, np.inf)
    e_low[b], e_next[b] = e + _E_MIN, ceil[e + 1]
    # 10**(16 - E) for E in [_E_MIN, _E_MAX], hi in Veltkamp's halves
    k = 16 - np.arange(_E_MIN, _E_MAX + 1) - _E_MIN  # its index in hi and lo
    m, exp = np.frexp(hi[k])  # split the mantissa, which cannot overflow
    c = m * _SPLIT
    top = c - (c - m)

    w = np.arange(10000, dtype=np.int16)
    four = np.stack([w // 1000, w // 100 % 10, w // 10 % 10, w % 10], axis=1) + ord("0")
    # how many of w's four digits run up to its last nonzero one (0 for w = 0)
    kept = (w % 10 > 0).astype(np.int8) + (w % 100 > 0) + (w % 1000 > 0) + (w > 0)
    # per exponent X in [_E_MIN, _E_MAX] of the rounded number: the lead
    # digit's place after "0." (0 if not below 1), and the suffix
    xs = range(_E_MIN, _E_MAX + 1)
    fixed = [-4 <= x < 17 for x in xs]
    # sign, "0." and zeros before the lead digit's place, lead digit, point
    prefixes = [
        sign + (b"0." + b"0" * (place - 1) if place else b"").ljust(5, b"\0")
        + str(lead).encode() + (b"." if point and not place else b"\0")
        for sign in (b"\0", b"-") for place in range(5) for lead in range(10) for point in (0, 1)
    ]
    return {
        "e_low": e_low,
        "e_next": e_next,
        "hi_top": np.ldexp(top, exp),
        "hi_bottom": np.ldexp(m - top, exp),
        "lo": lo[k],
        "four": four.astype(np.uint8).view(np.uint32).reshape(-1),
        # digits after the lead one up to the last nonzero one, by word j
        "last": [np.where(kept > 0, 4 * j + kept, 0).astype(np.int8) for j in range(4)],
        # word j masked to the first f digits after the lead one
        "masks": [
            _words([b"\xff" * min(max(f - 4 * j, 0), 4) for f in range(17)], np.uint32)
            for j in range(4)
        ],
        "place": np.array([-x if f and x < 0 else 0 for x, f in zip(xs, fixed)]),
        "suffix": _words([b"\0" * 5 + b", " if f else b"e%+03d, " % x for x, f in zip(xs, fixed)]),
        "prefix": _words(prefixes),
    }


def _percent(values: np.ndarray) -> str:
    """``%.17g`` of each value, each followed by ``, ``, from one ``%`` call."""
    return "%.17g, " * values.size % tuple(values.tolist())


def _render_block(x: np.ndarray) -> str:
    """One block of numbers as ``%.17g`` text, each followed by ``, ``.

    All zeros (``-0.0`` too) are written ``0``; a block with any element
    the numpy pass cannot settle is one ``%`` call; numpy writes the rest.
    """
    a = np.abs(x)
    zero = a == 0.0
    if zero.all():
        return "0, " * x.size
    fast = ((a.view(np.int64) >> 52) - _WINDOW[0]).view(np.uint64) < _WINDOW[1] - _WINDOW[0]
    if not (fast | zero).all():  # + 0.0 maps -0.0 to 0.0
        return _percent(x + 0.0)
    t = _render_tables()
    np.copyto(a, 1.0, where=zero)  # zeros run as 1.0
    b = a.view(np.int64) >> 52

    i = t["e_low"][b] + (a >= t["e_next"][b]) - _E_MIN  # E - _E_MIN, E = floor(log10 |x|)
    hi_top, hi_bottom, lo = t["hi_top"][i], t["hi_bottom"][i], t["lo"][i]
    # Dekker's product: p + err == |x| * hi exactly
    c = a * _SPLIT
    a_top = c - (c - a)
    a_bottom = a - a_top
    p = a * (hi_top + hi_bottom)
    err = ((a_top * hi_top - p) + a_top * hi_bottom + a_bottom * hi_top) + a_bottom * hi_bottom
    r = err + a * lo
    nearest = np.rint(r)
    if (np.abs(np.abs(r - nearest) - 0.5) < _TIE_MARGIN).any():  # near a rounding tie
        return _percent(x + 0.0)
    n = p.astype(np.int64) + nearest.astype(np.int64)
    up = n == 10**17
    n[up] = 10**16
    i += up

    high = n // 10**8
    low = (n - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10**8
    high -= lead * 10**8
    lead[zero] = 0
    w0 = high // 10**4
    w2 = low // 10**4
    words = (w0, high - w0 * 10**4, w2, low - w2 * 10**4)  # 4 digits each
    # digits to keep after the lead one: up to the last nonzero one
    last = t["last"]
    digits = np.maximum(
        np.maximum(last[0].take(words[0]), last[1].take(words[1])),
        np.maximum(last[2].take(words[2]), last[3].take(words[3])),
    )
    point = digits > 0

    # slot: sign, prefix (5 bytes), lead digit, point | 16 digits | suffix
    out = np.empty((x.size, 4), dtype=np.uint64)
    out[:, 0] = t["prefix"].take((((x < 0) * 5 + t["place"].take(i)) * 10 + lead) * 2 + point)
    quads = out.view(np.uint32)
    for j in range(4):
        quads[:, 2 + j] = t["four"].take(words[j]) & t["masks"][j].take(digits)
    out[:, 3] = t["suffix"].take(i)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def render_object(pairs) -> str:
    """JSON object from (key, value) pairs, order preserved.

    A ``str`` value is JSON text and is emitted as it is; a list, tuple or
    array is rendered by :func:`render_number_array`, anything else by
    :func:`render_number`.  The pieces, array blocks included, are joined
    once, so the document is copied once.
    """
    pieces = []
    for key, value in pairs:
        pieces.append(f', "{key}": ' if pieces else f'{{"{key}": ')
        if isinstance(value, str):
            pieces.append(value)
        elif isinstance(value, (list, tuple, np.ndarray)):
            pieces += _array_pieces(value)
        else:
            pieces.append(render_number(value))
    pieces.append("}" if pieces else "{}")
    return "".join(pieces)


def dump_matrix(m: np.ndarray) -> str:
    """Serialize a 2-D array to the shared matrix format.

    A non-finite or empty matrix, which :func:`load_matrix` would reject,
    raises :class:`ValidationError` (:func:`linalg.as_matrix`).
    """
    return _dump_complex(as_matrix(m), "rows", "cols")


def _dump_complex(m: np.ndarray, rows_key: str, cols_key: str) -> str:
    flat = m.reshape(-1)
    return render_object(
        [(rows_key, m.shape[0]), (cols_key, m.shape[1]), ("re", flat.real), ("im", flat.imag)]
    )


def parse_json(text: str | bytes, what: str = "JSON"):
    """Parse JSON text; ``bytes`` are decoded as UTF-8 first.

    Every way the text can fail raises :class:`ValidationError` naming
    ``what``: a syntax error, bytes that are not UTF-8, an integer longer
    than Python converts (4300 digits by default), and nesting deeper than
    the recursion limit.
    """
    # JSONDecodeError and UnicodeDecodeError are both ValueErrors
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid {what}: {exc}") from exc


def _number_list(obj: dict, key: str, count: int) -> np.ndarray:
    if key not in obj:
        raise ValidationError(f'missing key "{key}"')
    values = obj[key]
    # one pass over the element types; bool, str, None and lists are rejected
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ValidationError(f'"{key}" must be an array of numbers')
    if len(values) != count:
        raise ValidationError(f'"{key}" must hold {count} numbers, got {len(values)}')
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise ValidationError(f'"{key}" holds an integer too large for a float') from exc


def _positive_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise ValidationError(f'missing key "{key}"')
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f'"{key}" must be a positive integer')
    return value


def _load_complex(text: str | bytes, rows_key: str, cols_key: str) -> np.ndarray:
    try:
        obj = orjson.loads(text)
        # only the four checked keys: orjson has no nesting limit, so an
        # ignored extra key could hold nesting that json rejects
        if isinstance(obj, dict) and obj.keys() == {rows_key, cols_key, "re", "im"}:
            return _complex_from(obj, rows_key, cols_key)
    except ValueError:  # orjson's JSONDecodeError and ValidationError alike
        pass
    return _complex_from(parse_json(text), rows_key, cols_key)


def _complex_from(obj, rows_key: str, cols_key: str) -> np.ndarray:
    """The complex array a parsed matrix or state document describes."""
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object at the top level")
    rows = _positive_int(obj, rows_key)
    cols = _positive_int(obj, cols_key)
    re = _number_list(obj, "re", rows * cols)
    im = _number_list(obj, "im", rows * cols)
    # set, not computed: re + 1j * im would turn an infinite im into a NaN re,
    # with a RuntimeWarning, and a -0.0 re into 0.0
    z = np.empty(rows * cols, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z.reshape(rows, cols)


def load_matrix(text: str | bytes) -> np.ndarray:
    """Parse the shared matrix format (text or UTF-8 bytes) to a complex array."""
    return _load_complex(text, "rows", "cols")


def dump_state(state: BipartitePureState) -> str:
    """Serialize a bipartite pure state, row-major over (system, surroundings)."""
    return _dump_complex(state.amplitudes, "dim_a", "dim_b")


def load_state(text: str | bytes) -> BipartitePureState:
    """Parse the state format (text or UTF-8 bytes).

    Normalization is validated on construction.
    """
    return BipartitePureState(_load_complex(text, "dim_a", "dim_b"))


def report_fields(report: ThermalReport) -> list[tuple[str, str | None, object]]:
    """The fields of one report, in the documented key order.

    Each is ``(JSON key, CSV quantity, value)``; the CSV quantity is the
    stem of one row per entry for an array, and None for a JSON-only field.
    """
    return [
        ("beta", None, report.beta),
        ("observable_name", None, json.dumps(report.observable_name)),
        ("trace_average", "trace_average", report.trace_average),
        ("doubled_expectation", "doubled_expectation", report.doubled_expectation),
        ("residual", "residual", report.residual),
        ("entropy", "entropy", report.entropy),
        ("schmidt_coefficients", "schmidt_coefficient", report.schmidt_coefficients),
    ]

