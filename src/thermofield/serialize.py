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

import json

import numpy as np
import orjson

from .bipartite import BipartitePureState
from .errors import ValidationError
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
    "dump_report",
]


def render_number(x) -> str:
    """One JSON number with 17 significant digits; ``-0.0`` is written ``0``."""
    return f"{float(x) + 0.0:.17g}"  # + 0.0 maps -0.0 to +0.0


def render_number_array(values) -> str:
    """JSON array of numbers, each rendered as by :func:`render_number`.

    One ``%`` format call over the whole list; ``"%.17g" % x`` and
    ``f"{x:.17g}"`` give the same bytes for every float.  An array of zeros
    (the imaginary half of a real state) is written without formatting.
    """
    numbers = np.asarray(values, dtype=np.float64)
    if not numbers.any():  # -0.0 counts as zero and is written 0 all the same
        return "[" + ", ".join(["0"] * numbers.size) + "]"
    numbers = (numbers + 0.0).tolist()
    return "[" + ", ".join(["%.17g"] * len(numbers)) % tuple(numbers) + "]"


def render_object(pairs) -> str:
    """JSON object from (key, value) pairs, order preserved.

    A ``str`` value is JSON text and is emitted as it is; a list, tuple or
    array is rendered by :func:`render_number_array`, anything else by
    :func:`render_number`.
    """
    return "{" + ", ".join(f'"{k}": {_render_value(v)}' for k, v in pairs) + "}"


def _render_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return render_number_array(value)
    return render_number(value)


def dump_matrix(m: np.ndarray) -> str:
    """Serialize a 2-D complex array to the shared matrix format."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return _dump_complex(m, "rows", "cols")


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


def dump_report(report: ThermalReport) -> str:
    """Serialize one equivalence report with the documented key order."""
    return render_object((key, value) for key, _, value in report_fields(report))
