"""JSON file formats shared by the library and the CLI.

All numbers are rendered with 17 significant digits so float64 values
round-trip bit-stably, and every object is emitted with a fixed key order,
making whole documents byte-reproducible.  Three flat schemas:

* matrix:  ``{"rows": R, "cols": C, "re": [R*C], "im": [R*C]}`` row-major
* state:   ``{"dim_a": dA, "dim_b": dB, "re": [dA*dB], "im": [dA*dB]}``
* report:  ``{"beta", "observable_name", "trace_average",
  "doubled_expectation", "residual", "entropy", "schmidt_coefficients"}``
  in exactly that key order.
"""

from __future__ import annotations

import json

import numpy as np

from .bipartite import BipartitePureState
from .errors import ValidationError
from .thermal import ThermalReport

__all__ = [
    "render_number",
    "render_number_array",
    "render_object",
    "dump_matrix",
    "load_matrix",
    "dump_state",
    "load_state",
    "dump_report",
]


def render_number(x) -> str:
    """One JSON number with 17 significant digits."""
    return f"{float(x):.17g}"


def render_number_array(values) -> str:
    return "[" + ", ".join(render_number(x) for x in values) + "]"


def render_object(pairs) -> str:
    """JSON object from (key, pre-rendered value) pairs, order preserved."""
    return "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}"


def dump_matrix(m: np.ndarray) -> str:
    """Serialize a 2-D complex array to the shared matrix format."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    flat = m.reshape(-1)
    return render_object(
        [
            ("rows", str(m.shape[0])),
            ("cols", str(m.shape[1])),
            ("re", render_number_array(flat.real)),
            ("im", render_number_array(flat.imag)),
        ]
    )


def _parse_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object at the top level")
    return obj


def _number_list(obj: dict, key: str, count: int) -> np.ndarray:
    if key not in obj:
        raise ValidationError(f'missing key "{key}"')
    values = obj[key]
    if not isinstance(values, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in values
    ):
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


def load_matrix(text: str) -> np.ndarray:
    """Parse the shared matrix format to a complex array."""
    obj = _parse_json(text)
    rows = _positive_int(obj, "rows")
    cols = _positive_int(obj, "cols")
    re = _number_list(obj, "re", rows * cols)
    im = _number_list(obj, "im", rows * cols)
    return (re + 1j * im).reshape(rows, cols)


def dump_state(state: BipartitePureState) -> str:
    """Serialize a bipartite pure state, row-major over (system, surroundings)."""
    flat = state.amplitudes.reshape(-1)
    return render_object(
        [
            ("dim_a", str(state.dim_a)),
            ("dim_b", str(state.dim_b)),
            ("re", render_number_array(flat.real)),
            ("im", render_number_array(flat.imag)),
        ]
    )


def load_state(text: str) -> BipartitePureState:
    """Parse the state format; normalization is validated on construction."""
    obj = _parse_json(text)
    dim_a = _positive_int(obj, "dim_a")
    dim_b = _positive_int(obj, "dim_b")
    re = _number_list(obj, "re", dim_a * dim_b)
    im = _number_list(obj, "im", dim_a * dim_b)
    return BipartitePureState((re + 1j * im).reshape(dim_a, dim_b))


def dump_report(report: ThermalReport) -> str:
    """Serialize one equivalence report with the documented key order."""
    return render_object(
        [
            ("beta", render_number(report.beta)),
            ("observable_name", json.dumps(report.observable_name)),
            ("trace_average", render_number(report.trace_average)),
            ("doubled_expectation", render_number(report.doubled_expectation)),
            ("residual", render_number(report.residual)),
            ("entropy", render_number(report.entropy)),
            ("schmidt_coefficients", render_number_array(report.schmidt_coefficients)),
        ]
    )
