import contextlib
import json
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermofield import serialize
from thermofield.bipartite import BipartitePureState
from thermofield.errors import ValidationError
from thermofield.bipartite import schmidt_coefficients
from thermofield.models import (
    build_ising,
    build_observable,
    random_bipartite_state,
    random_complex_matrix,
    standard_normals,
)
from thermofield.serialize import (
    dump_matrix,
    dump_state,
    load_matrix,
    load_state,
    parse_json,
    render_number,
    render_number_array,
    render_object,
    report_fields,
)
from thermofield.thermal import ThermalReport, thermofield_double, verify_equivalence


class TestRenderNumber:
    def test_exact_round_trip(self):
        values = list(standard_normals(301, 50))
        values += [0.0, 1.0, -1.0, 1e-300, 1e300, 2.0 / 3.0, math.pi]
        for x in values:
            assert float(render_number(x)) == x

    def test_compact_integers(self):
        assert render_number(0.0) == "0"
        assert render_number(-0.0) == "0"
        assert render_number(1.0) == "1"
        assert render_number(-3.0) == "-3"

    def test_valid_json_tokens(self):
        for x in (1e-300, 2.0 / 3.0, -1234.5):
            assert json.loads(render_number(x)) == x

    def test_array_matches_per_number_rendering(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308,
                  1.0, -1.0, 3.0, 2.0**53, -(2.0**60), 2.0 / 3.0, math.pi]
        values += list(standard_normals(303, 64))
        want = "[" + ", ".join(render_number(x) for x in values) + "]"
        assert render_number_array(np.array(values)) == want
        assert render_number_array(values) == want
        assert render_number_array(np.array([])) == "[]"

    ZEROS = st.sampled_from([0.0, -0.0])
    EDGES = st.sampled_from([5e-324, -5e-324, 1e-310, -2.2250738585072009e-308, 1e308, -1e308])
    ENTRIES = st.one_of(ZEROS, EDGES, st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        values=st.one_of(
            *(st.lists(entries, max_size=40) for entries in (st.just(0.0), st.just(-0.0), ZEROS)),
            st.lists(ENTRIES, max_size=40),
        )
    )
    def test_property_array_matches_per_entry_format(self, values):
        # all 0.0, all -0.0 and mixed zeros take the unformatted path, the rest the % path
        want = "[" + ", ".join("%.17g" % (x + 0.0) for x in values) + "]"
        assert render_number_array(np.array(values, dtype=np.float64)) == want


def per_entry(values) -> str:
    """The reference rendering: one ``%`` call per element."""
    return "[" + ", ".join("%.17g" % (x + 0.0) for x in np.asarray(values, dtype=np.float64)) + "]"


def as_bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def below_power_of_ten(k: int) -> float:
    """The largest float below ``10**k``."""
    x = float(Decimal(10) ** k)
    while Decimal(x) >= Decimal(10) ** k:
        x = math.nextafter(x, 0.0)
    return x


def with_neighbours(values) -> list[float]:
    """Each value and the floats just below and above it."""
    return [y for x in values for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]


POWERS_AND_NEIGHBOURS = with_neighbours(float(f"1e{k}") for k in range(-323, 309))
# the floats below a power of ten that 17 significant digits round up to it
ROUND_UP = [
    x for k, x in ((k, below_power_of_ten(k)) for k in range(-323, 309))
    if Decimal("%.17g" % x) == Decimal(10) ** k
]
WINDOW_EDGES = with_neighbours(math.ldexp(1.0, b - 1023) for b in serialize._WINDOW)


class TestRenderArray:
    """``render_number_array`` against one ``%`` call per element."""

    def test_round_up_examples_exist(self):
        assert len(ROUND_UP) >= 10

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bits=st.integers(0, 3000).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n)))
    @example(bits=as_bits(POWERS_AND_NEIGHBOURS))
    @example(bits=as_bits(ROUND_UP + [-x for x in ROUND_UP]))
    @example(bits=as_bits(with_neighbours([1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e-4, -1e16, -1e17])))
    @example(bits=as_bits([
        5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2),
    ]))
    @example(bits=as_bits(WINDOW_EDGES + [-x for x in WINDOW_EDGES]))
    # exact ties at 17 digits, and integers whose point is moved
    @example(bits=as_bits([
        2.0**-25, 2200000000000000.25, 700000000000000.125,
        12.5, 1234.0, 100.0, 10.25, 123456789012345.6, 1e15 + 0.5, 9999999999999998.0,
    ]))
    def test_property_bit_patterns(self, bits):
        values = np.frombuffer(bits[: len(bits) // 8 * 8], dtype=np.float64)
        values = values[np.isfinite(values)]
        assert render_number_array(values) == per_entry(values)

    def test_block_seams(self):
        size = 2 * serialize._BLOCK + 5
        decades = np.repeat(np.arange(-25, 25), size // 50 + 1)[:size]
        values = standard_normals(305, size) * 10.0**decades
        # a zero, a negative zero, a negative and four fallback elements
        # (a 17-digit tie, a subnormal, one above the window, a non-finite)
        special = [0.0, -0.0, -0.5, 2.0**-25, 5e-324, 1e300, math.inf]
        for seam in (0, serialize._BLOCK, 2 * serialize._BLOCK):
            for offset, x in zip((-3, -2, -1, 0, 1, 2, 3), special):
                values[(seam + offset) % size] = x
        values[-1] = -2.0**-25
        assert render_number_array(values) == per_entry(values)

    @staticmethod
    def count_fallback(monkeypatch) -> list[int]:
        """The sizes of the arrays handed to ``%``, recorded as they come."""
        calls = []
        percent = serialize._percent

        def record(values):
            calls.append(values.size)
            return percent(values)

        monkeypatch.setattr(serialize, "_percent", record)
        return calls

    def test_block_out_of_window_takes_one_percent_call(self, monkeypatch):
        # no element in the fast window (zeros, -0.0, numbers >= 8, subnormals,
        # non-finite): each block, zeros included, is one % call
        calls = self.count_fallback(monkeypatch)
        size = 2 * serialize._BLOCK + 5
        values = 8.0 + np.abs(standard_normals(306, size)) * 10.0 ** (np.arange(size) % 300)
        values[::7] = 0.0
        values[3::7] = -0.0
        values[5::11] *= -1.0
        values[:4] = [5e-324, -1e-310, math.inf, -math.nan]
        assert render_number_array(values) == per_entry(values)
        assert calls == [serialize._BLOCK, serialize._BLOCK, 5]

    def test_fallback_formats_each_element(self, monkeypatch):
        # one element the numpy pass cannot settle sends the whole block to
        # one % call: here out-of-window and non-finite ones, or a lone
        # 17-digit tie among numbers inside the window
        calls = self.count_fallback(monkeypatch)
        for values in (
            [1e-300, 0.5, -math.inf, 2.0**-25, 1e300],
            [0.5, -0.25, 0.0, 2.0**-25, 0.1, -0.0, 3.0],
        ):
            calls.clear()
            assert render_number_array(np.array(values)) == per_entry(values)
            assert calls == [len(values)]

    def test_guard_random_state_takes_no_fallback(self, monkeypatch):
        # no element of the arrays the CLI writes in bulk is formatted by %:
        # state amplitudes and Schmidt coefficients all lie within the window
        calls = self.count_fallback(monkeypatch)
        ising = build_ising(9, 0.9, 1.1)
        double = thermofield_double(ising, 0.5)
        product = np.zeros((2, 3))
        product[1, 2] = 1.0
        states = (random_bipartite_state(64, 64, seed=1401), double, BipartitePureState(product))
        for state in states:
            text = dump_state(state)
            flat = state.amplitudes.reshape(-1)
            assert text.endswith(f'"re": {per_entry(flat.real)}, "im": {per_entry(flat.imag)}}}')
        tfd = schmidt_coefficients(double)
        report = verify_equivalence(ising, 0.5, build_observable("energy", ising))
        for coefficients, fields in (
            (tfd, [("schmidt_coefficients", "schmidt_coefficient", tfd)]),
            (report.schmidt_coefficients, report_fields(report)),
        ):
            text = render_object((key, value) for key, _, value in fields)
            assert text.endswith(f'"schmidt_coefficients": {per_entry(coefficients)}}}')
        assert calls == []


class TestMatrixFormat:
    def test_round_trip_bit_exact(self):
        m = random_complex_matrix(3, 4, seed=302)
        again = load_matrix(dump_matrix(m))
        np.testing.assert_array_equal(again, m)

    def test_layout_row_major(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        obj = json.loads(dump_matrix(m))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["re"] == [1.0, 2.0, 3.0, 4.0]
        assert obj["im"] == [0.0, 0.0, 0.0, 0.0]

    def test_rejects_bad_json(self):
        with pytest.raises(ValidationError):
            load_matrix("{not json")

    def test_rejects_missing_key(self):
        with pytest.raises(ValidationError):
            load_matrix('{"rows": 1, "cols": 1, "re": [0.0]}')

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            load_matrix('{"rows": 2, "cols": 2, "re": [1, 2, 3], "im": [0, 0, 0, 0]}')

    def test_rejects_non_numbers(self):
        for bad in ('"x"', "true", "null", "[1]", "{}"):
            with pytest.raises(ValidationError, match="array of numbers"):
                load_matrix('{"rows": 1, "cols": 1, "re": [%s], "im": [0]}' % bad)

    def test_rejects_integer_too_large_for_float(self):
        with pytest.raises(ValidationError, match="too large"):
            load_matrix('{"rows": 1, "cols": 1, "re": [1' + "0" * 400 + '], "im": [0]}')

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            load_matrix('{"rows": 0, "cols": 1, "re": [], "im": []}')

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError, match="^expected a JSON object at the top level$"):
            load_matrix(b"[]")

    def test_dump_refuses_what_load_rejects(self):
        # non-finite entries would be written nan/inf, an empty side "rows": 0
        for m, message in (
            ([[np.nan, 0.0], [0.0, 1.0]], "entries must be finite"),
            ([[1.0, np.inf], [1e400, 0.0]], "entries must be finite"),
            ([[1.0, complex(0.0, np.inf)]], "entries must be finite"),
            (np.zeros((0, 3)), r"dimensions must be positive, got \(0, 3\)"),
            (np.zeros(3), "expected a 2-D matrix, got ndim=1"),
        ):
            with pytest.raises(ValidationError, match=message):
                dump_matrix(np.array(m))


class TestStateFormat:
    def test_round_trip_bit_exact(self):
        state = random_bipartite_state(3, 5, seed=303)
        again = load_state(dump_state(state))
        np.testing.assert_array_equal(again.amplitudes, state.amplitudes)
        assert (again.dim_a, again.dim_b) == (3, 5)

    def test_rejects_norm_violation(self):
        with pytest.raises(ValidationError):
            load_state('{"dim_a": 1, "dim_b": 2, "re": [1.0, 1.0], "im": [0, 0]}')

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            load_state('{"dim_a": 2, "dim_b": 2, "re": [1.0], "im": [0.0]}')


class TestReportFormat:
    def make_report(self):
        return ThermalReport(
            beta=0.25,
            observable_name="energy",
            trace_average=1.5,
            doubled_expectation=1.5 + 1e-13,
            schmidt_coefficients=np.array([0.9, math.sqrt(1.0 - 0.81)]),
        )

    @staticmethod
    def render(report):
        return render_object((key, value) for key, _, value in report_fields(report))

    def test_key_order_fixed(self):
        text = self.render(self.make_report())
        pairs = json.loads(text, object_pairs_hook=list)
        assert [k for k, _ in pairs] == [
            "beta",
            "observable_name",
            "trace_average",
            "doubled_expectation",
            "residual",
            "entropy",
            "schmidt_coefficients",
        ]

    def test_numbers_round_trip(self):
        report = self.make_report()
        obj = json.loads(self.render(report))
        assert obj["beta"] == report.beta
        assert obj["doubled_expectation"] == report.doubled_expectation
        assert obj["schmidt_coefficients"] == list(report.schmidt_coefficients)

    def test_deterministic_bytes(self):
        report = self.make_report()
        assert self.render(report) == self.render(report)


# Canonical documents of both array formats; the matrix holds integers,
# extremes and a -0.0 that is written 0.
CANONICAL = {
    "matrix": dump_matrix(
        np.array([[0.1, -2.5e-300 + 1j], [1e300 - 0.0j, 3.0 + 2.0 / 3.0j]])
    ).encode(),
    "state": dump_state(random_bipartite_state(2, 2, seed=304)).encode(),
}
NUMBER_TOKEN = re.compile(rb"-?\d[\d.eE+-]*")
# numbers json reads and orjson rejects or reads otherwise, and numbers
# neither accepts
HAZARD_NUMBERS = [
    "NaN", "Infinity", "-Infinity", "1e400", "1_0", "01", "-0", "true",
    "1" + "0" * 400, "18446744073709551616",
]
DOCUMENT_EDITS = {
    "none": lambda t: t,
    "duplicate_key_kept": lambda t: t.replace(b"{", b'{"im": [7, 7, 7, 7], ', 1),
    "duplicate_key_last": lambda t: t[:-1] + b', "rows": 1}',
    "bom": lambda t: b"\xef\xbb\xbf" + t,
    "crlf": lambda t: t.replace(b", ", b",\r\n") + b"\r\n",
    "trailing_garbage": lambda t: t + b" x",
    "escaped_lone_surrogate": lambda t: t[:-1] + b', "\\ud800": 0}',
    "raw_lone_surrogate": lambda t: t.decode()[:-1] + ', "\udcff": 0}',
    "nested_500": lambda t: t[:-1] + b', "x": ' + b"[" * 500 + b"]" * 500 + b"}",
    "deep": lambda t: t[:-1] + b', "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}
BYTES = st.one_of(st.sampled_from(list(b'0123456789-+.eE,[]{}": \t\r\n\x00\xff')), st.integers(0, 255))
EDITS = st.one_of(
    st.tuples(st.sampled_from(["replace", "insert"]), st.integers(0, 10**4), BYTES),
    st.tuples(st.just("drop"), st.integers(0, 10**4)),
    st.tuples(st.just("number"), st.integers(0, 10**4), st.sampled_from(HAZARD_NUMBERS)),
    st.tuples(st.just("document"), st.sampled_from(sorted(DOCUMENT_EDITS))),
)


def mutate(text: bytes, edit: tuple) -> bytes | str:
    """``text`` with one edit: a byte replaced, inserted or dropped, one number
    swapped for a token, or one of ``DOCUMENT_EDITS``."""
    kind, *args = edit
    if kind == "document":
        return DOCUMENT_EDITS[args[0]](text)
    if kind == "number":
        spans = [m.span() for m in NUMBER_TOKEN.finditer(text)]
        start, end = spans[args[0] % len(spans)]
        return text[:start] + args[1].encode() + text[end:]
    at = args[0] % len(text)
    rest = text[at + 1:] if kind in ("replace", "drop") else text[at:]
    return text[:at] + (bytes([args[1]]) if kind != "drop" else b"") + rest


def hazard_examples(test):
    """One ``@example`` per hazard: each number token in place of an "re"
    entry and of "rows", and each document edit, on both formats."""
    edits = [("number", at, token) for token in HAZARD_NUMBERS for at in (0, 2)]
    edits += [("document", name) for name in DOCUMENT_EDITS]
    for fmt in sorted(CANONICAL):
        for edit in edits:
            test = example(fmt=fmt, edit=edit)(test)
    return test


def json_outcome(load, text):
    """The bits ``load`` gives, or the message it raises, as a comparable value."""
    try:
        return load(text).view(np.uint64).tolist()
    except ValidationError as exc:
        return str(exc)


REFERENCE = {  # the loaders as they read with json alone
    "matrix": (load_matrix, lambda t: serialize._complex_from(parse_json(t), "rows", "cols")),
    "state": (
        lambda t: load_state(t).amplitudes,
        lambda t: BipartitePureState(
            serialize._complex_from(parse_json(t), "dim_a", "dim_b")
        ).amplitudes,
    ),
}


class TestFastParse:
    """The array formats are parsed by orjson and must read as json reads them."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(fmt=st.sampled_from(sorted(CANONICAL)), edit=EDITS)
    @hazard_examples
    @example(fmt="matrix", edit=("drop", 0))
    @example(fmt="matrix", edit=("insert", 0, 0x20))
    @example(fmt="matrix", edit=("replace", 0, 0x5B))
    def test_property_mutated_text_reads_as_json_reads_it(self, fmt, edit):
        data = mutate(CANONICAL[fmt], edit)
        load, reference = REFERENCE[fmt]
        texts = [data]
        if isinstance(data, bytes):
            with contextlib.suppress(UnicodeDecodeError):
                texts.append(data.decode())
        for text in texts:
            assert json_outcome(load, text) == json_outcome(reference, text)

    def test_guard_canonical_documents_skip_json(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called on a canonical document")

        m = random_complex_matrix(5, 3, seed=305)
        state = random_bipartite_state(4, 6, seed=306)
        matrix_text, state_text = dump_matrix(m), dump_state(state)
        monkeypatch.setattr(serialize.json, "loads", refuse)
        for text in (matrix_text, matrix_text.encode()):
            np.testing.assert_array_equal(load_matrix(text), m)
        for text in (state_text, state_text.encode()):
            np.testing.assert_array_equal(load_state(text).amplitudes, state.amplitudes)
