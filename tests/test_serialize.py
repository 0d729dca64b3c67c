import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofield.errors import ValidationError
from thermofield.models import random_bipartite_state, random_complex_matrix, standard_normals
from thermofield.serialize import (
    dump_matrix,
    dump_report,
    dump_state,
    load_matrix,
    load_state,
    render_number,
    render_number_array,
)
from thermofield.thermal import ThermalReport


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

    def test_key_order_fixed(self):
        text = dump_report(self.make_report())
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
        obj = json.loads(dump_report(report))
        assert obj["beta"] == report.beta
        assert obj["doubled_expectation"] == report.doubled_expectation
        assert obj["schmidt_coefficients"] == list(report.schmidt_coefficients)

    def test_deterministic_bytes(self):
        report = self.make_report()
        assert dump_report(report) == dump_report(report)
